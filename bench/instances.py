"""Seeded inputs for the benchmark workloads.

The generator is a copy of the targeted-beta construction, kept here so that
edits to the test suite cannot change the benchmark's traffic: a_i = beta_i
a_I + w_i with the noise w_i C-orthogonal to a_I and summing to zero across
traders, so the requested betas are exact while the hedge portfolios stay
generic.  Only numpy is used; nothing here imports thinmarket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The worked example from the README, with the incompleteness block enabled.
README_SCENARIO = {
    "schema_version": "1",
    "securities_cov": [[1.0]],
    "traders": [
        {"delta": 1.0, "cov_es": [1.2], "endowment_mean": 0.5, "endowment_var": 2.0},
        {"delta": 1.0, "cov_es": [-0.2], "endowment_mean": 0.0, "endowment_var": 1.5},
    ],
    "total_endowment_var": 3.0,
}
# Trader 0's risk tolerance at which the README market sits exactly on the
# extreme-regime boundary: lam0 b0 - lam1 b1 = lam0 + lam1.  Kept in the
# traffic on purpose; see KNOWN_DEFECT.
README_BOUNDARY_DELTA = 4.0
KNOWN_DEFECT = "README scenario at delta_0 = 4.0 (extreme-regime boundary)"

SWEEP_POINTS = 2048
SOLVE_TRADERS = 2000
SOLVE_SECURITIES = 5
SOLVE_MARKETS = 4

# Independent random streams per workload, so adding one workload does not
# shift another's inputs.
_STREAM = {"analyze_cold": 1, "sweep_bilateral": 2, "solve_large": 3}


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM[workload]])


@dataclass(frozen=True)
class Market:
    """Raw inputs of one market: the arrays a scenario file holds."""

    cov: np.ndarray  # (k, k) securities covariance
    deltas: np.ndarray  # (n,) risk tolerances
    cov_rows: np.ndarray  # (n, k) Cov(E_i, S)
    means: np.ndarray
    variances: np.ndarray
    total_var: float | None = None

    def scenario(self) -> dict:
        doc = {
            "schema_version": "1",
            "securities_cov": self.cov.tolist(),
            "traders": [
                {
                    "delta": float(d),
                    "cov_es": row.tolist(),
                    "endowment_mean": float(m),
                    "endowment_var": float(v),
                }
                for d, row, m, v in zip(self.deltas, self.cov_rows, self.means, self.variances)
            ],
        }
        if self.total_var is not None:
            doc["total_endowment_var"] = float(self.total_var)
        return doc


def market_from_scenario(doc: dict) -> Market:
    traders = doc["traders"]
    return Market(
        cov=np.array(doc["securities_cov"], dtype=float),
        deltas=np.array([t["delta"] for t in traders], dtype=float),
        cov_rows=np.array([t["cov_es"] for t in traders], dtype=float),
        means=np.array([t.get("endowment_mean", 0.0) for t in traders], dtype=float),
        variances=np.array([t.get("endowment_var", 0.0) for t in traders], dtype=float),
        total_var=doc.get("total_endowment_var"),
    )


def spd_matrix(rng, k: int) -> np.ndarray:
    g = rng.normal(size=(k, k))
    return g @ g.T + (0.4 + 0.1 * k) * np.eye(k)


def targeted_market(rng, betas, deltas, k: int, cov=None, direction=None, noise=0.5) -> Market:
    """Market whose projected betas are exactly `betas` (which sum to one).

    `cov` and `direction`, when given, fix the securities covariance and the
    direction of the aggregate hedge portfolio a_I instead of drawing them.
    """
    betas = np.asarray(betas, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    if abs(betas.sum() - 1.0) > 1e-9:
        raise ValueError("betas must sum to one")
    n = betas.size
    market_variance = float(rng.uniform(0.3, 3.0))
    cov = spd_matrix(rng, k) if cov is None else cov
    raw = rng.normal(size=k) if direction is None else np.asarray(direction, dtype=float)
    a_total = raw / math.sqrt(raw @ cov @ raw) * math.sqrt(market_variance)
    w = rng.normal(size=(n, k)) * noise
    w -= np.outer(w @ (cov @ a_total) / market_variance, a_total)
    w -= w.mean(axis=0)
    a = betas[:, None] * a_total + w
    cov_rows = a @ cov
    own = np.einsum("ij,ij->i", a, cov_rows)
    return Market(
        cov=cov,
        deltas=deltas,
        cov_rows=cov_rows,
        means=rng.normal(size=n),
        variances=own * (1.0 + rng.uniform(0.0, 1.0, size=n)),
    )


def projected_betas(market: Market) -> np.ndarray:
    """beta_i = <a_I, C a_i> / <a_I, C a_I> with C a_i = Cov(E_i, S)."""
    a_total = np.linalg.solve(market.cov, market.cov_rows.sum(axis=0))
    market_cov = market.cov_rows @ a_total
    return market_cov / float(market_cov.sum())


def extreme_leader(deltas, betas) -> int | None:
    """Trader k with beta_k >= 1 + sum_{j != k} delta_j (1 + beta_j)_+ / delta_k."""
    plus = np.maximum(deltas * (1.0 + betas), 0.0)
    hits = np.flatnonzero(betas >= 1.0 + (plus.sum() - plus) / deltas)
    return int(hits[0]) if hits.size else None


# --- analyze_cold ----------------------------------------------------------


@dataclass(frozen=True)
class AnalyzeCase:
    name: str
    scenario: dict
    kinds: tuple[str, ...]  # Nash kinds the report may carry
    incompleteness: bool  # whether the report must carry that block
    known_defect: bool = False


def analyze_cases(seed: int) -> list[AnalyzeCase]:
    rng = rng_for("analyze_cold", seed)

    # Extreme: one very risk-tolerant trader with a large beta; the others'
    # (1 + beta_j) delta_j stay small enough that the condition holds.
    rest = rng.uniform(-0.9, -0.3, size=3)
    betas = np.concatenate([[1.0 - rest.sum()], rest])
    deltas = np.concatenate([[rng.uniform(4.0, 8.0)], rng.uniform(0.5, 1.5, size=3)])
    extreme = targeted_market(rng, betas, deltas, k=3)
    if extreme_leader(deltas, projected_betas(extreme)) != 0:
        raise AssertionError("generator bug: extreme instance is not extreme")

    # General: ten active traders, every beta in (-1, 1], so no trader can be
    # extreme and the bisection path runs.
    u = rng.uniform(-0.4, 0.4, size=10)
    betas = 0.1 + u - u.mean()
    general = targeted_market(rng, betas, rng.uniform(0.2, 5.0, size=10), k=5)

    boundary = {**README_SCENARIO, "traders": [dict(t) for t in README_SCENARIO["traders"]]}
    boundary["traders"][0]["delta"] = README_BOUNDARY_DELTA
    return [
        AnalyzeCase("readme", README_SCENARIO, ("bilateral_closed_form",), True),
        AnalyzeCase("extreme", extreme.scenario(), ("extreme",), False),
        AnalyzeCase("general10", general.scenario(), ("general_non_extreme",), False),
        # On the boundary either closed form is a limit; the best-response
        # check decides.
        AnalyzeCase("readme_delta4", boundary, ("extreme", "bilateral_closed_form"), True,
                    known_defect=True),
    ]


# --- sweep_bilateral -------------------------------------------------------


@dataclass(frozen=True)
class SweepChunk:
    name: str
    scenario: dict
    trader: int
    field: str  # "delta" or "cov_es[J]"
    grid: tuple[float, ...]
    known_defect: bool = False

    @property
    def param(self) -> str:
        return f"{self.trader}:{self.field}"


def _log_uniform(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size=n))


def sweep_chunks(seed: int) -> list[SweepChunk]:
    """Eight sweeps of SWEEP_POINTS points: {README, two-trader k=5} x
    {0:delta, 1:cov_es[0]} x two chunks each.  Every grid crosses the
    bilateral/extreme boundary; the first README delta chunk also holds the
    exact boundary value."""
    rng = rng_for("sweep_bilateral", seed)

    # Two traders with beta_0 in (1.15, 1.6): trader 0 turns extreme once
    # delta_0 >= delta_1 (2 - beta_0) / (beta_0 - 1).  a_I points along
    # C^{-1} e_0, so moving Cov(E_1, S_0) rescales a_I without turning it, and
    # small |a_I| (large betas) is extreme while large |a_I| is bilateral.
    beta0 = rng.uniform(1.15, 1.6)
    deltas = rng.uniform(0.5, 2.0, size=2)
    k = 5
    cov = spd_matrix(rng, k)
    k5 = targeted_market(rng, [beta0, 1.0 - beta0], deltas, k, cov=cov,
                         direction=np.linalg.solve(cov, np.eye(k)[0]))
    scenarios = {"readme": README_SCENARIO, "k5": k5.scenario()}

    chunks = []
    for label, doc in scenarios.items():
        market = market_from_scenario(doc)
        d1 = float(market.deltas[1])
        # Cov(E_1, S_0) at which a_I = 0 (the trivial point), and the
        # distance of the scenario's own value from it.
        pivot = -float(market.cov_rows[0, 0])
        reach = float(market.cov_rows.sum(axis=0)[0])
        for part in "AB":
            delta_grid = np.sort(_log_uniform(rng, 0.05 * d1, 50.0 * d1, SWEEP_POINTS))
            defect = label == "readme" and part == "A"
            if defect:
                delta_grid[SWEEP_POINTS // 2] = README_BOUNDARY_DELTA
                delta_grid.sort()
            chunks.append(SweepChunk(f"{label}:0:delta:{part}", doc, 0, "delta",
                                     tuple(float(v) for v in delta_grid), known_defect=defect))
            offsets = np.sort(_log_uniform(rng, 0.1 * reach, 1.7 * reach, SWEEP_POINTS))
            chunks.append(SweepChunk(f"{label}:1:cov_es[0]:{part}", doc, 1, "cov_es[0]",
                                     tuple(float(v) for v in pivot + offsets)))
    return chunks


def apply_param(market: Market, trader: int, field: str, value: float) -> Market:
    """The market a sweep point describes (mirrors the CLI's --param)."""
    deltas, cov_rows = market.deltas.copy(), market.cov_rows.copy()
    if field == "delta":
        deltas[trader] = value
    else:
        cov_rows[trader, int(field[len("cov_es["):-1])] = value
    return Market(market.cov, deltas, cov_rows, market.means, market.variances, market.total_var)


# --- solve_large -----------------------------------------------------------


def solve_markets(seed: int) -> list[Market]:
    """General-regime markets: one leader with beta > 1 and n - 1 others with
    beta in (-1.25, 0.95), about a tenth of them passive (beta <= -1).  The
    leader's beta grows like 0.15 n while the extreme threshold grows like
    n, so no instance is extreme."""
    rng = rng_for("solve_large", seed)
    n = SOLVE_TRADERS
    markets = []
    for _ in range(SOLVE_MARKETS):
        rest = rng.uniform(-1.25, 0.95, size=n - 1)
        betas = np.concatenate([[1.0 - rest.sum()], rest])
        deltas = rng.uniform(0.2, 5.0, size=n)
        market = targeted_market(rng, betas, deltas, SOLVE_SECURITIES)
        if extreme_leader(deltas, projected_betas(market)) is not None:
            raise AssertionError("generator bug: solve_large instance is extreme")
        markets.append(market)
    return markets
