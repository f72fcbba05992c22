"""Correctness checks that do not trust the code they check.

Every Nash solution the benchmark sees is re-verified with an O(N) numpy
best-response test: each trader's elasticity must be the closed-form best
response (the three branches in `best_response`'s docstring) to the rest of
the market, whose elasticity is the total minus the trader's own.  Betas are
recomputed from the raw market inputs with numpy, so neither the solver, its
verification nor its exposure derivation is called.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import numpy as np

from instances import Market, apply_param, market_from_scenario, projected_betas

NASH_KINDS = {"extreme", "bilateral_closed_form", "general_non_extreme"}
ALL_KINDS = NASH_KINDS | {"trivial", "unsupported_regime", "validation_failed"}
# Agreement required of every finite elasticity, compared where the
# comparison is well conditioned in beta (see best_response_violations).
BR_ATOL = 1e-9
# Where a trader sits this close to a branch threshold, either branch passes.
BRANCH_TIE_RTOL = 1e-9
REPORT_KEYS = ("schema_version", "scenario", "validation", "exposures", "competitive",
               "nash", "comparison")


class CheckError(AssertionError):
    """An output of the program is wrong."""


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def best_response_violations(deltas, betas, thetas) -> list[str]:
    """Traders whose elasticity is not the best response to the others'.

    thetas holds floats with math.inf for an infinite elasticity; at most one
    entry may be infinite in a Nash equilibrium.  Branches must match
    exactly, except within BRANCH_TIE_RTOL of a branch threshold.  Finite
    values are compared as the share theta_i / (theta_i + rest) against a
    finite rest, and as theta_i / delta_i against an infinite one: both move
    at most linearly with beta, while theta_i itself has a pole at the
    extreme boundary and vanishes at beta_i = -1.
    """
    deltas, betas, thetas = (np.asarray(x, dtype=float) for x in (deltas, betas, thetas))
    infinite = np.isinf(thetas)
    n_inf = int(infinite.sum())
    if n_inf > 1:
        return [f"{n_inf} infinite elasticities"]
    finite_total = math.fsum(thetas[~infinite])
    rests = np.where(infinite, finite_total, finite_total - thetas)
    rests_infinite = (n_inf - infinite) > 0

    bad = []
    for i, (theta, delta, beta, rest, rest_infinite) in enumerate(
        zip(thetas, deltas, betas, rests, rests_infinite)
    ):
        threshold = math.inf if rest_infinite else 1.0 + rest / delta
        if min(abs(beta + 1.0), abs(beta - threshold)) <= BRANCH_TIE_RTOL * max(1.0, abs(beta)):
            continue
        if beta <= -1.0:
            want_branch = "zero"
        elif beta >= threshold:
            want_branch = "infinite"
        else:
            want_branch = "finite"
        got_branch = "zero" if theta == 0.0 else "infinite" if math.isinf(theta) else "finite"
        if got_branch != want_branch:
            bad.append(f"trader {i}: {got_branch} elasticity {theta!r}, best response is {want_branch}")
        elif got_branch == "finite":
            if rest_infinite:
                err = abs(theta / delta - (1.0 + beta))
            else:
                err = abs(theta / (theta + rest) - (1.0 + beta) / (2.0 + rest / delta))
            if err > BR_ATOL:
                bad.append(f"trader {i}: theta={theta!r} misses the best response by {err:.3g}")
    return bad


def check_nash(market: Market, thetas, shares, du, inefficiency, where: str) -> None:
    """Best-response test plus the accounting identities of one solution."""
    bad = best_response_violations(market.deltas, projected_betas(market), thetas)
    if bad:
        raise CheckError(f"{where}: not a Nash equilibrium: " + "; ".join(bad[:3]))
    if abs(math.fsum(shares) - 1.0) > 1e-9:
        raise CheckError(f"{where}: shares sum to {math.fsum(shares)!r}")
    if abs(math.fsum(du) - inefficiency) > 1e-9 * max(1.0, abs(inefficiency)):
        raise CheckError(f"{where}: inefficiency differs from the summed utility gains")


def _theta(token) -> float:
    return math.inf if token == "inf" else float(token)


def check_report(case, text: str) -> None:
    """An analyze report: required blocks, the expected kind, a verified
    equilibrium, and the scenario echoed back unchanged."""
    doc = json.loads(text)
    keys = REPORT_KEYS + (("incompleteness",) if case.incompleteness else ())
    missing = [k for k in keys if k not in doc]
    if missing:
        raise CheckError(f"{case.name}: report lacks {missing}")
    nash = doc["nash"]
    if nash["kind"] not in case.kinds:
        raise CheckError(f"{case.name}: kind {nash['kind']!r}, expected one of {case.kinds}")
    market = market_from_scenario(case.scenario)
    if not np.array_equal(market_from_scenario(doc["scenario"]).cov_rows, market.cov_rows):
        raise CheckError(f"{case.name}: report scenario differs from the input")
    comparison = doc["comparison"]
    check_nash(market, [_theta(t) for t in nash["elasticities"]], nash["k_shares"],
               comparison["du"], comparison["inefficiency"], case.name)


def check_sweep_csv(chunk, text: str) -> None:
    """One row per grid point, in order, each with a kind; every solved row
    is a verified equilibrium of the market that point describes."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    if len(body) != len(chunk.grid):
        raise CheckError(f"{chunk.name}: {len(body)} rows for {len(chunk.grid)} grid points")
    market = market_from_scenario(chunk.scenario)
    n = market.deltas.size
    col = {name: i for i, name in enumerate(header)}
    for value, row in zip(chunk.grid, body):
        where = f"{chunk.name} at {value!r}"
        if float(row[0]) != value:
            raise CheckError(f"{where}: row value {row[0]}")
        kind = row[col["kind"]]
        if kind not in ALL_KINDS:
            raise CheckError(f"{where}: unknown kind {kind!r}")
        if kind not in NASH_KINDS:
            continue
        thetas = [_theta(row[col[f"theta_{i}"]]) for i in range(n)]
        shares = [float(row[col[f"k_{i}"]]) for i in range(n)]
        du = [float(row[col[f"du_{i}"]]) for i in range(n)]
        point = apply_param(market, chunk.trader, chunk.field, value)
        check_nash(point, thetas, shares, du, float(row[col["inefficiency"]]), where)


def solution_bytes(solution, comparison) -> bytes:
    """Canonical bytes of a solve_large result, for the digest."""
    thetas = np.array([t.as_float for t in solution.elasticities])
    parts = [solution.kind.encode(), thetas.tobytes(), np.asarray(solution.outcome.prices).tobytes(),
             np.asarray(comparison.du).tobytes()]
    return b"|".join(parts)


def check_solution(market: Market, solution, comparison, where: str) -> None:
    if solution.kind != "general_non_extreme":
        raise CheckError(f"{where}: kind {solution.kind!r}, expected general_non_extreme")
    thetas = [t.as_float for t in solution.elasticities]
    check_nash(market, thetas, solution.k_shares, comparison.du, comparison.inefficiency, where)
