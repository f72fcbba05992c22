"""Market model: problem instance, validation, and derived exposure quantities.

A market instance consists of the covariance matrix of the tradeable
securities together with one profile per trader (risk tolerance, covariance of
the endowment with the securities, endowment mean and variance).  Everything
the solvers need is derived from those inputs: hedge portfolios a_i, the
aggregate a_I, projected betas, relative risk tolerances and autarky
utilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidModelError

# Positive-definiteness guard: smallest eigenvalue must exceed this fraction of
# the largest diagonal entry (scale-aware conditioning guard).
PD_EIGENVALUE_RTOL = 1e-10
SYMMETRY_RTOL = 1e-10
# a_I = 0 detection: |C^{1/2} a_I|^2 relative to the summed per-trader
# hedge-portfolio variances, with an absolute fallback when those vanish.
TRIVIAL_RTOL = 1e-12
TRIVIAL_ATOL = 1e-14
# Slack for Var(E_I) >= <a_I, C a_I> consistency.
TOTAL_VAR_SLACK = 1e-9


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TraderProfile:
    """One trader: risk tolerance and endowment statistics.

    delta is the risk tolerance (reciprocal of absolute risk aversion);
    cov_endowment_securities is Cov(E_i, S) as a vector over the securities.
    Only the endowment's mean, variance and covariance with the securities
    enter any formula, so those are the stored sufficient statistics.
    """

    delta: float
    cov_endowment_securities: np.ndarray
    endowment_mean: float = 0.0
    endowment_var: float = 0.0

    def __post_init__(self):
        cov = _frozen_array(np.atleast_1d(self.cov_endowment_securities))
        if cov.ndim != 1:
            raise ValueError("cov_endowment_securities must be a vector")
        object.__setattr__(self, "cov_endowment_securities", cov)
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "endowment_mean", float(self.endowment_mean))
        object.__setattr__(self, "endowment_var", float(self.endowment_var))


@dataclass(frozen=True)
class MarketModel:
    """Full problem instance: securities covariance plus the trader list.

    total_endowment_var (Var of the summed endowments) is optional and only
    needed for the market-incompleteness comparison.
    """

    securities_cov: np.ndarray
    traders: tuple[TraderProfile, ...]
    total_endowment_var: float | None = None

    def __post_init__(self):
        cov = np.asarray(self.securities_cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("securities_cov must be a square matrix")
        object.__setattr__(self, "securities_cov", _frozen_array(cov))
        traders = tuple(self.traders)
        if not traders:
            raise ValueError("traders must be non-empty")
        k = cov.shape[0]
        for idx, tr in enumerate(traders):
            if tr.cov_endowment_securities.shape != (k,):
                raise ValueError(
                    f"traders[{idx}].cov_endowment_securities has length "
                    f"{tr.cov_endowment_securities.shape[0]}, expected {k}"
                )
        object.__setattr__(self, "traders", traders)
        if self.total_endowment_var is not None:
            object.__setattr__(self, "total_endowment_var", float(self.total_endowment_var))
        # Per-trader inputs as read-only arrays, built once per instance.
        scalars = (
            [t.delta for t in traders],
            [t.endowment_mean for t in traders],
            [t.endowment_var for t in traders],
        )
        object.__setattr__(self, "_scalars", _frozen_array(scalars))
        object.__setattr__(
            self, "_cov_rows", _frozen_array([t.cov_endowment_securities for t in traders])
        )

    @property
    def n_traders(self) -> int:
        return len(self.traders)

    @property
    def n_securities(self) -> int:
        return self.securities_cov.shape[0]

    @property
    def deltas(self) -> np.ndarray:
        return self._scalars[0]

    @property
    def cov_matrix_rows(self) -> np.ndarray:
        """Stacked Cov(E_i, S) rows, shape (n_traders, n_securities)."""
        return self._cov_rows

    @property
    def endowment_means(self) -> np.ndarray:
        return self._scalars[1]

    @property
    def endowment_vars(self) -> np.ndarray:
        return self._scalars[2]


@dataclass(frozen=True)
class ValidationResult:
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def validate_model(model: MarketModel) -> ValidationResult:
    """Check an instance for well-posedness; returns a verdict, never raises.

    Reported violations: non-finite entries, asymmetric or non-positive-definite
    securities covariance, fewer than two traders, nonpositive risk tolerance,
    negative endowment variance, and a total endowment variance below the
    variance spanned by the securities.
    """
    violations: list[str] = []
    cov = model.securities_cov
    if not np.all(np.isfinite(cov)):
        violations.append("securities_cov has non-finite entries")
    else:
        scale = max(1.0, float(np.max(np.abs(cov))))
        if np.max(np.abs(cov - cov.T)) > SYMMETRY_RTOL * scale:
            violations.append("securities_cov is not symmetric")
        else:
            sym = 0.5 * (cov + cov.T)
            eigs = np.linalg.eigvalsh(sym)
            threshold = PD_EIGENVALUE_RTOL * max(float(np.max(np.diag(sym))), 0.0)
            if eigs[0] <= threshold:
                violations.append("securities_cov is not positive definite")

    if model.n_traders < 2:
        violations.append("at least two traders are required")
    deltas, variances = model.deltas, model.endowment_vars
    bad_delta = ~((deltas > 0.0) & (deltas < np.inf))
    bad_cov = ~np.isfinite(model.cov_matrix_rows).all(axis=1)
    bad_mean = ~np.isfinite(model.endowment_means)
    bad_var = ~((variances >= 0.0) & (variances < np.inf))
    for idx in (bad_delta | bad_cov | bad_mean | bad_var).nonzero()[0].tolist():
        if bad_delta[idx]:
            violations.append(f"traders[{idx}]: risk tolerance must be strictly positive")
        if bad_cov[idx]:
            violations.append(f"traders[{idx}]: cov_endowment_securities has non-finite entries")
        if bad_mean[idx]:
            violations.append(f"traders[{idx}]: endowment_mean must be finite")
        if bad_var[idx]:
            violations.append(f"traders[{idx}]: endowment_var must be nonnegative")

    if model.total_endowment_var is not None and not violations:
        total = model.total_endowment_var
        if not np.isfinite(total) or total < 0.0:
            violations.append("total_endowment_var must be nonnegative")
        else:
            cov_total = model.cov_matrix_rows.sum(axis=0)
            a_total = np.linalg.solve(0.5 * (cov + cov.T), cov_total)
            spanned = float(a_total @ cov_total)
            if spanned > total + TOTAL_VAR_SLACK * max(1.0, total, spanned):
                violations.append(
                    "total_endowment_var is below the variance spanned by the securities"
                )
    return ValidationResult(tuple(violations))


@dataclass(frozen=True)
class ExposureProfile:
    """Derived per-trader quantities and aggregates.

    a[i] solves C a_i = Cov(E_i, S); beta[i] is the projected beta
    <a_I, C a_i> / <a_I, C a_I> (None when the instance is trivial, a_I = 0);
    lam[i] = delta_i / delta_total; u[i] is the autarky certainty equivalent.
    cov_total is C a_I and market_cov[i] = <a_I, C a_i>; own_var[i] =
    <a_i, C a_i>.  All arrays are read-only; the profile is an immutable value.
    """

    model: MarketModel
    a: np.ndarray
    a_total: np.ndarray
    beta: np.ndarray | None
    lam: np.ndarray
    delta: np.ndarray
    delta_total: float
    u: np.ndarray
    aggregate_market_variance: float
    is_trivial: bool
    cov_total: np.ndarray
    market_cov: np.ndarray
    own_var: np.ndarray

    @property
    def n_traders(self) -> int:
        return self.model.n_traders

    @property
    def n_securities(self) -> int:
        return self.model.n_securities

    def solve_cov(self, rhs: np.ndarray) -> np.ndarray:
        """Solve C x = rhs against the symmetrized securities covariance."""
        cov = self.model.securities_cov
        return np.linalg.solve(0.5 * (cov + cov.T), np.asarray(rhs, dtype=float))


def derive_exposures(model: MarketModel) -> ExposureProfile:
    """Derive hedge portfolios, betas, relative tolerances and aggregates.

    Validates the model first and raises InvalidModelError when it is
    ill-posed.  Linear solves use np.linalg.solve on the symmetrized
    securities covariance, which validation found positive definite.
    """
    verdict = validate_model(model)
    if not verdict.ok:
        raise InvalidModelError(verdict.violations)

    cov, cov_rows = model.securities_cov, model.cov_matrix_rows
    a = np.linalg.solve(0.5 * (cov + cov.T), cov_rows.T).T
    a_total = a.sum(axis=0)
    cov_total = cov_rows.sum(axis=0)  # equals C a_I exactly, by linearity

    market_cov = cov_rows @ a_total  # <a_I, C a_i> per trader
    own_var = np.einsum("ij,ij->i", a, cov_rows)
    agg_var = max(float(a_total @ cov_total), 0.0)

    denom = float(own_var.sum())
    if denom > 0.0:
        trivial = agg_var < TRIVIAL_RTOL * denom
    else:
        trivial = agg_var < TRIVIAL_ATOL

    deltas = model.deltas
    delta_total = float(deltas.sum())
    lam = deltas / delta_total
    beta = None if trivial else market_cov / agg_var
    # certainty_equivalent over all traders at once; validation guarantees its
    # preconditions (finite positive deltas, finite nonnegative variances)
    u = model.endowment_means - model.endowment_vars / (2.0 * deltas)

    return ExposureProfile(
        model=model,
        a=_frozen_array(a),
        a_total=_frozen_array(a_total),
        beta=None if beta is None else _frozen_array(beta),
        lam=_frozen_array(lam),
        delta=_frozen_array(deltas),
        delta_total=delta_total,
        u=_frozen_array(u),
        aggregate_market_variance=agg_var,
        is_trivial=trivial,
        cov_total=_frozen_array(cov_total),
        market_cov=_frozen_array(market_cov),
        own_var=_frozen_array(own_var),
    )


def certainty_equivalent(mean: float, variance: float, delta: float) -> float:
    """Exact certainty equivalent of a Gaussian payoff under exponential utility.

    Equals mean - variance / (2 delta); linear in the mean and decreasing in
    the variance for fixed delta > 0.
    """
    if delta <= 0.0 or not np.isfinite(delta):
        raise ValueError("delta must be strictly positive")
    if variance < 0.0 or not np.isfinite(variance):
        raise ValueError("variance must be nonnegative")
    return float(mean) - float(variance) / (2.0 * float(delta))
