"""Market model: problem instance, validation, and derived exposure quantities.

A market instance consists of the covariance matrix of the tradeable
securities together with per-trader arrays whose last axis is the trader:
risk tolerances, the rows Cov(E_i, S) of each endowment with the securities,
and endowment means and variances.  `TraderProfile` describes one trader and
is an input convenience: a model built from profiles stores only the arrays.
Everything the solvers need is derived from those inputs: hedge portfolios
a_i, the aggregate a_I, projected betas, relative risk tolerances and autarky
utilities.

A stacked model (`MarketModel.stacked`) describes G markets that share the
securities covariance at once: its per-trader arrays carry a leading grid
axis, it is validated once, and `derive_exposures` derives every point in one
pass.  Each point's arithmetic is the one-market arithmetic, bit for bit.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import InitVar, dataclass, replace

import numpy as np

from .errors import InvalidModelError

# Positive-definiteness guard: smallest eigenvalue must exceed this fraction of
# the largest diagonal entry (scale-aware conditioning guard) and 1 / float max.
PD_EIGENVALUE_RTOL = 1e-10
SYMMETRY_RTOL = 1e-10
# a_I = 0 detection: |C^{1/2} a_I|^2 relative to the summed per-trader
# hedge-portfolio variances, with an absolute fallback when those vanish.
TRIVIAL_RTOL = 1e-12
TRIVIAL_ATOL = 1e-14
# Slack for Var(E_I) >= <a_I, C a_I> consistency.
TOTAL_VAR_SLACK = 1e-9


def _frozen_array(values, dtype=float) -> np.ndarray:
    """A read-only copy of values: a caller's array is never frozen or aliased."""
    return _frozen(np.array(values, dtype=dtype))


def _frozen(array: np.ndarray) -> np.ndarray:
    """array itself, made read-only; only for arrays that nothing else can write."""
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class MarketModel:
    """Full problem instance: the securities covariance and per-trader arrays.

    deltas, endowment_means and endowment_vars have shape (..., N) and
    cov_matrix_rows, the rows Cov(E_i, S), shape (..., N, k); all are stored
    read-only.  With deltas of shape (G, N), rows of shape (N, k) are one set
    that every point shares.  Give either `traders`, a sequence of
    TraderProfile that is read into those arrays and not stored, or the
    arrays themselves (the means and variances default to zero).
    total_endowment_var (Var of the summed endowments) is optional and only
    needed for the market-incompleteness comparison.
    """

    securities_cov: np.ndarray
    traders: InitVar[Sequence[TraderProfile] | None] = None
    total_endowment_var: float | None = None
    deltas: np.ndarray | None = None
    cov_matrix_rows: np.ndarray | None = None
    endowment_means: np.ndarray | None = None
    endowment_vars: np.ndarray | None = None

    def __post_init__(self, traders):
        cov = np.asarray(self.securities_cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("securities_cov must be a square matrix")
        k = cov.shape[0]
        columns = (self.deltas, self.cov_matrix_rows, self.endowment_means, self.endowment_vars)
        if traders is not None:
            if any(column is not None for column in columns):
                raise ValueError("give either traders or the per-trader arrays, not both")
            traders = tuple(traders)
            for idx, tr in enumerate(traders):
                if tr.cov_endowment_securities.shape != (k,):
                    raise ValueError(
                        f"traders[{idx}].cov_endowment_securities has length "
                        f"{tr.cov_endowment_securities.shape[0]}, expected {k}"
                    )
            columns = (
                [t.delta for t in traders],
                [t.cov_endowment_securities for t in traders],
                [t.endowment_mean for t in traders],
                [t.endowment_var for t in traders],
            )
        deltas, rows, means, variances = columns
        deltas, rows = _frozen_array(deltas), _frozen_array(rows)
        if deltas.ndim == 0 or deltas.shape[-1] == 0:
            raise ValueError("traders must be non-empty")
        if deltas.ndim == 2 and rows.shape == deltas.shape[1:] + (k,):
            # one point's rows, which every point of the stack shares: kept
            # once and broadcast over the grid (see _point_rows)
            rows = np.broadcast_to(rows, deltas.shape + (k,))
        if rows.shape != deltas.shape + (k,):
            raise ValueError(f"cov_matrix_rows has shape {rows.shape}, expected {deltas.shape + (k,)}")
        for name, column in (("endowment_means", means), ("endowment_vars", variances)):
            column = _frozen_array(np.zeros(deltas.shape) if column is None else column)
            if column.shape != deltas.shape:
                raise ValueError(f"{name} has shape {column.shape}, expected {deltas.shape}")
            object.__setattr__(self, name, column)
        object.__setattr__(self, "securities_cov", _frozen_array(cov))
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "cov_matrix_rows", rows)
        if self.total_endowment_var is not None:
            object.__setattr__(self, "total_endowment_var", float(self.total_endowment_var))

    def stacked(self, deltas: np.ndarray, cov_rows: np.ndarray) -> MarketModel:
        """This market at G points at once.

        deltas (G, N) and cov_rows (G, N, k) replace the risk tolerances and
        the rows Cov(E_i, S); the securities covariance, the endowment means
        and variances and total_endowment_var are shared by every point.  The
        result's per-trader arrays carry the leading grid axis.  cov_rows may
        also be one point's rows (N, k), which every point then shares, and
        what depends on them alone is derived once.
        """
        shape = np.shape(deltas)
        return replace(
            self,
            deltas=deltas,
            cov_matrix_rows=cov_rows,
            endowment_means=np.broadcast_to(self.endowment_means, shape),
            endowment_vars=np.broadcast_to(self.endowment_vars, shape),
        )

    @property
    def n_traders(self) -> int:
        return self.deltas.shape[-1]

    @property
    def n_securities(self) -> int:
        return self.securities_cov.shape[0]


@dataclass(frozen=True, eq=False)
class ValidationResult:
    """Verdict of validate_model.

    For a stacked model, violations lists what fails at every point (the
    securities covariance, the number of traders), and failed_points marks
    the points that fail a per-trader or per-point check, unnamed.
    """

    violations: tuple[str, ...] = ()
    failed_points: np.ndarray | None = None

    @property
    def ok(self) -> bool:
        return not self.violations and (self.failed_points is None or not self.failed_points.any())

    def __bool__(self) -> bool:
        return self.ok


# Products over optional leading axes.  A stacked matmul makes per point the
# BLAS call that the unstacked product makes, so each point gets the bits of
# the one-market product; one GEMM over the flattened points adds in another
# order.  The one einsum, derive_exposures' own_var, sums each trader's row.
# A point's vector is a one-row matrix (..., 1, k), made contiguous: BLAS
# needs unit strides, and a vector not contiguous along its axis sends numpy
# to a loop of its own.
#
# Reductions over the trader axis.  numpy runs a reduction's inner loop once
# per row of a C-ordered stack, which for rows of a few traders costs 10-30
# times an elementwise pass over the grid.  A stack of two or more points
# and fewer than _SEQUENTIAL_ROW traders is therefore reduced on its
# trader-major copy (_trader_major), one elementwise pass per trader.  The
# bits are those of the row reduction: numpy adds a row of fewer than 8
# entries left to right, and the passes add in the same order; max, min,
# any, all and counts do not depend on the order.  Longer rows are added
# pairwise and keep the C-ordered call, as does a one-point stack, whose
# (1, N) arrays are C- and F-contiguous and reduce as the row does.  Only
# the NaN a sum of opposite infinities makes may carry another sign bit,
# which nothing reads.  argmax and take_along_axis are slower on the copy
# and stay on the stack itself.  _exclusive_sums adds a short stack's
# columns one trader at a time, in the order of its accumulations.
#
# Rows Cov(E_i, S) that every point shares (a risk-tolerance sweep) are kept
# once and broadcast over the grid with stride 0, which no caller's array
# keeps, since MarketModel copies it (_point_rows).  derive_exposures and
# validate_model compute what depends on them alone once, as one market,
# which is the call each point would make, and derive_exposures repeats it
# over the grid: an elementwise op on a broadcast view loops once per row.

_SEQUENTIAL_ROW = 8


def _short_stack(values: np.ndarray, axis: int = -1) -> bool:
    """Whether values stacks two or more points (on a grid axis before the
    trader axis `axis`) of fewer than _SEQUENTIAL_ROW traders."""
    return values.ndim > -axis and values.shape[0] > 1 and values.shape[axis] < _SEQUENTIAL_ROW


def _trader_major(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """values laid out with the grid axis innermost (np.asfortranarray) when
    it is a short stack, else values itself; reduce over the trader axis
    `axis` of the result (see above)."""
    return np.asfortranarray(values) if _short_stack(values, axis) else values


def _point_rows(rows: np.ndarray) -> np.ndarray:
    """A model's rows Cov(E_i, S) as one point's when two or more points share
    them (MarketModel broadcast them, with stride 0), else rows itself."""
    return rows[0] if rows.ndim == 3 and rows.shape[0] > 1 and rows.strides[0] == 0 else rows


def _matvec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """matrix @ vector per point."""
    return (matrix @ np.ascontiguousarray(vector)[..., None])[..., 0]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u @ v per point."""
    u, v = np.ascontiguousarray(u), np.ascontiguousarray(v)
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _exclusive_sums(values: np.ndarray) -> np.ndarray:
    """sum_{j != i} values[j] for every i along the last axis, as a prefix
    plus a suffix sum (the total minus values[i] cancels when one entry holds
    almost all of it).  A short stack's sums are one elementwise add per
    trader, in the order of the accumulations."""
    rest = np.zeros(values.shape)
    if not _short_stack(values):
        rest[..., 1:] = np.add.accumulate(values[..., :-1], axis=-1)
        rest[..., :-1] += np.add.accumulate(values[..., :0:-1], axis=-1)[..., ::-1]
        return rest
    n = values.shape[-1]
    for i in range(1, n):
        prefix = values[..., 0] if i == 1 else prefix + values[..., i - 1]
        rest[..., i] = prefix
    for i in range(n - 2, -1, -1):
        suffix = values[..., n - 1] if i == n - 2 else suffix + values[..., i + 1]
        rest[..., i] += suffix
    return rest


def _symmetrized(cov: np.ndarray) -> np.ndarray:
    """(C + C^T) / 2, halved before the sum so that no entry overflows."""
    return 0.5 * cov + 0.5 * cov.T


def _solve_sym(cov: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve C x = rhs against the symmetrized covariance for every vector on
    rhs's last axis.  C = L L^T is factored once, and the solutions are the
    products x^T = rhs^T L^-T L^-1 with one step of iterative refinement:
    without it, the explicit inverse factor leaves backward errors of several
    ulps once C is ill-conditioned."""
    sym = _symmetrized(cov)
    factor = np.linalg.inv(np.linalg.cholesky(sym))
    x = (rhs @ factor.T) @ factor
    return x + ((rhs - x @ sym) @ factor.T) @ factor


def validate_model(model: MarketModel) -> ValidationResult:
    """Check an instance for well-posedness; returns a verdict, never raises.

    Reported violations: non-finite entries, asymmetric or non-positive-definite
    securities covariance, fewer than two traders, nonpositive risk tolerance,
    negative endowment variance, and a total endowment variance below the
    variance spanned by the securities.  The covariance is checked once, and
    the points' per-trader checks at once; one market is a one-point stack
    whose failures are named.
    """
    violations: list[str] = []
    cov = model.securities_cov
    if not np.all(np.isfinite(cov)):
        violations.append("securities_cov has non-finite entries")
    else:
        scale = max(1.0, float(np.max(np.abs(cov))))
        # halved before the difference so that no entry overflows, as in
        # _symmetrized; halving is exact in the normal range
        if np.max(np.abs(0.5 * cov - 0.5 * cov.T)) > 0.5 * (SYMMETRY_RTOL * scale):
            violations.append("securities_cov is not symmetric")
        else:
            sym = _symmetrized(cov)
            eigs = np.linalg.eigvalsh(sym)
            threshold = max(PD_EIGENVALUE_RTOL * float(np.max(np.diag(sym))), 1.0 / np.finfo(float).max)
            if eigs[0] <= threshold:
                violations.append("securities_cov is not positive definite")

    if model.n_traders < 2:
        violations.append("at least two traders are required")
    stack = _as_stack(model)
    deltas, variances, rows = stack.deltas, stack.endowment_vars, _point_rows(stack.cov_matrix_rows)
    finite_rows = np.isfinite(rows)
    # the per-trader reduction over short rows is slow; most models need none
    bad_cov = np.zeros(rows.shape[:-1], bool) if finite_rows.all() else ~finite_rows.all(axis=-1)
    checks = {
        "risk tolerance must be strictly positive": ~((deltas > 0.0) & (deltas < np.inf)),
        "cov_endowment_securities has non-finite entries": bad_cov,
        "endowment_mean must be finite": ~np.isfinite(stack.endowment_means),
        "endowment_var must be nonnegative": ~((variances >= 0.0) & (variances < np.inf)),
    }
    bad = functools.reduce(np.logical_or, checks.values())
    failed = _trader_major(bad).any(axis=-1)
    if stack is not model and failed[0]:  # one market names each failure
        violations += [f"traders[{idx}]: {message}" for idx in bad[0].nonzero()[0].tolist()
                       for message, mask in checks.items() if mask[0, idx]]

    if model.total_endowment_var is not None and not violations:
        total = model.total_endowment_var
        if not np.isfinite(total) or total < 0.0:
            violations.append("total_endowment_var must be nonnegative")
        else:
            cov_total = _trader_major(rows, -2).sum(axis=-2)
            with np.errstate(invalid="ignore", over="ignore"):  # on failed points only
                spanned = _dot(_solve_sym(cov, cov_total[..., None, :])[..., 0, :], cov_total)
                below = spanned > total + TOTAL_VAR_SLACK * np.maximum(max(1.0, total), spanned)
            failed = failed | below
            if stack is not model and below[0]:
                violations.append("total_endowment_var is below the variance spanned by the securities")
    return ValidationResult(tuple(violations), failed if stack is model else None)


@dataclass(frozen=True, eq=False)
class ExposureProfile:
    """Derived per-trader quantities and aggregates.

    a[i] solves C a_i = Cov(E_i, S); beta[i] is the projected beta
    <a_I, C a_i> / <a_I, C a_I> (None when the instance is trivial, a_I = 0);
    lam[i] = delta_i / delta_total; u[i] is the autarky certainty equivalent.
    cov_total is C a_I and market_cov[i] = <a_I, C a_i>; own_var[i] =
    <a_i, C a_i>.  With aggregate_market_variance <a_I, C a_I>, these moments
    give every post-trade variance (see competitive.clearing_outcome) and
    best response.  All arrays are read-only; the profile is an immutable value.

    The profile of a stacked model has a leading grid axis on every array,
    and delta_total, aggregate_market_variance and is_trivial are arrays over
    the points.  valid marks the points that passed validation; the values at
    the others mean nothing, and beta is an array even where a_I = 0.
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
    valid: np.ndarray | None = None

    @property
    def n_traders(self) -> int:
        return self.model.n_traders

    @property
    def n_securities(self) -> int:
        return self.model.n_securities


def _as_stack(market):
    """A stacked MarketModel or ExposureProfile itself, and one market as a
    one-point stack (G = 1), on which the pipeline steps run their one stacked
    body; they squeeze the point back where `_as_stack(market) is not market`.
    The lift makes read-only views with the grid axis and skips __init__; a
    trivial market's beta (None) is a NaN row, valid is [True], and a
    profile's model is the market's own, which no stacked body reads."""
    if isinstance(market, MarketModel):
        if market.deltas.ndim > 1:
            return market
        shared = {"securities_cov": market.securities_cov, "total_endowment_var": market.total_endowment_var}
    elif market.valid is not None:
        return market
    else:
        beta = np.full(market.delta.shape, np.nan) if market.beta is None else market.beta
        shared = {"model": market.model, "beta": beta[None], "valid": np.ones(1, bool)}
    point = {name: np.asarray(value)[None] for name, value in vars(market).items() if name not in shared}
    stack = object.__new__(type(market))
    stack.__dict__.update(point, **shared)
    return stack


def derive_exposures(model: MarketModel) -> ExposureProfile:
    """Derive hedge portfolios, betas, relative tolerances and aggregates.

    Validates the model first and raises InvalidModelError when it is
    ill-posed; for a stacked model only when every point is (a failed
    covariance check), and otherwise marks the failed points in `valid`.  A
    stack whose points share their rows Cov(E_i, S) solves them once.
    """
    verdict = validate_model(model)
    if verdict.violations:
        raise InvalidModelError(verdict.violations)

    cov, cov_rows = model.securities_cov, model.cov_matrix_rows
    rows = _point_rows(cov_rows)  # one market's when every point shares them
    # Arithmetic on the points that failed validation may overflow or divide
    # by zero; a valid point's values never do.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = _solve_sym(cov, rows)
        a_total = _trader_major(a, -2).sum(axis=-2)
        cov_total = _trader_major(rows, -2).sum(axis=-2)  # equals C a_I exactly, by linearity

        market_cov = _matvec(rows, a_total)  # <a_I, C a_i> per trader
        own_var = np.einsum("...ij,...ij->...i", a, rows)
        agg_var = _dot(a_total, cov_total)
        agg_var = np.where(agg_var < 0.0, 0.0, agg_var)

        denom = _trader_major(own_var).sum(axis=-1)
        trivial = np.where(denom > 0.0, agg_var < TRIVIAL_RTOL * denom, agg_var < TRIVIAL_ATOL)

        deltas = model.deltas
        delta_total = _trader_major(deltas).sum(axis=-1, keepdims=True)
        lam = deltas / delta_total
        beta = market_cov / agg_var[..., None]
        if rows is not cov_rows:  # the same at every point, repeated over the grid
            grid = cov_rows.shape[0]
            a, a_total, cov_total, market_cov, own_var, agg_var, trivial, beta = (
                np.repeat(x[None], grid, axis=0)
                for x in (a, a_total, cov_total, market_cov, own_var, agg_var, trivial, beta)
            )
        # certainty_equivalent over all traders at once; validation guarantees
        # its preconditions (finite positive deltas, finite nonnegative
        # variances)
        u = model.endowment_means - model.endowment_vars / (2.0 * deltas)

    if verdict.failed_points is None:  # one market: plain scalars, no beta at a_I = 0
        trivial, valid = bool(trivial), None
        beta = None if trivial else _frozen(beta)
        delta_total, agg_var = float(delta_total[0]), float(agg_var)
    else:
        delta_total, agg_var, beta = _frozen(delta_total[..., 0]), _frozen(agg_var), _frozen(beta)
        trivial, valid = _frozen(trivial), _frozen(~verdict.failed_points)
    return ExposureProfile(
        model=model, a=_frozen(a), a_total=_frozen(a_total), beta=beta, lam=_frozen(lam), delta=deltas,
        delta_total=delta_total, u=_frozen(u), aggregate_market_variance=agg_var, is_trivial=trivial,
        cov_total=_frozen(cov_total), market_cov=_frozen(market_cov), own_var=_frozen(own_var), valid=valid,
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
