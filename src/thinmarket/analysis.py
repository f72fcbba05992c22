"""Comparative analytics between competitive and noncompetitive equilibria:
per-trader utility differences, aggregate inefficiency, the bilateral price
factor L, the risk-neutral limit, and the market-incompleteness comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .competitive import EquilibriumOutcome, competitive_equilibrium
from .model import ExposureProfile, _as_stack, _frozen, _trader_major, derive_exposures
from .nash import KIND_BILATERAL, KIND_EXTREME, KIND_UNSUPPORTED, NashSolution, _failure, solve
from .nash import _BILATERAL_GAIN, _EXTREME_GAIN, _EXTREME_INEFFICIENCY

# Internal cross-checks compare the directly computed utility differences with
# the closed forms; disagreement beyond this (scale-aware) tolerance is a bug.
_CROSSCHECK_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Per-trader utility difference du (Nash minus competitive), the
    aggregate inefficiency sum(du), and the bilateral factor L when the
    market has exactly two traders.  The decomposition of du into payoff
    gains and premiums is the two outcomes' own (EquilibriumOutcome).

    Over a grid, every field has the leading grid axis and failed marks the
    points whose closed forms disagree with du (where compare raises on one
    market); L is then NaN at the trivial points."""

    du: np.ndarray
    inefficiency: float
    L: float | None = None
    failed: np.ndarray | None = None


def _bilateral_l_factor(exposures: ExposureProfile) -> np.ndarray:
    lam, beta = exposures.lam, exposures.beta
    factor = (beta[..., 0] + lam[..., 0]) * (beta[..., 1] + lam[..., 1]) / (
        8.0 * lam[..., 0] * lam[..., 1]
    )
    return np.where(exposures.is_trivial, np.nan, factor)


def _crosscheck(exposures: ExposureProfile, kind, k_shares, du, inefficiency, L):
    """The stage of nash._FAILURES at which the closed forms disagree with du,
    per point of a stack, for extreme points and two-trader bilateral ones; 0
    where they agree and for the other kinds."""
    agg = exposures.aggregate_market_variance[..., None]
    delta_total = exposures.delta_total[..., None]
    delta, lam, beta = exposures.delta, exposures.lam, exposures.beta
    tol = _CROSSCHECK_RTOL * np.maximum(1.0, agg[..., 0] / (2.0 * _trader_major(delta).min(axis=-1)))
    verdict = np.zeros(kind.shape, dtype=int)

    extreme = kind == KIND_EXTREME
    if extreme.any():
        k = np.argmax(k_shares, axis=-1)[..., None]
        lam_k = np.take_along_axis(lam, k, -1)
        closed = np.where(
            np.arange(exposures.n_traders) == k,
            agg / (2.0 * delta) * (lam * (2.0 * beta - lam) - 1.0),
            agg / (2.0 * delta) * lam * (2.0 * beta - lam),
        )
        closed_ineff = (-agg / (2.0 * delta_total) * (1.0 - lam_k) / lam_k)[..., 0]
        verdict = np.where(
            extreme & (_trader_major(np.abs(du - closed)).max(axis=-1) > tol),
            _EXTREME_GAIN,
            np.where(extreme & (np.abs(inefficiency - closed_ineff) > tol), _EXTREME_INEFFICIENCY, verdict),
        )

    bilateral = kind == KIND_BILATERAL
    if exposures.n_traders == 2 and bilateral.any():
        mid = 0.5 * (lam + beta)
        closed = agg / (2.0 * delta) * (lam**2 - mid**2) + (
            beta - lam
        ) / delta_total * agg * (1.0 - L[..., None])
        disagrees = bilateral & (_trader_major(np.abs(du - closed)).max(axis=-1) > tol)
        verdict = np.where(disagrees, _BILATERAL_GAIN, verdict)
    return verdict


def compare(
    exposures: ExposureProfile,
    competitive: EquilibriumOutcome,
    nash: NashSolution,
) -> ComparisonReport:
    """Compare the two equilibria computed from the same exposures.

    compare only subtracts: du is the Nash outcome's utilities minus the
    competitive ones, and each outcome carries its own decomposition.  For
    two-trader non-extreme and for extreme instances the known closed forms
    are recomputed and any disagreement raises its nash._FAILURES error.  Like
    solve, compare takes one market or a stacked profile and raises only on
    one market, which it compares as a one-point stack: given a stacked
    profile and solve's solution of it, it compares every point at once,
    marks a disagreement in `failed` and gives NaN where a point has no
    solution.
    """
    stack = _as_stack(exposures)
    if stack is not exposures and nash.kind == KIND_UNSUPPORTED:
        raise ValueError("cannot compare against an unsupported-regime result")
    du = nash.outcome.utilities - competitive.utilities
    kind, k_shares = np.asarray(nash.kind), nash.k_shares
    if stack is not exposures:
        du, kind, k_shares = du[None], kind[None], k_shares[None]
    inefficiency = _trader_major(du).sum(axis=-1)
    L = _bilateral_l_factor(stack) if exposures.n_traders == 2 else None
    verdict = _crosscheck(stack, kind, k_shares, du, inefficiency, L)
    if stack is exposures:
        return ComparisonReport(_frozen(du), _frozen(inefficiency), L, _frozen(verdict != 0))
    if verdict[0]:
        raise _failure(verdict[0])
    L = None if L is None or exposures.is_trivial else float(L[0])
    return ComparisonReport(_frozen(du[0]), float(inefficiency[0]), L)


def risk_neutral_limit_du(exposures: ExposureProfile) -> float:
    """Limit of trader 0's utility difference as their risk tolerance grows,
    for a two-trader market: <a_I, C a_I> (1 + beta_0)(1 - beta_0)^2 /
    (8 delta_1) inside beta_0 in (-1, 1), zero outside."""
    if exposures.n_traders != 2:
        raise ValueError("the risk-neutral limit is a two-trader quantity")
    if exposures.is_trivial:
        return 0.0
    beta0 = float(exposures.beta[0])
    if not (-1.0 < beta0 < 1.0):
        return 0.0
    agg = exposures.aggregate_market_variance
    return agg * (1.0 + beta0) * (1.0 - beta0) ** 2 / (8.0 * float(exposures.delta[1]))


@dataclass(frozen=True, eq=False)
class IncompletenessReport:
    """Effect of endowments not being securitised, holding betas and relative
    tolerances fixed while the market-variance scalar moves from
    <a_I, C a_I> to Var(E_I).  The incomplete market's du is the
    ComparisonReport's, which incompleteness_effect was given."""

    du_complete: np.ndarray
    du_gap: np.ndarray
    aggregate_gap: float
    competitive_sq_gain: np.ndarray
    competitive_sq_gain_complete: np.ndarray
    competitive_sq_gain_gap: np.ndarray


def _incompleteness_inapplicable(exposures: ExposureProfile) -> str | None:
    """Why the incompleteness comparison does not apply to these exposures,
    or None when it does."""
    total = exposures.model.total_endowment_var
    if total is None:
        return "total_endowment_var is required for the incompleteness comparison"
    if exposures.is_trivial:
        return "incompleteness comparison is undefined on a trivial instance"
    if np.count_nonzero(exposures.beta > -1.0) != 2:
        return "incompleteness comparison needs exactly two active traders"
    if not total > 0.0:
        # the complete counterpart's covariance [[total]] must be positive definite
        return "total_endowment_var must be positive for the incompleteness comparison"
    return None


def incompleteness_effect(exposures: ExposureProfile, du: np.ndarray) -> IncompletenessReport:
    """Compare the given (incomplete) market against its complete counterpart.

    du is the incomplete market's compare() result on these exposures, and
    competitive_sq_gain is <q_i, C q_i> of the competitive allocations q_i =
    lambda_i a_I - a_i.  The counterpart keeps every beta_i, lambda_i and
    delta_i and replaces the spanned variance <a_I, C a_I> with Var(E_I); it
    is materialised as an explicit one-security model and solved through the
    ordinary pipeline.
    Requires a positive total_endowment_var (the counterpart's covariance
    [[Var(E_I)]] must be positive definite) and an essentially bilateral,
    non-trivial instance (exactly two traders with beta > -1); raises
    ValueError saying which requirement fails otherwise.
    """
    reason = _incompleteness_inapplicable(exposures)
    if reason is not None:
        raise ValueError(reason)
    model = exposures.model
    total = float(model.total_endowment_var)

    # Complete counterpart: single security with variance Var(E_I) and hedge
    # weights equal to the betas, so the projected geometry is preserved.
    counterpart = replace(
        model, securities_cov=[[total]], cov_matrix_rows=exposures.beta[:, None] * total
    )
    exposures_o = derive_exposures(counterpart)
    du_o = compare(exposures_o, competitive_equilibrium(exposures_o), solve(exposures_o)).du

    lam, beta = exposures.lam, exposures.beta
    agg = exposures.aggregate_market_variance
    sq_gain = lam**2 * agg - 2.0 * lam * exposures.market_cov + exposures.own_var
    sq_gain_o = lam**2 * total - 2.0 * lam * beta * total + model.endowment_vars

    return IncompletenessReport(
        du_complete=du_o,
        du_gap=_frozen(du_o - du),
        aggregate_gap=float((du_o - du).sum()),
        competitive_sq_gain=_frozen(sq_gain),
        competitive_sq_gain_complete=_frozen(sq_gain_o),
        competitive_sq_gain_gap=_frozen(sq_gain_o - sq_gain),
    )
