"""Comparative analytics between competitive and noncompetitive equilibria:
per-trader utility differences, premium/payoff decompositions, aggregate
inefficiency, the bilateral price factor L, the risk-neutral limit, and the
market-incompleteness comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .competitive import EquilibriumOutcome, competitive_equilibrium
from .errors import ConsistencyError
from .model import ExposureProfile, MarketModel, derive_exposures, _frozen_array
from .nash import (
    KIND_BILATERAL,
    KIND_EXTREME,
    KIND_UNSUPPORTED,
    NashSolution,
    solve,
)

# Internal cross-checks compare the directly computed utility differences with
# the closed forms; disagreement beyond this (scale-aware) tolerance is a bug.
_CROSSCHECK_RTOL = 1e-8


@dataclass(frozen=True)
class ComparisonReport:
    """Per-trader utility difference du (Nash minus competitive), its
    decomposition into random-payoff gains and premiums, the aggregate
    inefficiency sum(du), and the bilateral factor L when the market has
    exactly two traders."""

    du: np.ndarray
    inefficiency: float
    premium_competitive: np.ndarray
    premium_nash: np.ndarray
    payoff_gain_competitive: np.ndarray
    payoff_gain_nash: np.ndarray
    L: float | None = None


def _payoff_gains(exposures: ExposureProfile, outcome: EquilibriumOutcome) -> np.ndarray:
    # Random-payoff profit/loss term of the utility decomposition:
    # <a_i, C a_i>/(2 delta_i) - <z_i, C z_i>/(2 delta_i) with z_i = q_i + a_i
    # the retained market exposure.
    z = outcome.allocations + exposures.a
    cov = exposures.model.securities_cov
    retained = np.einsum("ij,jk,ik->i", z, cov, z)
    return (exposures.own_var - retained) / (2.0 * exposures.delta)


def _bilateral_l_factor(exposures: ExposureProfile) -> float:
    lam, beta = exposures.lam, exposures.beta
    return float((beta[0] + lam[0]) * (beta[1] + lam[1]) / (8.0 * lam[0] * lam[1]))


def compare(
    exposures: ExposureProfile,
    competitive: EquilibriumOutcome,
    nash: NashSolution,
) -> ComparisonReport:
    """Compare the two equilibria computed from the same exposures.

    du comes from direct utility subtraction; for two-trader non-extreme and
    for extreme instances the known closed forms are recomputed and any
    disagreement raises ConsistencyError.
    """
    if nash.kind == KIND_UNSUPPORTED:
        raise ValueError("cannot compare against an unsupported-regime result")

    du = nash.outcome.utilities - competitive.utilities
    report = ComparisonReport(
        du=_frozen_array(du),
        inefficiency=float(du.sum()),
        premium_competitive=_frozen_array(competitive.premium),
        premium_nash=_frozen_array(nash.outcome.premium),
        payoff_gain_competitive=_frozen_array(_payoff_gains(exposures, competitive)),
        payoff_gain_nash=_frozen_array(_payoff_gains(exposures, nash.outcome)),
        L=_bilateral_l_factor(exposures) if exposures.n_traders == 2 and not exposures.is_trivial else None,
    )

    if exposures.is_trivial:
        return report

    agg = exposures.aggregate_market_variance
    delta, lam, beta = exposures.delta, exposures.lam, exposures.beta
    tol = _CROSSCHECK_RTOL * max(1.0, agg / (2.0 * float(delta.min())))

    if nash.kind == KIND_EXTREME:
        k = int(np.argmax(nash.k_shares))
        closed = agg / (2.0 * delta) * lam * (2.0 * beta - lam)
        closed[k] = agg / (2.0 * delta[k]) * (lam[k] * (2.0 * beta[k] - lam[k]) - 1.0)
        if np.max(np.abs(du - closed)) > tol:
            raise ConsistencyError("extreme utility-gain closed form disagrees with direct du")
        closed_ineff = -agg / (2.0 * exposures.delta_total) * (1.0 - lam[k]) / lam[k]
        if abs(report.inefficiency - closed_ineff) > tol:
            raise ConsistencyError("extreme inefficiency closed form disagrees with direct sum")
    elif nash.kind == KIND_BILATERAL and exposures.n_traders == 2:
        mid = 0.5 * (lam + beta)
        closed = agg / (2.0 * delta) * (lam**2 - mid**2) + (
            beta - lam
        ) / exposures.delta_total * agg * (1.0 - report.L)
        if np.max(np.abs(du - closed)) > tol:
            raise ConsistencyError("bilateral utility-gain closed form disagrees with direct du")
    return report


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


@dataclass(frozen=True)
class IncompletenessReport:
    """Effect of endowments not being securitised, holding betas and relative
    tolerances fixed while the market-variance scalar moves from
    <a_I, C a_I> to Var(E_I)."""

    du: np.ndarray
    du_complete: np.ndarray
    du_gap: np.ndarray
    aggregate_gap: float
    competitive_sq_gain: np.ndarray
    competitive_sq_gain_complete: np.ndarray
    competitive_sq_gain_gap: np.ndarray


def incompleteness_effect(
    exposures: ExposureProfile, du: np.ndarray, competitive_allocations: np.ndarray
) -> IncompletenessReport:
    """Compare the given (incomplete) market against its complete counterpart.

    du is the incomplete market's compare() result on these exposures and
    competitive_allocations its competitive equilibrium allocations.  The
    counterpart keeps every beta_i, lambda_i and delta_i and replaces the
    spanned variance <a_I, C a_I> with Var(E_I); it is materialised as an
    explicit one-security model and solved through the ordinary pipeline.
    Requires total_endowment_var and an essentially bilateral, non-trivial
    instance (exactly two traders with beta > -1).
    """
    model = exposures.model
    if model.total_endowment_var is None:
        raise ValueError("total_endowment_var is required for the incompleteness comparison")
    if exposures.is_trivial:
        raise ValueError("incompleteness comparison is undefined on a trivial instance")
    if np.count_nonzero(exposures.beta > -1.0) != 2:
        raise ValueError("incompleteness comparison needs exactly two active traders")
    total = float(model.total_endowment_var)

    # Complete counterpart: single security with variance Var(E_I) and hedge
    # weights equal to the betas, so the projected geometry is preserved.
    counterpart = MarketModel(
        securities_cov=np.array([[total]]),
        traders=tuple(
            replace(tr, cov_endowment_securities=np.array([beta_i * total]))
            for tr, beta_i in zip(model.traders, exposures.beta)
        ),
        total_endowment_var=total,
    )
    exposures_o = derive_exposures(counterpart)
    du_o = compare(exposures_o, competitive_equilibrium(exposures_o), solve(exposures_o)).du

    lam, beta = exposures.lam, exposures.beta
    qhat = competitive_allocations
    cov = model.securities_cov
    sq_gain = np.einsum("ij,jk,ik->i", qhat, cov, qhat)
    sq_gain_o = lam**2 * total - 2.0 * lam * beta * total + model.endowment_vars

    return IncompletenessReport(
        du=_frozen_array(du),
        du_complete=_frozen_array(du_o),
        du_gap=_frozen_array(du_o - du),
        aggregate_gap=float((du_o - du).sum()),
        competitive_sq_gain=_frozen_array(sq_gain),
        competitive_sq_gain_complete=_frozen_array(sq_gain_o),
        competitive_sq_gain_gap=_frozen_array(sq_gain_o - sq_gain),
    )
