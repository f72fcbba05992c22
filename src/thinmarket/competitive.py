"""Price-taking (Walrasian) equilibrium and demand aggregation.

The competitive equilibrium is the benchmark every comparison runs against:
prices clear the true (risk-tolerance) demands, allocations move each trader's
market exposure to their relative risk tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ExposureProfile, _frozen, _matvec


@dataclass(frozen=True, eq=False)
class EquilibriumOutcome:
    """Prices, allocations and per-trader post-trade statistics.

    post_beta is the beta of the post-transaction position E_i + <q_i, S - p>
    (meaningless and flagged via beta_defined=False when a_I = 0); premium is
    the signed cash leg <q_i, p>; utilities are post-trade certainty
    equivalents, computed from the shares and the per-trader moments.
    """

    prices: np.ndarray
    allocations: np.ndarray
    post_beta: np.ndarray
    utilities: np.ndarray
    premium: np.ndarray
    beta_defined: bool


def _retained_risk(exposures: ExposureProfile, k: np.ndarray) -> np.ndarray:
    """(<a_i, C a_i> - k_i^2 <a_I, C a_I>) / (2 delta_i): the risk a trader
    sheds by holding the share k_i of the market exposure in place of a_i."""
    agg = np.asarray(exposures.aggregate_market_variance)[..., None]
    return (exposures.own_var - k * k * agg) / (2.0 * exposures.delta)


def clearing_outcome(
    exposures: ExposureProfile, k_shares: np.ndarray, prices: np.ndarray
) -> EquilibriumOutcome:
    """Assemble the outcome for allocations of the form q_i = k_i a_I - a_i.

    The post-trade betas are the shares k_i.  They are undefined where a_I =
    0 (the profile is trivial, and beta_defined is False), and there every
    caller passes zero shares.  The utilities are the certainty equivalents
    of E_i + <q_i, S - p>, one code path for every equilibrium kind: mean
    minus variance over twice the risk tolerance, minus the premium.  Trading
    q_i replaces the hedgeable part <a_i, S> of the endowment by <k_i a_I, S>,
    so Var(E_i + <q_i, S>) = Var(E_i) - <a_i, C a_i> + k_i^2 <a_I, C a_I>.
    The arrays are frozen in place, so the callers pass arrays they have just
    computed.
    """
    k = np.asarray(k_shares, dtype=float)
    q = k[..., :, None] * exposures.a_total[..., None, :] - exposures.a
    p = np.asarray(prices, dtype=float)
    premium = _matvec(q, p)  # <q_i, p>
    utilities = exposures.u + _retained_risk(exposures, k) - premium
    return EquilibriumOutcome(
        prices=_frozen(p),
        allocations=_frozen(q),
        post_beta=_frozen(k),
        utilities=_frozen(utilities),
        premium=_frozen(premium),
        beta_defined=_frozen(np.logical_not(exposures.is_trivial)),
    )


def competitive_equilibrium(exposures: ExposureProfile) -> EquilibriumOutcome:
    """Unique price-taking equilibrium.

    Prices are -C a_I / delta_I and trader i receives lambda_i a_I - a_i, so
    every post-trade beta equals the relative risk tolerance.  In the trivial
    case a_I = 0 prices are zero and traders simply shed the hedgeable part of
    their endowments (q_i = -a_i).  For a stacked profile, every point at
    once, and beta_defined is an array over the points.
    """
    trivial = np.asarray(exposures.is_trivial)
    delta_total = np.asarray(exposures.delta_total)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):  # failed points of a stack
        prices = np.where(trivial[..., None], 0.0, -exposures.cov_total / delta_total)
    shares = np.where(trivial[..., None], 0.0, exposures.lam)
    return clearing_outcome(exposures, shares, prices)


def aggregate_demand(exposures: ExposureProfile, elasticities, price) -> np.ndarray:
    """Sum of submitted linear demands -a_i - theta_i C^{-1} p at the price.

    Used as the market-clearing oracle in tests.  Raises if any elasticity is
    infinite (an extremely elastic demand has no finite-valued schedule).
    """
    thetas = []
    for theta in elasticities:
        value = theta.as_float if hasattr(theta, "as_float") else float(theta)
        if np.isinf(value):
            raise ValueError("aggregate demand is undefined for infinite elasticity")
        thetas.append(value)
    if len(thetas) != exposures.n_traders:
        raise ValueError("one elasticity per trader is required")
    p = np.asarray(price, dtype=float)
    return -exposures.a_total - sum(thetas) * exposures.solve_cov(p)
