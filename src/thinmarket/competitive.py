"""Price-taking (Walrasian) equilibrium and the outcome of clearing allocations.

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
    (meaningless when a_I = 0, the trivial profile); premium is the signed
    cash leg <q_i, p>.  utilities are the post-trade certainty equivalents,
    and this record owns their decomposition: utilities = u + payoff_gain -
    premium, u the autarky certainty equivalents of the exposures, and
    payoff_gain the random-payoff gain, the variance shed by holding the
    share k_i of the market exposure in place of a_i.
    """

    prices: np.ndarray
    allocations: np.ndarray
    post_beta: np.ndarray
    utilities: np.ndarray
    premium: np.ndarray
    payoff_gain: np.ndarray


def clearing_outcome(
    exposures: ExposureProfile, k_shares: np.ndarray, prices: np.ndarray
) -> EquilibriumOutcome:
    """Assemble the outcome for allocations of the form q_i = k_i a_I - a_i.

    The post-trade betas are the shares k_i.  They are undefined where a_I =
    0 (the profile is trivial), and there every caller passes zero shares.
    The utilities are the certainty equivalents of E_i + <q_i, S - p>, one
    code path for every equilibrium kind: mean minus variance over twice the
    risk tolerance, minus the premium.  Trading q_i replaces the hedgeable
    part <a_i, S> of the endowment by <k_i a_I, S>, so Var(E_i + <q_i, S>) =
    Var(E_i) - <a_i, C a_i> + k_i^2 <a_I, C a_I>, and the payoff gain is
    (<a_i, C a_i> - k_i^2 <a_I, C a_I>) / (2 delta_i).  A risk tolerance
    above half the float maximum doubles to inf, and the payoff gain is then
    0, which is right.  The arithmetic runs without warnings on any profile
    derive_exposures returns: a stack's invalid or unsolved points carry NaN
    and inf, and exposures near the float maximum overflow.  The arrays are
    frozen in place, so the callers pass arrays they have just computed.
    """
    k = np.asarray(k_shares, dtype=float)
    p = np.asarray(prices, dtype=float)
    agg = np.asarray(exposures.aggregate_market_variance)[..., None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = k[..., :, None] * exposures.a_total[..., None, :] - exposures.a
        premium = _matvec(q, p)  # <q_i, p>
        payoff_gain = (exposures.own_var - k * k * agg) / (2.0 * exposures.delta)
        utilities = exposures.u + payoff_gain - premium
    return EquilibriumOutcome(
        prices=_frozen(p),
        allocations=_frozen(q),
        post_beta=_frozen(k),
        utilities=_frozen(utilities),
        premium=_frozen(premium),
        payoff_gain=_frozen(payoff_gain),
    )


def competitive_equilibrium(exposures: ExposureProfile) -> EquilibriumOutcome:
    """Unique price-taking equilibrium.

    Prices are -C a_I / delta_I and trader i receives lambda_i a_I - a_i, so
    every post-trade beta equals the relative risk tolerance.  In the trivial
    case a_I = 0 prices are zero and traders simply shed the hedgeable part of
    their endowments (q_i = -a_i).  For a stacked profile, every point at
    once.
    """
    trivial = np.asarray(exposures.is_trivial)
    delta_total = np.asarray(exposures.delta_total)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):  # failed points of a stack
        prices = np.where(trivial[..., None], 0.0, -exposures.cov_total / delta_total)
    shares = np.where(trivial[..., None], 0.0, exposures.lam)
    return clearing_outcome(exposures, shares, prices)

