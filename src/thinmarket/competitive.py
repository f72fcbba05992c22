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
    equivalents computed from the general quadratic formula.
    """

    prices: np.ndarray
    allocations: np.ndarray
    post_beta: np.ndarray
    utilities: np.ndarray
    premium: np.ndarray
    beta_defined: bool


def _quadratic_forms(q: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """<q_i, C q_i> for every trader, as the row sums of (q C) * q.  Per point
    these are the bits of the one-market product, also over a grid axis."""
    return np.einsum("...ij,...ij->...i", q @ cov, q)


def clearing_outcome(
    exposures: ExposureProfile, k_shares: np.ndarray, prices: np.ndarray
) -> EquilibriumOutcome:
    """Assemble the outcome for allocations of the form q_i = k_i a_I - a_i.

    The post-trade betas are the shares k_i.  They are undefined where a_I =
    0 (the profile is trivial, and beta_defined is False), and there every
    caller passes zero shares.  The utilities are the certainty equivalents
    of E_i + <q_i, S - p>, one code path for every equilibrium kind: mean
    minus variance over twice the risk tolerance of the post-trade position,
    expanded in terms of the stored covariances.  The arrays are frozen in
    place, so the callers pass arrays they have just computed.
    """
    k = np.asarray(k_shares, dtype=float)
    q = k[..., :, None] * exposures.a_total[..., None, :] - exposures.a
    p = np.asarray(prices, dtype=float)
    premium = _matvec(q, p)  # <q_i, p>
    cross = np.einsum("...ij,...ij->...i", q, exposures.model.cov_matrix_rows)  # <q_i, C a_i>
    quad = _quadratic_forms(q, exposures.model.securities_cov)
    utilities = exposures.u - cross / exposures.delta - quad / (2.0 * exposures.delta) - premium
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
