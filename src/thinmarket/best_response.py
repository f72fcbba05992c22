"""Single-trader strategic problem: response value, closed-form best response,
and the one-sided equilibrium against price-takers.

A submitted elasticity lies in [0, inf] and is a float: 0.0 for a zero
elasticity, +inf for an infinite one, a finite positive value otherwise, as
in `solve` and the report.  Each branch convention (like the post-trade share
being exactly 1 at infinity) is an explicit test of == 0.0, == math.inf or a
finite value, never an arithmetic accident.  NaN, negative and -inf are no
elasticity and raise the ValueError the verifier raises on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ExposureProfile, _exclusive_sums
from .nash import _FLAT_RESPONSE, _NO_ELASTICITY, _UNDEFINED_REST, _failure


def _elasticity(theta, finite: bool = False) -> float:
    """theta as a float in [0, inf], or in (0, inf) if finite (an interior
    best response that overflowed or underflowed is no finite one); outside
    it, NaN included, theta is no elasticity."""
    theta = float(theta)
    if not (0.0 < theta < math.inf if finite else theta >= 0.0):
        raise _failure(_NO_ELASTICITY)
    return theta


@dataclass(frozen=True)
class BestResponseResult:
    """Optimal submitted elasticity theta and its post-trade share k.  theta
    names its branch: 0.0 inelastic, finite interior, +inf risk-neutral."""

    theta: float
    k: float


def share_from_elasticity(theta: float, theta_rest: float) -> float:
    """Map theta to k = theta / (theta + theta_rest); 0 at zero, 1 at infinity."""
    theta = _elasticity(theta)
    if theta == 0.0:
        return 0.0
    if theta == math.inf:
        return 1.0
    return theta / (theta + theta_rest)


def response_value_at_share(exposures: ExposureProfile, i: int, k, theta_rest: float):
    """Value of the response problem in share coordinates k in [0, 1].

    Accepts a scalar or an array of shares.  For a trivial instance (a_I = 0)
    the value is constant in k: the response function is flat.
    """
    if not (theta_rest > 0.0 and math.isfinite(theta_rest)):
        raise ValueError("theta_rest must be a finite positive real")
    k = np.asarray(k, dtype=float)
    delta_i = exposures.delta[i]
    base = exposures.u[i] + exposures.own_var[i] / (2.0 * delta_i)
    agg = exposures.aggregate_market_variance
    cross = exposures.market_cov[i]  # <a_I, C a_i>
    value = (
        base
        + agg * (k * (1.0 - k) / theta_rest - k * k / (2.0 * delta_i))
        - cross * (1.0 - k) / theta_rest
    )
    return value if value.ndim else float(value)


def response_value(exposures: ExposureProfile, i: int, theta_i, theta_rest: float) -> float:
    """Post-trade certainty equivalent of trader i submitting elasticity
    theta_i against aggregate elasticity theta_rest of everybody else.

    The endpoints theta_i = 0 and theta_i = +inf evaluate the closed-form
    limits (shares 0 and 1).
    """
    theta_rest = float(theta_rest)
    if not (theta_rest > 0.0 and math.isfinite(theta_rest)):
        raise ValueError("theta_rest must be a finite positive real")
    return response_value_at_share(
        exposures, i, share_from_elasticity(theta_i, theta_rest), theta_rest
    )


def best_response(exposures: ExposureProfile, i: int, theta_rest) -> BestResponseResult:
    """Unique maximizer theta of the response value over [0, inf], with its
    share k; response_value evaluates the objective there.

    For finite theta_rest > 0 the three branches are: zero elasticity when
    beta_i <= -1; the interior closed form
    delta_i theta_rest (1 + beta_i) / (theta_rest + delta_i (1 - beta_i)) when
    -1 < beta_i < 1 + theta_rest / delta_i; infinite elasticity otherwise.
    Against theta_rest = +inf the response is delta_i (1 + beta_i)_+, and
    against theta_rest = 0 it is defined (and infinite) only when beta_i > 1.
    """
    if exposures.is_trivial:
        raise _failure(_FLAT_RESPONSE)
    rest = _elasticity(theta_rest)
    beta_i = float(exposures.beta[i])
    delta_i = float(exposures.delta[i])

    if rest == math.inf:
        theta = 0.0 if beta_i <= -1.0 else _elasticity(delta_i * (1.0 + beta_i), finite=True)
        return BestResponseResult(theta, 0.0)
    if rest == 0.0:
        if beta_i > 1.0:
            return BestResponseResult(math.inf, 1.0)
        raise _failure(_UNDEFINED_REST)

    ratio = rest / delta_i  # no product of delta_i and the rest under- or overflows
    if beta_i <= -1.0:
        theta, k = 0.0, 0.0
    elif beta_i >= 1.0 + ratio:
        theta, k = math.inf, 1.0
    else:
        k = (1.0 + beta_i) / (2.0 + ratio)
        theta = _elasticity(rest * (1.0 + beta_i) / (ratio + (1.0 - beta_i)), finite=True)
    return BestResponseResult(theta, k)


@dataclass(frozen=True)
class OneSidedResult:
    """Best response against price-takers plus the cash benefit it earns."""

    response: BestResponseResult
    cash_benefit: float


def one_sided_equilibrium(exposures: ExposureProfile, i: int) -> OneSidedResult:
    """Trader i responds optimally while everyone else submits true demand.

    Everybody else's aggregate elasticity is delta_{-i}.  The cash benefit is
    <q_i, p_hat - p> -- what the strategic trader saves on the cash leg
    relative to trading the same quantity at competitive prices.  In the
    non-extreme regime it equals
    <a_I, C a_I> lambda_i (beta_i - lambda_i)^2
      / (delta_I (1 + lambda_i)^2 (1 - lambda_i)).
    """
    if exposures.is_trivial:
        raise ValueError("one-sided equilibrium is undefined on a trivial instance")
    # an exclusive sum: delta_I - delta_i cancels when trader i holds almost
    # all of the risk tolerance
    delta_rest = float(_exclusive_sums(exposures.delta)[i])
    result = best_response(exposures, i, delta_rest)

    agg = exposures.aggregate_market_variance
    beta_i = float(exposures.beta[i])
    inv_total = 0.0 if result.theta == math.inf else 1.0 / (result.theta + delta_rest)
    cash_benefit = (result.k - beta_i) * agg * (inv_total - 1.0 / exposures.delta_total)
    return OneSidedResult(result, cash_benefit)
