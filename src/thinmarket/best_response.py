"""Single-trader strategic problem: response value, closed-form best response,
and the one-sided equilibrium against price-takers.

Submitted elasticities live on the extended nonnegative reals, so they are
represented by an explicit three-tag type rather than floating sentinels:
branch conventions (like the post-trade share being exactly 1 at infinity)
must hold exactly, not as arithmetic accidents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ExposureProfile, _exclusive_sums


@dataclass(frozen=True)
class Elasticity:
    """Extended nonnegative real: exactly zero, finite positive, or infinite."""

    kind: str
    value: float = 0.0

    @staticmethod
    def zero() -> "Elasticity":
        return Elasticity("zero", 0.0)

    @staticmethod
    def finite(value: float) -> "Elasticity":
        value = float(value)
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError("finite elasticity must be a strictly positive real")
        return Elasticity("finite", value)

    @staticmethod
    def infinite() -> "Elasticity":
        return Elasticity("infinite", math.inf)

    @staticmethod
    def from_float(value: float) -> "Elasticity":
        value = float(value)
        if value == 0.0:
            return Elasticity.zero()
        if math.isinf(value) and value > 0:
            return Elasticity.infinite()
        return Elasticity.finite(value)

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def is_infinite(self) -> bool:
        return self.kind == "infinite"

    @property
    def as_float(self) -> float:
        return self.value


def as_elasticity(theta) -> Elasticity:
    return theta if isinstance(theta, Elasticity) else Elasticity.from_float(theta)


@dataclass(frozen=True)
class BestResponseResult:
    """Optimal submitted elasticity, the resulting post-trade share k and the
    value at the optimum.  The branch that produced it is theta.kind: zero on
    the inelastic branch, finite on the interior one, infinite on the
    risk-neutral one."""

    theta: Elasticity
    k: float
    value: float


def share_from_elasticity(theta: Elasticity, theta_rest: float) -> float:
    """Map theta to k = theta / (theta + theta_rest); 0 at zero, 1 at infinity."""
    if theta.is_zero:
        return 0.0
    if theta.is_infinite:
        return 1.0
    return theta.value / (theta.value + theta_rest)


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
    theta = as_elasticity(theta_i)
    return response_value_at_share(
        exposures, i, share_from_elasticity(theta, theta_rest), theta_rest
    )


def _limit_value(exposures: ExposureProfile, i: int, k: float) -> float:
    # value when the 1/theta_rest terms vanish (theta_rest at an endpoint)
    delta_i = exposures.delta[i]
    return float(
        exposures.u[i]
        + exposures.own_var[i] / (2.0 * delta_i)
        - exposures.aggregate_market_variance * k * k / (2.0 * delta_i)
    )


def best_response(exposures: ExposureProfile, i: int, theta_rest) -> BestResponseResult:
    """Unique maximizer of the response value over [0, inf].

    For finite theta_rest > 0 the three branches are: zero elasticity when
    beta_i <= -1; the interior closed form
    delta_i theta_rest (1 + beta_i) / (theta_rest + delta_i (1 - beta_i)) when
    -1 < beta_i < 1 + theta_rest / delta_i; infinite elasticity otherwise.
    Against theta_rest = +inf the response is delta_i (1 + beta_i)_+, and
    against theta_rest = 0 it is defined (and infinite) only when beta_i > 1.
    """
    if exposures.is_trivial:
        raise ValueError("best response is undefined on a trivial instance (flat response)")
    rest = as_elasticity(theta_rest)
    beta_i = float(exposures.beta[i])
    delta_i = float(exposures.delta[i])

    if rest.is_infinite:
        theta = Elasticity.zero() if beta_i <= -1.0 else Elasticity.finite(delta_i * (1.0 + beta_i))
        return BestResponseResult(theta, 0.0, _limit_value(exposures, i, 0.0))
    if rest.is_zero:
        if beta_i > 1.0:
            return BestResponseResult(Elasticity.infinite(), 1.0, _limit_value(exposures, i, 1.0))
        raise ValueError(
            "theta_rest = 0 is only meaningful against beta_i > 1; "
            "the response problem is undefined otherwise"
        )

    rest_value = rest.value
    ratio = rest_value / delta_i  # no product of delta_i and the rest under- or overflows
    if beta_i <= -1.0:
        theta, k = Elasticity.zero(), 0.0
    elif beta_i >= 1.0 + ratio:
        theta, k = Elasticity.infinite(), 1.0
    else:
        k = (1.0 + beta_i) / (2.0 + ratio)
        theta = Elasticity.finite(rest_value * (1.0 + beta_i) / (ratio + (1.0 - beta_i)))
    return BestResponseResult(theta, k, response_value_at_share(exposures, i, k, rest_value))


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
    theta_total = math.inf if result.theta.is_infinite else result.theta.as_float + delta_rest
    inv_total = 0.0 if math.isinf(theta_total) else 1.0 / theta_total
    cash_benefit = (result.k - beta_i) * agg * (inv_total - 1.0 / exposures.delta_total)
    return OneSidedResult(result, cash_benefit)
