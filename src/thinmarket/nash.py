"""Noncompetitive (Nash) equilibrium: classification and solvers.

Dispatch order mirrors the theory: the trivial case a_I = 0 first, then the
extreme regime (one trader submits infinite elasticity, prices are zero), then
the bilateral closed form when exactly two traders are active, and otherwise
the general constructive solver, which reduces the coupled quadratic system to
a single monotone scalar equation in the total elasticity and bisects it.

Configurations with two or more betas above one where the extreme condition
fails are reported as an unsupported regime rather than guessed: uniqueness is
not established there.

Every solution is verified against the closed-form best response of each
trader to the others.  The verification is O(N): the others' aggregate
elasticity comes from prefix and suffix sums, and the best-response branches
are evaluated as arrays, with the verdicts of a trader-by-trader check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .best_response import Elasticity
from .competitive import EquilibriumOutcome, clearing_outcome
from .errors import BracketError, ConsistencyError
from .model import ExposureProfile, _frozen_array

KIND_TRIVIAL = "trivial"
KIND_EXTREME = "extreme"
KIND_BILATERAL = "bilateral_closed_form"
KIND_GENERAL = "general_non_extreme"
KIND_UNSUPPORTED = "unsupported_regime"

# Max tolerated residual of the coupled equilibrium equations for a finite
# solution, and relative tolerance of the coordinatewise best-response check.
RESIDUAL_TOL = 1e-8
FIXED_POINT_RTOL = 1e-8

# Bisection of the scalar equilibrium equation.
_KEY_FTOL = 1e-12
_KEY_XTOL = 1e-12
_MAX_DOUBLINGS = 60
_MAX_BISECTIONS = 500


@dataclass(frozen=True)
class NashSolution:
    """Solved (or classified) noncompetitive equilibrium.

    k_shares are theta_i / theta_total with the conventions 1 at infinity and
    0 elsewhere in the extreme regime; residuals are left-minus-right of the
    coupled equilibrium equations for diagnostic reporting.  For the
    unsupported regime only kind and detail are populated.
    """

    kind: str
    elasticities: tuple[Elasticity, ...] | None
    theta_total: Elasticity | None
    k_shares: np.ndarray | None
    outcome: EquilibriumOutcome | None
    residuals: np.ndarray | None
    detail: str | None = None


def check_extreme_condition(exposures: ExposureProfile) -> int | None:
    """Index of the unique trader who behaves risk-neutrally at equilibrium,
    or None when the equilibrium is non-extreme.

    The per-trader threshold test and its aggregate reformulation
    (sum delta_i (1 + beta_i)_+ <= 2 max delta_i beta_i) are both evaluated;
    a disagreement beyond rounding noise is an internal error.
    """
    if exposures.is_trivial:
        raise ValueError("extreme classification is undefined on a trivial instance")
    delta = exposures.delta
    beta = exposures.beta
    plus = np.maximum(delta * (1.0 + beta), 0.0)
    total_plus = float(plus.sum())

    hits = (beta >= 1.0 + (total_plus - plus) / delta).nonzero()[0].tolist()
    if len(hits) > 1:
        raise ConsistencyError(f"extreme condition held for several traders: {hits}")

    two_max = 2.0 * float(np.max(delta * beta))
    aggregate_test = total_plus <= two_max
    if aggregate_test != bool(hits):
        margin = abs(total_plus - two_max)
        if margin > 1e-9 * max(1.0, total_plus, abs(two_max)):
            raise ConsistencyError(
                "extreme-condition tests disagree: "
                f"per-trader={bool(hits)}, aggregate={aggregate_test}, margin={margin:g}"
            )
    return hits[0] if hits else None


def solve_extreme(exposures: ExposureProfile, k: int) -> NashSolution:
    """Extreme equilibrium: trader k submits infinite elasticity, everyone
    else submits delta_i (1 + beta_i)_+; prices are exactly zero, trader k
    absorbs the whole market exposure and all others end market-neutral."""
    n = exposures.n_traders
    values = np.maximum(exposures.delta * (1.0 + exposures.beta), 0.0)
    values[k] = math.inf
    thetas = [Elasticity.from_float(v) for v in values.tolist()]
    shares = np.zeros(n)
    shares[k] = 1.0
    outcome = clearing_outcome(exposures, shares, np.zeros(exposures.n_securities))
    return NashSolution(
        kind=KIND_EXTREME,
        elasticities=tuple(thetas),
        theta_total=Elasticity.infinite(),
        k_shares=_frozen_array(shares),
        outcome=outcome,
        residuals=_frozen_array(np.zeros(n)),
    )


def nash_residuals(exposures: ExposureProfile, thetas: np.ndarray) -> np.ndarray:
    """Left-minus-right of the coupled equilibrium equations
    (2 + theta_{-i}/delta_i) k_i = 1 + beta_i for the active traders."""
    thetas = np.asarray(thetas, dtype=float)
    total = float(thetas.sum())
    res = np.zeros_like(thetas)
    active = exposures.beta > -1.0
    res[active] = (2.0 + (total - thetas[active]) / exposures.delta[active]) * (
        thetas[active] / total
    ) - (1.0 + exposures.beta[active])
    return res


# Finite equilibria with total elasticity beyond this multiple of delta_I sit
# within floating-point noise of the extreme boundary (an almost-pole of the
# closed forms); they cannot be computed to meaningful relative precision.
_BOUNDARY_GUARD = 1e12


def _finite_solution(exposures: ExposureProfile, thetas: np.ndarray, kind: str) -> NashSolution:
    thetas = np.asarray(thetas, dtype=float)
    total = float(thetas.sum())
    if not math.isfinite(total) or total > _BOUNDARY_GUARD * exposures.delta_total:
        raise ValueError(
            "instance lies within floating-point noise of the extreme-equilibrium "
            "boundary; the non-extreme elasticities are too large to compute reliably"
        )
    shares = thetas / total
    prices = -exposures.cov_total / total
    return NashSolution(
        kind=kind,
        elasticities=tuple(Elasticity.from_float(t) for t in thetas),
        theta_total=Elasticity.finite(total),
        k_shares=_frozen_array(shares),
        outcome=clearing_outcome(exposures, shares, prices),
        residuals=_frozen_array(nash_residuals(exposures, thetas)),
    )


def solve_bilateral(exposures: ExposureProfile) -> NashSolution:
    """Closed form when exactly two traders have beta > -1 (all others are
    passive and submit zero elasticity)."""
    if exposures.is_trivial:
        raise ValueError("bilateral solver requires a non-trivial instance")
    beta = exposures.beta
    active = (beta > -1.0).nonzero()[0].tolist()
    if len(active) != 2:
        raise ValueError(f"bilateral solver needs exactly two active traders, found {len(active)}")
    i0, i1 = active
    lam0, lam1 = float(exposures.lam[i0]), float(exposures.lam[i1])
    b0, b1 = float(beta[i0]), float(beta[i1])
    if abs(lam0 * b0 - lam1 * b1) >= lam0 + lam1:
        raise ValueError("extreme condition holds for this pair; route to solve_extreme")
    beta_sum = b0 + b1
    lam_sum = lam0 + lam1
    thetas = np.zeros(exposures.n_traders)
    thetas[i0] = (
        exposures.delta[i0] * 2.0 * lam1 * beta_sum / (lam_sum + (lam1 * b1 - lam0 * b0))
    )
    thetas[i1] = (
        exposures.delta[i1] * 2.0 * lam0 * beta_sum / (lam_sum + (lam0 * b0 - lam1 * b1))
    )
    return _finite_solution(exposures, thetas, KIND_BILATERAL)


class _FollowerPhi:
    """phi(x, delta_i, beta_i) over arrays of traders, with what depends only
    on (delta_i, beta_i) computed once.

    Each entry takes exactly the floating-point operations of the scalar
    product form, so a value does not depend on how many are evaluated
    together.  For beta_i <= 1 the discriminant is at least (delta_i - x/2)^2
    and rounds below zero by a few ulps of half^2 at most, so only betas above
    one can fail the discriminant check.
    """

    def __init__(self, delta: np.ndarray, beta: np.ndarray):
        self.delta, self.beta = delta, beta
        self.scale = delta * (1.0 + beta)
        self.kink = (beta == 1.0).nonzero()[0]  # where the discriminant cancels
        self.above = (beta > 1.0).nonzero()[0]

    def __call__(self, x: float) -> np.ndarray:
        if x <= 0.0:
            return np.zeros(self.delta.size)
        half = self.delta + 0.5 * x
        scaled = self.scale * x
        disc = half * half - scaled
        if self.above.size:
            h = half[self.above]
            low = disc[self.above] < -1e-14 * h * h
            if np.count_nonzero(low):
                beta_i = self.beta[self.above[low.argmax()]]
                raise ValueError(f"negative discriminant for beta={beta_i}; outside (-1, 1]")
        theta = scaled / (half + np.sqrt(np.maximum(disc, 0.0)))
        if self.kink.size:
            theta[self.kink] = np.minimum(x, 2.0 * self.delta[self.kink])
        return theta


def phi(x: float, delta_i: float, beta_i: float) -> float:
    """Follower elasticity delta_i + x/2 - sqrt((delta_i + x/2)^2 -
    delta_i (1 + beta_i) x) given total elasticity x, for -1 < beta_i <= 1.

    Evaluated in the algebraically equivalent product form
    delta_i (1 + beta_i) x / (delta_i + x/2 + sqrt(disc)), which is free of
    cancellation for large x; the kinked exact form min(x, 2 delta_i) is used
    at beta_i = 1 where the discriminant itself cancels.
    """
    one = _FollowerPhi(np.array([float(delta_i)]), np.array([float(beta_i)]))
    return float(one(x)[0])


class GeneralSystem:
    """Scalar reduction of the coupled equilibrium system.

    leader is a maximal-beta trader (lowest index on ties); followers are the
    remaining traders with beta in (-1, 1]; everyone else is passive with zero
    elasticity.  F is strictly decreasing with F(0+) > 1, so the equilibrium
    total elasticity is the unique root of F(x) = 1.
    """

    def __init__(self, exposures: ExposureProfile):
        beta = exposures.beta
        self.leader = int(np.argmax(beta))
        follower = (beta > -1.0) & (beta <= 1.0)
        passive = beta <= -1.0
        follower[self.leader] = passive[self.leader] = False
        self.followers = follower.nonzero()[0].tolist()
        self.passive = passive.nonzero()[0].tolist()
        self._phi = _FollowerPhi(exposures.delta[follower], beta[follower])
        self.delta0 = float(exposures.delta[self.leader])
        self.beta0 = float(beta[self.leader])

    def follower_thetas(self, x: float) -> np.ndarray:
        """phi(x, delta_i, beta_i) of every follower, in order."""
        return self._phi(x)

    def sigma(self, x: float) -> float:
        # Python's sum adds left to right (numpy's adds pairwise); that order
        # fixes F's bits, and with them every bisection iterate.
        return sum(self.follower_thetas(x).tolist())

    def F(self, x: float) -> float:
        s = self.sigma(x)
        return (1.0 + self.beta0) * self.delta0 / (2.0 * self.delta0 + s) + s / x

    def leader_theta(self, x: float) -> float:
        return (1.0 + self.beta0) * self.delta0 * x / (2.0 * self.delta0 + self.sigma(x))


def _bisect_total_elasticity(system: GeneralSystem, delta_total: float) -> float:
    lo = 1e-12 * delta_total
    if not system.F(lo) > 1.0:
        raise BracketError(f"F({lo:g}) <= 1 at the lower bracket end; precondition violated")
    hi = delta_total
    doublings = 0
    while system.F(hi) >= 1.0:
        hi *= 2.0
        doublings += 1
        if doublings > _MAX_DOUBLINGS:
            raise BracketError("F never crossed 1 while doubling the upper bracket end")
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        fm = system.F(mid)
        if abs(fm - 1.0) < _KEY_FTOL and (hi - lo) < _KEY_XTOL * (1.0 + mid):
            return mid
        if fm > 1.0:
            lo = mid
        else:
            hi = mid
    raise ConsistencyError("bisection failed to reach tolerance")


def solve_general(exposures: ExposureProfile) -> NashSolution:
    """Constructive solver for the non-extreme equilibrium with any number of
    traders, assuming at most one beta exceeds one.

    Returns an unsupported-regime result (not an exception) when two or more
    betas exceed one while the extreme condition fails, since uniqueness is
    only conjectured there.
    """
    if exposures.is_trivial:
        raise ValueError("general solver requires a non-trivial instance")
    high = (exposures.beta > 1.0).nonzero()[0].tolist()
    if len(high) >= 2:
        betas = ", ".join(f"beta[{i}]={exposures.beta[i]:g}" for i in high)
        return NashSolution(
            kind=KIND_UNSUPPORTED,
            elasticities=None,
            theta_total=None,
            k_shares=None,
            outcome=None,
            residuals=None,
            detail=(
                f"{len(high)} traders have beta > 1 ({betas}) and the extreme "
                "condition fails: existence/uniqueness is not established"
            ),
        )
    if check_extreme_condition(exposures) is not None:
        raise ValueError("extreme condition holds; route to solve_extreme")

    system = GeneralSystem(exposures)
    total = _bisect_total_elasticity(system, exposures.delta_total)
    thetas = np.zeros(exposures.n_traders)
    thetas[system.followers] = system.follower_thetas(total)
    thetas[system.leader] = system.leader_theta(total)
    return _finite_solution(exposures, thetas, KIND_GENERAL)


def _trivial_solution(exposures: ExposureProfile) -> NashSolution:
    # Any elasticity vector is an equilibrium here; report the true tolerances
    # as the representative and the common prices/allocations.
    thetas = tuple(Elasticity.finite(d) for d in exposures.delta)
    outcome = clearing_outcome(
        exposures,
        np.zeros(exposures.n_traders),
        np.zeros(exposures.n_securities),
        beta_defined=False,
    )
    return NashSolution(
        kind=KIND_TRIVIAL,
        elasticities=thetas,
        theta_total=Elasticity.finite(exposures.delta_total),
        k_shares=_frozen_array(exposures.lam),
        outcome=outcome,
        residuals=None,
        detail="a_I = 0: every elasticity vector clears at zero prices with q_i = -a_i",
    )


# Elasticity kinds as small integer codes for the array verification.
_ZERO, _FINITE, _INFINITE = 0, 1, 2
_KIND_CODES = {"zero": _ZERO, "finite": _FINITE, "infinite": _INFINITE}


def fixed_point_deviation(exposures: ExposureProfile, elasticities) -> float:
    """Worst-case relative deviation of each elasticity from the best response
    to the others; infinite on any branch mismatch.

    Runs in O(N): each trader's rest elasticity is an exclusive prefix sum
    plus a suffix sum of the others' elasticities (not the total minus the own
    one, which cancels when one trader holds almost all of theta), and the
    branches of the closed-form best response are evaluated as arrays.  The
    verdicts are those of calling best_response trader by trader in index
    order: the first trader whose best response is undefined raises
    ValueError, unless an earlier trader's branch mismatches, which gives inf.
    """
    if exposures.is_trivial:
        raise ValueError("best response is undefined on a trivial instance (flat response)")
    kind = np.array([_KIND_CODES[t.kind] for t in elasticities], dtype=np.int8)
    theta = np.array([t.value for t in elasticities])
    infinite = kind == _INFINITE
    n_infinite = np.count_nonzero(infinite)
    finite_part = np.where(infinite, 0.0, theta) if n_infinite else theta
    rest = np.zeros(theta.size)
    rest[1:] = np.add.accumulate(finite_part[:-1])
    rest[:-1] += np.add.accumulate(finite_part[:0:-1])[::-1]
    if n_infinite:  # the rest is infinite where anyone else's theta is
        rest[n_infinite - infinite > 0] = math.inf

    # best_response's branches as arrays: zero for beta <= -1, infinite for
    # beta >= 1 + rest/delta (never against an infinite rest), the interior
    # closed form otherwise, which is delta (1 + beta) against an infinite
    # rest; against a zero rest the response is undefined unless beta > 1.
    beta, delta = exposures.beta, exposures.delta
    with np.errstate(divide="ignore", invalid="ignore"):
        escalate = beta >= 1.0 + rest / delta
        br = delta * rest * (1.0 + beta) / (rest + delta * (1.0 - beta))
    rest_inf = np.isinf(rest)
    if np.count_nonzero(rest_inf):
        br = np.where(rest_inf, delta * (1.0 + beta), br)
    passive = beta <= -1.0
    interior = ~(passive | escalate)
    undefined = (rest == 0.0) & (beta <= 1.0)
    bad_value = interior & ~((br > 0.0) & (br < math.inf))
    mismatch = ((kind == _ZERO) != passive) | ((kind == _INFINITE) != escalate)
    stop = undefined | bad_value | mismatch
    if np.count_nonzero(stop):
        first = int(np.argmax(stop))
        if undefined[first]:
            raise ValueError(
                "theta_rest = 0 is only meaningful against beta_i > 1; "
                "the response problem is undefined otherwise"
            )
        if bad_value[first]:
            raise ValueError("finite elasticity must be a strictly positive real")
        return math.inf
    br, theta = br[interior], theta[interior]
    return max((np.abs(br - theta) / np.maximum(br, np.abs(theta))).tolist(), default=0.0)


def _extreme_boundary_margin(exposures: ExposureProfile) -> float:
    """Relative distance of the betas from the extreme-condition boundary.

    Instances inside floating-point noise of that boundary cannot be verified
    to tolerance by any route, since the non-extreme equilibrium has a pole
    there.
    """
    delta, beta = exposures.delta, exposures.beta
    plus = np.maximum(delta * (1.0 + beta), 0.0)
    total_plus = float(plus.sum())
    thresholds = 1.0 + (total_plus - plus) / delta
    scale = max(1.0, float(np.max(np.abs(beta))), float(np.max(np.abs(thresholds))))
    return float(np.min(np.abs(beta - thresholds))) / scale


def solve(exposures: ExposureProfile) -> NashSolution:
    """Classify and solve the unique linear Nash equilibrium.

    Every solved (non-trivial, supported) solution is verified coordinatewise
    against the closed-form best response before being returned.  Instances
    whose betas sit within floating-point noise of the extreme boundary are
    rejected with ValueError when that verification cannot be met.
    """
    if exposures.is_trivial:
        return _trivial_solution(exposures)
    k = check_extreme_condition(exposures)
    if k is not None:
        solution = solve_extreme(exposures, k)
    else:
        active = int(np.sum(exposures.beta > -1.0))
        if active == 2:
            solution = solve_bilateral(exposures)
        else:
            solution = solve_general(exposures)
    if solution.kind == KIND_UNSUPPORTED:
        return solution

    failure = None
    if solution.residuals is not None:
        worst_residual = float(np.max(np.abs(solution.residuals)))
        if worst_residual > RESIDUAL_TOL:
            failure = f"equilibrium residuals exceed tolerance: {worst_residual:g}"
    if failure is None:
        deviation = fixed_point_deviation(exposures, solution.elasticities)
        if deviation > FIXED_POINT_RTOL:
            failure = f"best-response verification failed: deviation {deviation:g}"
    if failure is not None:
        if _extreme_boundary_margin(exposures) < 1e-6:
            raise ValueError(
                "instance lies within floating-point noise of the extreme-equilibrium "
                "boundary and cannot be verified to tolerance"
            )
        raise ConsistencyError(failure)
    return solution
