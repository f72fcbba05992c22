"""Noncompetitive (Nash) equilibrium: classification and solvers.

One kernel, `_equilibrium`, classifies, solves and verifies.  It decides the
regime in the order of the theory: the trivial case a_I = 0 first, then the
extreme regime (one trader submits infinite elasticity, prices are zero), then
the bilateral closed form when exactly two traders are active, then the
unsupported regime, and otherwise the general constructive solver, which
reduces the coupled quadratic system to a single monotone scalar equation in
the total elasticity and solves it by Brent's method on a bisection bracket.
`solve` runs the kernel on one market and raises where it fails; `solve_grid`
runs it on a stacked profile (one derived from `MarketModel.stacked`) and
marks the failed points KIND_FAILED.  The kernel's arrays have the trader on
their last axis and an optional leading grid axis; each step runs once per
call, over every point that needs it, with the one-market arithmetic, so a
grid point gets the bits it gets alone, and each general point is root-found
on its own.  `solve_extreme`, `solve_bilateral` and `solve_general` are
per-regime references that trust their documented preconditions.

Configurations with two or more betas above one where the extreme condition
fails (and more than two traders are active) are reported as an unsupported
regime rather than guessed: uniqueness is not established there.

Every solution is verified against the closed-form best response of each
trader to the others in O(N): the others' aggregate elasticity comes from
prefix and suffix sums, and the best-response branches are evaluated as
arrays, with the verdicts of a trader-by-trader check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .best_response import Elasticity
from .competitive import EquilibriumOutcome, clearing_outcome
from .errors import BracketError, ConsistencyError
from .model import ExposureProfile, _frozen

KIND_TRIVIAL = "trivial"
KIND_EXTREME = "extreme"
KIND_BILATERAL = "bilateral_closed_form"
KIND_GENERAL = "general_non_extreme"
KIND_UNSUPPORTED = "unsupported_regime"
# A grid point that solve would reject with one of SOLVE_ERRORS.
KIND_FAILED = "solve_failed"

# What solve and compare raise on an instance they cannot solve or verify:
# ValueError for boundary rejections, the others for failed internal checks.
SOLVE_ERRORS = (ValueError, ConsistencyError, BracketError)

# Max tolerated residual of the coupled equilibrium equations for a finite
# solution, and relative tolerance of the coordinatewise best-response check.
RESIDUAL_TOL = 1e-8
FIXED_POINT_RTOL = 1e-8

# Root-finding on the scalar equilibrium equation.
_KEY_FTOL = 1e-12
_KEY_XTOL = 1e-12
_MAX_ITERATIONS = 500


@dataclass(frozen=True, eq=False)
class NashSolution:
    """Solved (or classified) noncompetitive equilibrium.

    thetas holds the submitted elasticities as a read-only float array: each
    entry is 0.0, a finite positive value, or +inf, the three Elasticity kinds;
    theta_total is their sum as a float (+inf in the extreme regime).
    k_shares are theta_i / theta_total with the conventions 1 at infinity and
    0 elsewhere in the extreme regime; residuals are left-minus-right of the
    coupled equilibrium equations for diagnostic reporting.  Fields without
    a value for the kind are None: all but kind and detail when unsupported,
    and the residuals of a trivial market.

    solve_grid's solution has a leading grid axis: kind is an array of kinds,
    theta_total and detail are None, and the arrays hold NaN where one market
    holds None, and at the failed points.
    """

    kind: str
    thetas: np.ndarray | None
    theta_total: float | None
    k_shares: np.ndarray | None
    outcome: EquilibriumOutcome | None
    residuals: np.ndarray | None
    detail: str | None = None

    @property
    def elasticities(self) -> tuple[Elasticity, ...] | None:
        """thetas as a tuple of Elasticity values, built on each read."""
        if self.thetas is None:
            return None
        return tuple(Elasticity.from_float(t) for t in self.thetas.tolist())


def _exclusive_sums(values: np.ndarray) -> np.ndarray:
    """sum_{j != i} values[j] for every i along the last axis, as a prefix
    plus a suffix sum (the total minus values[i] cancels when one entry holds
    almost all of it)."""
    rest = np.zeros(values.shape)
    rest[..., 1:] = np.add.accumulate(values[..., :-1], axis=-1)
    rest[..., :-1] += np.add.accumulate(values[..., :0:-1], axis=-1)[..., ::-1]
    return rest


def _positive_terms(exposures: ExposureProfile) -> np.ndarray:
    """delta_i (1 + beta_i)_+: each trader's elasticity against an infinite
    rest, and their term in the extreme condition."""
    return np.maximum(exposures.delta * (1.0 + exposures.beta), 0.0)


def _extreme_thresholds(exposures: ExposureProfile) -> tuple[np.ndarray, np.ndarray]:
    """The terms delta_i (1 + beta_i)_+ and the thresholds 1 + rest_i / delta_i,
    rest_i the exclusive sum of the others' terms."""
    plus = _positive_terms(exposures)
    return plus, 1.0 + _exclusive_sums(plus) / exposures.delta


def _extreme_hits(exposures: ExposureProfile) -> tuple[np.ndarray, np.ndarray]:
    """The traders meeting the extreme condition beta_k >= 1 + rest_k /
    delta_k, and per market the margin by which the aggregate reformulation
    sum delta_i (1 + beta_i)_+ <= 2 max delta_i beta_i disagrees with them
    beyond rounding noise (0 where the two tests agree)."""
    plus, thresholds = _extreme_thresholds(exposures)
    hits = exposures.beta >= thresholds
    total_plus = plus.sum(axis=-1)
    two_max = 2.0 * np.max(exposures.delta * exposures.beta, axis=-1)
    margin = np.abs(total_plus - two_max)
    noise = 1e-9 * np.maximum(np.maximum(1.0, total_plus), np.abs(two_max))
    disagree = ((total_plus <= two_max) != hits.any(axis=-1)) & (margin > noise)
    return hits, np.where(disagree, margin, 0.0)


def check_extreme_condition(exposures: ExposureProfile) -> int | None:
    """Index of the unique trader who behaves risk-neutrally at equilibrium,
    or None when the equilibrium is non-extreme.

    Trader k is extreme when beta_k >= 1 + rest_k / delta_k with rest_k =
    sum_{j != k} delta_j (1 + beta_j)_+ summed exclusively; a tie is extreme.
    The best-response check runs the same arithmetic on solve_extreme's
    output, so an instance classified extreme always verifies.  The aggregate
    reformulation (sum delta_i (1 + beta_i)_+ <= 2 max delta_i beta_i) is a
    cross-check; a disagreement beyond rounding noise is an internal error.
    """
    if exposures.is_trivial:
        raise ValueError("extreme classification is undefined on a trivial instance")
    hits, disagreement = _extreme_hits(exposures)
    leaders = hits.nonzero()[0].tolist()
    code = 1 if len(leaders) > 1 else 2 if disagreement else 0
    if code:
        raise _failure(code, hits, disagreement)
    return leaders[0] if leaders else None


def _extreme_parts(exposures: ExposureProfile, leader) -> tuple[np.ndarray, np.ndarray]:
    """Elasticities and shares of the extreme equilibrium led by `leader`."""
    is_leader = np.arange(exposures.n_traders) == np.asarray(leader)[..., None]
    return np.where(is_leader, math.inf, _positive_terms(exposures)), is_leader.astype(float)


def solve_extreme(exposures: ExposureProfile, k: int) -> NashSolution:
    """Extreme equilibrium: trader k submits infinite elasticity, everyone
    else submits delta_i (1 + beta_i)_+; prices are exactly zero, trader k
    absorbs the whole market exposure and all others end market-neutral."""
    thetas, shares = map(_frozen, _extreme_parts(exposures, k))
    outcome = clearing_outcome(exposures, shares, np.zeros(exposures.n_securities))
    residuals = _frozen(np.zeros(exposures.n_traders))
    return NashSolution(KIND_EXTREME, thetas, math.inf, shares, outcome, residuals)


def nash_residuals(exposures: ExposureProfile, thetas: np.ndarray) -> np.ndarray:
    """Left-minus-right of the coupled equilibrium equations
    (2 + theta_{-i}/delta_i) k_i = 1 + beta_i for the active traders."""
    thetas = np.asarray(thetas, dtype=float)
    total = thetas.sum(axis=-1, keepdims=True)
    beta = exposures.beta
    with np.errstate(divide="ignore", invalid="ignore"):
        res = (2.0 + (total - thetas) / exposures.delta) * (thetas / total) - (1.0 + beta)
    return np.where(beta > -1.0, res, 0.0)


# Finite equilibria with total elasticity beyond this multiple of delta_I sit
# within floating-point noise of the extreme boundary (an almost-pole of the
# closed forms); they cannot be computed to meaningful relative precision.
_BOUNDARY_GUARD = 1e12
_BOUNDARY_MESSAGE = (
    "instance lies within floating-point noise of the extreme-equilibrium "
    "boundary; the non-extreme elasticities are too large to compute reliably"
)


def _finite_parts(exposures: ExposureProfile, thetas: np.ndarray):
    """Total elasticity, shares and prices of a finite solution, and whether
    the total lies in (0, _BOUNDARY_GUARD delta_I]."""
    total = thetas.sum(axis=-1, keepdims=True)
    in_range = (0.0 < total[..., 0]) & (total[..., 0] <= _BOUNDARY_GUARD * exposures.delta_total)
    with np.errstate(divide="ignore", invalid="ignore"):
        return total[..., 0], thetas / total, -exposures.cov_total / total, in_range


def _finite_solution(exposures: ExposureProfile, thetas: np.ndarray, kind: str) -> NashSolution:
    total, shares, prices, in_range = _finite_parts(exposures, thetas)
    if not in_range:
        raise ValueError(_BOUNDARY_MESSAGE)
    outcome = clearing_outcome(exposures, shares, prices)
    residuals = _frozen(nash_residuals(exposures, thetas))
    return NashSolution(kind, _frozen(thetas), float(total), _frozen(shares), outcome, residuals)


def _bilateral_thetas(exposures: ExposureProfile) -> np.ndarray:
    """The bilateral closed form, for markets with exactly two traders with
    beta > -1 (the first and the last such trader are taken; everyone else is
    passive with zero elasticity)."""
    beta, lam, delta = exposures.beta, exposures.lam, exposures.delta
    active = beta > -1.0
    n = active.shape[-1]
    i0 = np.argmax(active, axis=-1)[..., None]
    i1 = n - 1 - np.argmax(active[..., ::-1], axis=-1)[..., None]
    pair = np.concatenate([i0, i1], axis=-1)
    lams, betas, deltas = (np.take_along_axis(x, pair, -1) for x in (lam, beta, delta))
    lam0, lam1, b0, b1 = lams[..., :1], lams[..., 1:], betas[..., :1], betas[..., 1:]
    d0, d1 = deltas[..., :1], deltas[..., 1:]
    beta_sum = b0 + b1
    lam_sum = lam0 + lam1
    gap = lam0 * b0 - lam1 * b1
    # a denominator can round to zero on the boundary; _finite_parts rejects it
    with np.errstate(divide="ignore", invalid="ignore"):
        theta0 = d0 * 2.0 * lam1 * beta_sum / (lam_sum - gap)
        theta1 = d1 * 2.0 * lam0 * beta_sum / (lam_sum + gap)
    trader = np.arange(n)
    return np.where(trader == i0, theta0, np.where(trader == i1, theta1, 0.0))


def solve_bilateral(exposures: ExposureProfile) -> NashSolution:
    """Closed form when exactly two traders have beta > -1 (all others are
    passive and submit zero elasticity).

    Precondition: the instance is in the bilateral regime, i.e. it is
    non-trivial, exactly two traders are active and the extreme condition
    fails.
    """
    if np.count_nonzero(exposures.beta > -1.0) != 2:
        raise ValueError("the bilateral closed form needs exactly two traders with beta > -1")
    return _finite_solution(exposures, _bilateral_thetas(exposures), KIND_BILATERAL)


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
        self._half, self._scaled, self._disc = (np.empty(delta.size) for _ in range(3))

    def __call__(self, x: float) -> np.ndarray:
        if x <= 0.0:
            return np.zeros(self.delta.size)
        # scaled / (half + sqrt(max(half^2 - scaled, 0))), in scratch buffers
        half = np.add(self.delta, 0.5 * x, out=self._half)
        scaled = np.multiply(self.scale, x, out=self._scaled)
        disc = np.multiply(half, half, out=self._disc)
        disc -= scaled
        if self.above.size:
            h = half[self.above]
            low = disc[self.above] < -1e-14 * h * h
            if np.count_nonzero(low):
                beta_i = self.beta[self.above[low.argmax()]]
                raise ValueError(f"negative discriminant for beta={beta_i}; outside (-1, 1]")
        root = np.sqrt(np.maximum(disc, 0.0, out=disc), out=disc)
        theta = scaled / np.add(half, root, out=root)
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
        follower[self.leader] = False
        self.follower_mask = follower
        self._phi = _FollowerPhi(exposures.delta[follower], beta[follower])
        self.delta0 = float(exposures.delta[self.leader])
        self.beta0 = float(beta[self.leader])
        # x -> (follower thetas, sigma) of the last two evaluations: Brent's
        # method ends on one of them, mostly the one before last
        self._recent: dict[float, tuple[np.ndarray, float]] = {}

    def _evaluate(self, x: float) -> tuple[np.ndarray, float]:
        recent = self._recent.get(x)
        if recent is None:
            thetas = _frozen(self._phi(x))
            # A running sum adds left to right (numpy's sum adds pairwise, and
            # Python's sum compensates from 3.12 on); that order fixes F's
            # bits, and with them the root and the general solution.
            recent = thetas, float(np.add.accumulate(thetas)[-1]) if thetas.size else 0.0
            if len(self._recent) == 2:
                del self._recent[next(iter(self._recent))]
            self._recent[x] = recent
        return recent

    @property
    def followers(self) -> list[int]:
        """The followers' indices, ascending."""
        return self.follower_mask.nonzero()[0].tolist()

    def follower_thetas(self, x: float) -> np.ndarray:
        """phi(x, delta_i, beta_i) of every follower, in order (read-only)."""
        return self._evaluate(x)[0]

    def sigma(self, x: float) -> float:
        return self._evaluate(x)[1]

    def F(self, x: float) -> float:
        s = self.sigma(x)
        return (1.0 + self.beta0) * self.delta0 / (2.0 * self.delta0 + s) + s / x

    def leader_theta(self, x: float) -> float:
        return (1.0 + self.beta0) * self.delta0 * x / (2.0 * self.delta0 + self.sigma(x))


def _root_total_elasticity(system: GeneralSystem, delta_total: float) -> float:
    """Root of F(x) = 1 by Brent's method (1973) on a bisection bracket.

    The bracket is [1e-12 delta_I, hi], hi doubled from delta_I until F(hi) < 1.
    Inside it, inverse quadratic or secant steps are taken while they shrink
    the bracket fast enough, and bisection steps otherwise; the bisection
    fallback covers F's kink at followers with beta = 1 and its flatness near
    the extreme boundary.  F - 1 > 0 marks the left side of the bracket and
    F - 1 <= 0 the right.  Returns b once |F(b) - 1| < _KEY_FTOL and the
    bracket [b, c] is narrower than _KEY_XTOL (1 + b).
    """
    lo = 1e-12 * delta_total
    f_lo = system.F(lo) - 1.0
    if not f_lo > 0.0:
        raise BracketError(f"F({lo:g}) <= 1 at the lower bracket end; precondition violated")
    hi = delta_total
    f_hi = system.F(hi) - 1.0
    while f_hi >= 0.0:
        if hi > _BOUNDARY_GUARD * delta_total:
            # the root lies beyond what _finite_solution accepts
            raise ValueError(_BOUNDARY_MESSAGE)
        hi *= 2.0
        f_hi = system.F(hi) - 1.0

    # b is the best estimate, c the bracket end across the root from b, a the
    # previous b; step and prev_step are the last two steps taken.
    a, fa, b, fb = lo, f_lo, hi, f_hi
    c, fc = a, fa
    step = prev_step = b - a
    for _ in range(_MAX_ITERATIONS):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            step = prev_step = b - a
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        tol = 0.5 * _KEY_XTOL * (1.0 + b)
        half = 0.5 * (c - b)
        if abs(fb) < _KEY_FTOL and abs(half) < tol:
            return b
        if abs(prev_step) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:  # inverse quadratic
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(prev_step * q)):
                prev_step, step = step, p / q
            else:
                prev_step = step = half
        else:
            prev_step = step = half
        a, fa = b, fb
        # move at least tol towards c, but never past the bracket's midpoint
        b += step if abs(step) >= tol else math.copysign(min(tol, abs(half)), half)
        fb = system.F(b) - 1.0
    raise ConsistencyError("root-finder failed to reach tolerance")


def _general_thetas(exposures: ExposureProfile) -> np.ndarray:
    """Elasticities of the general constructive solution of one market."""
    system = GeneralSystem(exposures)
    total = _root_total_elasticity(system, exposures.delta_total)
    thetas = np.zeros(exposures.n_traders)
    thetas[system.follower_mask] = system.follower_thetas(total)
    thetas[system.leader] = system.leader_theta(total)
    return thetas


def solve_general(exposures: ExposureProfile) -> NashSolution:
    """Constructive solver for the non-extreme equilibrium with any number of
    traders.

    Precondition: the instance is in the general regime, i.e. it is
    non-trivial, the extreme condition fails and at most one beta exceeds one.
    """
    return _finite_solution(exposures, _general_thetas(exposures), KIND_GENERAL)


# Any elasticity vector is an equilibrium of a trivial market; the true
# tolerances are reported as the representative.
_TRIVIAL_DETAIL = "a_I = 0: every elasticity vector clears at zero prices with q_i = -a_i"


def _unsupported_detail(exposures: ExposureProfile) -> str:
    # uniqueness is only conjectured here, so the regime is reported, not guessed
    high = (exposures.beta > 1.0).nonzero()[0]
    betas = ", ".join(f"beta[{i}]={exposures.beta[i]:g}" for i in high.tolist())
    return (
        f"{high.size} traders have beta > 1 ({betas}) and the extreme "
        "condition fails: existence/uniqueness is not established"
    )


_NOT_AN_ELASTICITY = "finite elasticity must be a strictly positive real"


def fixed_point_deviation(exposures: ExposureProfile, thetas):
    """Worst-case relative deviation of each elasticity from the best response
    to the others; infinite on any branch mismatch.

    thetas is a float array with 0.0 for a zero elasticity and +inf for an
    infinite one; NaN, negative and -inf entries are no elasticity and raise
    ValueError.  Runs in O(N): each trader's rest elasticity is an exclusive
    sum of the others' elasticities, and the branches of the closed-form best
    response are evaluated as arrays.  The verdicts are those of calling
    best_response trader by trader in index order: the first trader whose best
    response is undefined raises ValueError, unless an earlier trader's branch
    mismatches, which gives inf.

    Over a stacked profile with thetas of shape (G, N), one deviation per
    point, +inf where the one-market form raises.
    """
    theta = np.asarray(thetas, dtype=float)
    elasticities = np.all(theta >= 0.0, axis=-1)
    one_market = theta.ndim == 1
    if one_market and not elasticities:
        raise ValueError(_NOT_AN_ELASTICITY)
    if one_market and exposures.is_trivial:
        raise ValueError("best response is undefined on a trivial instance (flat response)")

    # best_response's branches as arrays: zero for beta <= -1, infinite for
    # beta >= 1 + rest/delta (never against an infinite rest), the interior
    # closed form otherwise, which is delta (1 + beta) against an infinite
    # rest; against a zero rest the response is undefined unless beta > 1.
    beta, delta = exposures.beta, exposures.delta
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # see bad_value
        rest = _exclusive_sums(theta)  # infinite exactly where anyone else's theta is
        escalate = beta >= 1.0 + rest / delta
        br = delta * rest * (1.0 + beta) / (rest + delta * (1.0 - beta))
        br = np.where(np.isinf(rest), delta * (1.0 + beta), br)
        passive = beta <= -1.0
        interior = ~(passive | escalate)
        undefined = (rest == 0.0) & (beta <= 1.0)
        bad_value = interior & ~((br > 0.0) & (br < math.inf))
        mismatch = ((theta == 0.0) != passive) | (np.isinf(theta) != escalate)
        relative = np.abs(br - theta) / np.maximum(br, np.abs(theta))
        deviation = np.max(np.where(interior, relative, 0.0), axis=-1)
        first = 0
        if (undefined | bad_value | mismatch).any():
            # the verdict of the first trader that stops the check
            stop = np.where(undefined, 1, np.where(bad_value, 2, np.where(mismatch, 3, 0)))
            first = np.take_along_axis(stop, np.argmax(stop > 0, axis=-1)[..., None], -1)[..., 0]
            deviation = np.where(first > 0, math.inf, deviation)
        undefined, bad_value = first == 1, first == 2
    if not one_market:
        raises = ~elasticities | np.asarray(exposures.is_trivial) | undefined | bad_value
        return np.where(raises, math.inf, deviation)
    if undefined:
        raise ValueError(
            "theta_rest = 0 is only meaningful against beta_i > 1; "
            "the response problem is undefined otherwise"
        )
    if bad_value:
        raise ValueError(_NOT_AN_ELASTICITY)
    return float(deviation)


def _extreme_boundary_margin(exposures: ExposureProfile) -> np.ndarray:
    """Relative distance of the betas from the extreme-condition boundary.

    Instances inside floating-point noise of that boundary cannot be verified
    to tolerance by any route, since the non-extreme equilibrium has a pole
    there.
    """
    beta = exposures.beta
    _, thresholds = _extreme_thresholds(exposures)
    scale = np.maximum(1.0, np.abs(np.concatenate([beta, thresholds], axis=-1)).max(axis=-1))
    return np.abs(beta - thresholds).min(axis=-1) / scale


# Why the kernel leaves a point unsolved, by failure code in the order of
# precedence (0: solved, or unsupported): the exception solve raises and its
# message.  Codes 1-2 come from the classification, 3 from the boundary guard
# on a finite total, 4-6 from the verification; _ROOT_FAILED is the
# root-finder's own exception, kept as caught.
_FAILURES = (
    None,
    (ConsistencyError, "extreme condition held for several traders: {leaders}"),
    (ConsistencyError, "extreme-condition tests disagree: "
                       "per-trader={hit}, aggregate={miss}, margin={margin:g}"),
    (ValueError, _BOUNDARY_MESSAGE),
    (ValueError, "instance lies within floating-point noise of the extreme-equilibrium "
                 "boundary and cannot be verified to tolerance"),
    (ConsistencyError, "equilibrium residuals exceed tolerance: {worst:g}"),
    (ConsistencyError, "best-response verification failed: deviation {deviation:g}"),
)
_ROOT_FAILED = len(_FAILURES)


def _failure(code, hits, margin, worst=math.nan, deviation=math.nan, error=None) -> Exception:
    """One market's failure as an exception, worded from the kernel's
    diagnostics, or the root-finder's own `error`."""
    if code == _ROOT_FAILED:
        return error
    exception, message = _FAILURES[code]
    leaders = hits.nonzero()[0].tolist()
    return exception(message.format(
        leaders=leaders, hit=bool(leaders), miss=not leaders, margin=float(margin),
        worst=float(worst), deviation=float(deviation),
    ))


# The kernel's kinds, by index.
_KINDS = np.array([KIND_TRIVIAL, KIND_EXTREME, KIND_BILATERAL, KIND_UNSUPPORTED, KIND_GENERAL,
                   KIND_FAILED], dtype=object)
_TRIVIAL, _EXTREME, _BILATERAL, _UNSUPPORTED, _GENERAL, _FAILED = range(len(_KINDS))


def _some(mask) -> bool:
    """Whether mask holds at some point: on one market a plain truth test,
    about twenty times cheaper than .any() on a numpy scalar."""
    return mask.any() if mask.ndim else bool(mask)


def _fill(mask, *pairs) -> None:
    """Write each (array, values) pair at the points of mask."""
    for array, values in pairs:
        np.copyto(array, values, where=mask[..., None])


def _equilibrium(exposures: ExposureProfile):
    """Classify, solve and verify one market, or every point of a stacked
    profile at once: the one dispatch behind solve and solve_grid.

    Returns the solution (KIND_FAILED and NaN at the grid points that fail),
    each point's failure code and the diagnostics _failure words it with.  A
    step runs only when some point needs it.  On one market,
    fixed_point_deviation raises its own ValueError where a solution is no
    elasticity vector."""
    one_market = exposures.valid is None
    valid = np.asarray(True if one_market else exposures.valid)
    trivial = valid & exposures.is_trivial
    live = valid & ~trivial
    kind = np.full(valid.shape, _TRIVIAL)
    code = np.zeros(valid.shape, dtype=int)
    found = {"hits": None, "margin": 0.0}
    thetas, shares, residuals = np.full((3, *exposures.delta.shape), np.nan)
    prices = np.full(exposures.cov_total.shape, np.nan)
    # one errstate for every step: failed or unsolved points of a grid carry
    # NaN and inf, and risk tolerances near the float maximum overflow
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if _some(trivial):
            _fill(trivial, (thetas, exposures.delta), (shares, 0.0), (prices, 0.0))
        if _some(live):
            found["hits"], found["margin"] = hits, disagreement = _extreme_hits(exposures)
            n_hits = hits.sum(axis=-1)
            n_active, n_high = ((exposures.beta > b).sum(axis=-1) for b in (-1.0, 1.0))
            regime = np.where(n_high >= 2, _UNSUPPORTED, _GENERAL)
            regime = np.where(n_hits == 1, _EXTREME, np.where(n_active == 2, _BILATERAL, regime))
            kind = np.where(live, regime, kind)
            code = np.where(live, np.where(n_hits > 1, 1, np.where(disagreement > 0.0, 2, 0)), 0)
        todo = np.where(live & (code == 0), kind, _TRIVIAL)
        extreme, bilateral, general = todo == _EXTREME, todo == _BILATERAL, todo == _GENERAL

        if _some(extreme):
            extreme_thetas, extreme_shares = _extreme_parts(exposures, hits.argmax(axis=-1))
            _fill(extreme, (thetas, extreme_thetas), (shares, extreme_shares),
                  (prices, 0.0), (residuals, 0.0))
        if _some(bilateral):
            _fill(bilateral, (thetas, _bilateral_thetas(exposures)))
        for g in np.flatnonzero(general).tolist():
            at = () if one_market else g
            try:
                thetas[at] = _general_thetas(exposures if one_market else exposures.point(g))
            except SOLVE_ERRORS as exc:
                code[at], found["error"] = _ROOT_FAILED, exc
        finite = (bilateral | general) & (code == 0)
        if _some(finite):
            _, finite_shares, finite_prices, in_range = _finite_parts(exposures, thetas)
            _fill(finite, (shares, finite_shares), (prices, finite_prices),
                  (residuals, nash_residuals(exposures, thetas)))
            code = np.where(finite & ~in_range, 3, code)

        solved = (extreme | finite) & (code == 0)
        if _some(solved):
            # 1: a residual exceeds RESIDUAL_TOL, 2: the deviation FIXED_POINT_RTOL
            found["worst"] = worst = np.max(np.abs(residuals), axis=-1)
            found["deviation"] = deviation = fixed_point_deviation(exposures, thetas)
            verdict = np.where(worst > RESIDUAL_TOL, 1, 2 * (deviation > FIXED_POINT_RTOL))
            failed = solved & (verdict > 0)
            if _some(failed):
                near = _extreme_boundary_margin(exposures) < 1e-6
                code = np.where(failed, np.where(near, 4, 4 + verdict), code)
                solved = solved & ~failed
        unsolved = ~(solved | trivial)
        if _some(unsolved):
            _fill(unsolved, *((values, np.nan) for values in (thetas, shares, prices, residuals)))
        k_shares = np.where(trivial[..., None], exposures.lam, shares) if _some(trivial) else shares
        outcome = clearing_outcome(exposures, shares, prices)

    if not one_market:
        kinds = _KINDS[np.where(valid & (code == 0), kind, _FAILED)]
        thetas, k_shares, residuals = (_frozen(a) for a in (thetas, k_shares, residuals))
        return NashSolution(_frozen(kinds), thetas, None, k_shares, outcome, residuals), code, found
    if kind == _UNSUPPORTED:
        detail = _unsupported_detail(exposures)
        return NashSolution(KIND_UNSUPPORTED, None, None, None, None, None, detail), code, found
    return NashSolution(
        _KINDS[kind], _frozen(thetas), float(thetas.sum()), _frozen(k_shares), outcome,
        None if trivial else _frozen(residuals), _TRIVIAL_DETAIL if trivial else None,
    ), code, found


def solve(exposures: ExposureProfile) -> NashSolution:
    """Classify, solve and verify the unique linear Nash equilibrium of one
    market.

    The kernel decides the regime: trivial, extreme, bilateral (exactly two
    traders with beta > -1), unsupported (two or more betas above one) or
    general, in that order, and verifies every solved (non-trivial, supported)
    solution coordinatewise against the closed-form best response.  Where it
    fails, solve raises one of SOLVE_ERRORS: ValueError for an instance within
    floating-point noise of the extreme boundary, the others for failed checks.
    """
    solution, code, found = _equilibrium(exposures)
    if code:
        raise _failure(code, **found)
    return solution


def solve_grid(exposures: ExposureProfile) -> NashSolution:
    """Classify, solve and verify every point of a stacked profile at once.

    The kernel of solve, run over the grid: each point gets the kind and the
    bits that solve gives it alone, or KIND_FAILED where solve would raise;
    points that failed validation are KIND_FAILED too.
    """
    return _equilibrium(exposures)[0]
