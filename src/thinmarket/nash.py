"""Noncompetitive (Nash) equilibrium: classification and solvers.

`solve` is the one entry point for one market, and it decides the regime
once, in the order of the theory: the trivial case a_I = 0 first, then the
extreme regime (one trader submits infinite elasticity, prices are zero), then
the bilateral closed form when exactly two traders are active, then the
unsupported regime, and otherwise the general constructive solver, which
reduces the coupled quadratic system to a single monotone scalar equation in
the total elasticity and solves it by Brent's method on a bisection bracket.
The per-regime solvers trust that dispatch and do not check their regime
again.

Configurations with two or more betas above one where the extreme condition
fails (and more than two traders are active) are reported as an unsupported
regime rather than guessed: uniqueness is not established there.

Every solution is verified against the closed-form best response of each
trader to the others.  The verification is O(N): the others' aggregate
elasticity comes from prefix and suffix sums, and the best-response branches
are evaluated as arrays, with the verdicts of a trader-by-trader check.

The classification, the extreme and bilateral closed forms, the residuals and
the verification are written over arrays whose last axis is the trader, with
optional leading grid axes.  `solve_grid` runs them over a stacked profile
(one derived from `MarketModel.stacked`), every point at once, and gives each
point the kind that `solve` gives it alone, or KIND_FAILED where `solve` would
raise; general points go through `solve` one at a time.
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
    coupled equilibrium equations for diagnostic reporting.  For the
    unsupported regime only kind and detail are populated.

    solve_grid's solution has a leading grid axis: kind is an array of kinds,
    theta_total and detail are None, and the arrays hold NaN at the points
    without a solution (unsupported, failed) and, in residuals, the trivial
    ones.
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
    if len(leaders) > 1:
        raise ConsistencyError(f"extreme condition held for several traders: {leaders}")
    if disagreement:
        raise ConsistencyError(
            "extreme-condition tests disagree: "
            f"per-trader={bool(leaders)}, aggregate={not leaders}, margin={disagreement:g}"
        )
    return leaders[0] if leaders else None


def _n_active(exposures: ExposureProfile) -> np.ndarray:
    return np.count_nonzero(exposures.beta > -1.0, axis=-1)


def _regime(exposures: ExposureProfile, leader) -> np.ndarray:
    """The regime of a non-trivial market whose extreme classification gave
    `leader` (-1 for none): extreme, bilateral (exactly two betas > -1),
    unsupported (two or more betas > 1) or general, in that order."""
    unsupported = np.count_nonzero(exposures.beta > 1.0, axis=-1) >= 2
    return np.where(
        np.asarray(leader) >= 0,
        KIND_EXTREME,
        np.where(
            _n_active(exposures) == 2,
            KIND_BILATERAL,
            np.where(unsupported, KIND_UNSUPPORTED, KIND_GENERAL),
        ),
    )


def _extreme_parts(exposures: ExposureProfile, leader) -> tuple[np.ndarray, np.ndarray]:
    """Elasticities and shares of the extreme equilibrium led by `leader`."""
    is_leader = np.arange(exposures.n_traders) == np.asarray(leader)[..., None]
    return np.where(is_leader, math.inf, _positive_terms(exposures)), is_leader.astype(float)


def solve_extreme(exposures: ExposureProfile, k: int) -> NashSolution:
    """Extreme equilibrium: trader k submits infinite elasticity, everyone
    else submits delta_i (1 + beta_i)_+; prices are exactly zero, trader k
    absorbs the whole market exposure and all others end market-neutral."""
    thetas, shares = _extreme_parts(exposures, k)
    outcome = clearing_outcome(exposures, shares, np.zeros(exposures.n_securities))
    return NashSolution(
        kind=KIND_EXTREME,
        thetas=_frozen(thetas),
        theta_total=math.inf,
        k_shares=_frozen(shares),
        outcome=outcome,
        residuals=_frozen(np.zeros(exposures.n_traders)),
    )


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
    thetas = np.asarray(thetas, dtype=float)
    total, shares, prices, in_range = _finite_parts(exposures, thetas)
    if not in_range:
        raise ValueError(_BOUNDARY_MESSAGE)
    return NashSolution(
        kind=kind,
        thetas=_frozen(thetas),
        theta_total=float(total),
        k_shares=_frozen(shares),
        outcome=clearing_outcome(exposures, shares, prices),
        residuals=_frozen(nash_residuals(exposures, thetas)),
    )


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

    Precondition: solve assigned the bilateral regime, i.e. the instance is
    non-trivial, exactly two traders are active and the extreme condition
    fails.
    """
    if _n_active(exposures) != 2:
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


def solve_general(exposures: ExposureProfile) -> NashSolution:
    """Constructive solver for the non-extreme equilibrium with any number of
    traders.

    Precondition: solve assigned the general regime, i.e. the instance is
    non-trivial, the extreme condition fails and at most one beta exceeds one.
    """
    system = GeneralSystem(exposures)
    total = _root_total_elasticity(system, exposures.delta_total)
    thetas = np.zeros(exposures.n_traders)
    thetas[system.follower_mask] = system.follower_thetas(total)
    thetas[system.leader] = system.leader_theta(total)
    return _finite_solution(exposures, thetas, KIND_GENERAL)


def _trivial_solution(exposures: ExposureProfile) -> NashSolution:
    # Any elasticity vector is an equilibrium here; report the true tolerances
    # as the representative and the common prices/allocations.
    outcome = clearing_outcome(
        exposures, np.zeros(exposures.n_traders), np.zeros(exposures.n_securities)
    )
    return NashSolution(
        kind=KIND_TRIVIAL,
        thetas=exposures.delta,
        theta_total=exposures.delta_total,
        k_shares=exposures.lam,
        outcome=outcome,
        residuals=None,
        detail="a_I = 0: every elasticity vector clears at zero prices with q_i = -a_i",
    )


def _unsupported_solution(exposures: ExposureProfile) -> NashSolution:
    # Two or more betas above one without the extreme condition: uniqueness
    # is only conjectured there, so report the regime instead of a guess.
    high = (exposures.beta > 1.0).nonzero()[0]
    betas = ", ".join(f"beta[{i}]={exposures.beta[i]:g}" for i in high.tolist())
    return NashSolution(
        kind=KIND_UNSUPPORTED,
        thetas=None,
        theta_total=None,
        k_shares=None,
        outcome=None,
        residuals=None,
        detail=(
            f"{high.size} traders have beta > 1 ({betas}) and the extreme "
            "condition fails: existence/uniqueness is not established"
        ),
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


def _verification(exposures: ExposureProfile, thetas, residuals):
    """Verdict on a solution, per market: 0 when verified, 1 when a residual
    exceeds RESIDUAL_TOL, 2 when the best-response deviation exceeds
    FIXED_POINT_RTOL; with the largest |residual| and the deviation."""
    worst = np.max(np.abs(residuals), axis=-1)
    deviation = fixed_point_deviation(exposures, thetas)
    failure = np.where(worst > RESIDUAL_TOL, 1, np.where(deviation > FIXED_POINT_RTOL, 2, 0))
    return failure, worst, deviation


def _extreme_boundary_margin(exposures: ExposureProfile) -> float:
    """Relative distance of the betas from the extreme-condition boundary.

    Instances inside floating-point noise of that boundary cannot be verified
    to tolerance by any route, since the non-extreme equilibrium has a pole
    there.
    """
    beta = exposures.beta
    _, thresholds = _extreme_thresholds(exposures)
    scale = max(1.0, float(np.max(np.abs(beta))), float(np.max(np.abs(thresholds))))
    return float(np.min(np.abs(beta - thresholds))) / scale


def solve(exposures: ExposureProfile) -> NashSolution:
    """Classify and solve the unique linear Nash equilibrium.

    The regime is decided here and only here: trivial, extreme, bilateral
    (exactly two traders with beta > -1), unsupported (two or more betas
    above one) or general, in that order.  Every solved (non-trivial,
    supported) solution is verified coordinatewise against the closed-form
    best response before being returned.  Instances whose betas sit within
    floating-point noise of the extreme boundary are rejected with ValueError
    when that verification cannot be met.
    """
    if exposures.is_trivial:
        return _trivial_solution(exposures)
    k = check_extreme_condition(exposures)
    kind = _regime(exposures, -1 if k is None else k)
    if kind == KIND_UNSUPPORTED:
        return _unsupported_solution(exposures)
    if kind == KIND_EXTREME:
        solution = solve_extreme(exposures, k)
    elif kind == KIND_BILATERAL:
        solution = solve_bilateral(exposures)
    else:
        solution = solve_general(exposures)

    failure, worst_residual, deviation = _verification(
        exposures, solution.thetas, solution.residuals
    )
    if failure:
        if _extreme_boundary_margin(exposures) < 1e-6:
            raise ValueError(
                "instance lies within floating-point noise of the extreme-equilibrium "
                "boundary and cannot be verified to tolerance"
            )
        if failure == 1:
            raise ConsistencyError(f"equilibrium residuals exceed tolerance: {worst_residual:g}")
        raise ConsistencyError(f"best-response verification failed: deviation {deviation:g}")
    return solution


def solve_grid(exposures: ExposureProfile) -> NashSolution:
    """Classify, solve and verify every point of a stacked profile at once.

    Each point gets the kind that solve gives it alone, or KIND_FAILED where
    solve would raise; points that failed validation are KIND_FAILED too.
    The classification, the extreme and bilateral closed forms, the residuals
    and the best-response verification run over all points together, with
    the one-market arithmetic and tolerances; general points go through solve
    one at a time, on their own slice of the profile.
    """
    valid = exposures.valid
    trivial = valid & exposures.is_trivial
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        hits, disagreement = _extreme_hits(exposures)
        n_hits = np.count_nonzero(hits, axis=-1)
        leader = np.where(n_hits == 1, np.argmax(hits, axis=-1), -1)
        kind = np.where(trivial, KIND_TRIVIAL, _regime(exposures, leader)).astype(object)
        kind[~valid | (~trivial & ((n_hits > 1) | (disagreement > 0.0)))] = KIND_FAILED
        extreme, bilateral = kind == KIND_EXTREME, kind == KIND_BILATERAL

        extreme_thetas, extreme_shares = _extreme_parts(exposures, leader)
        bilateral_thetas = _bilateral_thetas(exposures)
        _, bilateral_shares, bilateral_prices, in_range = _finite_parts(exposures, bilateral_thetas)
        column = (..., None)
        thetas = np.where(extreme[column], extreme_thetas, bilateral_thetas)
        thetas = np.where(trivial[column], exposures.delta, thetas)
        shares = np.where(extreme[column], extreme_shares, bilateral_shares)
        prices = np.where(bilateral[column], bilateral_prices, 0.0)
        residuals = np.where(bilateral[column], nash_residuals(exposures, thetas), 0.0)
        failure, _, _ = _verification(exposures, thetas, residuals)
        solved = (extreme | (bilateral & in_range)) & (failure == 0)
        kind[(extreme | bilateral) & ~solved] = KIND_FAILED

    for g in (kind == KIND_GENERAL).nonzero()[0].tolist():
        try:
            solution = solve(exposures.point(g))
        except SOLVE_ERRORS:
            kind[g] = KIND_FAILED
            continue
        thetas[g], shares[g] = solution.thetas, solution.k_shares
        prices[g], residuals[g] = solution.outcome.prices, solution.residuals
        solved[g] = True

    unsolved = ~(solved | trivial)
    thetas[unsolved] = shares[unsolved] = prices[unsolved] = np.nan
    residuals[~solved] = np.nan
    clearing = np.where(trivial[column], 0.0, shares)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        outcome = clearing_outcome(exposures, clearing, prices)
    return NashSolution(
        kind=_frozen(kind),
        thetas=_frozen(thetas),
        theta_total=None,
        k_shares=_frozen(np.where(trivial[column], exposures.lam, shares)),
        outcome=outcome,
        residuals=_frozen(residuals),
    )
