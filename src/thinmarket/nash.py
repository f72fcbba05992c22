"""Noncompetitive (Nash) equilibrium: classification and solvers.

`solve` classifies, solves and verifies.  It decides the regime in the order
of the theory: the trivial case a_I = 0 first, then the extreme regime (one
trader submits infinite elasticity, prices are zero), then the bilateral
closed form when exactly two traders are active, then the unsupported regime,
and otherwise the general constructive solver, which reduces the coupled
quadratic system to a single monotone scalar equation in the inverse total
elasticity s = 1/x and solves it by Brent's method on a bisection bracket.
`check_extreme_condition` alone decides the extreme regime, and a market
whose equation is nonnegative at its regular end s = 0 takes the extreme
solution too (its tie rule).  `solve_extreme`, `solve_bilateral` and
`solve_general` are the steps `solve` calls, one per regime: each returns
arrays and checks nothing, and `solve` alone verifies them.

Every step has one body, over a stacked profile (see `MarketModel.stacked`)
with a leading grid axis and the trader on the last axis: it runs once per
call over every point that needs it (each general point is root-found on
its own), with one point's arithmetic, so a grid point gets the bits it gets
alone.  A market is solved as a one-point stack: `solve` keeps each point's
first failure, marks the failed points of a stack KIND_FAILED, and raises
the recorded failure on one market.

Markets with two or more betas above one that are not extreme (and have more
than two active traders) are reported as an unsupported regime rather than
guessed: uniqueness is not established there.  Every solution is verified
against each trader's closed-form best response to the others in O(N), to
the rounding its inputs allow (see `fixed_point_deviation`).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .competitive import EquilibriumOutcome, clearing_outcome
from .errors import ConsistencyError
from .model import ExposureProfile, _as_stack, _exclusive_sums, _frozen, _trader_major

KIND_TRIVIAL = "trivial"
KIND_EXTREME = "extreme"
KIND_BILATERAL = "bilateral_closed_form"
KIND_GENERAL = "general_non_extreme"
KIND_UNSUPPORTED = "unsupported_regime"
# A grid point that solve would reject alone with one of SOLVE_ERRORS.
KIND_FAILED = "solve_failed"

# What solve and compare raise on an instance they cannot solve or verify:
# ValueError for inputs that are no market or no elasticity vector,
# ConsistencyError for failed internal checks.
SOLVE_ERRORS = (ValueError, ConsistencyError)

# Max tolerated residual of the coupled equilibrium equations for a finite
# solution, and relative tolerance of the coordinatewise best-response check.
RESIDUAL_TOL = 1e-8
FIXED_POINT_RTOL = 1e-8
# The rounding the verification allows, in ulps per trader (see
# fixed_point_deviation).
_ROUNDING_ULPS = 16

# Root-finding on the scalar equilibrium equation.
_KEY_FTOL = 1e-12
_KEY_XTOL = 1e-14
_MAX_ITERATIONS = 500

# The stages where a market fails, in solve's order, with the exception one
# market raises there (its message formatted with the failure's value).
_ROOT_FINDER, _NO_ELASTICITY, _FLAT_RESPONSE, _UNDEFINED_REST, _RESIDUAL, _DEVIATION = range(1, 7)
_FAILURES = {
    _ROOT_FINDER: (ConsistencyError, "root-finder failed to reach tolerance"),
    _NO_ELASTICITY: (ValueError, "finite elasticity must be a strictly positive real"),
    _FLAT_RESPONSE: (ValueError, "best response is undefined on a trivial instance (flat response)"),
    _UNDEFINED_REST: (ValueError, "theta_rest = 0 is only meaningful against beta_i > 1; "
                                  "the response problem is undefined otherwise"),
    _RESIDUAL: (ConsistencyError, "equilibrium residuals exceed tolerance: {:g}"),
    _DEVIATION: (ConsistencyError, "best-response verification failed: deviation {:g}"),
}


def _failure(stage: int, value: float = math.nan) -> Exception:
    """The exception one market raises at a failure of `stage`."""
    error, message = _FAILURES[stage]
    return error(message.format(float(value)))


# An entry of NashSolution.elasticities.
_Elasticity = namedtuple("Elasticity", "as_float")


@dataclass(frozen=True, eq=False)
class NashSolution:
    """Solved (or classified) noncompetitive equilibrium.

    thetas holds the submitted elasticities as a read-only float array: each
    entry is 0.0, a finite positive value, or +inf, one per best-response
    branch; their total is thetas.sum() (+inf in the extreme regime).
    k_shares are theta_i over that total with the conventions 1 at infinity
    and 0 elsewhere in the extreme regime; residuals are left-minus-right of
    the coupled equilibrium equations for diagnostic reporting.  Fields
    without a value for the kind are None: all but kind and detail when
    unsupported, and the residuals of a trivial market.

    The solution of a stacked profile has a leading grid axis: kind is an
    array of kinds, detail is None, and the arrays hold NaN where one market
    holds None, and at the failed points.
    """

    kind: str
    thetas: np.ndarray | None
    k_shares: np.ndarray | None
    outcome: EquilibriumOutcome | None
    residuals: np.ndarray | None
    detail: str | None = None

    @property
    def elasticities(self) -> tuple | None:
        """thetas as a tuple of records whose as_float is the entry, built on
        each read.  On a stacked solution, one such tuple per point, and None
        where the point holds NaN (failed, unsupported or invalid).  Only the
        benchmark reads it, and it goes once the benchmark reads thetas."""
        if self.thetas is None:
            return None
        rows = tuple(
            None if any(map(math.isnan, row)) else tuple(map(_Elasticity, row))
            for row in self.thetas.reshape(-1, self.thetas.shape[-1]).tolist()
        )
        return rows if self.thetas.ndim > 1 else rows[0]


def _positive_terms(exposures: ExposureProfile) -> np.ndarray:
    """delta_i (1 + beta_i)_+: each trader's elasticity against an infinite
    rest, and their term in the extreme condition."""
    return np.maximum(exposures.delta * (1.0 + exposures.beta), 0.0)


def _leader(exposures: ExposureProfile) -> np.ndarray:
    """argmax delta_i beta_i, lowest index first (see check_extreme_condition)."""
    return np.argmax(exposures.delta * exposures.beta, axis=-1)


def check_extreme_condition(exposures: ExposureProfile) -> int | np.ndarray | None:
    """The trader who behaves risk-neutrally at equilibrium: solve's one
    extreme-regime classifier.

    The leader L is the argmax of delta_i beta_i, lowest index on ties; the
    market is extreme iff beta_L >= 1 + rest_L / delta_L, rest_L the exclusive
    sum of the others' delta_i (1 + beta_i)_+, which is the arithmetic the
    verifier runs on the extreme solution; a tie is extreme.  No other trader
    can meet the condition.  Two that do, j and k, have delta_k (beta_k - 1)
    >= delta_j (1 + beta_j) and the same with j and k swapped, which add up
    to -2 (delta_j + delta_k) >= 0.  One that does, k, has delta_k beta_k -
    delta_j beta_j >= delta_k + delta_j for every j, so it is the argmax.
    Rounding breaks neither step on a valid market: by Cauchy-Schwarz, sum
    beta_i^2 <= 1 / TRIVIAL_RTOL = 1e12 on a non-trivial market, so
    |beta_i| <= 1e6 and eps |delta_i beta_i| is far below delta_j + delta_k.
    Tie rule: a market whose scalar equation is nonnegative at s = 0
    (F(0) >= 0, see GeneralSystem) is extreme but for rounding, and takes the
    extreme solution led by the same argmax.  The coordinatewise verifier
    remains the safety net: a misclassified extreme solution fails it.

    One market: the leader's index, or None when not extreme, and ValueError
    when trivial.  A stacked profile: one index per point, -1 where the point
    is not extreme (trivial and invalid points included).
    """
    stack = _as_stack(exposures)
    if stack is not exposures and exposures.is_trivial:
        raise ValueError("extreme classification is undefined on a trivial instance")
    # a stack's invalid points hold anything, and a risk tolerance near the
    # float maximum overflows its term
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        leader = _leader(stack)
        meets = stack.beta >= 1.0 + _exclusive_sums(_positive_terms(stack)) / stack.delta
    extreme = np.take_along_axis(meets, leader[..., None], axis=-1)[..., 0]
    leader = np.where(extreme & stack.valid & ~stack.is_trivial, leader, -1)
    if stack is exposures:
        return leader
    return int(leader[0]) if leader[0] >= 0 else None


def solve_extreme(exposures: ExposureProfile, leader) -> tuple[np.ndarray, np.ndarray]:
    """Elasticities and shares of the extreme equilibrium led by `leader`, one
    index, or one per point of a stacked profile: the leader submits infinite
    elasticity, everyone else delta_i (1 + beta_i)_+; prices are exactly zero,
    the leader absorbs the whole market exposure and all others end
    market-neutral."""
    is_leader = np.arange(exposures.n_traders) == np.asarray(leader)[..., None]
    return np.where(is_leader, math.inf, _positive_terms(exposures)), is_leader.astype(float)


def nash_residuals(exposures: ExposureProfile, thetas: np.ndarray) -> np.ndarray:
    """Left-minus-right of the coupled equilibrium equations
    (2 + theta_{-i}/delta_i) k_i = 1 + beta_i for the active traders, with
    theta_{-i} an exclusive sum, which does not cancel near the boundary."""
    thetas = np.asarray(thetas, dtype=float)
    total = _trader_major(thetas).sum(axis=-1, keepdims=True)
    beta = exposures.beta
    with np.errstate(divide="ignore", invalid="ignore"):
        res = (2.0 + _exclusive_sums(thetas) / exposures.delta) * (thetas / total) - (1.0 + beta)
    return np.where(beta > -1.0, res, 0.0)


def solve_bilateral(exposures: ExposureProfile) -> np.ndarray:
    """The bilateral closed form theta_i = 2 delta_i lam_j (beta_i + beta_j) /
    ((lam_i + lam_j) - (lam_i beta_i - lam_j beta_j)), j the other of the two
    traders with beta > -1, for markets with exactly two such traders; the
    passive traders get zero elasticity.  lam_j and beta_j are exclusive sums
    with one nonzero term, so each trader's formula is the other's with the
    pair swapped, bit for bit."""
    beta, lam, delta = exposures.beta, exposures.lam, exposures.delta
    active = beta > -1.0
    lam_j, beta_j = (_exclusive_sums(np.where(active, x, 0.0)) for x in (lam, beta))
    # a denominator can round to zero on the boundary: see solve
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = lam * beta - lam_j * beta_j
        theta = delta * 2.0 * lam_j * (beta + beta_j) / ((lam + lam_j) - gap)
    return np.where(active, theta, 0.0)


class GeneralSystem:
    """Scalar reduction of the coupled equilibrium system of one market in the
    inverse total elasticity s = 1/x, built from its risk tolerances and betas
    (a row of a stacked profile will do).

    leader is a maximal-beta trader (lowest index on ties); followers are the
    remaining traders with beta in (-1, 1]; everyone else is passive with zero
    elasticity.  At s, follower i submits phi_i(s) = delta_i (1 + beta_i) /
    (h_i + sqrt(h_i^2 - delta_i (1 + beta_i) s)), h_i = delta_i s + 1/2, which
    is delta_i (1 + beta_i) at s = 0; at beta_i = 1, where the discriminant
    cancels, the kinked exact form min(1/s, 2 delta_i).  Each follower takes
    exactly the floating-point operations of the scalar form, so a value does
    not depend on how many are evaluated together.  F(s) = (1 + beta_L) /
    (2 + sigma(s) / delta_L) + s sigma(s) - 1, sigma the followers' sum, is
    strictly increasing; F(0) >= 0 is the leader's extreme condition, and
    otherwise the equilibrium is the unique root of F.  The evaluator keeps no
    state between calls: each one evaluates the followers afresh.
    """

    def __init__(self, delta: np.ndarray, beta: np.ndarray):
        self.leader = int(np.argmax(beta))
        follower = (beta > -1.0) & (beta <= 1.0)
        follower[self.leader] = False
        self.follower_mask = follower
        self.delta0 = float(delta[self.leader])
        self.beta0 = float(beta[self.leader])
        self._delta, follower_beta = delta[follower], beta[follower]
        self._scale = self._delta * (1.0 + follower_beta)
        self._kink = (follower_beta == 1.0).nonzero()[0]  # where the discriminant cancels

    def follower_thetas(self, s: float) -> np.ndarray:
        """phi_i(s) of every follower, in order (read-only)."""
        # for beta <= 1 the discriminant is at least (delta s - 1/2)^2 and
        # rounds below zero by a few ulps of half^2 at most
        half = self._delta * s + 0.5
        theta = self._scale / (half + np.sqrt(np.maximum(half * half - self._scale * s, 0.0)))
        if self._kink.size:
            twice = 2.0 * self._delta[self._kink]
            theta[self._kink] = np.minimum(1.0 / s, twice) if s > 0.0 else twice
        return _frozen(theta)

    def sigma(self, s: float) -> float:
        return _running_sum(self.follower_thetas(s))

    def leader_share(self, sigma: float) -> float:
        """The leader's best-response share against the followers' sum sigma."""
        return (1.0 + self.beta0) / (2.0 + sigma / self.delta0)

    def F(self, s: float) -> float:
        sigma = self.sigma(s)
        return self.leader_share(sigma) + s * sigma - 1.0


def _running_sum(values: np.ndarray) -> float:
    """The sum of values added left to right (numpy's sum adds pairwise, and
    Python's sum compensates from 3.12 on); that order fixes F's bits, and
    with them the root and the general solution."""
    return float(np.add.accumulate(values)[-1]) if values.size else 0.0


def _root_inverse_total(system: GeneralSystem, f0: float, delta_total: float) -> float:
    """Root of F(s) = 0 by Brent's method (1973), given f0 = F(0) < 0.

    The bracket [0, hi] has hi doubled from 1/delta_I (the least float where
    delta_I overflows) until F(hi) >= 0, as it will (F tends to at least 1/2
    as s grows), its left end following.  Inside it, inverse quadratic or
    secant steps are taken while they shrink the bracket fast enough, and
    bisection steps otherwise, which cover F's kink at followers with
    beta = 1.  F < 0 marks the left side of the bracket and F >= 0 the right.
    Returns b once |F(b)| < _KEY_FTOL and [b, c] is narrower than _KEY_XTOL b.
    """
    a, fa, b = 0.0, f0, 1.0 / delta_total or math.ulp(0.0)
    fb = system.F(b)
    while fb < 0.0:
        a, fa, b = b, fb, 2.0 * b
        fb = system.F(b)

    # b is the best estimate, c the bracket end across the root from b, a the
    # previous b; step and prev_step are the last two steps taken.
    c, fc = a, fa
    step = prev_step = b - a
    for _ in range(_MAX_ITERATIONS):
        if (fb >= 0.0) == (fc >= 0.0):
            c, fc = a, fa
            step = prev_step = b - a
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        tol = 0.5 * _KEY_XTOL * b
        half = 0.5 * (c - b)
        if abs(fb) < _KEY_FTOL and abs(half) < tol:
            return b
        if abs(prev_step) >= tol and abs(fa) > abs(fb):
            r = fb / fa
            if a == c:  # secant
                p, q = 2.0 * half * r, 1.0 - r
            else:  # inverse quadratic
                q, t = fa / fc, fb / fc
                p = r * (2.0 * half * q * (q - t) - (b - a) * (t - 1.0))
                q = (q - 1.0) * (t - 1.0) * (r - 1.0)
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
        fb = system.F(b)
    raise _failure(_ROOT_FINDER)


def solve_general(delta: np.ndarray, beta: np.ndarray, delta_total: float):
    """Elasticities, shares and inverse total elasticity s of the general
    constructive solution of one market, from its risk tolerances, betas and
    total risk tolerance (a grid point's row will do); s = 0 (and NaN) where
    F(0) >= 0, the extreme side."""
    system = GeneralSystem(delta, beta)
    f0 = system.F(0.0)
    if f0 >= 0.0:
        return math.nan, math.nan, 0.0
    s = _root_inverse_total(system, f0, delta_total)
    followers = system.follower_thetas(s)
    thetas = np.zeros(delta.shape)
    thetas[system.follower_mask] = followers
    shares = s * thetas
    # the leader's best-response share, which unlike 1 - s sigma(s) does not
    # cancel when it is small
    shares[system.leader] = leader = system.leader_share(_running_sum(followers))
    thetas[system.leader] = leader / s
    return thetas, shares, s


# Any elasticity vector is an equilibrium of a trivial market; the true
# tolerances are reported as the representative.
_TRIVIAL_DETAIL = "a_I = 0: every elasticity vector clears at zero prices with q_i = -a_i"


def fixed_point_deviation(exposures: ExposureProfile, thetas):
    """Worst-case relative deviation of each elasticity from the best response
    to the others, beyond the rounding its inputs allow; infinite on any branch
    mismatch.

    The rounding rule, with n traders: a trader's relative deviation counts
    only beyond _ROUNDING_ULPS n eps kappa_i, where kappa_i = (1 + |beta_i|) /
    |1 + rest_i / delta_i - beta_i| bounds the conditioning of its interior
    best response in its inputs rest_i and beta_i (large next to the extreme
    boundary), and a trader within _ROUNDING_ULPS n eps max(1, |beta_i|) of a
    branch threshold (-1, or 1 + rest_i / delta_i) may take either branch.

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
    stack = _as_stack(exposures)
    theta = np.asarray(thetas, dtype=float)
    deviation, stop = _verification(stack, theta if stack is exposures else theta[None])
    if stack is exposures:
        return np.where(stop > 0, math.inf, deviation)
    if stop[0]:
        raise _failure(stop[0])
    return float(deviation[0])


def _verification(exposures: ExposureProfile, theta: np.ndarray):
    """fixed_point_deviation's body over a stack: per point the deviation, and
    the stage at which the one-market check raises (0 where it does not)."""
    # best_response's branches as arrays: zero for beta <= -1, infinite for
    # beta >= 1 + rest/delta (never against an infinite rest), the interior
    # closed form otherwise, which is delta (1 + beta) against an infinite
    # rest; against a zero rest the response is undefined unless beta > 1.
    beta, delta = exposures.beta, exposures.delta
    slack = _ROUNDING_ULPS * theta.shape[-1] * np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # see bad_value
        rest = _exclusive_sums(theta)  # infinite exactly where anyone else's theta is
        ratio, gap = rest / delta, 1.0 - beta  # in units of delta: no product overflows
        denominator = ratio + gap  # beta's distance below its threshold 1 + ratio
        escalate = beta >= 1.0 + ratio
        br = np.where(np.isinf(rest), delta * (1.0 + beta), rest * (1.0 + beta) / denominator)
        passive = beta <= -1.0
        interior = ~(passive | escalate)
        other_branch = ((theta == 0.0) != passive) | (np.isinf(theta) != escalate)
        undefined = (rest == 0.0) & (beta <= 1.0)
        valid_br = (br > 0.0) & (br < math.inf)
        # within the slack of a threshold, -1 or 1 + ratio, either branch will do
        tie = np.minimum(np.abs(beta + 1.0), np.abs(denominator)) <= slack * np.maximum(1.0, np.abs(beta))
        bad_value, mismatch = interior & ~(valid_br | tie), other_branch & ~tie
        relative = np.abs(br - theta) / np.maximum(br, theta) - slack * (1.0 + np.abs(beta)) / np.abs(denominator)
        deviation = np.where(interior & valid_br & ~other_branch, relative, 0.0)
        deviation = _trader_major(deviation).max(axis=-1, initial=0.0)
        stop = 0
        if (undefined | bad_value | mismatch).any():
            # the verdict of the first trader that stops the check: a
            # mismatch (-1) is an infinite deviation, the others raise
            verdict = np.where(mismatch, -1, 0)
            verdict = np.where(undefined, _UNDEFINED_REST, np.where(bad_value, _NO_ELASTICITY, verdict))
            first = np.take_along_axis(verdict, np.argmax(verdict != 0, axis=-1)[..., None], -1)[..., 0]
            deviation = np.where(first != 0, math.inf, deviation)
            stop = np.maximum(first, 0)
    stop = np.where(exposures.is_trivial, _FLAT_RESPONSE, stop)
    return deviation, np.where(_trader_major(theta >= 0.0).all(axis=-1), stop, _NO_ELASTICITY)


# The kinds solve assigns, by index.
_KINDS = np.array([KIND_TRIVIAL, KIND_EXTREME, KIND_BILATERAL, KIND_UNSUPPORTED, KIND_GENERAL,
                   KIND_FAILED], dtype=object)
_TRIVIAL, _EXTREME, _BILATERAL, _UNSUPPORTED, _GENERAL, _FAILED = range(len(_KINDS))


def _fill(mask, *pairs) -> list[np.ndarray]:
    """Each (array, values) pair's array with values at the points of mask."""
    return [np.where(mask[..., None], values, array) for array, values in pairs]


def solve(exposures: ExposureProfile) -> NashSolution:
    """Classify, solve and verify the unique linear Nash equilibrium of one
    market, or of every point of a stacked profile at once.

    The regime is decided in order: trivial, extreme (check_extreme_condition),
    bilateral (exactly two traders with beta > -1), unsupported (two or more
    betas above one) or general; the general solver also takes the bilateral
    points whose closed-form total leaves (0, inf), and hands the points with
    F(0) >= 0 to the extreme solution (the tie rule).  A step runs only when
    some point needs it, and every solution is verified coordinatewise.  Each
    point keeps the stage and value of its first failure (_FAILURES): the
    root-finder's, fixed_point_deviation's ValueError, or a residual and then
    a deviation beyond its tolerance.  A failed or invalid point of a stack is
    KIND_FAILED with NaN values; on one market solve raises its failure.
    """
    stack = _as_stack(exposures)
    valid = stack.valid
    trivial = valid & stack.is_trivial
    live = valid & ~trivial
    kind = np.full(valid.shape, _TRIVIAL)
    # each point's first failure: its stage (0 for none) and the value its
    # message reads
    stop, value = np.zeros(valid.shape, dtype=int), np.full(valid.shape, np.nan)
    thetas, shares, residuals = np.full((3, *stack.delta.shape), np.nan)
    prices = np.full(stack.cov_total.shape, np.nan)
    # one errstate for every step: failed or unsolved points of a grid carry
    # NaN and inf, and risk tolerances near the float maximum overflow
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if trivial.any():
            thetas, shares, prices = _fill(trivial, (thetas, stack.delta), (shares, 0.0), (prices, 0.0))
        if live.any():
            leader = check_extreme_condition(stack)
            n_active, n_high = (_trader_major(stack.beta > b).sum(axis=-1) for b in (-1.0, 1.0))
            regime = np.where(n_high >= 2, _UNSUPPORTED, _GENERAL)
            regime = np.where(leader >= 0, _EXTREME, np.where(n_active == 2, _BILATERAL, regime))
            kind = np.where(live, regime, kind)
        extreme, bilateral, general = kind == _EXTREME, kind == _BILATERAL, kind == _GENERAL

        if bilateral.any():
            (thetas,) = _fill(bilateral, (thetas, solve_bilateral(stack)))
            total = _trader_major(thetas).sum(axis=-1, keepdims=True)
            shares, prices = _fill(bilateral, (shares, thetas / total), (prices, -stack.cov_total / total))
            # next to the boundary the closed form can lose every digit: the
            # general solver takes such points over
            overflow = bilateral & ~((0.0 < total) & (total < math.inf))[..., 0]
            bilateral, general = bilateral & ~overflow, general | overflow
            kind = np.where(overflow, _GENERAL, kind)
        inverse_total = np.full(valid.shape, np.nan)
        for g in np.flatnonzero(general).tolist():
            try:
                thetas[g], shares[g], inverse_total[g] = solve_general(
                    stack.delta[g], stack.beta[g], float(stack.delta_total[g])
                )
            except SOLVE_ERRORS:
                stop[g] = _ROOT_FINDER
        (prices,) = _fill(general, (prices, -stack.cov_total * inverse_total[..., None]))
        tie = general & (inverse_total == 0.0)  # F(0) >= 0: see check_extreme_condition
        finite = (bilateral | general) & ~tie & (stop == 0)
        if finite.any():
            (residuals,) = _fill(finite, (residuals, nash_residuals(stack, thetas)))
        kind, extreme = np.where(tie, _EXTREME, kind), extreme | tie
        if extreme.any():
            leader = np.where(tie, _leader(stack), leader)
            extreme_thetas, extreme_shares = solve_extreme(stack, leader)
            thetas, shares, prices, residuals = _fill(
                extreme, (thetas, extreme_thetas), (shares, extreme_shares), (prices, 0.0), (residuals, 0.0)
            )

        solved = extreme | finite
        if solved.any():
            worst = _trader_major(np.abs(residuals)).max(axis=-1)
            deviation = fixed_point_deviation(stack, thetas)
            rejected = solved & ((worst > RESIDUAL_TOL) | (deviation > FIXED_POINT_RTOL))
            if rejected.any():
                # in the order one market raises: a check that raises alone
                # (whose deviation reads inf), a residual, a deviation
                raises = _verification(stack, thetas)[1]
                stage = np.where(raises > 0, raises, np.where(worst > RESIDUAL_TOL, _RESIDUAL, _DEVIATION))
                stop = np.where(rejected, stage, stop)
                value = np.where(stage == _RESIDUAL, worst, deviation)
                solved = solved & ~rejected
        unsolved = ~(solved | trivial)
        if unsolved.any():
            thetas, shares, prices, residuals = _fill(
                unsolved, *((values, np.nan) for values in (thetas, shares, prices, residuals))
            )
        k_shares = np.where(trivial[..., None], stack.lam, shares) if trivial.any() else shares
        outcome = clearing_outcome(stack, shares, prices)

    if stack is exposures:
        kinds = _KINDS[np.where(valid & (stop == 0), kind, _FAILED)]
        thetas, k_shares, residuals = (_frozen(a) for a in (thetas, k_shares, residuals))
        return NashSolution(_frozen(kinds), thetas, k_shares, outcome, residuals)
    if stop[0]:
        raise _failure(stop[0], value[0])
    if kind[0] == _UNSUPPORTED:  # uniqueness is only conjectured: the regime is reported, not guessed
        high = (exposures.beta > 1.0).nonzero()[0]
        betas = ", ".join(f"beta[{i}]={exposures.beta[i]:g}" for i in high.tolist())
        detail = (f"{high.size} traders have beta > 1 ({betas}) and the extreme condition fails: "
                  "existence/uniqueness is not established")
        return NashSolution(KIND_UNSUPPORTED, None, None, None, None, detail)
    outcome = EquilibriumOutcome(**{name: values[0] for name, values in vars(outcome).items()})
    trivial = bool(trivial[0])
    return NashSolution(
        _KINDS[kind[0]], _frozen(thetas[0]), _frozen(k_shares[0]), outcome,
        None if trivial else _frozen(residuals[0]), _TRIVIAL_DETAIL if trivial else None,
    )
