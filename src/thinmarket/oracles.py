"""Independent numerical oracles the closed-form machinery is tested against:
a seeded Monte-Carlo certainty equivalent, a brute-force grid search over the
response value, and damped best-response iteration toward the Nash fixed
point.  None of these are production solver paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .best_response import best_response
from .model import ExposureProfile

# Gaussian sampling: NumPy Generator seeded with PCG64, standard_normal via the
# ziggurat method.  Fixed here so a given (seed, sample_count) always yields
# the same stream.
_EXP_OVERFLOW = math.log(np.finfo(float).max)
# The most samples whose float64 array has a byte size numpy can index.
_MAX_SAMPLES = np.iinfo(np.intp).max // 8

# The grid search: uniform grid points on [0, 1], and the width at which the
# golden-section refinement stops.
_GRID_POINTS = 100_001
_GOLDEN_TOL = 1e-12
# Best-response iteration: the weight of the best response in each damped
# step, the most sweeps, and the step size below which a sweep converges.
_DAMPING = 0.5
_MAX_ITERATIONS = 500
_STEP_TOL = 1e-10


@dataclass(frozen=True)
class McConfig:
    sample_count: int
    seed: int

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if self.sample_count > _MAX_SAMPLES:
            raise ValueError(f"sample_count must be at most {_MAX_SAMPLES}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class McEstimate:
    value: float
    standard_error: float
    unreliable: bool = False


def mc_certainty_equivalent(
    mean: float, variance: float, delta: float, cfg: McConfig
) -> McEstimate:
    """Monte-Carlo estimate of -delta log E[exp(-X/delta)], X ~ N(mean, variance).

    The exponent is max-shifted before exponentiation (algebraically the same
    estimator, immune to overflow); unreliable is set whenever the unshifted
    exp(-X/delta) would have overflowed for some sample.  The standard error
    comes from the delta method and the estimate is deterministic for a fixed
    seed.
    """
    if delta <= 0.0 or not math.isfinite(delta):
        raise ValueError("delta must be strictly positive")
    if variance < 0.0 or not math.isfinite(variance):
        raise ValueError("variance must be nonnegative")
    rng = np.random.default_rng(cfg.seed)
    x = mean + math.sqrt(variance) * rng.standard_normal(cfg.sample_count)
    z = -x / delta
    zmax = float(z.max())
    unreliable = zmax > _EXP_OVERFLOW
    y = np.exp(z - zmax)
    y_mean = float(y.mean())
    value = -delta * (math.log(y_mean) + zmax)
    if variance == 0.0:
        se = 0.0
    elif cfg.sample_count < 2:
        se = float("nan")
    else:
        se = delta * float(y.std(ddof=1)) / (math.sqrt(cfg.sample_count) * y_mean)
    return McEstimate(value=value, standard_error=se, unreliable=unreliable)


def _golden_max(f, lo: float, hi: float) -> float:
    """Golden-section maximizer of a unimodal f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _GOLDEN_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _share_value(exposures: ExposureProfile, i: int, k, theta_rest: float):
    """The k-dependent part of the response value at share k, in units of
    <a_I, C a_I>, whose rounding the far larger k-free part would swamp."""
    return (1.0 - k) * (k - float(exposures.beta[i])) / theta_rest - k * k / (2.0 * float(exposures.delta[i]))


def grid_best_response_share(exposures: ExposureProfile, i: int, theta_rest: float) -> float:
    """Brute-force maximizer of the response value over shares k in [0, 1]:
    a uniform grid followed by one golden-section refinement pass around the
    grid argmax.  Independent of the closed-form best response."""
    ks = np.linspace(0.0, 1.0, _GRID_POINTS)
    values = _share_value(exposures, i, ks, theta_rest)
    j = int(np.argmax(values))
    lo = ks[max(j - 1, 0)]
    hi = ks[min(j + 1, _GRID_POINTS - 1)]
    return _golden_max(lambda k: _share_value(exposures, i, k, theta_rest), lo, hi)


@dataclass(frozen=True)
class IterationTrace:
    """Damped best-response trajectory: the iterates (tuples of float
    elasticities), whether it converged, the per-sweep residuals (distance
    from each state to its best response) and whether any trader escalated
    to the infinite-elasticity branch."""

    iterates: tuple[tuple[float, ...], ...]
    converged: bool
    final_residual: float
    residuals: tuple[float, ...]
    escalated: bool = False


def _rest_of(thetas: list[float], i: int) -> float:
    # added left to right: Python's sum compensates from 3.12 on
    total = 0.0
    for j, theta in enumerate(thetas):
        if j != i:
            total += theta
    return total


def _responses(exposures: ExposureProfile, state: list[float]) -> list[float]:
    return [best_response(exposures, i, _rest_of(state, i)).theta for i in range(len(state))]


def _distance(a: float, b: float) -> float:
    # two infinities agree, and inf - inf is never formed
    return 0.0 if a == b else abs(a - b)


def iterate_best_responses(exposures: ExposureProfile, start) -> IterationTrace:
    """Jacobi sweeps of the closed-form best response with convex damping.

    start holds one finite positive elasticity per trader.  Convergence
    requires stable best-response branches (whether each response is 0.0,
    finite or +inf) and per-coordinate steps below _STEP_TOL between
    consecutive sweeps, within _MAX_ITERATIONS sweeps;
    non-convergence is reported via the flag, not an exception.  This is a
    cross-checking oracle with no convergence guarantee (the model itself
    says nothing about dynamics).
    """
    if exposures.is_trivial:
        raise ValueError("best-response iteration is undefined on a trivial instance")
    state = [float(t) for t in start]
    if len(state) != exposures.n_traders:
        raise ValueError(f"start must hold {exposures.n_traders} elasticities, one per trader")
    if not all(0.0 < s < math.inf for s in state):
        raise ValueError("start must be strictly positive and finite in every coordinate")

    iterates = [tuple(state)]
    residuals: list[float] = []
    escalated = False
    converged = False
    prev_branches = None

    for _ in range(_MAX_ITERATIONS):
        targets = _responses(exposures, state)
        residuals.append(max(map(_distance, state, targets)))
        branches = tuple((theta == 0.0, theta == math.inf) for theta in targets)
        escalated |= math.inf in targets
        # a step to or from +inf is taken whole
        new_state = [
            target if math.inf in (cur, target) else (1.0 - _DAMPING) * cur + _DAMPING * target
            for cur, target in zip(state, targets)
        ]
        step = max(map(_distance, state, new_state))
        state = new_state
        iterates.append(tuple(state))
        if prev_branches == branches and step < _STEP_TOL:
            converged = True
            break
        prev_branches = branches

    final_residual = max(map(_distance, state, _responses(exposures, state)))
    return IterationTrace(
        iterates=tuple(iterates),
        converged=converged,
        final_residual=final_residual,
        residuals=tuple(residuals),
        escalated=escalated,
    )
