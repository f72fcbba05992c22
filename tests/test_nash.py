import copy
import itertools
import math
import time
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thinmarket import (
    ConsistencyError,
    KIND_BILATERAL,
    KIND_EXTREME,
    KIND_GENERAL,
    KIND_TRIVIAL,
    KIND_UNSUPPORTED,
    MarketModel,
    TraderProfile,
    best_response,
    compare,
    competitive_equilibrium,
    derive_exposures,
    scenario_from_dict,
    scenario_to_dict,
    solve,
    validate_model,
)
import thinmarket.nash
from thinmarket.nash import (
    KIND_FAILED,
    SOLVE_ERRORS,
    GeneralSystem,
    _failure,
    check_extreme_condition,
    fixed_point_deviation,
    solve_bilateral,
    solve_extreme,
    solve_general,
)
from conftest import (
    bilateral_model,
    constrained_betas,
    follower_system,
    model_from_betas,
    point_model,
    random_deltas,
    unconstrained_betas,
)


def _exposures(rng, betas, deltas, **kwargs):
    return derive_exposures(model_from_betas(rng, betas, deltas, **kwargs))


def _reference_thresholds(deltas, betas):
    """1 + rest_k / delta_k for every trader k, rest_k the others'
    delta_i (1 + beta_i)_+ in Python floats, added from the left up to k and
    from the right down to k: a prefix plus a suffix sum, so that a verdict an
    ulp from a threshold is the classifier's to the bit."""
    terms = [max(d * (1.0 + b), 0.0) for d, b in zip(deltas, betas)]
    thresholds = []
    for k, delta in enumerate(deltas):
        left = right = 0.0
        for term in terms[:k]:
            left += term
        for term in reversed(terms[k + 1:]):
            right += term
        thresholds.append(1.0 + (left + right) / delta)
    return thresholds


class TestExtremeCondition:
    def test_hand_case(self, rng):
        ex = _exposures(rng, [2.5, -0.5, -1.0], [1.0, 1.0, 1.0])
        assert check_extreme_condition(ex) == 0

    def test_none_when_betas_moderate(self, rng):
        ex = _exposures(rng, [0.5, 0.5], [1.0, 1.0])
        assert check_extreme_condition(ex) is None

    def test_at_most_one_trader(self):
        # Random markets, and the same markets with a random trader's beta
        # snapped to 0-4 ulps either side of its threshold: at most one trader
        # meets beta_k >= 1 + rest_k / delta_k, and check_extreme_condition
        # returns that trader, on each market alone and on their stack.
        rng = np.random.default_rng(21)
        hits = [0, 0]  # in the random and the snapped draw
        for n in range(2, 7):
            deltas = 10.0 ** rng.uniform(-3.0, 3.0, size=(200, n))
            cov_es = np.array([unconstrained_betas(rng, n) for _ in deltas])
            model = _one_security_market(deltas[0], cov_es[0]).stacked(deltas, cov_es[..., None])
            stack = derive_exposures(model)
            alone = [derive_exposures(point_model(model, g)) for g in range(len(deltas))]
            snapped = np.array(stack.beta)
            for g, row in enumerate(snapped):
                k, ulps = int(rng.integers(n)), int(rng.integers(-4, 5))
                row[k] = _reference_thresholds(deltas[g].tolist(), row.tolist())[k]
                for _ in range(abs(ulps)):
                    row[k] = math.nextafter(row[k], math.copysign(math.inf, ulps))
                # a beta at or above its threshold meets the condition
                assert (row[k] >= _reference_thresholds(deltas[g].tolist(), row.tolist())[k]) == (ulps >= 0)
            for draw, betas in enumerate((stack.beta, snapped)):
                leaders = check_extreme_condition(replace(stack, beta=betas))
                for g, ex in enumerate(alone):
                    thresholds = _reference_thresholds(deltas[g].tolist(), betas[g].tolist())
                    meeting = [k for k, b in enumerate(betas[g].tolist()) if b >= thresholds[k]]
                    assert len(meeting) <= 1, (n, g, meeting)
                    assert check_extreme_condition(replace(ex, beta=betas[g])) == (meeting or [None])[0]
                    assert leaders[g] == (meeting or [-1])[0]
                    hits[draw] += len(meeting)
        assert hits[0] > 100 and hits[1] > 300  # the regime occurs in both draws

    def test_stacked_profile_gets_minus_one_where_no_trader_leads(self):
        # an extreme point, one that failed validation (a zero risk
        # tolerance), a trivial one, and an extreme one whose leader's term
        # overflows; without a RuntimeWarning
        deltas = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1e308, 1.0, 1.0]])
        cov_es = np.array([[2.5, -0.5, -1.0], [2.5, -0.5, -1.0], [1.0, -1.0, 0.0], [2.5, -0.5, -1.0]])
        model = _one_security_market(deltas[0], cov_es[0]).stacked(deltas, cov_es[..., None])
        stack = derive_exposures(model)
        assert stack.valid.tolist() == [True, False, True, True] and stack.is_trivial[2]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert check_extreme_condition(stack).tolist() == [0, -1, -1, 0]


class TestSolveExtreme:
    def test_hand_case(self, rng):
        ex = _exposures(rng, [2.5, -0.5, -1.0], [1.0, 1.0, 1.0])
        sol = solve(ex)
        assert sol.kind == KIND_EXTREME
        values = sol.thetas.tolist()
        assert values[0] == math.inf
        assert values[1] == pytest.approx(0.5)
        assert values[2] == 0.0
        assert np.all(sol.outcome.prices == 0.0)
        assert np.allclose(sol.k_shares, [1.0, 0.0, 0.0])
        assert np.allclose(sol.outcome.post_beta, [1.0, 0.0, 0.0])
        # absorbing trader's utility gain over autarky
        gain = (ex.own_var[0] - ex.aggregate_market_variance) / (2 * ex.delta[0])
        assert sol.outcome.utilities[0] - ex.u[0] == pytest.approx(gain)
        # everyone else just sheds their hedgeable exposure at zero cost
        assert np.allclose(sol.outcome.allocations[1:], -ex.a[1:])
        assert np.allclose(sol.outcome.premium, 0.0)

    def test_boundary_equality_is_extreme(self, rng):
        # two traders, beta_0 exactly at 2 - lambda_0
        ex = _exposures(rng, [1.5, -0.5], [1.0, 1.0], market_variance=1.0)
        assert check_extreme_condition(ex) == 0
        assert solve(ex).kind == KIND_EXTREME

    def test_single_active_trader_is_extreme(self, rng):
        # the lone counterparty is passive, so the active trader faces zero
        # aggregate elasticity: only meaningful on the risk-neutral branch
        ex = _exposures(rng, [2.5, -1.5], [1.0, 2.0])
        sol = solve(ex)
        assert sol.kind == KIND_EXTREME
        assert sol.thetas.tolist() == [math.inf, 0.0]
        assert fixed_point_deviation(ex, sol.thetas) == 0.0


def _per_trader_bilateral_thetas(exposures):
    """The bilateral closed form written once per trader of the pair, which is
    found by index (the first and the last trader with beta > -1): the
    reference for the symmetric form solve uses."""
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
    theta0 = d0 * 2.0 * lam1 * beta_sum / (lam_sum - gap)
    theta1 = d1 * 2.0 * lam0 * beta_sum / (lam_sum + gap)
    trader = np.arange(n)
    return np.where(trader == i0, theta0, np.where(trader == i1, theta1, 0.0))


class TestSolveBilateral:
    def test_hand_case(self, rng):
        ex = _exposures(rng, [1.2, -0.2], [1.0, 1.0])
        sol = solve(ex)
        assert sol.kind == KIND_BILATERAL
        thetas = sol.thetas.tolist()
        assert thetas[0] == pytest.approx(2 * 0.5 / 0.3)
        assert thetas[1] == pytest.approx(2 * 0.5 / 1.7)
        assert np.allclose(sol.outcome.post_beta, [0.85, 0.15])

    def test_coincides_with_competitive_when_beta_is_lambda(self, rng):
        deltas = random_deltas(rng, 2)
        lam = deltas / deltas.sum()
        ex = _exposures(rng, lam, deltas, n_securities=2, noise=0.0)
        sol = solve(ex)
        assert sol.kind == KIND_BILATERAL
        assert np.allclose(sol.thetas, deltas)
        assert np.allclose(sol.outcome.allocations, 0.0, atol=1e-12)
        comp = competitive_equilibrium(ex)
        assert np.allclose(sol.outcome.prices, comp.prices)

    def test_prices_unaffected_special_case(self, rng):
        # lambda_0 = (2 - beta_0) / 3 keeps prices at their competitive level
        beta0 = 0.2
        lam0 = (2.0 - beta0) / 3.0
        deltas = np.array([lam0, 1.0 - lam0]) * 2.3
        ex = _exposures(rng, [beta0, 1.0 - beta0], deltas)
        sol = solve(ex)
        comp = competitive_equilibrium(ex)
        assert np.allclose(sol.outcome.prices, comp.prices, rtol=1e-12)
        assert not np.allclose(sol.outcome.allocations, 0.0, atol=1e-6)
        # post-trade betas become the counterparty's relative tolerance
        assert np.allclose(sol.outcome.post_beta, ex.lam[::-1], atol=1e-12)

    def test_price_ratio_formula(self, rng):
        for _ in range(20):
            model = bilateral_model(rng, n_securities=2)
            ex = derive_exposures(model)
            sol = solve(ex)
            comp = competitive_equilibrium(ex)
            lam, beta = ex.lam, ex.beta
            factor = (lam[0] + beta[0]) * (lam[1] + beta[1]) / (4 * lam[0] * lam[1])
            assert np.allclose(sol.outcome.prices, factor * comp.prices, atol=1e-12)

    def test_passive_traders_submit_zero(self, rng):
        ex = _exposures(rng, [1.5, 0.8, -1.3], [1.0, 1.0, 1.0])
        sol = solve(ex)
        assert sol.kind == KIND_BILATERAL
        thetas = sol.thetas.tolist()
        assert thetas[2] == 0.0
        assert thetas[0] == pytest.approx(1.53333333333333 / 0.43333333333333, rel=1e-10)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_symmetric_form_is_bit_equal_to_the_per_trader_reference(self, rng, n):
        # the active pair at every pair of positions, the passive traders
        # everywhere else
        models = []
        for pair in itertools.combinations(range(n), 2):
            betas = -1.0 - rng.uniform(0.1, 1.0, n)
            betas[pair[0]] = rng.uniform(-0.5, 1.5)
            betas[pair[1]] = 0.0
            betas[pair[1]] = 1.0 - betas.sum()
            models.append(model_from_betas(rng, betas, random_deltas(rng, n)))
        for model in models:
            ex = derive_exposures(model)
            assert np.count_nonzero(ex.beta > -1.0) == 2
            assert np.array_equal(solve_bilateral(ex), _per_trader_bilateral_thetas(ex))
        stacked = models[0].stacked(
            np.array([m.deltas for m in models]), np.array([m.cov_matrix_rows for m in models])
        )
        grid = derive_exposures(stacked)
        expected = _per_trader_bilateral_thetas(grid)
        assert np.array_equal(solve_bilateral(grid), expected)
        assert np.isfinite(expected).all() and (expected[grid.beta <= -1.0] == 0.0).all()

    def test_hairline_boundary_is_solved_and_verified(self, rng):
        # one ulp inside the extreme boundary: the leader's elasticity is an
        # almost-pole, about 1/eps, but its share and the prices are regular
        beta0 = np.nextafter(1.5, 0.0)
        ex = _exposures(rng, [beta0, 1.0 - beta0], [1.0, 1.0], market_variance=1.0)
        assert check_extreme_condition(ex) is None
        sol = solve(ex)
        assert sol.kind == KIND_BILATERAL
        assert 1e15 < sol.thetas[0] < math.inf and sol.thetas[1] == pytest.approx(0.5)
        assert sol.k_shares[0] == pytest.approx(1.0, abs=1e-15)
        assert np.abs(sol.outcome.prices).max() < 1e-15
        assert fixed_point_deviation(ex, sol.thetas) <= thinmarket.nash.FIXED_POINT_RTOL

    def test_closed_form_overflow_is_handed_to_the_general_solver(self):
        # an ulp inside the boundary with lambda_0 about 1e-3: the closed
        # form's denominator rounds to zero, and the general solver resolves
        # the market in s = 1/x
        ex = derive_exposures(_one_security_market(*_CLOSED_FORM_OVERFLOW))
        assert check_extreme_condition(ex) is None
        assert not 0.0 < solve_bilateral(ex).sum() < math.inf
        sol = solve(ex)
        assert sol.kind == KIND_GENERAL and 1e15 < sol.thetas[0] < math.inf
        assert fixed_point_deviation(ex, sol.thetas) <= thinmarket.nash.FIXED_POINT_RTOL


class TestSolveGeneral:
    def test_three_trader_frozen_case(self, rng):
        # independently re-derived by bisection on the scalar equation and
        # confirmed by the coordinatewise best-response fixed point
        ex = _exposures(rng, [1.2, 0.2, -0.4], [1.0, 1.0, 1.0])
        sol = solve(ex)
        assert sol.kind == KIND_GENERAL
        thetas = sol.thetas
        assert thetas.sum() == pytest.approx(3.950762316545834, rel=1e-9)
        assert np.allclose(
            thetas, [2.573864109314033, 0.9475798225522591, 0.42931838467954303], rtol=1e-9
        )
        assert np.allclose(
            sol.k_shares, [0.6514854357435432, 0.2398473374578331, 0.10866722679862394],
            rtol=1e-9,
        )
        system = GeneralSystem(ex.delta, ex.beta)
        assert system.F(1.0 / 3.9) > 0.0 > system.F(1.0 / 4.0)

    def test_matches_bilateral_closed_form(self, rng):
        for _ in range(100):
            ex = derive_exposures(bilateral_model(rng, n_securities=1))
            general = solve_general(ex.delta, ex.beta, ex.delta_total)[0]
            assert np.allclose(general, solve_bilateral(ex), rtol=1e-9)

    def test_no_trade_at_beta_equal_lambda(self, rng):
        deltas = random_deltas(rng, 4)
        lam = deltas / deltas.sum()
        ex = _exposures(rng, lam, deltas, n_securities=2, noise=0.0)
        sol = solve(ex)
        assert sol.kind == KIND_GENERAL
        assert np.allclose(sol.thetas, deltas, rtol=1e-10)
        assert np.allclose(sol.outcome.allocations, 0.0, atol=1e-10)

    def test_unsupported_four_trader_configuration(self, rng):
        ex = _exposures(rng, [2.0, 2.0, 0.0, -3.0], [1.0, 1.0, 1.0, 1.0])
        sol = solve(ex)
        assert sol.kind == KIND_UNSUPPORTED
        assert sol.outcome is None and sol.thetas is None
        assert "beta > 1" in sol.detail
        # two betas above one but only two active traders: the bilateral
        # closed form applies, and the dispatch tries it first
        ex = _exposures(rng, [2.0, 2.0, -3.0], [1.0, 1.0, 1.0])
        sol = solve(ex)
        assert sol.kind == KIND_BILATERAL
        assert fixed_point_deviation(ex, sol.thetas) < 1e-8

    def test_root_at_the_boundary_takes_the_tie_rule(self):
        # an ulp above -1.5 puts this instance on the non-extreme side of the
        # classifier, but the scalar equation is already nonnegative at s = 0:
        # the market gets its leader's extreme solution, which verifies
        ex = _exposures(
            np.random.default_rng(0),
            [3.0625, -1.5 + 2**-52, 0.375, -0.9375],
            [1.75, 1.75, 2.5, 2.75],
            market_variance=1.0,
        )
        assert check_extreme_condition(ex) is None
        assert GeneralSystem(ex.delta, ex.beta).F(0.0) >= 0.0
        sol = solve(ex)
        assert sol.kind == KIND_EXTREME
        assert sol.thetas[0] == math.inf and sol.thetas[1] == 0.0
        assert np.allclose(sol.thetas[2:], [3.4375, 0.171875])
        assert fixed_point_deviation(ex, sol.thetas) == 0.0

    @pytest.mark.parametrize(
        "betas, deltas",
        [
            ((0.75, 1.4999999999990905, -1.2499999999990905), (0.5, 1.75, 0.25)),
            ((0.6875, -0.9375, 3.1249999999990905, -1.8749999999990905), (0.25, 1.75, 0.25, 3.75)),
        ],
        ids=["bilateral", "general"],
    )
    def test_unverifiable_boundary_instance_is_rejected(self, betas, deltas, monkeypatch):
        # within rounding of the extreme boundary: the leader's elasticity
        # verifies only to the precision its conditioning allows, so the
        # market is solved, and rejected once that allowance is taken away
        ex = _exposures(np.random.default_rng(0), betas, deltas, market_variance=1.0)
        assert solve(ex).kind == (KIND_BILATERAL if len(betas) == 3 else KIND_GENERAL)
        monkeypatch.setattr(thinmarket.nash, "_ROUNDING_ULPS", 0)
        with pytest.raises(ConsistencyError, match="best-response verification failed"):
            solve(ex)

    def test_argmax_tie_is_order_invariant(self, rng):
        betas = np.array([0.8, 0.8, -0.6])
        deltas = np.array([1.3, 0.7, 2.0])
        model = model_from_betas(rng, betas, deltas, n_securities=2)
        ex = derive_exposures(model)
        sol = solve(ex)
        order = [1, 0, 2]
        swapped = replace(
            model,
            deltas=model.deltas[order],
            cov_matrix_rows=model.cov_matrix_rows[order],
            endowment_means=model.endowment_means[order],
            endowment_vars=model.endowment_vars[order],
        )
        sol_swapped = solve(derive_exposures(swapped))
        assert np.allclose(sol.thetas, sol_swapped.thetas[[1, 0, 2]], rtol=1e-9)


def _one_security_market(deltas, cov_es):
    # with C = [[1]], a_i is cov_es[i] and beta_i is cov_es[i] / sum(cov_es);
    # the endowment variance covers every hedge portfolio's, so a stack of
    # these markets is valid at every point
    traders = tuple(
        TraderProfile(float(d), np.array([float(c)]), endowment_mean=0.0, endowment_var=100.0)
        for d, c in zip(deltas, cov_es)
    )
    return MarketModel(np.array([[1.0]]), traders)


_HAIRLINE = float(np.nextafter(1.5, 0.0))
# (deltas, cov_es) of a two-trader market whose closed form overflows
_CLOSED_FORM_OVERFLOW = ((0.0010010010010008904, 1.0), (1.999, 1.0 - 1.999))


def _general_called_extreme(exposures):
    """check_extreme_condition, except that it calls the general market of
    delta_0 = 0.75 extreme, led by trader 0, wherever it is."""
    leader = check_extreme_condition(exposures)
    if exposures.valid is None:
        return 0 if exposures.delta[0] == 0.75 else leader
    return np.where(exposures.delta[:, 0] == 0.75, 0, leader)


# No valid market is known to reach a failure code of solve, so each failure
# is reached with a limit taken away, or a classifier made wrong, as (deltas,
# cov_es, limits, exception, message): next to the extreme boundary, a
# verification without its rounding allowance (bilateral and general) and
# residuals held to zero; a root-finder allowed a single step; and a general
# market classified extreme, whose leader's infinite elasticity is no best
# response.
FAILURES = {
    "unverifiable_bilateral": ((0.5, 1.75, 0.25), (0.75, 1.4999999999990905, -1.2499999999990905),
                               {"_ROUNDING_ULPS": 0}, ConsistencyError,
                               "best-response verification failed: deviation 3.48736e-05"),
    "unverifiable_general": ((0.25, 1.75, 0.25, 3.75),
                             (0.6875, -0.9375, 3.1249999999990905, -1.8749999999990905),
                             {"_ROUNDING_ULPS": 0}, ConsistencyError,
                             "best-response verification failed: deviation 0.000198752"),
    "residuals_beyond_tolerance": ((1.0, 1.0), (_HAIRLINE, 1.0 - _HAIRLINE), {"RESIDUAL_TOL": 0.0},
                                   ConsistencyError, "equilibrium residuals exceed tolerance: 4.44089e-16"),
    "root_finder_exhausted": ((1.0, 1.0, 1.0), (1.2, 0.2, -0.4), {"_MAX_ITERATIONS": 1},
                              ConsistencyError, "root-finder failed to reach tolerance"),
    "general_classified_extreme": ((0.75, 1.0, 1.0), (1.2, 0.2, -0.4),
                                   {"check_extreme_condition": _general_called_extreme},
                                   ConsistencyError, "best-response verification failed: deviation inf"),
}

# Solved points (deltas, cov_es), stacked with each failure of their trader
# count.  The first rows of each count are markets at the float limits: one
# ulp inside the extreme boundary, with and without an overflowing closed form
# (2 traders), a risk tolerance of 1e308 (3), and an ulp beyond the boundary's
# classification, extreme by the tie rule (4).
SOLVED = {
    2: [((1.0, 1.0), (_HAIRLINE, 1.0 - _HAIRLINE)), _CLOSED_FORM_OVERFLOW, ((1.0, 2.0), (1.0, -1.0)),
        ((1.0, 1.0), (1.8, -0.8)), ((1.0, 1.0), (1.2, -0.2))],
    3: [((1e308, 1.0, 0.5), (1.2, -0.2, 0.3)), ((1.0, 2.0, 1.0), (1.0, -1.0, 0.0)),
        ((1.0, 1.0, 1.0), (2.5, -0.5, -1.0)), ((1.0, 1.0, 1.0), (1.2, 0.8, -1.0)),
        ((1.0, 1.0, 1.0), (1.2, 0.2, -0.4))],
    4: [((1.75, 1.75, 2.5, 2.75), (3.0625, -1.5 + 2**-52, 0.375, -0.9375)), ((1.0,) * 4, (1.0, -1.0, 0.5, -0.5)),
        ((1.0,) * 4, (3.0, -0.5, -0.5, -1.0)), ((1.0,) * 4, (1.5, 1.5, -1.0, -1.0)),
        ((1.0, 2.0, 0.5, 1.5), (0.5, 0.3, 0.1, 0.1)), ((1.0,) * 4, (2.0, 2.0, 0.0, -3.0))],
}


def _one_point_stack(market):
    """One market as the stack of its one point."""
    return market.stacked(market.deltas[None], market.cov_matrix_rows[None])


def _same_bits(stacked, one):
    """Whether the one-point stack's value squeezes to one market's, bit for
    bit; None on one market is NaN on the stack, or None on both."""
    if stacked is None:
        return one is None
    if one is None:
        return bool(np.isnan(stacked).all())
    return np.asarray(stacked)[0].tobytes() == np.asarray(one).tobytes()


def _assert_one_point_stack_squeezes(model, g, exposures, alone):
    """Point g of `model` alone and as a one-point stack: validate_model,
    solve, fixed_point_deviation and compare of the stack squeeze to the
    one-market results, and the stack marks KIND_FAILED where solve raises
    alone (alone is None)."""
    point = _one_point_stack(point_model(model, g))
    one, lifted = validate_model(point_model(model, g)), validate_model(point)
    assert (one.violations, one.failed_points) == ((), None), g
    assert (lifted.violations, lifted.failed_points.tolist()) == ((), [False]), g
    stack = derive_exposures(point)
    sol = solve(stack)
    if alone is None:
        assert sol.kind.tolist() == [KIND_FAILED], g
        return
    assert sol.kind.tolist() == [alone.kind], g
    for name in ("thetas", "k_shares", "residuals"):
        assert _same_bits(getattr(sol, name), getattr(alone, name)), (g, name)
    if alone.kind == KIND_UNSUPPORTED:
        return
    for name in ("prices", "allocations", "post_beta", "utilities", "premium", "payoff_gain"):
        assert _same_bits(getattr(sol.outcome, name), getattr(alone.outcome, name)), (g, name)
    if alone.kind != KIND_TRIVIAL:
        deviation, stage = fixed_point_deviation(stack, sol.thetas)
        assert deviation.tolist() == [fixed_point_deviation(exposures, alone.thetas)], g
        assert stage.tolist() == [0], g
    one = compare(exposures, competitive_equilibrium(exposures), alone)
    report = compare(stack, competitive_equilibrium(stack), sol)
    assert report.failed.tolist() == [False], g
    for name in ("du", "inefficiency", "L"):
        assert _same_bits(getattr(report, name), getattr(one, name)), (g, name)


def _grid_kinds(points):
    """Classify and solve the stacked one-security markets `points`.  Each
    point must get check_extreme_condition's verdict alone (-1 for None, and
    for a trivial point, where it raises alone), KIND_FAILED and NaN
    elasticities where solve raises on it alone, and otherwise the kind and
    the bits it gets alone; and the same as a one-point stack.  Returns the
    kinds."""
    kinds = []
    model = _one_security_market(*points[0]).stacked(
        np.array([d for d, _ in points]), np.array([c for _, c in points])[..., None]
    )
    stack = derive_exposures(model)
    leaders, grid = check_extreme_condition(stack), solve(stack)
    assert len(grid.thetas) == len(points)
    for g in range(len(points)):
        exposures = derive_exposures(point_model(model, g))
        leader = None if exposures.is_trivial else check_extreme_condition(exposures)
        assert leaders[g] == (-1 if leader is None else leader), g
        try:
            alone = solve(exposures)
        except SOLVE_ERRORS:
            assert grid.kind[g] == KIND_FAILED, g
            assert np.isnan(grid.thetas[g]).all(), g
            _assert_one_point_stack_squeezes(model, g, exposures, None)
            kinds.append(KIND_FAILED)
            continue
        _assert_one_point_stack_squeezes(model, g, exposures, alone)
        kinds.append(alone.kind)
        assert grid.kind[g] == alone.kind, g
        outcome = alone.outcome
        pairs = {
            "thetas": (grid.thetas, alone.thetas),
            "k_shares": (grid.k_shares, alone.k_shares),
            "residuals": (grid.residuals, alone.residuals),
            **{
                name: (getattr(grid.outcome, name), getattr(outcome, name, None))
                for name in ("prices", "allocations", "post_beta", "utilities", "premium")
            },
        }
        for name, (stacked, one) in pairs.items():
            if one is None:  # None on one market is NaN on the grid
                assert np.isnan(stacked[g]).all(), (g, name)
            else:
                assert stacked[g].tobytes() == np.asarray(one).tobytes(), (g, name)
    return kinds


class TestFailureParity:
    @pytest.mark.parametrize("name", sorted(FAILURES))
    def test_solve_raises_the_exact_exception(self, name, monkeypatch):
        deltas, cov_es, limits, error, message = FAILURES[name]
        exposures = derive_exposures(_one_security_market(deltas, cov_es))
        solve(exposures)  # solved with the limits in place
        for attr, value in limits.items():
            monkeypatch.setattr(thinmarket.nash, attr, value)
        # the verifier runs once, and gives a rejected market its stage too;
        # a market the root-finder fails has nothing to verify
        calls, verify = [], thinmarket.nash.fixed_point_deviation
        monkeypatch.setattr(thinmarket.nash, "fixed_point_deviation", lambda *a: calls.append(a) or verify(*a))
        with pytest.raises(SOLVE_ERRORS) as info:
            solve(exposures)
        assert type(info.value) is error
        assert str(info.value) == message
        assert len(calls) == (name != "root_finder_exhausted")
        # the same market as a one-point stack marks its point instead
        point = derive_exposures(_one_point_stack(_one_security_market(deltas, cov_es)))
        assert solve(point).kind.tolist() == [KIND_FAILED]

    def test_an_error_inside_the_general_step_propagates(self, monkeypatch):
        # only the root-finder's exhaustion is a failure of the market
        # (root_finder_exhausted in FAILURES); any other error is a bug
        deltas, cov_es = FAILURES["root_finder_exhausted"][:2]
        exposures = derive_exposures(_one_security_market(deltas, cov_es))
        assert solve(exposures).kind == KIND_GENERAL

        def broken(system, s):
            raise ValueError("boom")

        monkeypatch.setattr(thinmarket.nash.GeneralSystem, "follower_thetas", broken)
        with pytest.raises(ValueError, match="^boom$"):
            solve(exposures)

    def test_grid_fails_where_solve_raises_and_is_bit_equal_elsewhere(self, monkeypatch):
        kinds = [kind for solved in SOLVED.values() for kind in _grid_kinds(solved)]
        assert set(kinds) == {KIND_TRIVIAL, KIND_EXTREME, KIND_BILATERAL, KIND_GENERAL, KIND_UNSUPPORTED}
        for name, (deltas, cov_es, limits, _, _) in FAILURES.items():
            with monkeypatch.context() as patch:
                for attr, value in limits.items():
                    patch.setattr(thinmarket.nash, attr, value)
                assert _grid_kinds([(deltas, cov_es)] + SOLVED[len(deltas)])[0] == KIND_FAILED, name

    def test_elasticities_read_as_thetas_with_none_where_a_point_has_none(self, monkeypatch):
        # what the benchmark reads: records whose as_float is the theta, on
        # one market and per point of a stack
        for deltas, cov_es in [point for solved in SOLVED.values() for point in solved]:
            sol = solve(derive_exposures(_one_security_market(deltas, cov_es)))
            if sol.kind == KIND_UNSUPPORTED:
                assert sol.elasticities is None
            else:
                assert [e.as_float for e in sol.elasticities] == sol.thetas.tolist()
        deltas, cov_es, limits, _, _ = FAILURES["unverifiable_general"]
        points = [(deltas, cov_es)] + SOLVED[4]
        model = _one_security_market(*points[0]).stacked(
            np.array([d for d, _ in points]), np.array([c for _, c in points])[..., None]
        )
        for attr, value in limits.items():
            monkeypatch.setattr(thinmarket.nash, attr, value)
        grid = solve(derive_exposures(model))
        kinds = grid.kind.tolist()
        assert {KIND_FAILED, KIND_UNSUPPORTED} < set(kinds)
        for kind, row, thetas in zip(kinds, grid.elasticities, grid.thetas.tolist()):
            if kind in (KIND_FAILED, KIND_UNSUPPORTED):
                assert row is None
            else:
                assert [e.as_float for e in row] == thetas


class TestDispatch:
    def test_trivial(self):
        model = MarketModel(
            np.array([[1.0]]),
            (TraderProfile(1.0, np.array([1.0])), TraderProfile(2.0, np.array([-1.0]))),
        )
        sol = solve(derive_exposures(model))
        assert sol.kind == KIND_TRIVIAL
        assert np.all(sol.outcome.prices == 0.0)
        assert np.allclose(sol.outcome.allocations, -derive_exposures(model).a)

    def test_classifies_once_per_solve(self, rng, monkeypatch):
        # check_extreme_condition is solve's one classification step, and each
        # per-regime step runs where its regime needs it: once per call for
        # the array steps, once per point for the general solver
        calls = []

        def counted(name):
            step = getattr(thinmarket.nash, name)

            def run(*args):
                calls.append(name)
                return step(*args)

            return run

        steps = ("check_extreme_condition", "solve_extreme", "solve_bilateral", "solve_general")
        for name in steps:
            monkeypatch.setattr(thinmarket.nash, name, counted(name))
        trivial = MarketModel(
            np.array([[1.0]]),
            (TraderProfile(1.0, np.array([1.0])), TraderProfile(2.0, np.array([-1.0]))),
        )
        tie = _exposures(rng, [3.0625, -1.5 + 2**-52, 0.375, -0.9375], [1.75, 1.75, 2.5, 2.75],
                         market_variance=1.0)
        cases = [
            (derive_exposures(trivial), KIND_TRIVIAL, []),
            (_exposures(rng, [2.5, -0.5, -1.0], [1.0, 1.0, 1.0]), KIND_EXTREME,
             ["check_extreme_condition", "solve_extreme"]),
            (_exposures(rng, [1.2, -0.2], [1.0, 1.0]), KIND_BILATERAL,
             ["check_extreme_condition", "solve_bilateral"]),
            (_exposures(rng, [2.0, 2.0, 0.0, -3.0], [1.0] * 4), KIND_UNSUPPORTED,
             ["check_extreme_condition"]),
            (_exposures(rng, [1.2, 0.2, -0.4], [1.0, 1.0, 1.0]), KIND_GENERAL,
             ["check_extreme_condition", "solve_general"]),
            # F(0) >= 0: the general step, then the extreme solution (tie rule)
            (tie, KIND_EXTREME, ["check_extreme_condition", "solve_general", "solve_extreme"]),
            # an overflowing closed form is handed to the general step
            (derive_exposures(_one_security_market(*_CLOSED_FORM_OVERFLOW)), KIND_GENERAL,
             ["check_extreme_condition", "solve_bilateral", "solve_general"]),
        ]
        for ex, kind, expected in cases:
            calls.clear()
            assert solve(ex).kind == kind
            assert calls == expected, kind

        # a grid of G points of every kind is classified once per call, runs
        # each array step once and the general step once per general point
        model = model_from_betas(rng, [1.2, 0.2, -0.4], [1.0, 1.0, 1.0], market_variance=1.0)
        cov_rows = np.array([[[b] for b in betas] for betas in (
            [1.2, 0.2, -0.4], [2.5, -0.5, -1.0], [1.2, 0.8, -1.0], [1.0, -1.0, 0.0], [0.5, 0.3, 0.2],
        )])
        grid = derive_exposures(model.stacked(np.ones((5, 3)), cov_rows))
        calls.clear()
        assert solve(grid).kind.tolist() == [
            KIND_GENERAL, KIND_EXTREME, KIND_BILATERAL, KIND_TRIVIAL, KIND_GENERAL
        ]
        assert {name: calls.count(name) for name in steps} == {
            "check_extreme_condition": 1, "solve_extreme": 1, "solve_bilateral": 1, "solve_general": 2
        }

    def test_fixed_point_on_random_instances(self, rng):
        kinds = set()
        for _ in range(200):
            n = int(rng.integers(2, 6))
            ex = _exposures(rng, constrained_betas(rng, n), random_deltas(rng, n))
            sol = solve(ex)
            kinds.add(sol.kind)
            if sol.kind in (KIND_BILATERAL, KIND_GENERAL, KIND_EXTREME):
                assert fixed_point_deviation(ex, sol.thetas) < 1e-8
                assert abs(sol.k_shares.sum() - 1.0) < 1e-10
                if sol.residuals is not None:
                    assert np.max(np.abs(sol.residuals)) < 1e-8
        assert {KIND_EXTREME, KIND_BILATERAL, KIND_GENERAL} <= kinds

    def test_extreme_dichotomy(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 6))
            ex = _exposures(rng, unconstrained_betas(rng, n), random_deltas(rng, n))
            sol = solve(ex)
            condition = float(
                np.sum(ex.delta * np.clip(1.0 + ex.beta, 0.0, None))
            ) <= 2.0 * float(np.max(ex.delta * ex.beta))
            assert (sol.kind == KIND_EXTREME) == condition
            if sol.kind == KIND_EXTREME:
                assert np.all(sol.outcome.prices == 0.0)
                k = int(np.argmax(sol.k_shares))
                expected = np.zeros(n)
                expected[k] = 1.0
                assert np.array_equal(sol.outcome.post_beta, expected)

    def test_midpoint_volume_and_direction(self, rng):
        for _ in range(100):
            model = bilateral_model(rng, n_securities=2)
            ex = derive_exposures(model)
            sol = solve(ex)
            assert sol.kind == KIND_BILATERAL
            assert np.allclose(sol.outcome.post_beta, 0.5 * (ex.lam + ex.beta), atol=1e-12)
            comp = competitive_equilibrium(ex)
            cov = model.securities_cov
            vol_nash = np.einsum("ij,jk,ik->i", sol.outcome.allocations, cov, sol.outcome.allocations)
            vol_comp = np.einsum("ij,jk,ik->i", comp.allocations, cov, comp.allocations)
            assert np.all(vol_nash <= vol_comp + 1e-12)
            for i in range(2):
                theta = sol.thetas[i]
                if abs(ex.beta[i] - ex.lam[i]) > 1e-9:
                    assert (theta > ex.delta[i]) == (ex.beta[i] > ex.lam[i])


class TestScalarEquation:
    def test_phi_properties(self, rng):
        # as a function of the total elasticity x = 1/s
        xs = np.geomspace(1e-6, 1e6, 400)
        draws = [(float(rng.uniform(0.2, 5.0)), float(rng.uniform(-0.999, 1.0))) for _ in range(50)]
        deltas, betas = np.array(draws).T
        system = follower_system(deltas, betas)
        values = np.array([system.follower_thetas(1.0 / x) for x in xs])  # (x, follower)
        slopes = np.diff(values, axis=0) / np.diff(xs)[:, None]
        assert np.all(values[0] < 1e-5)  # phi(0+) -> 0
        assert np.all(np.diff(values, axis=0) >= -1e-12)  # nondecreasing
        assert np.all(np.diff(slopes, axis=0) <= 1e-10)  # concave
        assert values[-1] == pytest.approx(deltas * (1.0 + betas), rel=1e-4)
        # at s = 0, against an infinite rest
        assert system.follower_thetas(0.0).tolist() == (deltas * (1.0 + betas)).tolist()

    def test_phi_kink_at_beta_one(self, rng):
        deltas = np.array([0.3, 1.0, 4.0])
        system = follower_system(deltas, np.ones(3))
        assert system.follower_thetas(0.0).tolist() == (2 * deltas).tolist()
        for delta in deltas.tolist():
            for s in (10.0, 0.5 / delta, 0.2 / delta, 1e-8):
                assert system.follower_thetas(s).tolist() == np.minimum(1.0 / s, 2 * deltas).tolist()

    def test_key_equation_monotone_and_bracketed(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 6))
            ex = _exposures(rng, constrained_betas(rng, n), random_deltas(rng, n))
            if check_extreme_condition(ex) is not None:
                continue
            system = GeneralSystem(ex.delta, ex.beta)
            ss = np.r_[0.0, np.geomspace(1e-6, 1e6, 299) / ex.delta_total]
            values = np.array([system.F(s) for s in ss])
            assert np.all(np.diff(values) > -1e-12)
            assert values[0] < 0.0 < values[-1]
            # F(0) is the extreme condition's margin for the leader
            followers = system.follower_mask
            spread = float(np.sum(ex.delta[followers] * (1.0 + ex.beta[followers])))
            leader = system.leader
            assert values[0] == pytest.approx((1.0 + ex.beta[leader]) / (2.0 + spread / ex.delta[leader]) - 1.0)
            # F as s grows: half the active head count plus half their betas, minus one
            active = [leader] + followers.nonzero()[0].tolist()
            limit = 0.5 * len(active) + 0.5 * float(np.sum(ex.beta[active])) - 1.0
            assert limit > 0.0
            assert system.F(1e9 / ex.delta_total) == pytest.approx(limit, rel=1e-6)


# Reference verification: a trader-by-trader loop over the scalar best
# response, O(N^2), with the rounding rule of fixed_point_deviation;
# fixed_point_deviation must give its verdicts on the same elasticities as a
# float array.
def _reference_rest(elasticities, i):
    total = 0.0
    for j, theta in enumerate(elasticities):
        if j != i:
            total += theta  # +inf once anyone else's theta is
    return total


def _branch(theta):
    return "zero" if theta == 0.0 else "infinite" if theta == math.inf else "finite"


def _reference_deviation(exposures, thetas):
    elasticities = [float(t) for t in thetas]
    if not all(theta >= 0.0 for theta in elasticities):
        raise ValueError("NaN, negative or -inf: no elasticity")
    slack = thinmarket.nash._ROUNDING_ULPS * len(elasticities) * np.finfo(float).eps
    worst = 0.0
    for i in range(exposures.n_traders):
        rest = _reference_rest(elasticities, i)
        beta, delta = float(exposures.beta[i]), float(exposures.delta[i])
        # within the slack of a branch threshold, -1 or 1 + rest / delta, either
        # branch is a best response
        tie = min(abs(beta + 1.0), abs(rest / delta + (1.0 - beta))) <= slack * max(1.0, abs(beta))
        try:
            br = best_response(exposures, i, rest)
        except ValueError:
            if tie and rest != 0.0:
                continue
            raise
        theta_i = elasticities[i]
        if _branch(br.theta) != _branch(theta_i):
            if tie:
                continue
            return math.inf
        if _branch(theta_i) == "finite":
            dev = abs(br.theta - theta_i) / max(abs(br.theta), abs(theta_i))
            # less the rounding: (1 + |beta|) / |1 + rest / delta - beta| bounds
            # the response's conditioning in its inputs, the rest and beta
            kappa = (1.0 + abs(beta)) / abs(rest / delta + (1.0 - beta))
            worst = max(worst, dev - slack * kappa)
    return worst


def _verdict(fn, exposures, thetas):
    try:
        return fn(exposures, thetas)
    except (ValueError, ConsistencyError) as exc:
        return type(exc)


def _rest_conditioning(exposures, thetas):
    """Largest |d log br / d log rest| = |g| / |rest + g|, g = delta (1 - beta),
    of an interior best response against a finite rest.  Near the extreme
    boundary it is large: there an ulp of the rest sum moves the deviation by
    more than an ulp."""
    worst = 0.0
    for i in range(exposures.n_traders):
        rest = _reference_rest([float(t) for t in thetas], i)
        if _branch(rest) == "finite":
            gap = float(exposures.delta[i] * (1.0 - exposures.beta[i]))
            worst = max(worst, abs(gap) / max(abs(rest + gap), 1e-300))
    return worst


def assert_same_verdict(exposures, thetas):
    """Same exception type, the same inf/finite verdict, and deviations within
    1e-14 plus what the rest sums' rounding (at most 2 n ulps between the two
    summation orders) can move them by."""
    want = _verdict(_reference_deviation, exposures, thetas)
    got = _verdict(fixed_point_deviation, exposures, thetas)
    if isinstance(want, type):
        assert got is want
    elif math.isinf(want):
        assert got == math.inf
    else:
        assert not isinstance(got, type) and math.isfinite(got)
        n = len(thetas)
        kappa = _rest_conditioning(exposures, thetas)
        assert abs(got - want) <= 1e-14 + 2 * n * np.finfo(float).eps * kappa


def _candidates(exposures, thetas):
    """A solution and perturbations of it that hit every branch and verdict."""
    out = [np.array(thetas), np.array(exposures.delta), np.zeros(len(thetas))]
    for j, theta in enumerate(thetas.tolist()):
        bumped = np.array(thetas)
        if 0.0 < theta < math.inf:
            bumped[j] = theta * (1.0 + 1e-6)
            out.append(bumped)
            bumped = np.array(thetas)
            bumped[j] = math.inf
        elif theta == 0.0:
            bumped[j] = 1.0
        else:
            bumped[j] = 1e6
        out.append(bumped)
    return out


def _solved(exposures):
    try:
        sol = solve(exposures)
    except (ValueError, ConsistencyError):
        return None
    return None if sol.kind in (KIND_TRIVIAL, KIND_UNSUPPORTED) else sol


class TestVerificationParity:
    def test_random_instances_of_every_kind(self, rng):
        kinds = set()
        for trial in range(150):
            n = int(rng.integers(2, 7))
            betas = (constrained_betas if trial % 2 else unconstrained_betas)(rng, n)
            ex = _exposures(rng, betas, random_deltas(rng, n), n_securities=1 + trial % 3)
            sol = _solved(ex)
            if sol is None:
                continue
            kinds.add(sol.kind)
            for candidate in _candidates(ex, sol.thetas):
                assert_same_verdict(ex, candidate)
        for _ in range(30):
            ex = derive_exposures(bilateral_model(rng, n_securities=2))
            for candidate in _candidates(ex, solve(ex).thetas):
                assert_same_verdict(ex, candidate)
        assert {KIND_EXTREME, KIND_BILATERAL, KIND_GENERAL} <= kinds

    def test_passive_and_lone_active_traders(self, rng):
        # zero elasticities from passive traders, and a rest of exactly zero
        for betas in ([1.5, 0.8, -1.3], [2.5, -1.5], [2.5, -0.5, -1.0], [3.0, -1.0, -1.0]):
            ex = _exposures(rng, betas, random_deltas(rng, len(betas)))
            sol = _solved(ex)
            assert sol is not None
            for candidate in _candidates(ex, sol.thetas):
                assert_same_verdict(ex, candidate)

    def test_stacked_points_that_stop_and_points_that_do_not(self, rng):
        # One (G, N) stack of three one-security markets, each point built to
        # end the one-market check a given way, at various trader positions.
        # Every point gets the one-market deviation, or inf where that raises;
        # the stack without its stopping points takes the other branch.
        markets = [
            ([1.3, 0.4, -0.2, -0.5], [3.0, 2.0, 2.5, 1.5]),  # general
            ([3.0, -0.5, -0.5, -1.0], [1.0, 1.0, 1.0, 1.0]),  # extreme, led by trader 0
            ([-1.2, -1.3, 0.9, 2.6], [1.0, 1.0, 2.0, 2.0]),  # bilateral, two passive first
        ]
        models = [model_from_betas(rng, b, d, market_variance=1.0) for b, d in markets]
        (t, kind_t), (e, kind_e), (b, kind_b) = [
            (sol.thetas, sol.kind) for sol in (solve(derive_exposures(m)) for m in models)
        ]
        assert (kind_t, kind_e, kind_b) == (KIND_GENERAL, KIND_EXTREME, KIND_BILATERAL)
        points = [
            (0, t, "verified"),
            (0, [t[0], t[1] * (1.0 + 1e-6), t[2], t[3]], "deviates"),
            (0, [t[0], t[1], t[2], 0.0], "mismatch"),  # at trader 3
            (0, [math.inf, t[1], t[2], t[3]], "mismatch"),  # at trader 0
            (0, [1e308, t[1], t[2], t[3]], "deviates"),  # a rest near the float maximum
            (0, [t[0], t[1], 1e308, t[3]], "bad_value"),  # at trader 0: rest (1 + beta) overflows br
            (1, e, "verified"),  # an infinite theta
            (1, [e[0], 0.0, e[2], e[3]], "mismatch"),  # at trader 1
            (2, b, "verified"),
            (2, [0.0, 1.0, b[2], b[3]], "mismatch"),  # at trader 1
            (2, [0.0, 0.0, b[2], 0.0], "undefined"),  # at trader 2
            (2, np.zeros(4), "undefined"),  # at trader 0
        ]
        stacked = models[0].stacked(
            np.array([models[m].deltas for m, _, _ in points]),
            np.array([models[m].cov_matrix_rows for m, _, _ in points]),
        )
        ex = derive_exposures(stacked)
        thetas = np.array([theta for _, theta, _ in points], dtype=float)
        messages = {"undefined": "theta_rest = 0", "bad_value": "finite elasticity"}
        want, raised = [], []
        for g, (_, _, verdict) in enumerate(points):
            one = derive_exposures(point_model(stacked, g))
            assert_same_verdict(one, thetas[g])
            if verdict in messages:
                with pytest.raises(ValueError, match=messages[verdict]) as info:
                    fixed_point_deviation(one, thetas[g])
                want.append(math.inf)
                raised.append(str(info.value))
                continue
            raised.append(None)
            deviation = fixed_point_deviation(one, thetas[g])
            assert {"verified": deviation < 1e-8, "deviates": 1e-8 < deviation < math.inf,
                    "mismatch": deviation == math.inf}[verdict]
            want.append(deviation)
        # each stage raises, on one market, the exception the point raised
        deviation, stage = fixed_point_deviation(ex, thetas)
        assert deviation.tolist() == want
        assert [str(_failure(s)) if s else None for s in stage.tolist()] == raised
        go_on = [g for g, (_, _, verdict) in enumerate(points) if verdict in ("verified", "deviates")]
        sub = derive_exposures(
            models[0].stacked(stacked.deltas[go_on], stacked.cov_matrix_rows[go_on])
        )
        deviation, stage = fixed_point_deviation(sub, thetas[go_on])
        assert deviation.tolist() == [want[g] for g in go_on]
        assert not stage.any()

    @given(
        follower_deltas=st.lists(st.integers(1, 16), min_size=1, max_size=4),
        follower_betas=st.lists(st.integers(-15, 16), min_size=4, max_size=4),
        leader_exponent=st.integers(-2, 2),
        offset=st.sampled_from([-1, 0, 1]),
        passive_delta=st.integers(1, 16),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_rational_instances_snapped_to_the_extreme_boundary(
        self, follower_deltas, follower_betas, leader_exponent, offset, passive_delta, order
    ):
        # Dyadic rationals throughout, so every derived beta and every rest
        # sum is exact in floating point and the leader sits exactly on the
        # extreme boundary delta_0 (beta_0 - 1) = sum_i delta_i (1 + beta_i)
        # (offset 0) or one step of 1/64 to either side of it.
        deltas = [Fraction(d, 4) for d in follower_deltas]
        betas = [Fraction(b, 16) for b in follower_betas[: len(deltas)]]
        delta0 = Fraction(2) ** leader_exponent
        spread = sum(d * (1 + b) for d, b in zip(deltas, betas))
        beta0 = 1 + spread / delta0 + Fraction(offset, 64)
        passive_beta = 1 - beta0 - sum(betas)
        if passive_beta > -1:
            return
        traders = [(delta0, beta0)] + list(zip(deltas, betas)) + [(Fraction(passive_delta, 4), passive_beta)]
        order.shuffle(traders)
        model = model_from_betas(
            np.random.default_rng(0),
            [float(b) for _, b in traders],
            [float(d) for d, _ in traders],
            market_variance=1.0,
        )
        ex = derive_exposures(model)
        assert list(ex.beta) == [float(b) for _, b in traders]
        leader = int(np.argmax(ex.beta))
        candidates = _candidates(ex, solve_extreme(ex, leader)[0])
        sol = _solved(ex)
        if sol is not None:
            candidates += _candidates(ex, sol.thetas)
        for candidate in candidates:
            assert_same_verdict(ex, candidate)

    @given(
        follower_deltas=st.lists(st.integers(1, 16), min_size=1, max_size=4),
        follower_betas=st.lists(st.integers(-15, 16), min_size=4, max_size=4),
        leader_half=st.integers(1, 11),
        offset=st.sampled_from([0, 2**-40, -(2**-40), 2**-52, -(2**-52)]),
        passive_delta=st.integers(1, 16),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=400, deadline=None)
    def test_classified_extreme_instances_verify(
        self, follower_deltas, follower_betas, leader_half, offset, passive_delta, order
    ):
        # As above, but the leader's delta_0 is not a power of two, so the
        # boundary beta_0 = 1 + sum_i delta_i (1 + beta_i) / delta_0 and the
        # threshold computed from the derived betas both round; offsets of an
        # ulp or a few thousand put beta_0 on either side of it.
        deltas = [Fraction(d, 4) for d in follower_deltas]
        betas = [Fraction(b, 16) for b in follower_betas[: len(deltas)]]
        delta0 = Fraction(2 * leader_half + 1, 4)
        spread = sum(d * (1 + b) for d, b in zip(deltas, betas))
        beta0 = 1 + spread / delta0 + Fraction(offset)
        passive_beta = 1 - beta0 - sum(betas)
        assume(passive_beta <= -1)
        traders = [(delta0, beta0)] + list(zip(deltas, betas)) + [(Fraction(passive_delta, 4), passive_beta)]
        order.shuffle(traders)
        model = model_from_betas(
            np.random.default_rng(0),
            [float(b) for _, b in traders],
            [float(d) for d, _ in traders],
            market_variance=1.0,
        )
        ex = derive_exposures(model)
        k = check_extreme_condition(ex)
        if k is not None:
            assert fixed_point_deviation(ex, solve_extreme(ex, k)[0]) == 0.0
        solve(ex)  # every instance is solved and verified


# Adjacent floats of the leader's risk tolerance move k, p and du by about
# 2^-52 times their derivative in delta_0 plus their rounding; nothing near
# the boundary may move them by more than this, relative to their scale.
CONTINUITY_BOUND = 1e-12


@given(
    n=st.integers(2, 5),
    n_securities=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    with_total_var=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_markets_within_8_ulps_of_the_boundary_solve_and_are_continuous(n, n_securities, seed, with_total_var):
    # the leader's risk tolerance at the extreme boundary delta_0 (beta_0 - 1)
    # = sum_i delta_i (1 + beta_i)_+ and the 8 floats on either side of it, as
    # one stacked grid: the betas do not depend on the risk tolerances
    rng = np.random.default_rng(seed)
    followers = rng.uniform(-1.6, 0.95, size=n - 1)
    assume(followers.sum() < -0.05 and (followers > -1.0).any())
    betas = np.r_[1.0 - followers.sum(), followers]
    model = model_from_betas(rng, betas, random_deltas(rng, n), n_securities=n_securities,
                             with_total_var=with_total_var)
    ex = derive_exposures(model)
    plus = np.maximum(ex.delta[1:] * (1.0 + ex.beta[1:]), 0.0)
    boundary = float(plus.sum() / (ex.beta[0] - 1.0))
    grid = [boundary]
    for _ in range(8):
        grid = [np.nextafter(grid[0], 0.0), *grid, np.nextafter(grid[-1], math.inf)]
    deltas = np.repeat(model.deltas[None], len(grid), axis=0)
    deltas[:, 0] = grid
    stacked = derive_exposures(model.stacked(deltas, np.repeat(model.cov_matrix_rows[None], len(grid), axis=0)))
    sol = solve(stacked)
    assert KIND_FAILED not in sol.kind.tolist()
    deviation, stage = fixed_point_deviation(stacked, sol.thetas)
    assert (deviation <= thinmarket.nash.FIXED_POINT_RTOL).all() and not stage.any()
    du = compare(stacked, competitive_equilibrium(stacked), sol).du
    for values in (sol.k_shares, sol.outcome.prices, du):
        scale = max(1.0, float(np.abs(values).max()))
        assert np.abs(np.diff(values, axis=0)).max() <= CONTINUITY_BOUND * scale


class TestVerificationStrength:
    def test_rejects_perturbed_solutions(self, rng):
        checked = 0
        for _ in range(40):
            n = int(rng.integers(3, 7))
            ex = _exposures(rng, constrained_betas(rng, n), random_deltas(rng, n))
            sol = _solved(ex)
            if sol is None or sol.kind == KIND_EXTREME:
                continue
            thetas = sol.thetas
            assert fixed_point_deviation(ex, thetas) < 1e-8
            for j, theta in enumerate(thetas.tolist()):
                changed = np.array(thetas)
                if 0.0 < theta < math.inf:
                    changed[j] = theta * (1.0 + 1e-6)
                    assert fixed_point_deviation(ex, changed) > 1e-8
                    changed[j] = math.inf
                else:
                    changed[j] = 1.0
                assert fixed_point_deviation(ex, changed) == math.inf
                checked += 1
        assert checked > 50


    @pytest.mark.parametrize("bad", [math.nan, -1.0, -math.inf])
    def test_rejects_entries_that_are_no_elasticity(self, rng, bad):
        # a float array can hold values no elasticity takes; they are an input
        # error, never a verdict (a NaN deviation would drop out of the max)
        for betas, kind in (([1.2, 0.2, -0.4], KIND_GENERAL), ([2.5, -0.5, -1.0], KIND_EXTREME)):
            ex = _exposures(rng, betas, [1.0, 1.0, 1.0])
            sol = solve(ex)
            assert sol.kind == kind
            for j in range(sol.thetas.size):
                changed = np.array(sol.thetas)
                changed[j] = bad
                with pytest.raises(ValueError, match="finite elasticity must be a strictly positive real"):
                    fixed_point_deviation(ex, changed)


# phi's product form in Python floats.  The array form must reproduce it bit
# for bit: F's bits, and with them the root of F(s) = 0 and every general
# solution, depend on it.
def _scalar_phi_reference(s, delta, beta):
    if beta == 1.0:
        return min(1.0 / s, 2.0 * delta) if s > 0.0 else 2.0 * delta
    half = delta * s + 0.5
    disc = max(half * half - delta * (1.0 + beta) * s, 0.0)
    return delta * (1.0 + beta) / (half + math.sqrt(disc))


def _left_to_right_sum(values):
    total = 0.0
    for value in values:
        total += value
    return total


class TestArrayScalarEquation:
    SS = [0.0] + [float(s) for s in np.geomspace(1e-6, 1e6, 61)]

    def _systems(self, rng):
        systems = []
        for n in (3, 5, 30, 200):
            for _ in range(3):
                betas = constrained_betas(rng, n, low=-1.3, high=0.95)
                ex = _exposures(rng, betas, random_deltas(rng, n))
                if check_extreme_condition(ex) is None:
                    systems.append((ex, GeneralSystem(ex.delta, ex.beta)))
        # followers with beta exactly one (the kinked branch)
        for n_ones in (2, 24):
            betas = [1.5] + [1.0] * n_ones + [-0.5] * (2 * n_ones + 1)
            deltas = [4.0 * n_ones] + list(random_deltas(rng, len(betas) - 1))
            ex = _exposures(rng, betas, deltas, market_variance=1.0)
            assert np.count_nonzero(ex.beta == 1.0) == n_ones
            systems.append((ex, GeneralSystem(ex.delta, ex.beta)))
        return systems

    @staticmethod
    def _followers(ex, system):
        mask = system.follower_mask
        return list(zip(ex.delta[mask].tolist(), ex.beta[mask].tolist()))

    def test_sigma_equals_sum_of_scalar_phi(self, rng):
        systems = self._systems(rng)
        assert len(systems) >= 10
        for ex, system in systems:
            pairs = self._followers(ex, system)
            for s in self.SS:
                values = system.follower_thetas(s).tolist()
                scalar = [_scalar_phi_reference(s, d, b) for d, b in pairs]
                assert values == scalar
                assert system.sigma(s) == _left_to_right_sum(scalar)

    def test_phi_matches_the_subtractive_form(self, rng):
        # the defining form (h - sqrt(disc)) / s, h = delta s + 1/2, cancels
        # for small s, so it agrees to a few ulps of h / s only; at s = 0 the
        # value is delta (1 + beta), and at beta = 1 it is the kink
        # min(1/s, 2 delta)
        eps = np.finfo(float).eps
        for ex, system in self._systems(rng):
            pairs = self._followers(ex, system)
            for s in self.SS:
                for value, (d, b) in zip(system.follower_thetas(s).tolist(), pairs):
                    if s == 0.0:
                        assert value == d * (1.0 + b)
                    elif b == 1.0:
                        assert value == min(1.0 / s, 2.0 * d)
                    else:
                        half = d * s + 0.5
                        subtractive = (half - math.sqrt(max(half * half - d * (1.0 + b) * s, 0.0))) / s
                        assert abs(value - subtractive) <= 8 * eps * half / s


# Independent reference for the root of F(s) = 0: plain bisection down to
# adjacent floats.
def _bisection_root(system, delta_total):
    lo, hi = 0.0, 1.0 / delta_total
    while system.F(hi) < 0.0:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if system.F(mid) < 0.0:
            lo = mid
        else:
            hi = mid


class TestRootFinder:
    def test_large_solve_evaluates_F_at_most_20_times(self, monkeypatch):
        calls = []
        F = GeneralSystem.F

        def counted(system, x):
            calls.append(x)
            return F(system, x)

        monkeypatch.setattr(thinmarket.nash.GeneralSystem, "F", counted)
        n = 2000
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            betas = constrained_betas(rng, n, low=-1.25, high=0.95)
            ex = _exposures(rng, betas, random_deltas(rng, n), n_securities=5)
            calls.clear()
            assert solve(ex).kind == KIND_GENERAL
            assert len(calls) <= 20, len(calls)

    def test_evaluations_repeat_bit_for_bit_and_solve_calls_F_only_to_find_the_root(self, monkeypatch):
        # F, sigma and follower_thetas on one system, at s values revisited
        # after others, equal those of a system that never saw an s
        rng = np.random.default_rng(5)
        n = 200
        ex = _exposures(rng, constrained_betas(rng, n, low=-1.25, high=0.95),
                        random_deltas(rng, n), n_securities=5)
        assert check_extreme_condition(ex) is None
        s1, s2, s3 = 2.0 / ex.delta_total, 1.0 / (3.0 * ex.delta_total), 0.0
        system = GeneralSystem(ex.delta, ex.beta)

        def fresh():
            return GeneralSystem(ex.delta, ex.beta)

        for s in (s1, s2, s1, s3, s1, s2):
            values = (system.F(s), system.sigma(s))
            thetas = system.follower_thetas(s)
            assert not thetas.flags.writeable
            assert values == (fresh().F(s), fresh().sigma(s))
            assert np.array_equal(thetas, fresh().follower_thetas(s))

        calls = []
        F = GeneralSystem.F

        def counted(system, x):
            calls.append(x)
            return F(system, x)

        monkeypatch.setattr(thinmarket.nash.GeneralSystem, "F", counted)
        system = GeneralSystem(ex.delta, ex.beta)
        thinmarket.nash._root_inverse_total(system, system.F(0.0), ex.delta_total)
        root_calls = len(calls)
        calls.clear()
        assert solve(ex).kind == KIND_GENERAL
        # F(0) and the root finder's evaluations, and no more
        assert len(calls) == root_calls == 7

    def test_evaluations_leave_the_system_as_constructed(self):
        # followers with beta exactly one take the kinked branch
        delta = np.array([8.0, 0.5, 2.0, 1.5, 3.0, 1.0])
        system = GeneralSystem(delta, np.array([1.5, 1.0, 1.0, -0.5, 0.25, -1.5]))
        built = copy.deepcopy(vars(system))
        for s in (0.0, 1.0 / delta.sum(), 0.3, 0.0, 7.5):
            system.F(s), system.sigma(s), system.follower_thetas(s)
        assert vars(system).keys() == built.keys()
        for name, value in vars(system).items():
            if isinstance(value, np.ndarray):
                assert value.dtype == built[name].dtype and np.array_equal(value, built[name]), name
            else:
                assert value == built[name], name

    def test_solve_evaluates_the_followers_once_more_than_F(self, monkeypatch):
        # once per F, and once at the root for the solution's elasticities
        calls = {"F": 0, "follower_thetas": 0}
        for name in calls:
            method = getattr(GeneralSystem, name)

            def counted(system, s, name=name, method=method):
                calls[name] += 1
                return method(system, s)

            monkeypatch.setattr(thinmarket.nash.GeneralSystem, name, counted)
        rng = np.random.default_rng(5)
        for n in (3, 10, 200):
            ex = _exposures(rng, constrained_betas(rng, n, low=-1.25, high=0.95),
                            random_deltas(rng, n), n_securities=2)
            for name in calls:
                calls[name] = 0
            assert solve(ex).kind == KIND_GENERAL
            assert calls["F"] > 2 and calls["follower_thetas"] == calls["F"] + 1, calls

    def test_root_matches_an_independent_bisection(self, rng):
        instances = []
        while len(instances) < 60:
            n = int(rng.integers(3, 7))
            ex = _exposures(rng, constrained_betas(rng, n), random_deltas(rng, n))
            if check_extreme_condition(ex) is None and np.count_nonzero(ex.beta > -1.0) > 2:
                instances.append(ex)
        # followers with beta exactly one, where F has a kink
        for n_ones in (1, 2, 3, 1, 2, 3):
            betas = [1.5] + [1.0] * n_ones + [-0.5] * (2 * n_ones + 1)
            deltas = [4.0 * n_ones] + list(random_deltas(rng, len(betas) - 1))
            ex = _exposures(rng, betas, deltas, market_variance=1.0)
            assert np.count_nonzero(ex.beta == 1.0) == n_ones
            assert check_extreme_condition(ex) is None
            instances.append(ex)
        for ex in instances:
            system = GeneralSystem(ex.delta, ex.beta)
            root = thinmarket.nash._root_inverse_total(system, system.F(0.0), ex.delta_total)
            assert abs(root - _bisection_root(system, ex.delta_total)) <= 1e-11 * root
            assert abs(system.F(root)) < 1e-12


def test_general_grid_at_large_n_equals_each_point_alone():
    # three general points of 500 traders: a leader, followers with beta
    # exactly one (dyadic betas at unit market variance derive exactly, as in
    # the kinked-branch tests), other followers and a passive block; the
    # second point changes the risk tolerances, the third reverses the traders
    rng = np.random.default_rng(500)
    n_ones, n_half, n_passive, n_quarter = 20, 75, 48, 356
    betas = [1.5] + [1.0] * n_ones + [-0.5] * n_half + [-1.5] * n_passive + [0.25] * n_quarter
    n = len(betas)
    deltas = np.concatenate([[4.0 * n_ones], random_deltas(rng, n - 1)])
    model = model_from_betas(rng, betas, deltas, market_variance=1.0)
    stacked = model.stacked(
        np.stack([model.deltas, model.deltas * rng.uniform(0.5, 2.0, n), model.deltas[::-1]]),
        np.stack([model.cov_matrix_rows, model.cov_matrix_rows, model.cov_matrix_rows[::-1]]),
    )
    ex = derive_exposures(stacked)
    assert (ex.beta == 1.0).sum(axis=-1).tolist() == [n_ones] * 3
    assert (ex.beta <= -1.0).sum(axis=-1).tolist() == [n_passive] * 3
    grid = solve(ex)
    assert grid.kind.tolist() == [KIND_GENERAL] * 3
    for g in range(3):
        alone = solve(derive_exposures(point_model(stacked, g)))
        assert alone.kind == KIND_GENERAL
        pairs = {
            "thetas": (grid.thetas, alone.thetas),
            "k_shares": (grid.k_shares, alone.k_shares),
            "prices": (grid.outcome.prices, alone.outcome.prices),
            "residuals": (grid.residuals, alone.residuals),
            "utilities": (grid.outcome.utilities, alone.outcome.utilities),
        }
        for name, (on_grid, one) in pairs.items():
            assert on_grid[g].tobytes() == one.tobytes(), (g, name)


def test_scaling_guard_large_general_solve():
    # an O(N^2) step anywhere in solve() or in the scenario round trip takes
    # tens of minutes at this size
    rng = np.random.default_rng(7)
    n = 100_000
    betas = constrained_betas(rng, n, low=-1.25, high=0.95)
    model = model_from_betas(rng, betas, random_deltas(rng, n), n_securities=5)
    ex = derive_exposures(model)
    start = time.perf_counter()
    sol = solve(ex)
    parsed = scenario_from_dict(scenario_to_dict(model))
    elapsed = time.perf_counter() - start
    assert sol.kind == KIND_GENERAL
    assert np.array_equal(parsed.cov_matrix_rows, model.cov_matrix_rows)
    budget = 10.0
    assert elapsed < budget, (
        f"solve() and scenario round trip at N={n}: runtime {elapsed:.1f}s exceeded {budget}s"
    )
    print(f"scaling guard (solve and scenario round trip at N={n}): PASS ({elapsed:.1f}s)")
