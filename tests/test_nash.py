import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thinmarket import (
    BracketError,
    ConsistencyError,
    Elasticity,
    KIND_BILATERAL,
    KIND_EXTREME,
    KIND_GENERAL,
    KIND_TRIVIAL,
    KIND_UNSUPPORTED,
    MarketModel,
    TraderProfile,
    best_response,
    competitive_equilibrium,
    derive_exposures,
    scenario_from_dict,
    scenario_to_dict,
    solve,
)
import thinmarket.nash
from thinmarket.nash import (
    KIND_FAILED,
    SOLVE_ERRORS,
    GeneralSystem,
    check_extreme_condition,
    fixed_point_deviation,
    phi,
    solve_bilateral,
    solve_extreme,
    solve_general,
    solve_grid,
)
from conftest import (
    bilateral_model,
    constrained_betas,
    model_from_betas,
    random_deltas,
    unconstrained_betas,
)


def _exposures(rng, betas, deltas, **kwargs):
    return derive_exposures(model_from_betas(rng, betas, deltas, **kwargs))


class TestExtremeCondition:
    def test_hand_case(self, rng):
        ex = _exposures(rng, [2.5, -0.5, -1.0], [1.0, 1.0, 1.0])
        assert check_extreme_condition(ex) == 0

    def test_none_when_betas_moderate(self, rng):
        ex = _exposures(rng, [0.5, 0.5], [1.0, 1.0])
        assert check_extreme_condition(ex) is None

    def test_at_most_one_trader(self, rng):
        hits = 0
        for _ in range(300):
            n = int(rng.integers(2, 6))
            ex = _exposures(rng, unconstrained_betas(rng, n), random_deltas(rng, n))
            k = check_extreme_condition(ex)  # never raises the two-trader error
            hits += k is not None
        assert hits > 10  # the regime actually occurs in this draw


class TestSolveExtreme:
    def test_hand_case(self, rng):
        ex = _exposures(rng, [2.5, -0.5, -1.0], [1.0, 1.0, 1.0])
        sol = solve(ex)
        assert sol.kind == KIND_EXTREME
        values = [t.as_float for t in sol.elasticities]
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
        assert sol.elasticities[0].is_infinite
        assert sol.elasticities[1].is_zero
        assert fixed_point_deviation(ex, sol.thetas) == 0.0


class TestSolveBilateral:
    def test_hand_case(self, rng):
        ex = _exposures(rng, [1.2, -0.2], [1.0, 1.0])
        sol = solve(ex)
        assert sol.kind == KIND_BILATERAL
        thetas = [t.as_float for t in sol.elasticities]
        assert thetas[0] == pytest.approx(2 * 0.5 / 0.3)
        assert thetas[1] == pytest.approx(2 * 0.5 / 1.7)
        assert np.allclose(sol.outcome.post_beta, [0.85, 0.15])

    def test_coincides_with_competitive_when_beta_is_lambda(self, rng):
        deltas = random_deltas(rng, 2)
        lam = deltas / deltas.sum()
        ex = _exposures(rng, lam, deltas, n_securities=2, noise=0.0)
        sol = solve(ex)
        assert sol.kind == KIND_BILATERAL
        assert np.allclose([t.as_float for t in sol.elasticities], deltas)
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
        thetas = [t.as_float for t in sol.elasticities]
        assert thetas[2] == 0.0
        assert thetas[0] == pytest.approx(1.53333333333333 / 0.43333333333333, rel=1e-10)
        assert sol.elasticities[2].is_zero

    def test_preconditions(self, rng):
        ex = _exposures(rng, [0.3, 0.3, 0.4], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            solve_bilateral(ex)  # three active traders

    def test_hairline_boundary_rejected(self, rng):
        # one ulp inside the extreme boundary: the equilibrium elasticity is an
        # almost-pole and cannot be computed to meaningful precision
        beta0 = np.nextafter(1.5, 0.0)
        ex = _exposures(rng, [beta0, 1.0 - beta0], [1.0, 1.0], market_variance=1.0)
        assert check_extreme_condition(ex) is None
        with pytest.raises(ValueError, match="boundary"):
            solve(ex)


class TestSolveGeneral:
    def test_three_trader_frozen_case(self, rng):
        # independently re-derived by bisection on the scalar equation and
        # confirmed by the coordinatewise best-response fixed point
        ex = _exposures(rng, [1.2, 0.2, -0.4], [1.0, 1.0, 1.0])
        sol = solve(ex)
        assert sol.kind == KIND_GENERAL
        thetas = np.array([t.as_float for t in sol.elasticities])
        assert thetas.sum() == pytest.approx(3.950762316545834, rel=1e-9)
        assert np.allclose(
            thetas, [2.573864109314033, 0.9475798225522591, 0.42931838467954303], rtol=1e-9
        )
        assert np.allclose(
            sol.k_shares, [0.6514854357435432, 0.2398473374578331, 0.10866722679862394],
            rtol=1e-9,
        )
        system = GeneralSystem(ex)
        assert system.F(3.9) > 1.0 > system.F(4.0)

    def test_matches_bilateral_closed_form(self, rng):
        for _ in range(100):
            ex = derive_exposures(bilateral_model(rng, n_securities=1))
            general = solve_general(ex)
            closed = solve_bilateral(ex)
            a = np.array([t.as_float for t in general.elasticities])
            b = np.array([t.as_float for t in closed.elasticities])
            assert np.allclose(a, b, rtol=1e-9)

    def test_no_trade_at_beta_equal_lambda(self, rng):
        deltas = random_deltas(rng, 4)
        lam = deltas / deltas.sum()
        ex = _exposures(rng, lam, deltas, n_securities=2, noise=0.0)
        sol = solve_general(ex)
        assert np.allclose([t.as_float for t in sol.elasticities], deltas, rtol=1e-10)
        assert np.allclose(sol.outcome.allocations, 0.0, atol=1e-10)

    def test_unsupported_four_trader_configuration(self, rng):
        ex = _exposures(rng, [2.0, 2.0, 0.0, -3.0], [1.0, 1.0, 1.0, 1.0])
        sol = solve(ex)
        assert sol.kind == KIND_UNSUPPORTED
        assert sol.outcome is None and sol.elasticities is None
        assert "beta > 1" in sol.detail
        # two betas above one but only two active traders: the bilateral
        # closed form applies, and the dispatch tries it first
        ex = _exposures(rng, [2.0, 2.0, -3.0], [1.0, 1.0, 1.0])
        sol = solve(ex)
        assert sol.kind == KIND_BILATERAL
        assert fixed_point_deviation(ex, sol.thetas) < 1e-8

    def test_root_beyond_the_boundary_guard_is_a_boundary_rejection(self):
        # an ulp above -1.5 puts this instance on the non-extreme side of
        # the boundary, where F(x) = 1 has its root beyond 1e12 delta_I
        ex = _exposures(
            np.random.default_rng(0),
            [3.0625, -1.5 + 2**-52, 0.375, -0.9375],
            [1.75, 1.75, 2.5, 2.75],
            market_variance=1.0,
        )
        assert check_extreme_condition(ex) is None
        with pytest.raises(ValueError, match="boundary"):
            solve(ex)

    @pytest.mark.parametrize(
        "betas, deltas",
        [
            ((0.75, 1.4999999999990905, -1.2499999999990905), (0.5, 1.75, 0.25)),
            ((0.6875, -0.9375, 3.1249999999990905, -1.8749999999990905), (0.25, 1.75, 0.25, 3.75)),
        ],
        ids=["bilateral", "general"],
    )
    def test_unverifiable_boundary_instance_is_rejected(self, betas, deltas):
        # within rounding of the extreme boundary but inside the boundary
        # guard: the solution is computed, and its verification fails
        ex = _exposures(np.random.default_rng(0), betas, deltas, market_variance=1.0)
        with pytest.raises(ValueError, match="cannot be verified to tolerance"):
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
        thetas = np.array([t.as_float for t in sol.elasticities])
        thetas_sw = np.array([t.as_float for t in sol_swapped.elasticities])
        assert np.allclose(thetas, thetas_sw[[1, 0, 2]], rtol=1e-9)


def _one_security_market(deltas, cov_es):
    # with C = [[1]], a_i is cov_es[i] and beta_i is cov_es[i] / sum(cov_es);
    # the endowment variance covers every hedge portfolio's, so a stack of
    # these markets is valid at every point
    traders = tuple(
        TraderProfile(float(d), np.array([float(c)]), endowment_mean=0.0, endowment_var=100.0)
        for d, c in zip(deltas, cov_es)
    )
    return MarketModel(np.array([[1.0]]), traders)


_TOO_LARGE = (
    "instance lies within floating-point noise of the extreme-equilibrium boundary; "
    "the non-extreme elasticities are too large to compute reliably"
)
_UNVERIFIABLE = (
    "instance lies within floating-point noise of the extreme-equilibrium boundary "
    "and cannot be verified to tolerance"
)
_HAIRLINE = float(np.nextafter(1.5, 0.0))

# One instance per failure that solve reaches, as (deltas, cov_es, exception,
# message): the root beyond the boundary guard of the root-finder, a
# bilateral total out of range, a verification that fails next to the
# boundary (bilateral and general), and a lower bracket end where F <= 1 (a
# risk tolerance near the float maximum).
FAILURES = {
    "root_beyond_guard": ((1.75, 1.75, 2.5, 2.75), (3.0625, -1.5 + 2**-52, 0.375, -0.9375),
                          ValueError, _TOO_LARGE),
    "bilateral_total_out_of_range": ((1.0, 1.0), (_HAIRLINE, 1.0 - _HAIRLINE),
                                     ValueError, _TOO_LARGE),
    "unverifiable_bilateral": ((0.5, 1.75, 0.25), (0.75, 1.4999999999990905, -1.2499999999990905),
                               ValueError, _UNVERIFIABLE),
    "unverifiable_general": ((0.25, 1.75, 0.25, 3.75),
                             (0.6875, -0.9375, 3.1249999999990905, -1.8749999999990905),
                             ValueError, _UNVERIFIABLE),
    "lower_bracket_end": ((1e308, 1.0, 0.5), (1.2, -0.2, 0.3),
                          BracketError, "F(1e+296) <= 1 at the lower bracket end; precondition violated"),
}

# Solved points (deltas, cov_es) stacked with the failures of their trader count.
SOLVED = {
    2: [((1.0, 2.0), (1.0, -1.0)), ((1.0, 1.0), (1.8, -0.8)), ((1.0, 1.0), (1.2, -0.2))],
    3: [((1.0, 2.0, 1.0), (1.0, -1.0, 0.0)), ((1.0, 1.0, 1.0), (2.5, -0.5, -1.0)),
        ((1.0, 1.0, 1.0), (1.2, 0.8, -1.0)), ((1.0, 1.0, 1.0), (1.2, 0.2, -0.4))],
    4: [((1.0,) * 4, (1.0, -1.0, 0.5, -0.5)), ((1.0,) * 4, (3.0, -0.5, -0.5, -1.0)),
        ((1.0,) * 4, (1.5, 1.5, -1.0, -1.0)), ((1.0, 2.0, 0.5, 1.5), (0.5, 0.3, 0.1, 0.1)),
        ((1.0,) * 4, (2.0, 2.0, 0.0, -3.0))],
}


class TestFailureParity:
    @pytest.mark.parametrize("name", sorted(FAILURES))
    def test_solve_raises_the_exact_exception(self, name):
        deltas, cov_es, error, message = FAILURES[name]
        with pytest.raises(SOLVE_ERRORS) as info:
            solve(derive_exposures(_one_security_market(deltas, cov_es)))
        assert type(info.value) is error
        assert str(info.value) == message

    def test_grid_fails_where_solve_raises_and_is_bit_equal_elsewhere(self):
        kinds = []
        for n, solved in SOLVED.items():
            points = [(d, c) for d, c, _, _ in FAILURES.values() if len(d) == n] + solved
            model = _one_security_market(*points[0]).stacked(
                np.array([d for d, _ in points]), np.array([c for _, c in points])[..., None]
            )
            grid = solve_grid(derive_exposures(model))
            for g in range(len(points)):
                try:
                    alone = solve(derive_exposures(model.point(g)))
                except SOLVE_ERRORS:
                    assert grid.kind[g] == KIND_FAILED, (n, g)
                    kinds.append(KIND_FAILED)
                    continue
                kinds.append(alone.kind)
                assert grid.kind[g] == alone.kind, (n, g)
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
                        assert np.isnan(stacked[g]).all(), (n, g, name)
                    else:
                        assert stacked[g].tobytes() == np.asarray(one).tobytes(), (n, g, name)
        assert kinds.count(KIND_FAILED) == len(FAILURES)
        assert set(kinds) == {
            KIND_FAILED, KIND_TRIVIAL, KIND_EXTREME, KIND_BILATERAL, KIND_GENERAL, KIND_UNSUPPORTED
        }


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
        assert not sol.outcome.beta_defined

    def test_classifies_once_per_solve(self, rng, monkeypatch):
        # _extreme_hits is the kernel's one classification step
        calls = []
        classify = thinmarket.nash._extreme_hits

        def counted(exposures):
            calls.append(exposures)
            return classify(exposures)

        monkeypatch.setattr(thinmarket.nash, "_extreme_hits", counted)
        trivial = MarketModel(
            np.array([[1.0]]),
            (TraderProfile(1.0, np.array([1.0])), TraderProfile(2.0, np.array([-1.0]))),
        )
        cases = [
            (derive_exposures(trivial), KIND_TRIVIAL, 0),
            (_exposures(rng, [2.5, -0.5, -1.0], [1.0, 1.0, 1.0]), KIND_EXTREME, 1),
            (_exposures(rng, [1.2, -0.2], [1.0, 1.0]), KIND_BILATERAL, 1),
            (_exposures(rng, [2.0, 2.0, 0.0, -3.0], [1.0] * 4), KIND_UNSUPPORTED, 1),
            (_exposures(rng, [1.2, 0.2, -0.4], [1.0, 1.0, 1.0]), KIND_GENERAL, 1),
        ]
        for ex, kind, expected in cases:
            calls.clear()
            assert solve(ex).kind == kind
            assert len(calls) == expected, kind

        # a grid of G points of every kind is classified once per call
        model = model_from_betas(rng, [1.2, 0.2, -0.4], [1.0, 1.0, 1.0], market_variance=1.0)
        cov_rows = np.array([[[b] for b in betas] for betas in (
            [1.2, 0.2, -0.4], [2.5, -0.5, -1.0], [1.2, 0.8, -1.0], [1.0, -1.0, 0.0], [0.5, 0.3, 0.2],
        )])
        grid = derive_exposures(model.stacked(np.ones((5, 3)), cov_rows))
        calls.clear()
        assert thinmarket.nash.solve_grid(grid).kind.tolist() == [
            KIND_GENERAL, KIND_EXTREME, KIND_BILATERAL, KIND_TRIVIAL, KIND_GENERAL
        ]
        assert len(calls) == 1

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
                theta = sol.elasticities[i].as_float
                if abs(ex.beta[i] - ex.lam[i]) > 1e-9:
                    assert (theta > ex.delta[i]) == (ex.beta[i] > ex.lam[i])


class TestScalarEquation:
    def test_phi_properties(self, rng):
        xs = np.geomspace(1e-6, 1e6, 400)
        for _ in range(50):
            delta = float(rng.uniform(0.2, 5.0))
            beta = float(rng.uniform(-0.999, 1.0))
            values = np.array([phi(x, delta, beta) for x in xs])
            slopes = np.diff(values) / np.diff(xs)
            assert values[0] < 1e-5  # phi(0+) -> 0
            assert np.all(np.diff(values) >= -1e-12)  # nondecreasing
            assert np.all(np.diff(slopes) <= 1e-10)  # concave
            assert values[-1] == pytest.approx(delta * (1.0 + beta), rel=1e-4)

    def test_phi_kink_at_beta_one(self, rng):
        for delta in (0.3, 1.0, 4.0):
            for x in (0.1, 2 * delta, 5 * delta, 1e8):
                assert phi(x, delta, 1.0) == min(x, 2 * delta)

    def test_key_equation_monotone_and_bracketed(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 6))
            ex = _exposures(rng, constrained_betas(rng, n), random_deltas(rng, n))
            if check_extreme_condition(ex) is not None:
                continue
            system = GeneralSystem(ex)
            xs = np.geomspace(1e-6 * ex.delta_total, 1e6 * ex.delta_total, 300)
            values = np.array([system.F(x) for x in xs])
            assert np.all(np.diff(values) < 1e-12)
            assert values[0] > 1.0 > values[-1]
            # value of F at 0+: half the active head count plus half their betas
            active = [system.leader] + system.followers
            limit = 0.5 * len(active) + 0.5 * float(np.sum(ex.beta[active]))
            assert limit > 1.0
            assert system.F(1e-9 * ex.delta_total) == pytest.approx(limit, rel=1e-6)


# Reference verification: a trader-by-trader loop over the scalar best
# response on Elasticity values, O(N^2); fixed_point_deviation must give its
# verdicts on the same elasticities as a float array.
def _reference_rest(elasticities, i):
    total = 0.0
    for j, theta in enumerate(elasticities):
        if j == i:
            continue
        if theta.is_infinite:
            return Elasticity.infinite()
        total += theta.as_float
    return Elasticity.from_float(total)


def _reference_deviation(exposures, thetas):
    elasticities = [Elasticity.from_float(t) for t in thetas]
    worst = 0.0
    for i in range(exposures.n_traders):
        br = best_response(exposures, i, _reference_rest(elasticities, i))
        theta_i = elasticities[i]
        if br.theta.kind != theta_i.kind:
            return math.inf
        if theta_i.is_finite:
            dev = abs(br.theta.value - theta_i.value) / max(
                abs(br.theta.value), abs(theta_i.value)
            )
            worst = max(worst, dev)
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
    elasticities = [Elasticity.from_float(t) for t in thetas]
    worst = 0.0
    for i in range(exposures.n_traders):
        rest = _reference_rest(elasticities, i)
        if rest.is_finite:
            gap = float(exposures.delta[i] * (1.0 - exposures.beta[i]))
            worst = max(worst, abs(gap) / max(abs(rest.value + gap), 1e-300))
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
            (0, [1e308, t[1], t[2], t[3]], "bad_value"),  # at trader 1: the rest overflows br
            (0, [t[0], t[1], 1e308, t[3]], "bad_value"),  # at trader 0
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
        want = []
        for g, (_, _, verdict) in enumerate(points):
            one = ex.point(g)
            assert_same_verdict(one, thetas[g])
            if verdict in messages:
                with pytest.raises(ValueError, match=messages[verdict]):
                    fixed_point_deviation(one, thetas[g])
                want.append(math.inf)
                continue
            deviation = fixed_point_deviation(one, thetas[g])
            assert {"verified": deviation < 1e-8, "deviates": 1e-8 < deviation < math.inf,
                    "mismatch": deviation == math.inf}[verdict]
            want.append(deviation)
        assert fixed_point_deviation(ex, thetas).tolist() == want
        go_on = [g for g, (_, _, verdict) in enumerate(points) if verdict in ("verified", "deviates")]
        sub = derive_exposures(
            models[0].stacked(stacked.deltas[go_on], stacked.cov_matrix_rows[go_on])
        )
        assert fixed_point_deviation(sub, thetas[go_on]).tolist() == [want[g] for g in go_on]

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
        candidates = _candidates(ex, solve_extreme(ex, leader).thetas)
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
            assert fixed_point_deviation(ex, solve_extreme(ex, k).thetas) == 0.0
        try:
            solve(ex)
        except ValueError as exc:
            assert "boundary" in str(exc)


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
        # a float array can hold values no Elasticity can; they are an input
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
# for bit: F's bits, and with them the root of F(x) = 1 and every general
# solution, depend on it.
def _scalar_phi_reference(x, delta, beta):
    if x <= 0.0:
        return 0.0
    if beta == 1.0:
        return min(x, 2.0 * delta)
    half = delta + 0.5 * x
    disc = max(half * half - delta * (1.0 + beta) * x, 0.0)
    return delta * (1.0 + beta) * x / (half + math.sqrt(disc))


def _left_to_right_sum(values):
    total = 0.0
    for value in values:
        total += value
    return total


class TestArrayScalarEquation:
    XS = [-1.0, 0.0] + [float(x) for x in np.geomspace(1e-6, 1e6, 61)]

    def _systems(self, rng):
        systems = []
        for n in (3, 5, 30, 200):
            for _ in range(3):
                betas = constrained_betas(rng, n, low=-1.3, high=0.95)
                ex = _exposures(rng, betas, random_deltas(rng, n))
                if check_extreme_condition(ex) is None:
                    systems.append((ex, GeneralSystem(ex)))
        # followers with beta exactly one (the kinked branch)
        for n_ones in (2, 24):
            betas = [1.5] + [1.0] * n_ones + [-0.5] * (2 * n_ones + 1)
            deltas = [4.0 * n_ones] + list(random_deltas(rng, len(betas) - 1))
            ex = _exposures(rng, betas, deltas, market_variance=1.0)
            assert np.count_nonzero(ex.beta == 1.0) == n_ones
            systems.append((ex, GeneralSystem(ex)))
        return systems

    def test_sigma_equals_sum_of_scalar_phi(self, rng):
        systems = self._systems(rng)
        assert len(systems) >= 10
        for ex, system in systems:
            pairs = [(float(ex.delta[i]), float(ex.beta[i])) for i in system.followers]
            for x in self.XS:
                values = system.follower_thetas(x).tolist()
                scalar = [phi(x, d, b) for d, b in pairs]
                assert values == scalar
                assert scalar == [_scalar_phi_reference(x, d, b) for d, b in pairs]
                assert system.sigma(x) == _left_to_right_sum(scalar)

    def test_phi_matches_the_subtractive_form(self, rng):
        # the defining form delta + x/2 - sqrt(disc) cancels for large x, so
        # it agrees to a few ulps of delta + x/2 only; at beta = 1 it is the
        # kink min(x, 2 delta)
        eps = np.finfo(float).eps
        for ex, system in self._systems(rng):
            for i in system.followers:
                d, b = float(ex.delta[i]), float(ex.beta[i])
                for x in self.XS:
                    value = phi(x, d, b)
                    if x <= 0.0:
                        assert value == 0.0
                    elif b == 1.0:
                        assert value == min(x, 2.0 * d)
                    else:
                        half = d + 0.5 * x
                        subtractive = half - math.sqrt(max(half * half - d * (1.0 + b) * x, 0.0))
                        assert abs(value - subtractive) <= 8 * eps * half

    def test_negative_discriminant_still_raises(self):
        with pytest.raises(ValueError, match="discriminant"):
            phi(1.0, 1.0, 3.0)
        # beta above one fails only where the discriminant is negative
        assert phi(0.1, 1.0, 3.0) == _scalar_phi_reference(0.1, 1.0, 3.0)
        assert phi(2.0, 1.0, 1.0) == 2.0  # the kink is exact, not rounded


# Independent reference for the root of F(x) = 1: plain bisection down to
# adjacent floats.
def _bisection_root(system, delta_total):
    lo, hi = 0.0, delta_total
    while system.F(hi) > 1.0:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if system.F(mid) > 1.0:
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

    def test_solve_reuses_evaluations_without_changing_them(self, monkeypatch):
        # F, sigma, follower_thetas and leader_theta on one system, at x values
        # revisited after others, equal those of a system that never saw an x
        rng = np.random.default_rng(5)
        n = 200
        ex = _exposures(rng, constrained_betas(rng, n, low=-1.25, high=0.95),
                        random_deltas(rng, n), n_securities=5)
        assert check_extreme_condition(ex) is None
        x1, x2, x3 = 0.5 * ex.delta_total, 3.0 * ex.delta_total, 1e-12 * ex.delta_total
        system = GeneralSystem(ex)
        for x in (x1, x2, x1, x3, x1, x2):
            values = (system.F(x), system.sigma(x), system.leader_theta(x))
            thetas = system.follower_thetas(x)
            assert not thetas.flags.writeable
            assert values == (
                GeneralSystem(ex).F(x), GeneralSystem(ex).sigma(x), GeneralSystem(ex).leader_theta(x)
            )
            assert np.array_equal(thetas, GeneralSystem(ex).follower_thetas(x))

        calls = []
        F = GeneralSystem.F

        def counted(system, x):
            calls.append(x)
            return F(system, x)

        monkeypatch.setattr(thinmarket.nash.GeneralSystem, "F", counted)
        thinmarket.nash._root_total_elasticity(GeneralSystem(ex), ex.delta_total)
        root_calls = len(calls)
        calls.clear()
        assert solve(ex).kind == KIND_GENERAL
        # the root finder's evaluations and no more, as before the reuse
        assert len(calls) == root_calls == 9

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
            system = GeneralSystem(ex)
            root = thinmarket.nash._root_total_elasticity(system, ex.delta_total)
            assert abs(root - _bisection_root(system, ex.delta_total)) <= 1e-11 * root
            assert abs(system.F(root) - 1.0) < 1e-12


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
