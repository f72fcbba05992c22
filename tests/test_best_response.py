import math

import numpy as np
import pytest

from thinmarket import (
    best_response,
    derive_exposures,
    one_sided_equilibrium,
    response_value,
    MarketModel,
    TraderProfile,
)
from thinmarket.best_response import response_value_at_share, share_from_elasticity
from thinmarket.nash import _FAILURES, _NO_ELASTICITY, fixed_point_deviation
from thinmarket.oracles import grid_best_response_share, iterate_best_responses
from conftest import model_from_betas, random_deltas


def _exposures(rng, betas, deltas, **kwargs):
    return derive_exposures(model_from_betas(rng, betas, deltas, **kwargs))


class TestElasticity:
    """An elasticity is a float in [0, inf]: 0.0 and +inf are the endpoints."""

    def test_zero_and_infinity_take_their_branches(self, rng):
        ex = _exposures(rng, [1.5, -0.5], [2.0, 1.0])
        assert share_from_elasticity(0.0, 1.7) == 0.0
        assert share_from_elasticity(math.inf, 1.7) == 1.0
        for theta, k in ((0.0, 0.0), (math.inf, 1.0)):
            assert response_value(ex, 0, theta, 1.7) == response_value_at_share(ex, 0, k, 1.7)
        # against a zero rest only the risk-neutral branch is defined, and
        # against an infinite one the response is delta_i (1 + beta_i)
        res = best_response(ex, 0, 0.0)
        assert (res.theta, res.k) == (math.inf, 1.0)
        res = best_response(ex, 0, math.inf)
        assert (res.theta, res.k) == (2.0 * 2.5, 0.0)

    def test_values_outside_zero_to_infinity_are_no_elasticity(self, rng):
        # the message the verifier raises on the same entries
        ex = _exposures(rng, [1.2, -0.2], [1.0, 1.0])
        message = _FAILURES[_NO_ELASTICITY][1]
        for bad in (math.nan, -1.0, -math.inf):
            with pytest.raises(ValueError) as info:
                best_response(ex, 0, bad)
            assert str(info.value) == message
            with pytest.raises(ValueError) as info:
                response_value(ex, 0, bad, 1.0)
            assert str(info.value) == message
            with pytest.raises(ValueError) as info:
                fixed_point_deviation(ex, [bad, 1.0])
            assert str(info.value) == message

    def test_results_are_python_floats(self, rng):
        ex = _exposures(rng, [1.2, -0.2], [1.0, 1.0])
        # numpy and int rests, and the two endpoints
        for rest in (np.float64(0.5), 1, 0.0, math.inf):
            assert type(best_response(ex, 0, rest).theta) is float
        trace = iterate_best_responses(ex, np.array([1.0, 1.0]))
        assert {type(theta) for iterate in trace.iterates for theta in iterate} == {float}


class TestResponseValue:
    def test_endpoint_formulas(self, rng):
        ex = _exposures(rng, [0.7, 0.3], [1.0, 2.0], n_securities=3)
        i, rest = 0, 1.7
        agg = ex.aggregate_market_variance
        at_zero = ex.u[i] + ex.own_var[i] / (2 * ex.delta[i]) - ex.market_cov[i] / rest
        assert response_value(ex, i, 0.0, rest) == pytest.approx(at_zero)
        at_inf = ex.u[i] + (ex.own_var[i] - agg) / (2 * ex.delta[i])
        assert response_value(ex, i, math.inf, rest) == pytest.approx(at_inf)

    def test_flat_on_trivial_instance(self):
        model = MarketModel(
            np.array([[1.0]]),
            (TraderProfile(1.0, np.array([2.0])), TraderProfile(1.0, np.array([-2.0]))),
        )
        ex = derive_exposures(model)
        assert ex.is_trivial
        values = [response_value(ex, 0, t, 1.0) for t in (0.0, 0.5, 3.0, math.inf)]
        expected = ex.u[0] + ex.own_var[0] / (2 * ex.delta[0])
        assert np.allclose(values, expected)

    def test_theta_rest_domain(self, two_trader_exposures):
        with pytest.raises(ValueError):
            response_value(two_trader_exposures, 0, 1.0, 0.0)
        with pytest.raises(ValueError):
            response_value(two_trader_exposures, 0, 1.0, -1.0)

    def test_concavity_in_share(self, rng):
        for _ in range(10):
            ex = _exposures(
                rng, [0.4, 0.6], random_deltas(rng, 2), n_securities=2
            )
            rest = float(rng.uniform(0.05, 20.0))
            ks = np.linspace(0.0, 1.0, 401)
            vals = response_value_at_share(ex, 0, ks, rest)
            second = np.diff(vals, 2)
            assert np.all(second <= 1e-12 * max(1.0, np.abs(vals).max()))


class TestBestResponse:
    def test_interior_hand_case(self, rng):
        ex = _exposures(rng, [0.5, 0.5], [1.0, 1.0], market_variance=1.0)
        res = best_response(ex, 0, 1.0)
        assert res.theta == pytest.approx(1.0)
        assert res.k == pytest.approx(0.5)

    def test_zero_branch(self, rng):
        ex = _exposures(rng, [-1.5, 2.5], [1.0, 1.0])
        for rest in (0.3, 1.0, 50.0):
            res = best_response(ex, 0, rest)
            assert res.theta == 0.0 and res.k == 0.0

    def test_infinity_branch(self, rng):
        ex = _exposures(rng, [2.5, -1.5], [1.0, 1.0])
        res = best_response(ex, 0, 1.0)  # 1 + rest/delta = 2 <= 2.5
        assert res.theta == math.inf and res.k == 1.0

    def test_branch_boundaries_are_closed(self, rng):
        ex = _exposures(rng, [-1.0, 2.0], [1.0, 1.0])
        assert best_response(ex, 0, 1.0).theta == 0.0
        ex = _exposures(rng, [2.0, -1.0], [1.0, 1.0])
        assert best_response(ex, 0, 1.0).theta == math.inf  # beta = 1 + rest/delta

    def test_against_infinite_rest(self, rng):
        ex = _exposures(rng, [0.25, 0.75], [2.0, 1.0])
        res = best_response(ex, 0, math.inf)
        assert res.theta == pytest.approx(2.0 * 1.25)
        assert res.k == 0.0
        ex_neg = _exposures(rng, [-1.2, 2.2], [2.0, 1.0])
        assert best_response(ex_neg, 0, math.inf).theta == 0.0

    def test_against_zero_rest(self, rng):
        ex = _exposures(rng, [1.5, -0.5], [1.0, 1.0])
        res = best_response(ex, 0, 0.0)
        assert res.theta == math.inf and res.k == 1.0
        with pytest.raises(ValueError):
            best_response(ex, 1, 0.0)  # beta <= 1 against zero rest

    def test_branch_consistency_random(self, rng):
        for _ in range(200):
            beta0 = float(rng.uniform(-3.0, 4.0))
            deltas = random_deltas(rng, 2)
            ex = _exposures(rng, [beta0, 1.0 - beta0], deltas)
            rest = float(rng.uniform(0.01, 100.0))
            res = best_response(ex, 0, rest)
            interior = -1.0 < beta0 < 1.0 + rest / deltas[0]
            assert (0.0 < res.theta < math.inf) == interior
            if interior:
                # higher elasticity than the risk tolerance iff exposure is reduced
                assert (res.theta > deltas[0]) == (beta0 > res.k)

    def test_value_dominates_probes(self, rng):
        for _ in range(30):
            beta0 = float(rng.uniform(-2.0, 3.0))
            ex = _exposures(rng, [beta0, 1.0 - beta0], random_deltas(rng, 2), n_securities=2)
            rest = float(rng.uniform(0.05, 30.0))
            res = best_response(ex, 0, rest)
            probes = [0.0, math.inf] + np.geomspace(1e-4, 1e4, 99).tolist()
            value = response_value(ex, 0, res.theta, rest)
            tol = 1e-10 * max(1.0, abs(value))
            for probe in probes:
                assert response_value(ex, 0, probe, rest) <= value + tol

    def test_matches_grid_oracle(self, rng):
        for _ in range(25):
            beta0 = float(rng.uniform(-1.5, 2.5))
            ex = _exposures(rng, [beta0, 1.0 - beta0], random_deltas(rng, 2))
            rest = float(rng.uniform(0.01, 100.0))
            res = best_response(ex, 0, rest)
            k_grid = grid_best_response_share(ex, 0, rest)
            assert abs(res.k - k_grid) < 1e-6

    def test_grid_oracle_on_every_branch(self, rng):
        cases = [
            (-1.7, 3.0, 0.0),  # inelastic branch: share 0
            (2.8, 0.2, 1.0),  # risk-neutral branch: 1 + rest/delta <= beta
            (0.6, 2.0, None),  # interior
        ]
        for beta0, rest, expected in cases:
            ex = _exposures(rng, [beta0, 1.0 - beta0], [1.0, 1.0])
            res = best_response(ex, 0, rest)
            k_grid = grid_best_response_share(ex, 0, rest)
            assert abs(res.k - k_grid) < 1e-6
            if expected is not None:
                assert res.k == expected

    def test_trivial_instance_rejected(self):
        model = MarketModel(
            np.array([[1.0]]),
            (TraderProfile(1.0, np.array([1.0])), TraderProfile(1.0, np.array([-1.0]))),
        )
        ex = derive_exposures(model)
        with pytest.raises(ValueError):
            best_response(ex, 0, 1.0)


class TestOneSided:
    def test_no_participation_when_beta_equals_lambda(self, rng):
        deltas = np.array([1.0, 1.0])
        ex = _exposures(rng, [0.5, 0.5], deltas)
        result = one_sided_equilibrium(ex, 0)
        assert result.response.theta == pytest.approx(1.0)
        assert result.response.k == pytest.approx(0.5)
        assert result.cash_benefit == pytest.approx(0.0, abs=1e-14)

    def test_zero_share_below_minus_one(self, rng):
        ex = _exposures(rng, [-1.4, 2.4], [1.0, 1.0])
        assert one_sided_equilibrium(ex, 0).response.k == 0.0

    def test_full_share_above_inverse_lambda(self, rng):
        ex = _exposures(rng, [2.5, -1.5], [1.0, 1.0])  # 1/lambda_0 = 2
        assert one_sided_equilibrium(ex, 0).response.k == 1.0

    def test_rest_of_a_dominant_trader_does_not_cancel(self):
        # delta_I - delta_0 rounds to zero; the others' risk tolerance is 1,
        # against which beta_0 = 1.2 >= 1 + 1e-17 takes the risk-neutral branch
        model = MarketModel(
            np.array([[1.0]]),
            (TraderProfile(1e17, np.array([1.2])), TraderProfile(1.0, np.array([-0.2]))),
        )
        result = one_sided_equilibrium(derive_exposures(model), 0)
        assert result.response.theta == math.inf and result.response.k == 1.0
        assert result.cash_benefit == pytest.approx(0.2 / 1e17)

    def test_hand_share_value(self, rng):
        ex = _exposures(rng, [1.0, 0.0], [1.0, 1.0])
        assert one_sided_equilibrium(ex, 0).response.k == pytest.approx(2.0 / 3.0)

    def test_interior_ordering_and_cash_benefit(self, rng):
        for _ in range(50):
            deltas = random_deltas(rng, 2)
            lam0 = deltas[0] / deltas.sum()
            beta0 = float(rng.uniform(-0.9, 1.0 / lam0 - 0.05))
            ex = _exposures(rng, [beta0, 1.0 - beta0], deltas, n_securities=2)
            result = one_sided_equilibrium(ex, 0)
            k = result.response.k
            if beta0 > lam0 + 1e-9:
                assert lam0 < k < beta0
            elif beta0 < lam0 - 1e-9:
                assert beta0 < k < lam0
            agg = ex.aggregate_market_variance
            expected = (
                agg
                * lam0
                * (beta0 - lam0) ** 2
                / (ex.delta_total * (1.0 + lam0) ** 2 * (1.0 - lam0))
            )
            assert result.cash_benefit == pytest.approx(expected, abs=1e-12 * max(1, agg))
