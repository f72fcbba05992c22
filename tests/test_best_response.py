import math

import numpy as np
import pytest

from thinmarket import (
    Elasticity,
    best_response,
    derive_exposures,
    one_sided_equilibrium,
    response_value,
    MarketModel,
    TraderProfile,
)
from thinmarket.best_response import response_value_at_share
from thinmarket.oracles import grid_best_response_share
from conftest import model_from_betas, random_deltas


def _exposures(rng, betas, deltas, **kwargs):
    return derive_exposures(model_from_betas(rng, betas, deltas, **kwargs))


class TestElasticity:
    def test_tags_are_exclusive(self):
        assert Elasticity.zero().is_zero and not Elasticity.zero().is_finite
        assert Elasticity.infinite().is_infinite
        theta = Elasticity.finite(2.0)
        assert theta.is_finite and theta.as_float == 2.0

    def test_finite_must_be_positive(self):
        with pytest.raises(ValueError):
            Elasticity.finite(0.0)
        with pytest.raises(ValueError):
            Elasticity.finite(-1.0)
        with pytest.raises(ValueError):
            Elasticity.finite(math.inf)

    def test_from_float_round_trip(self):
        assert Elasticity.from_float(0.0).is_zero
        assert Elasticity.from_float(math.inf).is_infinite
        assert Elasticity.from_float(1.5).as_float == 1.5


class TestResponseValue:
    def test_endpoint_formulas(self, rng):
        ex = _exposures(rng, [0.7, 0.3], [1.0, 2.0], n_securities=3)
        i, rest = 0, 1.7
        agg = ex.aggregate_market_variance
        at_zero = ex.u[i] + ex.own_var[i] / (2 * ex.delta[i]) - ex.market_cov[i] / rest
        assert response_value(ex, i, Elasticity.zero(), rest) == pytest.approx(at_zero)
        at_inf = ex.u[i] + (ex.own_var[i] - agg) / (2 * ex.delta[i])
        assert response_value(ex, i, Elasticity.infinite(), rest) == pytest.approx(at_inf)

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
        assert res.theta.is_finite
        assert res.theta.as_float == pytest.approx(1.0)
        assert res.k == pytest.approx(0.5)

    def test_zero_branch(self, rng):
        ex = _exposures(rng, [-1.5, 2.5], [1.0, 1.0])
        for rest in (0.3, 1.0, 50.0):
            res = best_response(ex, 0, rest)
            assert res.theta.is_zero and res.k == 0.0

    def test_infinity_branch(self, rng):
        ex = _exposures(rng, [2.5, -1.5], [1.0, 1.0])
        res = best_response(ex, 0, 1.0)  # 1 + rest/delta = 2 <= 2.5
        assert res.theta.is_infinite and res.k == 1.0

    def test_branch_boundaries_are_closed(self, rng):
        ex = _exposures(rng, [-1.0, 2.0], [1.0, 1.0])
        assert best_response(ex, 0, 1.0).theta.is_zero
        ex = _exposures(rng, [2.0, -1.0], [1.0, 1.0])
        assert best_response(ex, 0, 1.0).theta.is_infinite  # beta = 1 + rest/delta

    def test_against_infinite_rest(self, rng):
        ex = _exposures(rng, [0.25, 0.75], [2.0, 1.0])
        res = best_response(ex, 0, Elasticity.infinite())
        assert res.theta.as_float == pytest.approx(2.0 * 1.25)
        assert res.k == 0.0
        ex_neg = _exposures(rng, [-1.2, 2.2], [2.0, 1.0])
        assert best_response(ex_neg, 0, Elasticity.infinite()).theta.is_zero

    def test_against_zero_rest(self, rng):
        ex = _exposures(rng, [1.5, -0.5], [1.0, 1.0])
        res = best_response(ex, 0, Elasticity.zero())
        assert res.theta.is_infinite and res.k == 1.0
        with pytest.raises(ValueError):
            best_response(ex, 1, Elasticity.zero())  # beta <= 1 against zero rest

    def test_branch_consistency_random(self, rng):
        for _ in range(200):
            beta0 = float(rng.uniform(-3.0, 4.0))
            deltas = random_deltas(rng, 2)
            ex = _exposures(rng, [beta0, 1.0 - beta0], deltas)
            rest = float(rng.uniform(0.01, 100.0))
            res = best_response(ex, 0, rest)
            interior = -1.0 < beta0 < 1.0 + rest / deltas[0]
            assert res.theta.is_finite == interior
            if res.theta.is_finite:
                # higher elasticity than the risk tolerance iff exposure is reduced
                assert (res.theta.as_float > deltas[0]) == (beta0 > res.k)

    def test_value_dominates_probes(self, rng):
        for _ in range(30):
            beta0 = float(rng.uniform(-2.0, 3.0))
            ex = _exposures(rng, [beta0, 1.0 - beta0], random_deltas(rng, 2), n_securities=2)
            rest = float(rng.uniform(0.05, 30.0))
            res = best_response(ex, 0, rest)
            probes = [Elasticity.zero(), Elasticity.infinite()] + [
                Elasticity.finite(t) for t in np.geomspace(1e-4, 1e4, 99)
            ]
            tol = 1e-10 * max(1.0, abs(res.value))
            for probe in probes:
                assert response_value(ex, 0, probe, rest) <= res.value + tol

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
        assert result.response.theta.as_float == pytest.approx(1.0)
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
        assert result.response.theta.is_infinite and result.response.k == 1.0
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
