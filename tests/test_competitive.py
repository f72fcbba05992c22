import numpy as np
import pytest

from thinmarket import (
    Elasticity,
    competitive_equilibrium,
    derive_exposures,
    MarketModel,
    TraderProfile,
)
from thinmarket.competitive import aggregate_demand
from conftest import model_from_betas, random_deltas, constrained_betas


def test_hand_example(two_trader_exposures):
    out = competitive_equilibrium(two_trader_exposures)
    assert np.allclose(out.prices, [-0.5])
    assert np.allclose(out.allocations, [[-1.0], [1.0]])
    assert np.allclose(out.post_beta, [0.5, 0.5])
    assert np.allclose(out.premium, [0.5, -0.5])
    # clearing against the true demands Q_i(p) = -a_i - delta_i C^{-1} p
    demand = aggregate_demand(
        two_trader_exposures,
        [Elasticity.finite(1.0), Elasticity.finite(1.0)],
        out.prices,
    )
    assert np.allclose(demand, 0.0, atol=1e-12)


def test_zero_volume_when_beta_matches_lambda(rng):
    # hedge portfolios collinear with a_I: beta_i = lambda_i then means a_i =
    # lambda_i a_I, so nobody participates in the sharing
    deltas = random_deltas(rng, 3)
    lam = deltas / deltas.sum()
    model = model_from_betas(rng, lam, deltas, n_securities=2, noise=0.0)
    ex = derive_exposures(model)
    out = competitive_equilibrium(ex)
    assert np.allclose(out.allocations, 0.0, atol=1e-12)
    assert np.allclose(out.utilities, ex.u, atol=1e-12)


def test_trivial_case_sheds_hedgeable_part():
    model = MarketModel(
        np.array([[1.0]]),
        (TraderProfile(1.0, np.array([2.0])), TraderProfile(3.0, np.array([-2.0]))),
    )
    ex = derive_exposures(model)
    assert ex.is_trivial
    out = competitive_equilibrium(ex)
    assert np.all(out.prices == 0.0)
    assert np.allclose(out.allocations, -ex.a)
    assert not out.beta_defined


def test_invariants_on_random_instances(rng):
    for _ in range(25):
        n = int(rng.integers(2, 6))
        model = model_from_betas(
            rng, constrained_betas(rng, n), random_deltas(rng, n), n_securities=2
        )
        ex = derive_exposures(model)
        out = competitive_equilibrium(ex)
        scale = max(1.0, ex.aggregate_market_variance)
        assert np.allclose(out.allocations.sum(axis=0), 0.0, atol=1e-10 * scale)
        assert abs(out.post_beta.sum() - 1.0) < 1e-10
        assert abs(out.premium.sum()) < 1e-10 * scale
        # clearing of the submitted (true) demands at the equilibrium price
        thetas = [Elasticity.finite(float(d)) for d in ex.delta]
        assert np.allclose(aggregate_demand(ex, thetas, out.prices), 0.0, atol=1e-9 * scale)
        # gain decomposition: utility gain is |C^{1/2} q|^2 / (2 delta), nonnegative
        cov = model.securities_cov
        gains = np.einsum("ij,jk,ik->i", out.allocations, cov, out.allocations) / (
            2.0 * ex.delta
        )
        assert np.allclose(out.utilities - ex.u, gains, atol=1e-10 * scale)
        assert np.all(out.utilities - ex.u >= -1e-12)
        # premium formula (beta_i - lambda_i) <a_I, C a_I> / delta_I
        expected = (ex.beta - ex.lam) * ex.aggregate_market_variance / ex.delta_total
        assert np.allclose(out.premium, expected, atol=1e-10 * scale)


def test_premium_increasing_in_beta(rng):
    deltas = np.array([1.0, 2.0, 1.5])
    market_variance = 1.7
    lows, highs = [], []
    for beta0 in (0.2, 0.9):
        betas = np.array([beta0, 0.5, 0.5 - beta0])
        model = model_from_betas(
            rng, betas, deltas, n_securities=1, market_variance=market_variance
        )
        out = competitive_equilibrium(derive_exposures(model))
        lows.append(beta0)
        highs.append(out.premium[0])
    assert highs[1] > highs[0]


def test_aggregate_demand_identities(two_trader_exposures):
    ex = two_trader_exposures
    thetas = [Elasticity.finite(0.7), Elasticity.finite(2.3)]
    # price that zeroes the submitted demands: -C a_I / sum(theta)
    price = -ex.cov_total / 3.0
    assert np.allclose(aggregate_demand(ex, thetas, price), 0.0, atol=1e-12)
    # at zero prices the intercepts sum to -a_I
    assert np.allclose(aggregate_demand(ex, thetas, np.zeros(1)), -ex.a_total)
    with pytest.raises(ValueError):
        aggregate_demand(ex, [Elasticity.infinite(), Elasticity.finite(1.0)], price)
    with pytest.raises(ValueError):
        aggregate_demand(ex, [Elasticity.finite(1.0)], price)
