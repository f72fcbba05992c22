import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from thinmarket import (
    compare,
    competitive_equilibrium,
    derive_exposures,
    incompleteness_effect,
    MarketModel,
    TraderProfile,
    solve,
)
from thinmarket.nash import KIND_BILATERAL, KIND_EXTREME, KIND_GENERAL, KIND_TRIVIAL
from conftest import model_from_betas, random_deltas, constrained_betas, spd_matrix


def aggregate_demand(exposures, elasticities, price) -> np.ndarray:
    """Sum of submitted linear demands -a_i - theta_i C^{-1} p at the price:
    the market-clearing reference of these tests.  Raises if any elasticity
    is infinite (an extremely elastic demand has no finite-valued schedule).
    """
    thetas = [float(theta) for theta in elasticities]
    if math.inf in thetas:
        raise ValueError("aggregate demand is undefined for infinite elasticity")
    if len(thetas) != exposures.n_traders:
        raise ValueError("one elasticity per trader is required")
    p = np.asarray(price, dtype=float)
    return -exposures.a_total - sum(thetas) * np.linalg.solve(exposures.model.securities_cov, p)


def test_hand_example(two_trader_exposures):
    out = competitive_equilibrium(two_trader_exposures)
    assert np.allclose(out.prices, [-0.5])
    assert np.allclose(out.allocations, [[-1.0], [1.0]])
    assert np.allclose(out.post_beta, [0.5, 0.5])
    assert np.allclose(out.premium, [0.5, -0.5])
    # clearing against the true demands Q_i(p) = -a_i - delta_i C^{-1} p
    demand = aggregate_demand(
        two_trader_exposures,
        [1.0, 1.0],
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
    # with a zero share, the payoff gain is all of the hedgeable variance
    assert np.array_equal(out.payoff_gain, ex.own_var / (2.0 * ex.delta))


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
        thetas = ex.delta.tolist()
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
    thetas = [0.7, 2.3]
    # price that zeroes the submitted demands: -C a_I / sum(theta)
    price = -ex.cov_total / 3.0
    assert np.allclose(aggregate_demand(ex, thetas, price), 0.0, atol=1e-12)
    # at zero prices the intercepts sum to -a_I
    assert np.allclose(aggregate_demand(ex, thetas, np.zeros(1)), -ex.a_total)
    with pytest.raises(ValueError):
        aggregate_demand(ex, [math.inf, 1.0], price)
    with pytest.raises(ValueError):
        aggregate_demand(ex, [1.0], price)


# Long-double oracle for the post-trade certainty equivalents: it takes the
# allocations q_i as given and expands Var(E_i + <q_i, S>) = Var(E_i) +
# 2 <q_i, Cov(E_i, S)> + <q_i, C q_i> from the model's inputs, with no use of
# the per-trader moments the package computes the utilities from.
EPS = np.finfo(float).eps
LD = np.longdouble


def _quadratic(x, cov):
    return np.einsum("...ij,jk,...ik->...i", x, cov.astype(LD), x)


def _oracle_utilities(model, outcome):
    q = outcome.allocations.astype(LD)
    rows = model.cov_matrix_rows.astype(LD)
    cross = 2 * np.sum(q * rows, axis=-1)
    variance = model.endowment_vars + cross + _quadratic(q, model.securities_cov)
    premium = np.einsum("...ij,...j->...i", q, outcome.prices.astype(LD))
    utilities = model.endowment_means - variance / (2 * model.deltas.astype(LD)) - premium
    return utilities, np.abs(model.endowment_means) + np.abs(premium)


def _oracle_payoff_gains(ex, outcome):
    # <a_i, C a_i> - <z_i, C z_i> over 2 delta_i, z_i = q_i + a_i the retained exposure
    a = ex.a.astype(LD)
    z = outcome.allocations.astype(LD) + a
    cov = ex.model.securities_cov
    return (_quadratic(a, cov) - _quadratic(z, cov)) / (2 * ex.delta.astype(LD))


def _risk_scale(ex, outcome):
    """(Var(E_i) + k_i^2 <a_I, C a_I>) / (2 delta_i): the size of the variance terms."""
    agg = np.asarray(ex.aggregate_market_variance)[..., None]
    k = outcome.post_beta
    return (ex.model.endowment_vars + k * k * agg) / (2.0 * ex.delta)


def _moment_residuals(ex, outcome):
    """(|<a_i, c_i - C a_i>| + k_i^2 |<a_I, c_I - C a_I>|) / (2 delta_i).

    The package takes <a_i, C a_i> as <a_i, c_i> and <a_I, C a_I> as
    <a_I, c_I>, with c_i the data rows Cov(E_i, S) and c_I their sum, while
    the oracle expands quadratic forms in the computed a.  The two differ by
    how far the computed a misses solving C a_i = c_i, which the payoff
    gains inherit at these weights."""
    cov = ex.model.securities_cov.astype(LD)
    a, rows = ex.a.astype(LD), ex.model.cov_matrix_rows.astype(LD)
    a_total, cov_total = ex.a_total.astype(LD), rows.sum(axis=-2)
    own = np.abs(np.sum(a * (rows - a @ cov), axis=-1))
    agg = np.abs(np.sum(a_total * (cov_total - a_total @ cov), axis=-1))[..., None]
    k = outcome.post_beta
    return (own + k * k * agg) / (2 * ex.delta.astype(LD))


def assert_matches_oracle(ex, outcome):
    """Utilities and payoff gains within 8 ulps of the size of their terms;
    the payoff gains also within the residuals of the moments they are
    computed from."""
    risk = _risk_scale(ex, outcome)
    want, size = _oracle_utilities(ex.model, outcome)
    solved = np.isfinite(outcome.utilities)
    err = np.abs(outcome.utilities - want)[solved]
    assert np.all(err <= 8 * EPS * (size + risk)[solved])
    err = np.abs(outcome.payoff_gain - _oracle_payoff_gains(ex, outcome))[solved]
    assert np.all(err <= (8 * EPS * risk + _moment_residuals(ex, outcome))[solved])


def _trivial_model(rng, n, k):
    # rows Cov(E_i, S) summing to zero, so that a_I = 0
    cov = spd_matrix(rng, k)
    rows = rng.normal(size=(n, k))
    rows[-1] = -rows[:-1].sum(axis=0)
    own = np.sum(np.linalg.solve(cov, rows.T).T * rows, axis=1)
    return MarketModel(
        securities_cov=cov,
        deltas=random_deltas(rng, n),
        cov_matrix_rows=rows,
        endowment_means=rng.normal(size=n),
        endowment_vars=own * (1.0 + rng.uniform(size=n)),
    )


def _extreme_model(rng, n, k):
    # trader 0 leads: followers in (-0.9, 0.5), one passive trader absorbing
    # the rest, and delta_0 large enough for the extreme condition
    followers = rng.uniform(-0.9, 0.5, size=n - 2)
    passive = -1.0 - abs(followers.sum()) - rng.uniform(0.2, 1.0)
    leader = 1.0 - followers.sum() - passive
    deltas = random_deltas(rng, n)
    spread = float(np.sum(deltas[1:-1] * (1.0 + followers)))
    deltas[0] = spread / (leader - 1.0) * rng.uniform(1.2, 3.0) + 0.05
    betas = np.concatenate([[leader], followers, [passive]])
    return model_from_betas(rng, betas, deltas, n_securities=k)


def _bilateral_model(rng, n, k):
    # two active traders strictly inside both extreme thresholds, n - 2 passive
    passive = rng.uniform(-1.5, -1.0, size=n - 2)
    total = 1.0 - passive.sum()
    deltas = random_deltas(rng, n)
    d0, d1 = deltas[:2]
    hi = min((d0 + d1 * (1.0 + total)) / (d0 + d1), total + 1.0)
    lo = max(total - (d1 + d0 * (1.0 + total)) / (d0 + d1), -1.0)
    beta0 = lo + (hi - lo) * rng.uniform(0.1, 0.9)
    betas = np.concatenate([[beta0, total - beta0], passive])
    return model_from_betas(rng, betas, deltas, n_securities=k, with_total_var=True)


def _general_model(rng, n, k):
    n = max(n, 3)
    betas = constrained_betas(rng, n, low=-0.9, high=0.9)
    return model_from_betas(rng, betas, random_deltas(rng, n), n_securities=k)


MODELS = {
    KIND_TRIVIAL: _trivial_model,
    KIND_EXTREME: _extreme_model,
    KIND_BILATERAL: _bilateral_model,
    KIND_GENERAL: _general_model,
}


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(sorted(MODELS)),
    n=st.integers(2, 8),
    k=st.integers(1, 5),
)
# trader 1's competitive payoff gain is 8.1 ulps off, 5.4 of them moment residuals
@example(seed=46618, kind=KIND_EXTREME, n=5, k=2)
@settings(max_examples=200, deadline=None)
def test_utilities_match_a_long_double_oracle(seed, kind, n, k):
    rng = np.random.default_rng(seed)
    ex = derive_exposures(MODELS[kind](rng, n, k))
    comp = competitive_equilibrium(ex)
    nash = solve(ex)
    assume(nash.kind == kind)
    assert_matches_oracle(ex, comp)
    assert_matches_oracle(ex, nash.outcome)
    if kind == KIND_BILATERAL and n == 2:
        # <q_i, C q_i> of the competitive allocations
        sq_gain = incompleteness_effect(ex, compare(ex, comp, nash).du).competitive_sq_gain
        q = comp.allocations.astype(LD)
        tol = 8 * EPS * 2.0 * ex.delta * _risk_scale(ex, comp)
        assert np.all(np.abs(sq_gain - _quadratic(q, ex.model.securities_cov)) <= tol)


def test_stacked_utilities_match_a_long_double_oracle():
    # a four-trader market swept over trader 0's risk tolerance, across the
    # general and extreme regimes
    rng = np.random.default_rng(7)
    model = model_from_betas(rng, [1.6, 0.3, 0.2, -1.1], [1.0, 1.5, 0.7, 2.0], n_securities=3)
    grid = np.geomspace(0.01, 100.0, 64)
    deltas = np.repeat(model.deltas[None], grid.size, axis=0)
    deltas[:, 0] = grid
    rows = np.broadcast_to(model.cov_matrix_rows, (grid.size,) + model.cov_matrix_rows.shape)
    ex = derive_exposures(model.stacked(deltas, np.ascontiguousarray(rows)))
    comp = competitive_equilibrium(ex)
    nash = solve(ex)
    assert {KIND_GENERAL, KIND_EXTREME} <= set(nash.kind.tolist())
    assert_matches_oracle(ex, comp)
    assert_matches_oracle(ex, nash.outcome)
