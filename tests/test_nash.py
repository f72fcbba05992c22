import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinmarket import (
    ConsistencyError,
    Elasticity,
    GeneralSystem,
    KIND_BILATERAL,
    KIND_EXTREME,
    KIND_GENERAL,
    KIND_TRIVIAL,
    KIND_UNSUPPORTED,
    MarketModel,
    TraderProfile,
    best_response,
    check_extreme_condition,
    competitive_equilibrium,
    derive_exposures,
    fixed_point_deviation,
    phi,
    solve,
    solve_bilateral,
    solve_extreme,
    solve_general,
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
        assert fixed_point_deviation(ex, sol.elasticities) == 0.0


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
        ex_far = _exposures(rng, [1.8, -0.8], [1.0, 1.0])
        with pytest.raises(ValueError):
            solve_bilateral(ex_far)  # extreme condition holds

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

    def test_rejects_extreme_instances(self, rng):
        ex = _exposures(rng, [1.8, -0.8], [1.0, 1.0])
        with pytest.raises(ValueError):
            solve_general(ex)

    def test_argmax_tie_is_order_invariant(self, rng):
        betas = np.array([0.8, 0.8, -0.6])
        deltas = np.array([1.3, 0.7, 2.0])
        model = model_from_betas(rng, betas, deltas, n_securities=2)
        ex = derive_exposures(model)
        sol = solve(ex)
        swapped = MarketModel(
            model.securities_cov,
            (model.traders[1], model.traders[0], model.traders[2]),
        )
        sol_swapped = solve(derive_exposures(swapped))
        thetas = np.array([t.as_float for t in sol.elasticities])
        thetas_sw = np.array([t.as_float for t in sol_swapped.elasticities])
        assert np.allclose(thetas, thetas_sw[[1, 0, 2]], rtol=1e-9)


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

    def test_fixed_point_on_random_instances(self, rng):
        kinds = set()
        for _ in range(200):
            n = int(rng.integers(2, 6))
            ex = _exposures(rng, constrained_betas(rng, n), random_deltas(rng, n))
            sol = solve(ex)
            kinds.add(sol.kind)
            if sol.kind in (KIND_BILATERAL, KIND_GENERAL, KIND_EXTREME):
                assert fixed_point_deviation(ex, sol.elasticities) < 1e-8
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
# response, O(N^2); fixed_point_deviation must give its verdicts.
def _reference_rest(elasticities, i):
    total = 0.0
    for j, theta in enumerate(elasticities):
        if j == i:
            continue
        if theta.is_infinite:
            return Elasticity.infinite()
        total += theta.as_float
    return Elasticity.from_float(total)


def _reference_deviation(exposures, elasticities):
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


def _verdict(fn, exposures, elasticities):
    try:
        return fn(exposures, elasticities)
    except (ValueError, ConsistencyError) as exc:
        return type(exc)


def _rest_conditioning(exposures, elasticities):
    """Largest |d log br / d log rest| = |g| / |rest + g|, g = delta (1 - beta),
    of an interior best response against a finite rest.  Near the extreme
    boundary it is large: there an ulp of the rest sum moves the deviation by
    more than an ulp."""
    worst = 0.0
    for i in range(exposures.n_traders):
        rest = _reference_rest(elasticities, i)
        if rest.is_finite:
            gap = float(exposures.delta[i] * (1.0 - exposures.beta[i]))
            worst = max(worst, abs(gap) / max(abs(rest.value + gap), 1e-300))
    return worst


def assert_same_verdict(exposures, elasticities):
    """Same exception type, the same inf/finite verdict, and deviations within
    1e-14 plus what the rest sums' rounding (at most 2 n ulps between the two
    summation orders) can move them by."""
    want = _verdict(_reference_deviation, exposures, elasticities)
    got = _verdict(fixed_point_deviation, exposures, elasticities)
    if isinstance(want, type):
        assert got is want
    elif math.isinf(want):
        assert got == math.inf
    else:
        assert not isinstance(got, type) and math.isfinite(got)
        n = len(elasticities)
        kappa = _rest_conditioning(exposures, elasticities)
        assert abs(got - want) <= 1e-14 + 2 * n * np.finfo(float).eps * kappa


def _candidates(exposures, elasticities):
    """A solution and perturbations of it that hit every branch and verdict."""
    thetas = list(elasticities)
    out = [thetas, [Elasticity.finite(d) for d in exposures.delta], [Elasticity.zero()] * len(thetas)]
    for j, theta in enumerate(thetas):
        bumped = list(thetas)
        if theta.is_finite:
            bumped[j] = Elasticity.finite(theta.value * (1.0 + 1e-6))
            out.append(bumped)
            bumped = list(thetas)
            bumped[j] = Elasticity.infinite()
        elif theta.is_zero:
            bumped[j] = Elasticity.finite(1.0)
        else:
            bumped[j] = Elasticity.finite(1e6)
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
            for candidate in _candidates(ex, sol.elasticities):
                assert_same_verdict(ex, candidate)
        for _ in range(30):
            ex = derive_exposures(bilateral_model(rng, n_securities=2))
            for candidate in _candidates(ex, solve(ex).elasticities):
                assert_same_verdict(ex, candidate)
        assert {KIND_EXTREME, KIND_BILATERAL, KIND_GENERAL} <= kinds

    def test_passive_and_lone_active_traders(self, rng):
        # zero elasticities from passive traders, and a rest of exactly zero
        for betas in ([1.5, 0.8, -1.3], [2.5, -1.5], [2.5, -0.5, -1.0], [3.0, -1.0, -1.0]):
            ex = _exposures(rng, betas, random_deltas(rng, len(betas)))
            sol = _solved(ex)
            assert sol is not None
            for candidate in _candidates(ex, sol.elasticities):
                assert_same_verdict(ex, candidate)

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
        candidates = _candidates(ex, solve_extreme(ex, leader).elasticities)
        sol = _solved(ex)
        if sol is not None:
            candidates += _candidates(ex, sol.elasticities)
        for candidate in candidates:
            assert_same_verdict(ex, candidate)


class TestVerificationStrength:
    def test_rejects_perturbed_solutions(self, rng):
        checked = 0
        for _ in range(40):
            n = int(rng.integers(3, 7))
            ex = _exposures(rng, constrained_betas(rng, n), random_deltas(rng, n))
            sol = _solved(ex)
            if sol is None or sol.kind == KIND_EXTREME:
                continue
            thetas = list(sol.elasticities)
            assert fixed_point_deviation(ex, thetas) < 1e-8
            for j, theta in enumerate(thetas):
                changed = list(thetas)
                if theta.is_finite:
                    changed[j] = Elasticity.finite(theta.value * (1.0 + 1e-6))
                    assert fixed_point_deviation(ex, changed) > 1e-8
                    changed[j] = Elasticity.infinite()
                else:
                    changed[j] = Elasticity.finite(1.0)
                assert fixed_point_deviation(ex, changed) == math.inf
                checked += 1
        assert checked > 50


# phi's product form in Python floats.  The array form must reproduce it bit
# for bit: F's bits, and with them every bisection iterate and every general
# solution, depend on it.
def _scalar_phi_reference(x, delta, beta):
    if x <= 0.0:
        return 0.0
    if beta == 1.0:
        return min(x, 2.0 * delta)
    half = delta + 0.5 * x
    disc = max(half * half - delta * (1.0 + beta) * x, 0.0)
    return delta * (1.0 + beta) * x / (half + math.sqrt(disc))


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
                assert system.sigma(x) == sum(scalar)

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


def test_scaling_guard_large_general_solve():
    # an O(N^2) step anywhere in solve() takes tens of minutes at this size
    rng = np.random.default_rng(7)
    n = 100_000
    betas = constrained_betas(rng, n, low=-1.25, high=0.95)
    ex = derive_exposures(model_from_betas(rng, betas, random_deltas(rng, n), n_securities=5))
    start = time.perf_counter()
    sol = solve(ex)
    elapsed = time.perf_counter() - start
    assert sol.kind == KIND_GENERAL
    budget = 10.0
    assert elapsed < budget, f"solve() at N={n}: runtime {elapsed:.1f}s exceeded {budget}s"
    print(f"scaling guard (solve at N={n}): PASS ({elapsed:.1f}s)")
