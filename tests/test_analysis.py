from dataclasses import replace

import numpy as np
import pytest

import thinmarket.analysis
from thinmarket import (
    KIND_BILATERAL,
    KIND_EXTREME,
    KIND_UNSUPPORTED,
    ConsistencyError,
    MarketModel,
    TraderProfile,
    compare,
    competitive_equilibrium,
    derive_exposures,
    incompleteness_effect,
    risk_neutral_limit_du,
    solve,
)
from conftest import bilateral_model, constrained_betas, model_from_betas, random_deltas


def _pipeline(model):
    ex = derive_exposures(model)
    comp = competitive_equilibrium(ex)
    nash = solve(ex)
    return ex, comp, nash, compare(ex, comp, nash)


def _incompleteness(model):
    """The market's du and its incompleteness report."""
    ex, _, _, report = _pipeline(model)
    return report.du, incompleteness_effect(ex, report.du)


def _tolerance(exposures):
    """compare's cross-check tolerance, per point of a stack."""
    scale = exposures.aggregate_market_variance / (2.0 * exposures.delta.min(axis=-1))
    return thinmarket.analysis._CROSSCHECK_RTOL * np.maximum(1.0, scale)


class TestCompare:
    def test_zero_du_when_beta_equals_lambda(self, rng):
        deltas = random_deltas(rng, 2)
        lam = deltas / deltas.sum()
        model = model_from_betas(rng, lam, deltas, n_securities=2, noise=0.0)
        _, _, _, report = _pipeline(model)
        assert np.allclose(report.du, 0.0, atol=1e-12)
        assert report.inefficiency == pytest.approx(0.0, abs=1e-12)

    def test_extreme_hand_case(self, rng):
        model = model_from_betas(rng, [2.5, -0.5, -1.0], [1.0, 1.0, 1.0])
        ex, _, nash, report = _pipeline(model)
        assert nash.kind == KIND_EXTREME
        agg = ex.aggregate_market_variance
        lam = ex.lam
        expected_du0 = agg / (2 * ex.delta[0]) * (lam[0] * (2 * 2.5 - lam[0]) - 1.0)
        assert report.du[0] == pytest.approx(expected_du0, rel=1e-12)
        expected_ineff = -agg / (2 * ex.delta_total) * (1 - lam[0]) / lam[0]
        assert report.inefficiency == pytest.approx(expected_ineff, rel=1e-10)

    def test_decomposition_reconciles(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            model = model_from_betas(
                rng, constrained_betas(rng, n), random_deltas(rng, n), n_securities=2
            )
            ex, comp, nash, report = _pipeline(model)
            scale = max(1.0, ex.aggregate_market_variance)
            direct = nash.outcome.utilities - comp.utilities
            recomposed = (nash.outcome.payoff_gain - nash.outcome.premium) - (
                comp.payoff_gain - comp.premium
            )
            assert np.allclose(report.du, direct, atol=1e-12 * scale)
            assert np.allclose(report.du, recomposed, atol=1e-10 * scale)
            # each outcome's decomposition is its utilities, bit for bit
            for outcome in (nash.outcome, comp):
                assert np.array_equal(
                    outcome.utilities, ex.u + outcome.payoff_gain - outcome.premium
                )

    def test_inefficiency_nonpositive_and_social_optimality(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 6))
            model = model_from_betas(
                rng, constrained_betas(rng, n), random_deltas(rng, n), n_securities=2
            )
            ex, comp, nash, report = _pipeline(model)
            assert report.inefficiency <= 1e-10
            assert comp.utilities.sum() >= nash.outcome.utilities.sum() - 1e-10

    def test_bilateral_closed_form(self, rng):
        for _ in range(30):
            model = bilateral_model(rng, n_securities=2)
            ex, _, _, report = _pipeline(model)
            agg = ex.aggregate_market_variance
            lam, beta = ex.lam, ex.beta
            mid = 0.5 * (lam + beta)
            expected = agg / (2 * ex.delta) * (lam**2 - mid**2) + (
                beta - lam
            ) / ex.delta_total * agg * (1 - report.L)
            assert np.allclose(report.du, expected, atol=1e-10 * max(1.0, agg))

    def test_extreme_benefit_thresholds(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 5))
            model = model_from_betas(
                rng, constrained_betas(rng, n, low=-1.8, high=1.0), random_deltas(rng, n)
            )
            ex, comp, nash, report = _pipeline(model)
            if nash.kind != KIND_EXTREME:
                continue
            k = int(np.argmax(nash.k_shares))
            for i in range(n):
                if abs(report.du[i]) < 1e-12:
                    continue
                if i == k:
                    threshold = (1 + ex.lam[i] ** 2) / (2 * ex.lam[i])
                else:
                    # sign of lam_i (2 beta_i - lam_i)
                    threshold = ex.lam[i] / 2
                assert (report.du[i] > 0) == (ex.beta[i] > threshold)

    def test_du_homogeneous_in_market_variance(self, rng):
        betas = constrained_betas(rng, 3)
        deltas = random_deltas(rng, 3)
        seed_state = rng.integers(0, 2**32)
        rng_a = np.random.default_rng(seed_state)
        rng_b = np.random.default_rng(seed_state)
        model_1 = model_from_betas(rng_a, betas, deltas, market_variance=0.8)
        model_2 = model_from_betas(rng_b, betas, deltas, market_variance=2.0)
        _, _, _, rep_1 = _pipeline(model_1)
        _, _, _, rep_2 = _pipeline(model_2)
        assert np.allclose(rep_2.du * 0.8, rep_1.du * 2.0, atol=1e-12)


    def test_one_market_raises_where_a_grid_marks_the_point(self, rng):
        model = model_from_betas(rng, [2.0, 2.0, 0.0, -3.0], [1.0] * 4)
        ex = derive_exposures(model)
        nash = solve(ex)
        assert nash.kind == KIND_UNSUPPORTED
        with pytest.raises(ValueError, match="unsupported-regime"):
            compare(ex, competitive_equilibrium(ex), nash)

        # the README market, with trader 0's Nash utility moved off the
        # bilateral closed form
        readme = MarketModel(np.array([[1.0]]), (
            TraderProfile(1.0, np.array([1.2]), endowment_mean=0.5, endowment_var=2.0),
            TraderProfile(1.0, np.array([-0.2]), endowment_mean=0.0, endowment_var=1.5),
        ), total_endowment_var=3.0)
        ex, comp, nash, _ = _pipeline(readme)
        assert nash.kind == KIND_BILATERAL
        shifted = replace(nash, outcome=replace(
            nash.outcome, utilities=nash.outcome.utilities + np.array([1e-3, 0.0])
        ))
        with pytest.raises(ConsistencyError) as info:
            compare(ex, comp, shifted)
        assert str(info.value) == "bilateral utility-gain closed form disagrees with direct du"

    def test_extreme_cross_checks_name_their_failure(self, rng):
        # four traders, extreme and led by trader 0; a shift of one trader's
        # Nash utility beyond the tolerance fails its du, and a shift of every
        # trader's by 0.4 of it passes each du and fails their sum
        model = model_from_betas(rng, [3.0, -0.5, -0.5, -1.0], [1.0, 1.5, 0.5, 2.0], n_securities=2)
        ex, comp, nash, report = _pipeline(model)
        assert nash.kind == KIND_EXTREME and report.failed is None
        tol = _tolerance(ex)
        messages = {
            "extreme utility-gain closed form disagrees with direct du": np.array([0.0, 0.0, 2.0, 0.0]),
            "extreme inefficiency closed form disagrees with direct sum": np.full(4, 0.4),
        }
        for message, shift in messages.items():
            shifted = replace(nash, outcome=replace(
                nash.outcome, utilities=nash.outcome.utilities + shift * tol
            ))
            with pytest.raises(ConsistencyError) as info:
                compare(ex, comp, shifted)
            assert str(info.value) == message

        # the same market at five scales as one stack: failed marks exactly
        # the two perturbed points
        scales = np.array([1.0, 2.0, 0.5, 4.0, 0.25])
        stacked = model.stacked(
            scales[:, None] * model.deltas, np.repeat(model.cov_matrix_rows[None], scales.size, axis=0)
        )
        ex = derive_exposures(stacked)
        comp, nash = competitive_equilibrium(ex), solve(ex)
        assert nash.kind.tolist() == [KIND_EXTREME] * scales.size
        assert not compare(ex, comp, nash).failed.any()
        shift = np.zeros((scales.size, 4))
        shift[1] = messages["extreme utility-gain closed form disagrees with direct du"]
        shift[3] = messages["extreme inefficiency closed form disagrees with direct sum"]
        shifted = replace(nash, outcome=replace(
            nash.outcome, utilities=nash.outcome.utilities + shift * _tolerance(ex)[:, None]
        ))
        assert compare(ex, comp, shifted).failed.tolist() == [False, True, False, True, False]


class TestRiskNeutralLimit:
    def test_formula_values(self, rng):
        ex = derive_exposures(
            model_from_betas(rng, [0.0, 1.0], [1.0, 1.0], market_variance=1.0)
        )
        assert risk_neutral_limit_du(ex) == pytest.approx(1.0 / 8.0)
        ex_one = derive_exposures(
            model_from_betas(rng, [1.0, 0.0], [1.0, 1.0], market_variance=1.0)
        )
        assert risk_neutral_limit_du(ex_one) == 0.0
        ex_minus = derive_exposures(
            model_from_betas(rng, [-1.0, 2.0], [1.0, 1.0], market_variance=1.0)
        )
        assert risk_neutral_limit_du(ex_minus) == 0.0

    def test_limit_reached_at_large_delta(self, rng):
        beta0 = 0.35
        model = model_from_betas(
            rng, [beta0, 1 - beta0], [1e6, 1.3], n_securities=2, market_variance=1.4
        )
        ex, _, _, report = _pipeline(model)
        limit = risk_neutral_limit_du(ex)
        assert abs(report.du[0] - limit) / limit < 1e-3


class TestIncompleteness:
    def test_securitised_endowments_no_gap(self, rng):
        model = model_from_betas(rng, [1.2, -0.2], [1.0, 1.0], market_variance=0.7)
        model = replace(model, total_endowment_var=0.7)
        _, report = _incompleteness(model)
        assert np.allclose(report.du_gap, 0.0, atol=1e-12)
        assert report.aggregate_gap == pytest.approx(0.0, abs=1e-12)

    def test_doubling_the_scalar_doubles_du(self, rng):
        model = model_from_betas(
            rng, [1.2, -0.2], [1.0, 1.0], n_securities=1, market_variance=0.5
        )
        model = replace(model, total_endowment_var=1.0)
        du, report = _incompleteness(model)
        assert np.allclose(report.du_complete, 2.0 * du, rtol=1e-10)

    def test_gap_sign_matches_du_sign(self, rng):
        for _ in range(25):
            model = bilateral_model(rng, n_securities=2, with_total_var=True)
            du, report = _incompleteness(model)
            for du_i, gap_i in zip(du, report.du_gap):
                if abs(du_i) > 1e-12:
                    assert np.sign(gap_i) == np.sign(du_i)
            # the competitive hedge is never more effective in the incomplete market
            assert np.all(report.competitive_sq_gain_gap >= -1e-10)

    def test_preconditions(self, rng):
        model = bilateral_model(rng)
        with pytest.raises(ValueError):
            _incompleteness(model)  # total_endowment_var missing
        crowded = model_from_betas(rng, [0.4, 0.4, 0.2], [1.0, 1.0, 1.0])
        crowded = replace(crowded, total_endowment_var=5.0)
        with pytest.raises(ValueError):
            _incompleteness(crowded)  # three active traders
