import math

import numpy as np
import pytest

from thinmarket import (
    KIND_BILATERAL,
    KIND_GENERAL,
    certainty_equivalent,
    derive_exposures,
    solve,
    MarketModel,
    TraderProfile,
)
import thinmarket.oracles
from thinmarket.nash import fixed_point_deviation
from thinmarket.oracles import McConfig, iterate_best_responses, mc_certainty_equivalent
from conftest import bilateral_model, constrained_betas, model_from_betas, random_deltas


class TestMonteCarloCe:
    def test_reproducible_for_fixed_seed(self):
        cfg = McConfig(sample_count=10_000, seed=7)
        a = mc_certainty_equivalent(1.0, 4.0, 2.0, cfg)
        b = mc_certainty_equivalent(1.0, 4.0, 2.0, cfg)
        assert a.value == b.value and a.standard_error == b.standard_error

    def test_matches_closed_form_within_three_sigma(self):
        cfg = McConfig(sample_count=1_000_000, seed=42)
        est = mc_certainty_equivalent(1.0, 4.0, 2.0, cfg)
        assert abs(est.value - 0.0) <= 3.0 * est.standard_error
        assert not est.unreliable

    def test_degenerate_distribution_is_exact(self):
        est = mc_certainty_equivalent(0.0, 0.0, 1.0, McConfig(sample_count=100, seed=1))
        assert est.value == 0.0 and est.standard_error == 0.0
        est2 = mc_certainty_equivalent(2.5, 0.0, 3.0, McConfig(sample_count=100, seed=1))
        assert est2.value == 2.5

    def test_overflow_flagged(self):
        # exp(-X/delta) overflows once -X/delta > ~709
        est = mc_certainty_equivalent(-1e6, 1.0, 1.0, McConfig(sample_count=1_000, seed=3))
        assert est.unreliable
        assert math.isfinite(est.value)

    def test_random_triples_against_closed_form(self, rng):
        cfg_seed = 9000
        for j in range(25):
            mean = float(rng.uniform(-2, 2))
            var = float(rng.uniform(0, 4))
            delta = float(rng.uniform(0.5, 3.0))
            est = mc_certainty_equivalent(
                mean, var, delta, McConfig(sample_count=200_000, seed=cfg_seed + j)
            )
            exact = certainty_equivalent(mean, var, delta)
            if est.standard_error == 0.0:
                assert est.value == pytest.approx(exact, abs=1e-12)
            else:
                assert abs(est.value - exact) <= 3.5 * est.standard_error

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mc_certainty_equivalent(0.0, -1.0, 1.0, McConfig(10, 0))
        with pytest.raises(ValueError):
            mc_certainty_equivalent(0.0, 1.0, 0.0, McConfig(10, 0))
        with pytest.raises(ValueError):
            McConfig(sample_count=0, seed=1)


class TestIterateBestResponses:
    def test_bilateral_convergence_to_closed_form(self, rng):
        ex = derive_exposures(model_from_betas(rng, [1.2, -0.2], [1.0, 1.0]))
        trace = iterate_best_responses(ex, [1.0, 1.0])
        assert trace.converged
        final = [t.as_float for t in trace.iterates[-1]]
        assert final[0] == pytest.approx(2 * 0.5 / 0.3, rel=1e-7)
        assert final[1] == pytest.approx(2 * 0.5 / 1.7, rel=1e-7)

    def test_immediate_fixed_point_at_true_elasticities(self, rng):
        deltas = random_deltas(rng, 3)
        lam = deltas / deltas.sum()
        ex = derive_exposures(model_from_betas(rng, lam, deltas))
        trace = iterate_best_responses(ex, list(deltas))
        assert trace.converged
        assert len(trace.iterates) <= 3
        assert trace.final_residual < 1e-10

    def test_extreme_instance_escalates(self, rng):
        ex = derive_exposures(model_from_betas(rng, [2.5, -0.5, -1.0], [1.0, 1.0, 1.0]))
        trace = iterate_best_responses(ex, [1.0, 1.0, 1.0])
        assert trace.escalated
        assert trace.converged
        final = trace.iterates[-1]
        assert final[0].is_infinite
        assert final[1].as_float == pytest.approx(0.5, abs=1e-9)

    def test_limits_match_solver_on_random_instances(self, rng, monkeypatch):
        # the oracle carries no convergence guarantee (branch limit-cycles can
        # occur), but converged runs must reproduce the solver's equilibrium
        monkeypatch.setattr(thinmarket.oracles, "_MAX_ITERATIONS", 2000)
        checked = 0
        converged = 0
        attempts = 0
        while checked < 500 and attempts < 5000:
            attempts += 1
            n = int(rng.integers(2, 5))
            ex = derive_exposures(
                model_from_betas(rng, constrained_betas(rng, n), random_deltas(rng, n))
            )
            sol = solve(ex)
            if sol.kind not in (KIND_BILATERAL, KIND_GENERAL):
                continue
            checked += 1
            trace = iterate_best_responses(ex, [float(d) for d in ex.delta])
            if not trace.converged:
                continue
            converged += 1
            final = trace.iterates[-1]
            for got, want in zip(final, sol.elasticities):
                assert abs(got.as_float - want.as_float) <= 1e-7 * max(
                    1.0, abs(want.as_float)
                )
            # a converged trace always passes the coordinatewise check
            cleaned = np.array([0.0 if t.as_float < 1e-9 else t.as_float for t in final])
            assert fixed_point_deviation(ex, cleaned) < 1e-6
        assert checked == 500
        assert converged >= 490

    def test_residual_envelope_decreases_after_warmup(self, rng):
        # damped Jacobi can spiral, so the raw residuals wiggle at small
        # scales; the windowed envelope must still come down monotonically
        window = 5
        for _ in range(20):
            ex = derive_exposures(bilateral_model(rng))
            trace = iterate_best_responses(ex, [1.0, 1.0])
            if not trace.converged or len(trace.residuals) < 3 * window:
                continue
            res = np.array(trace.residuals)
            start = int(np.argmax(res))
            tail = res[start:]
            envelope = np.array(
                [tail[i : i + window].max() for i in range(len(tail) - window + 1)]
            )
            assert np.all(np.diff(envelope) <= 1e-12 + 1e-9 * envelope[:-1])
            assert trace.final_residual <= res[0]

    def test_nonconvergence_reported_not_raised(self, rng, monkeypatch):
        monkeypatch.setattr(thinmarket.oracles, "_MAX_ITERATIONS", 1)
        ex = derive_exposures(bilateral_model(rng))
        trace = iterate_best_responses(ex, [1.0, 1.0])
        assert not trace.converged

    def test_preconditions(self, rng):
        ex = derive_exposures(bilateral_model(rng))
        with pytest.raises(ValueError):
            iterate_best_responses(ex, [0.0, 1.0])
        trivial = derive_exposures(
            MarketModel(
                np.array([[1.0]]),
                (TraderProfile(1.0, np.array([1.0])), TraderProfile(1.0, np.array([-1.0]))),
            )
        )
        with pytest.raises(ValueError):
            iterate_best_responses(trivial, [1.0, 1.0])
