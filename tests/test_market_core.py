from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinmarket import (
    KIND_BILATERAL,
    KIND_EXTREME,
    KIND_GENERAL,
    KIND_TRIVIAL,
    InvalidModelError,
    MarketModel,
    TraderProfile,
    certainty_equivalent,
    compare,
    competitive_equilibrium,
    derive_exposures,
    scenario_from_dict,
    scenario_to_dict,
    solve,
    validate_model,
)
from conftest import (
    constrained_betas,
    model_from_betas,
    point_model,
    random_deltas,
    spd_matrix,
    unconstrained_betas,
)


def _simple_model(deltas=(1.0, 1.0), covs=((1.5,), (-0.5,)), cov=((1.0,),), total=None):
    return MarketModel(
        securities_cov=np.array(cov),
        traders=tuple(
            TraderProfile(d, np.array(c)) for d, c in zip(deltas, covs)
        ),
        total_endowment_var=total,
    )


class TestValidation:
    def test_well_posed_instance(self):
        model = MarketModel(
            securities_cov=np.eye(2),
            traders=(TraderProfile(1.0, np.zeros(2)), TraderProfile(1.0, np.zeros(2))),
        )
        assert validate_model(model).ok

    def test_negative_eigenvalue_reported(self):
        cov = np.array([[1.0, 0.0], [0.0, -0.1]])
        model = MarketModel(cov, (TraderProfile(1.0, np.zeros(2)), TraderProfile(1.0, np.zeros(2))))
        verdict = validate_model(model)
        assert not verdict.ok
        assert any("positive definite" in v for v in verdict.violations)

    def test_zero_delta_reported(self):
        model = _simple_model(deltas=(0.0, 1.0))
        verdict = validate_model(model)
        assert any("strictly positive" in v for v in verdict.violations)

    def test_asymmetric_matrix_reported(self):
        model = _simple_model(cov=((1.0, 0.5), (0.0, 1.0)), covs=((1.0, 0.0), (0.0, 1.0)))
        assert any("symmetric" in v for v in validate_model(model).violations)

    def test_single_trader_reported(self):
        model = MarketModel(np.eye(1), (TraderProfile(1.0, np.array([1.0])),))
        assert any("two traders" in v for v in validate_model(model).violations)

    def test_negative_endowment_var_reported(self):
        model = MarketModel(
            np.eye(1),
            (TraderProfile(1.0, np.array([1.0]), endowment_var=-1.0), TraderProfile(1.0, np.array([0.0]))),
        )
        assert any("endowment_var" in v for v in validate_model(model).violations)

    def test_total_var_consistency(self):
        # spanned variance is 1.0 here, so 0.5 is impossible
        model = _simple_model(total=0.5)
        assert any("total_endowment_var" in v for v in validate_model(model).violations)
        assert validate_model(_simple_model(total=1.5)).ok

    def test_ragged_cov_rejected_at_construction(self):
        with pytest.raises(ValueError):
            MarketModel(np.eye(2), (TraderProfile(1.0, np.array([1.0])),) * 2)

    def test_derive_raises_on_invalid(self):
        with pytest.raises(InvalidModelError):
            derive_exposures(_simple_model(deltas=(0.0, 1.0)))


class TestDeriveExposures:
    def test_hand_example(self, two_trader_exposures):
        ex = two_trader_exposures
        assert np.allclose(ex.a.ravel(), [1.5, -0.5])
        assert np.allclose(ex.a_total, [1.0])
        assert np.allclose(ex.beta, [1.5, -0.5])
        assert np.allclose(ex.lam, [0.5, 0.5])
        assert ex.delta_total == 2.0
        assert not ex.is_trivial
        # linear-solve check: C a_i reproduces the input covariances
        for i, row in enumerate(ex.model.cov_matrix_rows):
            assert np.allclose(ex.model.securities_cov @ ex.a[i], row)

    def test_trivial_flagged_when_all_covariances_vanish(self):
        model = MarketModel(
            np.eye(2),
            (TraderProfile(1.0, np.zeros(2)), TraderProfile(2.0, np.zeros(2))),
        )
        ex = derive_exposures(model)
        assert ex.is_trivial
        assert ex.beta is None
        assert ex.aggregate_market_variance == 0.0

    def test_offsetting_endowments_are_trivial(self):
        model = _simple_model(covs=((1.5,), (-1.5,)))
        ex = derive_exposures(model)
        assert ex.is_trivial

    def test_lambdas_sum_to_one(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            model = model_from_betas(
                rng, unconstrained_betas(rng, n), random_deltas(rng, n), n_securities=2
            )
            ex = derive_exposures(model)
            assert abs(ex.lam.sum() - 1.0) < 1e-14

    def test_betas_sum_to_one(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, 4))
            cov = spd_matrix(rng, k)
            traders = tuple(
                TraderProfile(float(rng.uniform(0.2, 5.0)), rng.normal(size=k))
                for _ in range(n)
            )
            ex = derive_exposures(MarketModel(cov, traders))
            if not ex.is_trivial:
                assert abs(ex.beta.sum() - 1.0) < 1e-10

    def test_covariance_scaling_property(self, rng):
        n, k, c = 3, 2, 2.75
        cov = spd_matrix(rng, k)
        rows = rng.normal(size=(n, k))
        base = derive_exposures(
            MarketModel(cov, tuple(TraderProfile(1.0 + i, rows[i]) for i in range(n)))
        )
        scaled = derive_exposures(
            MarketModel(cov, tuple(TraderProfile(1.0 + i, c * rows[i]) for i in range(n)))
        )
        assert np.allclose(scaled.a, c * base.a)
        assert np.allclose(scaled.a_total, c * base.a_total)
        assert np.allclose(scaled.beta, base.beta)
        assert np.allclose(scaled.lam, base.lam)

    def test_ill_conditioned_covariance(self, rng):
        # condition number ~1e7 stays inside the positive-definiteness guard
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        cov = q @ np.diag([1.0, 1e-3, 1e-7]) @ q.T
        traders = tuple(TraderProfile(1.0 + i, rng.normal(size=3) * 0.1) for i in range(3))
        model = MarketModel(cov, traders)
        assert validate_model(model).ok
        ex = derive_exposures(model)
        assert abs(ex.beta.sum() - 1.0) < 1e-10
        for i in range(3):
            residual = cov @ ex.a[i] - traders[i].cov_endowment_securities
            assert np.max(np.abs(residual)) < 1e-8

    @pytest.mark.parametrize("condition", [1e2, 1e6, 1e9])
    def test_hedge_portfolios_are_backward_stable(self, condition, rng):
        # max_i |C a_i - r_i| / (|C|_2 |a_i|) stays at a few ulps however
        # ill-conditioned C is; products with inv(C), or with the inverse
        # Cholesky factor without a refinement step, miss this bound
        k, n = 5, 400
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(k, k)))
            cov = q @ np.diag(np.geomspace(1.0, 1.0 / condition, k)) @ q.T
            cov = 0.5 * (cov + cov.T)
            assert np.isclose(np.linalg.cond(cov), condition, rtol=1e-3)
            rows = rng.normal(size=(n, k)) @ cov
            model = MarketModel(cov, deltas=rng.uniform(0.5, 3.0, n), cov_matrix_rows=rows)
            assert validate_model(model).ok
            a = derive_exposures(model).a
            residual = np.linalg.norm(a @ cov - rows, axis=1)
            scale = np.linalg.norm(cov, 2) * np.linalg.norm(a, axis=1)
            assert np.max(residual / scale) <= 1e-15

    def test_permutation_equivariance(self, rng):
        n, k = 4, 3
        cov = spd_matrix(rng, k)
        traders = [
            TraderProfile(float(rng.uniform(0.5, 3.0)), rng.normal(size=k)) for _ in range(n)
        ]
        perm = rng.permutation(n)
        ex = derive_exposures(MarketModel(cov, tuple(traders)))
        ex_p = derive_exposures(MarketModel(cov, tuple(traders[i] for i in perm)))
        assert np.allclose(ex_p.a, ex.a[perm])
        assert np.allclose(ex_p.beta, ex.beta[perm])
        assert np.allclose(ex_p.lam, ex.lam[perm])
        assert np.allclose(ex_p.u, ex.u[perm])
        assert np.isclose(ex_p.aggregate_market_variance, ex.aggregate_market_variance)


COLUMNS = ("deltas", "cov_matrix_rows", "endowment_means", "endowment_vars")
EXPOSURE_ARRAYS = ("a", "a_total", "beta", "lam", "delta", "u", "cov_total", "market_cov", "own_var")
EXPOSURE_SCALARS = ("delta_total", "aggregate_market_variance", "is_trivial")


class TestColumns:
    @pytest.mark.parametrize("source", ["readme", "k5"])
    def test_profiles_round_trip_and_grid_point_agree(self, source, rng):
        if source == "readme":
            profiles = (
                TraderProfile(1.0, [1.2], endowment_mean=0.5, endowment_var=2.0),
                TraderProfile(1.0, [-0.2], endowment_mean=0.0, endowment_var=1.5),
            )
            model = MarketModel(np.array([[1.0]]), profiles, total_endowment_var=3.0)
        else:
            n = 7
            model = model_from_betas(
                rng, constrained_betas(rng, n), random_deltas(rng, n), n_securities=5,
                with_total_var=True,
            )
        others = (
            scenario_from_dict(scenario_to_dict(model)),
            point_model(model.stacked(model.deltas[None], model.cov_matrix_rows[None]), 0),
        )
        ex = derive_exposures(model)
        for other in others:
            assert np.array_equal(other.securities_cov, model.securities_cov)
            assert other.total_endowment_var == model.total_endowment_var
            for name in COLUMNS:
                assert np.array_equal(getattr(other, name), getattr(model, name)), name
            ex_other = derive_exposures(other)
            for name in EXPOSURE_ARRAYS:
                assert np.array_equal(getattr(ex_other, name), getattr(ex, name)), name
            for name in EXPOSURE_SCALARS:
                assert getattr(ex_other, name) == getattr(ex, name), name

    def test_profiles_and_columns_together_rejected(self):
        profiles = (TraderProfile(1.0, [1.0]), TraderProfile(1.0, [0.0]))
        with pytest.raises(ValueError, match="not both"):
            MarketModel(np.eye(1), profiles, deltas=[1.0, 1.0])

    def test_columns_are_read_only(self):
        model = _simple_model()
        for name in ("securities_cov",) + COLUMNS:
            assert not getattr(model, name).flags.writeable, name

    def test_inputs_are_copied_and_outputs_frozen(self, rng):
        # the model copies the caller's arrays and leaves them writeable;
        # every array the pipeline hands back is read-only
        n, k = 6, 3
        base = model_from_betas(rng, constrained_betas(rng, n), random_deltas(rng, n), n_securities=k)
        cov, deltas, rows = (np.array(x) for x in (base.securities_cov, base.deltas, base.cov_matrix_rows))
        model = MarketModel(securities_cov=cov, deltas=deltas, cov_matrix_rows=rows)
        for array in (cov, deltas, rows):
            assert array.flags.writeable
        kept = [np.array(getattr(model, name)) for name in ("securities_cov",) + COLUMNS]
        cov[0, 0], deltas[0], rows[0, 0] = 99.0, -1.0, np.nan
        for name, value in zip(("securities_cov",) + COLUMNS, kept):
            assert np.array_equal(getattr(model, name), value), name

        # general, bilateral, extreme (a tie) and trivial markets, and a grid
        two = MarketModel(np.eye(1), deltas=[1.0, 1.0], cov_matrix_rows=[[1.2], [-0.2]])
        models = [model, two, replace(two, deltas=[4.0, 1.0]), replace(two, cov_matrix_rows=[[1.0], [-1.0]])]
        values, kinds = [], []
        for m in models:
            exposures = derive_exposures(m)
            competitive = competitive_equilibrium(exposures)
            solution = solve(exposures)
            kinds.append(solution.kind)
            report = compare(exposures, competitive, solution)
            values += [exposures, competitive, solution, solution.outcome, report]
        grid = derive_exposures(model.stacked(model.deltas[None], model.cov_matrix_rows[None]))
        grid_solution = solve(grid)
        values += [grid, competitive_equilibrium(grid), grid_solution, grid_solution.outcome]
        assert kinds == [KIND_GENERAL, KIND_BILATERAL, KIND_EXTREME, KIND_TRIVIAL]
        for value in values:
            for name, array in vars(value).items():
                if isinstance(array, np.ndarray):
                    assert not array.flags.writeable, (type(value).__name__, name)

    def test_array_holding_values_compare_by_identity(self):
        # field-wise == would ask numpy for the truth value of an array
        def build():
            profiles = (TraderProfile(1.0, [1.2, 0.1]), TraderProfile(2.0, [-0.2, 0.3]))
            return MarketModel(np.eye(2), profiles)

        model, twin = build(), build()
        ex, ex_twin = derive_exposures(model), derive_exposures(twin)
        pairs = [
            (model, twin),
            (TraderProfile(1.0, [1.2, 0.1]), TraderProfile(1.0, [1.2, 0.1])),
            (ex, ex_twin),
            (solve(ex), solve(ex_twin)),
        ]
        for value, other in pairs:
            assert value == value and value != other
            assert value not in [other] and len({value, other}) == 2


class TestCertaintyEquivalent:
    def test_direct_values(self):
        assert certainty_equivalent(1.0, 4.0, 2.0) == 0.0
        assert certainty_equivalent(0.0, 0.0, 1.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            certainty_equivalent(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            certainty_equivalent(0.0, 1.0, -2.0)
        with pytest.raises(ValueError):
            certainty_equivalent(0.0, -1.0, 1.0)

    @given(
        mean=st.floats(-50, 50),
        shift=st.floats(-10, 10),
        variance=st.floats(0, 100),
        delta=st.floats(0.01, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_linear_in_mean(self, mean, shift, variance, delta):
        lhs = certainty_equivalent(mean + shift, variance, delta)
        rhs = certainty_equivalent(mean, variance, delta) + shift
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @given(
        variance=st.floats(0, 100),
        bump=st.floats(0.1, 50),
        delta=st.floats(0.01, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_decreasing_in_variance(self, variance, bump, delta):
        assert certainty_equivalent(0.0, variance + bump, delta) < certainty_equivalent(
            0.0, variance, delta
        )
