from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
from thinmarket.model import _exclusive_sums, _trader_major
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

    def test_one_set_of_rows_is_shared_by_a_stack(self, rng):
        # a stack given one point's rows keeps one read-only copy of them;
        # a caller's full-size rows, a broadcast view included, are copied
        n, k, g = 4, 2, 5
        model = model_from_betas(rng, constrained_betas(rng, n), random_deltas(rng, n), n_securities=k)
        rows = np.array(model.cov_matrix_rows)
        deltas = np.repeat(model.deltas[None], g, axis=0)
        deltas[:, 0] = np.geomspace(0.1, 10.0, g)
        shared = model.stacked(deltas, rows)
        assert shared.cov_matrix_rows.shape == (g, n, k) and shared.cov_matrix_rows.strides[0] == 0
        assert not shared.cov_matrix_rows.flags.writeable
        rows[0, 0] = np.nan
        assert np.isfinite(shared.cov_matrix_rows).all()
        view = model.stacked(deltas, np.broadcast_to(model.cov_matrix_rows, (g, n, k)))
        assert view.cov_matrix_rows.strides[0] != 0
        ex, ex_view = derive_exposures(shared), derive_exposures(view)
        for name in EXPOSURE_ARRAYS + ("delta_total", "aggregate_market_variance", "is_trivial"):
            assert np.array_equal(getattr(ex, name), getattr(ex_view, name)), name
        with pytest.raises(ValueError, match="cov_matrix_rows has shape"):
            model.stacked(deltas, rows[:, :1])

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


SPECIAL_FLOATS = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                  1e308, -1e308, 1.0, 1e16, -1e16)
ENTRIES = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())


def _same_bits(got, want):
    """Equal values of one shape and dtype, signed zeros included.  NaNs are
    equal whatever their sign bit: which NaN operand numpy propagates, and
    so the sign of the NaN a sum of opposite infinities ends in, depends on
    the kernel, and nothing reads it (it formats as "nan")."""
    assert got.shape == want.shape and got.dtype == want.dtype
    if want.dtype.kind != "f":
        return np.array_equal(got, want)
    nan = np.isnan(want)
    return bool(np.all(np.isnan(got) == nan)
                & np.all((got == want) & (np.signbit(got) == np.signbit(want)) | nan))


def _accumulated_exclusive_sums(values):
    """The exclusive sums of a C-ordered stack from numpy's own accumulations."""
    rest = np.zeros(values.shape)
    rest[..., 1:] = np.add.accumulate(values[..., :-1], axis=-1)
    rest[..., :-1] += np.add.accumulate(values[..., :0:-1], axis=-1)[..., ::-1]
    return rest


class TestTraderAxisReductions:
    """A stack's reductions over the trader axis, made on its trader-major
    copy below 8 traders, give numpy's own C-ordered results bit for bit:
    a numpy that stops adding short rows left to right fails here."""

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 50), st.integers(1, 12)), elements=ENTRIES))
    def test_trader_axis(self, values):
        major = _trader_major(values)
        assert major.flags.f_contiguous or values.shape[-1] >= 8
        positive = values > 0.0
        with np.errstate(all="ignore"):
            pairs = [
                (major.sum(axis=-1), values.sum(axis=-1)),
                (major.sum(axis=-1, keepdims=True), values.sum(axis=-1, keepdims=True)),
                (major.max(axis=-1), values.max(axis=-1)),
                (major.max(axis=-1, initial=0.0), values.max(axis=-1, initial=0.0)),
                (major.min(axis=-1), values.min(axis=-1)),
                (_trader_major(positive).any(axis=-1), positive.any(axis=-1)),
                (_trader_major(positive).all(axis=-1), positive.all(axis=-1)),
                (_trader_major(positive).sum(axis=-1), positive.sum(axis=-1)),
                (_exclusive_sums(values), _accumulated_exclusive_sums(values)),
                # every row's exclusive sums are those of the row alone
                (_exclusive_sums(values), np.array([_exclusive_sums(row) for row in values])),
            ]
        for i, (got, want) in enumerate(pairs):
            assert _same_bits(got, want), i

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 20), st.integers(1, 12), st.integers(1, 4)),
                  elements=ENTRIES))
    def test_trader_axis_of_rows(self, rows):
        with np.errstate(all="ignore"):
            got, want = _trader_major(rows, -2).sum(axis=-2), rows.sum(axis=-2)
        assert _same_bits(got, want)

    def test_one_market_keeps_its_arrays(self):
        # one market's arrays, and a one-point stack's (1, N) values and
        # (1, N, k) rows, which reduce as the row does
        for values, rows in ((np.arange(3.0), np.ones((3, 2))), (np.arange(3.0)[None], np.ones((1, 3, 2)))):
            assert _trader_major(values) is values
            assert _trader_major(rows, -2) is rows


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
