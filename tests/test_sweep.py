"""The batched sweep against a per-point reference.

The reference below evaluates a sweep point by point: one model per grid
point, derived, solved and compared on its own, each failure caught where the
one-market path raises it.  Every CSV row of the batched sweep must equal the
reference row byte for byte.
"""

import csv
import io
import json
import math
import os
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thinmarket.nash
from thinmarket import (
    InvalidModelError,
    competitive_equilibrium,
    compare,
    derive_exposures,
    scenario_from_dict,
    scenario_to_dict,
    solve,
    validate_model,
)
from thinmarket.cli import _grid_model, main
from thinmarket.nash import (
    KIND_UNSUPPORTED,
    SOLVE_ERRORS,
    check_extreme_condition,
    solve_bilateral,
    solve_extreme,
)
from conftest import (
    constrained_betas,
    model_from_betas,
    point_model,
    random_deltas,
    unconstrained_betas,
)

# One ulp inside the extreme boundary: the leader's elasticity is about 1/eps.
HAIRLINE = float(np.nextafter(1.5, 0.0))


def _fmt(x):
    return format(float(x), ".17g")


def _set_trader_param(model, index, field, component, value):
    # one model per point from copied columns, never through stacked/point
    deltas, cov_rows = model.deltas.copy(), model.cov_matrix_rows.copy()
    if field == "delta":
        deltas[index] = value
    else:
        cov_rows[index, component] = value
    return replace(model, deltas=deltas, cov_matrix_rows=cov_rows)


def reference_csv(doc, index, field, component, grid):
    """The sweep CSV of the per-point pipeline."""
    model = scenario_from_dict(doc)
    n, k = model.n_traders, model.n_securities
    header = (
        ["value", "kind"]
        + [f"theta_{i}" for i in range(n)]
        + [f"k_{i}" for i in range(n)]
        + [f"p_{j}" for j in range(k)]
        + [f"du_{i}" for i in range(n)]
        + ["inefficiency"]
    )
    blank = [""] * (len(header) - 2)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for value in grid:
        point = _set_trader_param(model, index, field, component, value)
        try:
            exposures = derive_exposures(point)
        except InvalidModelError:
            writer.writerow([_fmt(value), "validation_failed"] + blank)
            continue
        try:
            nash = solve(exposures)
            if nash.kind == KIND_UNSUPPORTED:
                writer.writerow([_fmt(value), nash.kind] + blank)
                continue
            comparison = compare(exposures, competitive_equilibrium(exposures), nash)
        except SOLVE_ERRORS:
            writer.writerow([_fmt(value), "solve_failed"] + blank)
            continue
        writer.writerow(
            [_fmt(value), nash.kind]
            + ["inf" if math.isinf(t) else _fmt(t) for t in nash.thetas.tolist()]
            + [_fmt(s) for s in nash.k_shares]
            + [_fmt(p) for p in nash.outcome.prices]
            + [_fmt(d) for d in comparison.du]
            + [_fmt(comparison.inefficiency)]
        )
    return out.getvalue()


def batched_csv(doc, param, grid):
    with tempfile.TemporaryDirectory() as tmp:
        scen = os.path.join(tmp, "s.json")
        out = os.path.join(tmp, "sweep.csv")
        with open(scen, "w") as fh:
            json.dump(doc, fh)
        grid_arg = "--grid=" + ",".join(repr(float(v)) for v in grid)
        assert main(["sweep", "--scenario", scen, "--param", param, grid_arg, "--out", out]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            return fh.read()


def assert_rows_match(doc, index, field, component, grid):
    param = f"{index}:delta" if field == "delta" else f"{index}:cov_es[{component}]"
    got = batched_csv(doc, param, grid).splitlines()
    want = reference_csv(doc, index, field, component, grid).splitlines()
    assert len(got) == len(want) == len(grid) + 1
    for g, (row, ref) in enumerate(zip(got, want)):
        assert row == ref, f"row {g}"
    return [line.split(",")[1] for line in got[1:]]


def bilateral_doc(beta0, deltas=(1.0, 1.0), total=None):
    doc = {
        "schema_version": "1",
        "securities_cov": [[1.0]],
        "traders": [
            {"delta": deltas[0], "cov_es": [beta0], "endowment_mean": 0.5, "endowment_var": 2.0},
            {"delta": deltas[1], "cov_es": [1.0 - beta0], "endowment_mean": 0.0, "endowment_var": 1.5},
        ],
    }
    if total is not None:
        doc["total_endowment_var"] = total
    return doc


def beta_doc(betas, deltas):
    """One security and market variance 1: each trader's cov_es is its beta."""
    return {
        "schema_version": "1",
        "securities_cov": [[1.0]],
        "traders": [{"delta": d, "cov_es": [b]} for b, d in zip(betas, deltas)],
    }


# nine traders (beyond the 8-trader layout rule of the trader-axis
# reductions): trader 0 turns extreme once delta_0 exceeds about 15.4
NINE_TRADERS = beta_doc((1.5, 0.4, 0.3, -0.2, 0.1, -0.3, 0.2, -1.2, 0.2), (1.0,) * 9)
FOUR_TRADERS = {
    "schema_version": "1",
    "securities_cov": [[1.0]],
    "traders": [
        {"delta": 1.0, "cov_es": [2.0]},
        {"delta": 1.0, "cov_es": [2.0]},
        {"delta": 1.0, "cov_es": [0.0]},
        {"delta": 1.0, "cov_es": [-3.0]},
    ],
}
INVALID = [0.0, -1.0, math.nan, math.inf, -math.inf]
NOT_PD = {
    "schema_version": "1",
    "securities_cov": [[1.0, 2.0], [2.0, 1.0]],
    "traders": [{"delta": 1.0, "cov_es": [1.0, 0.0]}, {"delta": 1.0, "cov_es": [0.0, 1.0]}],
}


@pytest.mark.parametrize(
    "doc, index, field, component, grid, kinds",
    [
        # the README market through its exact extreme tie at delta_0 = 4
        (bilateral_doc(1.2, (4.0, 1.0), total=3.0), 0, "delta", None,
         [3.5, 4.0, 4.5, 0.0, math.nan],
         ["bilateral_closed_form", "extreme", "extreme", "validation_failed", "validation_failed"]),
        # the hairline market: its middle point is one ulp inside the boundary
        (bilateral_doc(HAIRLINE), 0, "delta", None, [0.5, 1.0, 2.0],
         ["bilateral_closed_form", "bilateral_closed_form", "extreme"]),
        # unsupported, general and trivial (a_I = 0 at cov_es = -4) points
        (FOUR_TRADERS, 3, "cov_es", 0, [-3.0, 1.0, -4.0, 0.5, math.inf],
         ["unsupported_regime", "general_non_extreme", "trivial", None, "validation_failed"]),
        # total_endowment_var below the spanned variance at the large points
        (bilateral_doc(1.2, total=3.0), 1, "cov_es", 0, [-0.2, 0.5, 3.0, 30.0],
         [None, None, "validation_failed", "validation_failed"]),
        # within rounding of the extreme boundary, bilateral and general: the
        # first point verifies to the precision its conditioning allows
        (beta_doc((0.75, 1.4999999999990905, -1.2499999999990905), (0.5, 1.75, 0.25)),
         0, "delta", None, [0.5, 1.0], ["bilateral_closed_form", "bilateral_closed_form"]),
        (beta_doc((0.6875, -0.9375, 3.1249999999990905, -1.8749999999990905), (0.25, 1.75, 0.25, 3.75)),
         0, "delta", None, [0.25, 0.5], ["general_non_extreme", "general_non_extreme"]),
        # nine traders: general, extreme and invalid points
        (NINE_TRADERS, 0, "delta", None, [0.5, 2.0, 50.0, 0.0, math.inf],
         ["general_non_extreme", "general_non_extreme", "extreme", "validation_failed",
          "validation_failed"]),
        # a covariance that is not positive definite fails at every point
        (NOT_PD, 0, "delta", None, [0.5, 1.0, 2.0], ["validation_failed"] * 3),
    ],
)
def test_fixed_sweeps_match_the_per_point_pipeline(doc, index, field, component, grid, kinds):
    got = assert_rows_match(doc, index, field, component, grid)
    assert [kind if want is not None else None for kind, want in zip(got, kinds)] == kinds


def _extreme_ties(model, index):
    """Values of trader `index`'s risk tolerance at which some trader with
    beta > 1 meets the extreme condition with equality, and one ulp either
    side."""
    exposures = derive_exposures(model)
    if exposures.is_trivial:
        return []
    delta, beta = exposures.delta, exposures.beta
    plus = np.maximum(delta * (1.0 + beta), 0.0)
    ties = []
    for k in np.flatnonzero(beta > 1.0).tolist():
        rest = plus.sum() - plus[k]
        if k == index:
            value = rest / (beta[k] - 1.0)
        elif plus[index] > 0.0:
            value = (delta[k] * (beta[k] - 1.0) - (rest - plus[index])) / (1.0 + beta[index])
        else:
            continue
        if value > 0.0:
            ties += [value, np.nextafter(value, 0.0), np.nextafter(value, np.inf)]
    return [float(v) for v in ties]


@st.composite
def sweeps(draw):
    n = draw(st.integers(2, 10))
    k = draw(st.sampled_from([1, 2, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["constrained", "unconstrained"]))
    betas = constrained_betas(rng, n) if family == "constrained" else unconstrained_betas(rng, n)
    model = model_from_betas(rng, betas, random_deltas(rng, n), n_securities=k,
                             with_total_var=draw(st.booleans()))
    doc = scenario_to_dict(model)
    index = draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        base = doc["traders"][index]["delta"]
        grid = list(base * np.exp(rng.uniform(-3.0, 3.0, size=8))) + _extreme_ties(model, index)
        field, component = "delta", None
    else:
        component = draw(st.integers(0, k - 1))
        others = sum(t["cov_es"][component] for i, t in enumerate(doc["traders"]) if i != index)
        if k > 1 and draw(st.booleans()):
            # zero the other components of Cov(E_I, S), so that a_I = 0 is
            # reachable by this one entry
            for j in range(k):
                if j != component:
                    doc["traders"][index]["cov_es"][j] = -sum(
                        t["cov_es"][j] for i, t in enumerate(doc["traders"]) if i != index
                    )
        base = doc["traders"][index]["cov_es"][component]
        grid = list(base + rng.normal(scale=2.0, size=8)) + [-others]
        field = "cov_es"
    grid += draw(st.lists(st.sampled_from(INVALID), max_size=3))
    return doc, index, field, component, [float(v) for v in rng.permutation(grid)]


@settings(max_examples=60, deadline=None)
@given(sweeps())
def test_every_row_matches_the_per_point_pipeline(sweep):
    assert_rows_match(*sweep)


def test_perturbed_row_alone_fails_verification(monkeypatch):
    doc, grid = bilateral_doc(1.6), [0.4, 0.5, 0.6, 0.7, 0.8]
    clean = batched_csv(doc, "0:delta", grid).splitlines()
    verify = thinmarket.nash.fixed_point_deviation
    for g in range(len(grid)):

        def perturbed(exposures, thetas):
            thetas = np.array(thetas)
            if thetas.ndim == 2:
                i = int(np.flatnonzero(np.isfinite(thetas[g]) & (thetas[g] > 0.0))[0])
                thetas[g, i] *= 1.0 + 1e-6
            return verify(exposures, thetas)

        monkeypatch.setattr(thinmarket.nash, "fixed_point_deviation", perturbed)
        rows = batched_csv(doc, "0:delta", grid).splitlines()
        assert rows[g + 1].split(",")[:3] == [_fmt(grid[g]), "solve_failed", ""]
        assert rows[: g + 1] + rows[g + 2:] == clean[: g + 1] + clean[g + 2:]


EXPOSURE_ARRAYS = ("a", "a_total", "beta", "lam", "delta", "u", "cov_total", "market_cov", "own_var")


def assert_profile_matches_per_point(stacked, exposures):
    """Each point's validity, and each valid point's exposures, are those of
    deriving the point alone."""
    for g in range(stacked.deltas.shape[0]):
        point = point_model(stacked, g)
        assert bool(exposures.valid[g]) == validate_model(point).ok
        if not exposures.valid[g]:
            with pytest.raises(InvalidModelError):
                derive_exposures(point)
            continue
        alone = derive_exposures(point)
        for name in EXPOSURE_ARRAYS:
            if getattr(alone, name) is not None:  # one market has no beta at a_I = 0
                assert np.array_equal(getattr(exposures, name)[g], getattr(alone, name)), (g, name)
        for name in ("delta_total", "aggregate_market_variance", "is_trivial"):
            assert getattr(exposures, name)[g] == getattr(alone, name), (g, name)


def test_stacked_derivation_is_grid_size_independent_at_large_n():
    # the linear solves and products of a stacked derivation are made per
    # point, so a point's bits do not depend on how many points share the
    # stack; the third point's rows are scaled until their spanned variance
    # exceeds total_endowment_var, so the stacked check fails there alone
    rng = np.random.default_rng(11)
    n = 2000
    model = model_from_betas(
        rng, constrained_betas(rng, n, low=-1.25, high=0.95), random_deltas(rng, n),
        n_securities=5, with_total_var=True,
    )
    deltas = np.stack([model.deltas, model.deltas * rng.uniform(0.5, 2.0, n), model.deltas])
    cov_rows = np.stack([model.cov_matrix_rows, model.cov_matrix_rows[::-1],
                         3.0 * model.cov_matrix_rows])
    stacked = model.stacked(deltas, cov_rows)
    exposures = derive_exposures(stacked)
    assert exposures.valid.tolist() == [True, True, False]
    assert_profile_matches_per_point(stacked, exposures)


def _nine_trader_doc():
    rng = np.random.default_rng(5)
    model = model_from_betas(rng, constrained_betas(rng, 9), random_deltas(rng, 9), n_securities=3,
                             with_total_var=True)
    return scenario_to_dict(model)


@pytest.mark.parametrize(
    "doc, param, grid, valid",
    [
        # invalid risk tolerances at some points
        (bilateral_doc(1.2, (4.0, 1.0), total=3.0), "0:delta", [3.5, 4.0, 0.0, math.nan, math.inf, -1.0],
         [True, True, False, False, False, False]),
        # total_endowment_var below the spanned variance, which every point shares
        (bilateral_doc(1.2, total=0.5), "1:delta", [0.5, 1.0, 2.0], [False] * 3),
        # a trivial market (a_I = 0) at every point
        (bilateral_doc(1.2, total=3.0) | {"traders": [
            {"delta": 1.0, "cov_es": [1.2]}, {"delta": 1.0, "cov_es": [-1.2]}]},
         "0:delta", [0.5, 2.0, 0.0], [True, True, False]),
        # nine traders, k = 3
        (_nine_trader_doc(), "4:delta", [0.25, 1.0, 8.0, math.nan], [True, True, True, False]),
        # total_endowment_var below the spanned variance at the large points
        # only: a cov_es sweep's rows vary, and are derived per point
        (bilateral_doc(1.2, total=3.0), "1:cov_es[0]", [-0.2, 0.5, 3.0, 30.0, math.nan],
         [True, True, False, False, False]),
    ],
)
def test_sweep_profile_matches_the_per_point_derivation(doc, param, grid, valid):
    stacked = _grid_model(scenario_from_dict(doc), param, grid)
    # a delta sweep's points share one read-only set of rows
    shared = stacked.cov_matrix_rows.strides[0] == 0
    assert shared == param.endswith(":delta")
    assert not stacked.cov_matrix_rows.flags.writeable
    exposures = derive_exposures(stacked)
    assert exposures.valid.tolist() == valid
    for name in ("delta_total", "aggregate_market_variance", "is_trivial"):
        assert getattr(exposures, name).shape == (len(grid),), name
    assert_profile_matches_per_point(stacked, exposures)


def _readme_with_a_third_trader():
    doc = bilateral_doc(1.2, total=3.0)
    doc["traders"].append({"delta": 0.5, "cov_es": [0.3]})
    return doc


@pytest.mark.parametrize("doc", [bilateral_doc(1.2, total=3.0), _readme_with_a_third_trader()],
                         ids=["readme", "readme3"])
@pytest.mark.parametrize("param, grid", [
    ("0:delta", [-1.0, 0.0, 1e154, 1e300, 1e308]),
    ("1:cov_es[0]", [1e300, 1e308]),
])
def test_stacked_steps_run_without_runtime_warnings(doc, param, grid):
    # invalid points, risk tolerances near the float maximum and spanned
    # variances beyond it: each step guards its own arithmetic, so a library
    # caller gets no warning without wrapping the calls
    stacked = _grid_model(scenario_from_dict(doc), param, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exposures = derive_exposures(stacked)
        nash = solve(exposures)
        comparison = compare(exposures, competitive_equilibrium(exposures), nash)
        solve_extreme(exposures, check_extreme_condition(exposures))
        solve_bilateral(exposures)
    assert comparison.du.shape == (len(grid), len(doc["traders"]))
