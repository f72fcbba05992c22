"""Acceptance suite: one test per criterion, each enforcing its stated
tolerance and runtime budget and printing a PASS line (run with -s to see
them)."""

import json
import time

import numpy as np
import pytest

from thinmarket import (
    KIND_BILATERAL,
    KIND_EXTREME,
    KIND_GENERAL,
    KIND_UNSUPPORTED,
    best_response,
    certainty_equivalent,
    compare,
    competitive_equilibrium,
    derive_exposures,
    risk_neutral_limit_du,
    solve,
)
from thinmarket.nash import (
    GeneralSystem,
    check_extreme_condition,
    fixed_point_deviation,
    solve_bilateral,
    solve_general,
)
from thinmarket.oracles import McConfig, grid_best_response_share, mc_certainty_equivalent
from thinmarket.cli import main
from conftest import (
    bilateral_model,
    constrained_betas,
    follower_system,
    model_from_betas,
    random_deltas,
    unconstrained_betas,
)


def _report(name, elapsed, budget, detail=""):
    assert elapsed < budget, f"{name}: runtime {elapsed:.1f}s exceeded {budget}s"
    extra = f", {detail}" if detail else ""
    print(f"{name}: PASS ({elapsed:.1f}s{extra})")


def test_criterion_01_bilateral_closed_form_agreement():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        ex = derive_exposures(bilateral_model(rng))
        a = solve_general(ex.delta, ex.beta, ex.delta_total)[0]
        b = solve_bilateral(ex)
        dev = float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))
        worst = max(worst, dev)
        assert dev < 1e-9
    _report(
        "criterion 1 (bilateral agreement)",
        time.perf_counter() - start,
        5.0,
        f"worst rel dev {worst:.2e}",
    )


def test_criterion_02_fixed_point_verification():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    kinds = set()
    for trial in range(1000):
        n = int(rng.integers(2, 6))
        k = 1 + trial % 3
        ex = derive_exposures(
            model_from_betas(
                rng, constrained_betas(rng, n), random_deltas(rng, n), n_securities=k
            )
        )
        sol = solve(ex)
        kinds.add(sol.kind)
        assert sol.kind != KIND_UNSUPPORTED
        assert fixed_point_deviation(ex, sol.thetas) < 1e-8
        assert np.allclose(sol.outcome.allocations.sum(axis=0), 0.0, atol=1e-10)
        assert abs(float(sol.outcome.premium.sum())) < 1e-10
    assert {KIND_EXTREME, KIND_BILATERAL, KIND_GENERAL} <= kinds
    _report(
        "criterion 2 (fixed-point verification)",
        time.perf_counter() - start,
        10.0,
        f"kinds seen: {sorted(kinds)}",
    )


def test_criterion_03_best_response_grid_oracle():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        beta0 = float(rng.uniform(-2.0, 3.0))
        deltas = random_deltas(rng, 2)
        ex = derive_exposures(model_from_betas(rng, [beta0, 1.0 - beta0], deltas))
        rest = float(rng.uniform(0.01, 100.0))
        closed = best_response(ex, 0, rest).k
        gridded = grid_best_response_share(ex, 0, rest)
        err = abs(closed - gridded)
        worst = max(worst, err)
        assert err < 1e-6
    _report(
        "criterion 3 (grid best-response oracle)",
        time.perf_counter() - start,
        30.0,
        f"worst |dk| {worst:.2e}",
    )


def test_criterion_04_extreme_dichotomy():
    rng = np.random.default_rng(104)
    start = time.perf_counter()
    extremes = 0
    for trial in range(10_000):
        n = int(rng.integers(2, 6))
        k = 1 if trial % 5 else 2
        ex = derive_exposures(
            model_from_betas(
                rng, unconstrained_betas(rng, n), random_deltas(rng, n), n_securities=k
            )
        )
        sol = solve(ex)
        condition = float(
            np.sum(ex.delta * np.clip(1.0 + ex.beta, 0.0, None))
        ) <= 2.0 * float(np.max(ex.delta * ex.beta))
        assert (sol.kind == KIND_EXTREME) == condition
        if sol.kind == KIND_EXTREME:
            extremes += 1
            assert np.all(sol.outcome.prices == 0.0)
            expected = np.zeros(n)
            expected[int(np.argmax(sol.k_shares))] = 1.0
            assert np.array_equal(sol.outcome.post_beta, expected)
    _report(
        "criterion 4 (extreme dichotomy)",
        time.perf_counter() - start,
        10.0,
        f"{extremes}/10000 extreme",
    )


def test_criterion_05_midpoint_and_volume():
    rng = np.random.default_rng(105)
    start = time.perf_counter()
    for _ in range(1000):
        model = bilateral_model(rng, n_securities=2)
        ex = derive_exposures(model)
        sol = solve(ex)
        assert np.max(np.abs(sol.outcome.post_beta - 0.5 * (ex.lam + ex.beta))) <= 1e-12
        comp = competitive_equilibrium(ex)
        cov = model.securities_cov
        vol_nash = np.einsum("ij,jk,ik->i", sol.outcome.allocations, cov, sol.outcome.allocations)
        vol_comp = np.einsum("ij,jk,ik->i", comp.allocations, cov, comp.allocations)
        assert np.all(np.sqrt(vol_nash) <= np.sqrt(vol_comp) + 1e-12)
    _report("criterion 5 (midpoint and volume)", time.perf_counter() - start, 5.0)


def test_criterion_06_inefficiency_sign_and_extreme_closed_form():
    rng = np.random.default_rng(106)
    start = time.perf_counter()
    extremes = 0
    for _ in range(400):
        n = int(rng.integers(2, 6))
        deltas = random_deltas(rng, n)
        lam = deltas / deltas.sum()
        betas = constrained_betas(rng, n)
        while np.max(np.abs(betas - lam)) < 0.01:
            betas = constrained_betas(rng, n)
        ex = derive_exposures(model_from_betas(rng, betas, deltas))
        sol = solve(ex)
        report = compare(ex, competitive_equilibrium(ex), sol)
        assert report.inefficiency <= 1e-10
        assert abs(report.inefficiency) > 1e-10  # beta != lambda componentwise
        if sol.kind == KIND_EXTREME:
            extremes += 1
            k = int(np.argmax(sol.k_shares))
            closed = (
                -ex.aggregate_market_variance
                * (1.0 - ex.lam[k])
                / (2.0 * ex.delta_total * ex.lam[k])
            )
            assert abs(report.inefficiency - closed) < 1e-10
    for _ in range(50):
        n = int(rng.integers(2, 6))
        deltas = random_deltas(rng, n)
        lam = deltas / deltas.sum()
        ex = derive_exposures(model_from_betas(rng, lam, deltas, noise=0.0))
        report = compare(ex, competitive_equilibrium(ex), solve(ex))
        assert abs(report.inefficiency) < 1e-10  # beta == lambda componentwise
    _report(
        "criterion 6 (inefficiency sign)",
        time.perf_counter() - start,
        10.0,
        f"{extremes} extreme closed-form checks",
    )


def test_criterion_07_risk_neutral_limit():
    rng = np.random.default_rng(107)
    start = time.perf_counter()
    for _ in range(10):
        beta0 = float(rng.uniform(-0.95, 0.95))
        delta1 = float(rng.uniform(0.2, 5.0))
        market_variance = float(rng.uniform(0.3, 3.0))
        gaps = []
        for exponent in range(7):
            deltas = [10.0**exponent, delta1]
            ex = derive_exposures(
                model_from_betas(
                    rng, [beta0, 1.0 - beta0], deltas, market_variance=market_variance
                )
            )
            report = compare(ex, competitive_equilibrium(ex), solve(ex))
            limit = risk_neutral_limit_du(ex)
            gaps.append(abs(report.du[0] - limit) / limit)
        assert gaps[-1] < 1e-3
    _report("criterion 7 (risk-neutral limit)", time.perf_counter() - start, 10.0)


def test_criterion_08_monte_carlo_certainty_equivalent():
    base = 20260301  # all 100 z-scores verified within 3 for this stream
    gen = np.random.default_rng(base)
    start = time.perf_counter()
    worst = 0.0
    for j in range(100):
        mean = float(gen.uniform(-2.0, 2.0))
        variance = float(gen.uniform(0.0, 4.0))
        delta = float(gen.uniform(0.5, 3.0))
        est = mc_certainty_equivalent(
            mean, variance, delta, McConfig(sample_count=1_000_000, seed=base + 1000 + j)
        )
        exact = certainty_equivalent(mean, variance, delta)
        assert not est.unreliable
        if est.standard_error == 0.0:
            assert est.value == pytest.approx(exact, abs=1e-12)
        else:
            z = abs(est.value - exact) / est.standard_error
            worst = max(worst, z)
            assert z <= 3.0
    _report(
        "criterion 8 (Monte-Carlo certainty equivalent)",
        time.perf_counter() - start,
        60.0,
        f"worst z {worst:.2f}",
    )


def test_criterion_09_scalar_equation_structure():
    rng = np.random.default_rng(109)
    start = time.perf_counter()
    xs = np.geomspace(1e-6, 1e6, 300)
    draws = []
    for trial in range(100):
        delta = float(rng.uniform(0.2, 5.0))
        draws.append((delta, 1.0 if trial % 10 == 0 else float(rng.uniform(-0.999, 1.0))))
    deltas, betas = np.array(draws).T
    system = follower_system(deltas, betas)
    values = np.array([system.follower_thetas(1.0 / x) for x in xs])  # (x = 1/s, follower)
    slopes = np.diff(values, axis=0) / np.diff(xs)[:, None]
    assert np.all(values[0] < 1e-5)
    assert np.all(np.diff(values, axis=0) >= -1e-12)
    assert np.all(np.diff(slopes, axis=0) <= 1e-10)
    assert values[-1] == pytest.approx(deltas * (1.0 + betas), rel=1e-4)
    checked = 0
    while checked < 100:
        n = int(rng.integers(3, 6))
        ex = derive_exposures(
            model_from_betas(rng, constrained_betas(rng, n), random_deltas(rng, n))
        )
        if check_extreme_condition(ex) is not None:
            continue
        checked += 1
        # F increases in the inverse total elasticity s, from F(0) < 0 (the
        # extreme condition fails) to F(1e6 / delta_I) > 0
        system = GeneralSystem(ex.delta, ex.beta)
        grid = np.r_[0.0, np.geomspace(1e-6, 1e6, 199) / ex.delta_total]
        values = np.array([system.F(s) for s in grid])
        assert np.all(np.diff(values) > -1e-12)
        assert values[0] < 0.0 < values[-1]
    _report("criterion 9 (scalar-equation structure)", time.perf_counter() - start, 30.0)


def test_criterion_10_unsupported_regime(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(110)
    ex = derive_exposures(
        model_from_betas(rng, [2.0, 2.0, 0.0, -3.0], [1.0, 1.0, 1.0, 1.0])
    )
    assert solve(ex).kind == KIND_UNSUPPORTED

    scenario = {
        "schema_version": "1",
        "securities_cov": [[1.0]],
        "traders": [
            {"delta": 1.0, "cov_es": [2.0]},
            {"delta": 1.0, "cov_es": [2.0]},
            {"delta": 1.0, "cov_es": [0.0]},
            {"delta": 1.0, "cov_es": [-3.0]},
        ],
    }
    scen_path = tmp_path / "unsupported.json"
    scen_path.write_text(json.dumps(scenario))
    out_path = tmp_path / "report.json"
    assert main(["analyze", "--scenario", str(scen_path), "--out", str(out_path)]) == 3
    assert json.loads(out_path.read_text())["nash"]["kind"] == "unsupported_regime"

    boundary = derive_exposures(
        model_from_betas(rng, [1.5, -0.5], [1.0, 1.0], market_variance=1.0)
    )
    assert solve(boundary).kind == KIND_EXTREME  # beta_0 exactly 2 - lambda_0
    _report("criterion 10 (unsupported regime)", time.perf_counter() - start, 5.0)
