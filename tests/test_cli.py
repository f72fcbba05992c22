import csv
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import thinmarket.analysis
import thinmarket.cli
import thinmarket.model
import thinmarket.nash
from thinmarket import load_scenario, save_scenario, scenario_to_dict
from thinmarket.cli import main
from conftest import constrained_betas, model_from_betas, random_deltas


# One ulp inside the extreme boundary: the non-extreme elasticities are too
# large to compute, so solve rejects the instance.
HAIRLINE = float(np.nextafter(1.5, 0.0))


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def four_trader_scenario():
    return {
        "schema_version": "1",
        "securities_cov": [[1.0]],
        "traders": [
            {"delta": 1.0, "cov_es": [2.0]},
            {"delta": 1.0, "cov_es": [2.0]},
            {"delta": 1.0, "cov_es": [0.0]},
            {"delta": 1.0, "cov_es": [-3.0]},
        ],
    }


def bilateral_scenario(beta0=1.2, deltas=(1.0, 1.0), total=None):
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


def assert_row_matches_report(row, report):
    """Every value column of a sweep row equals the analyze report's value."""
    nash, comparison = report["nash"], report["comparison"]
    assert row["kind"] == nash["kind"]
    columns = {
        "theta": [float(t) for t in nash["elasticities"]],
        "k": nash["k_shares"],
        "p": nash["prices"],
        "du": comparison["du"],
    }
    for prefix, values in columns.items():
        for i, value in enumerate(values):
            assert float(row[f"{prefix}_{i}"]) == value, f"{prefix}_{i}"
    assert float(row["inefficiency"]) == comparison["inefficiency"]


class TestAnalyze:
    def test_success_report(self, tmp_path, capsys):
        scen = write_json(tmp_path / "s.json", bilateral_scenario())
        out = tmp_path / "report.json"
        assert main(["analyze", "--scenario", scen, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["validation"]["ok"]
        assert doc["nash"]["kind"] == "bilateral_closed_form"
        assert doc["exposures"]["beta"] == pytest.approx([1.2, -0.2])
        assert "comparison" in doc and "L" in doc["comparison"]
        assert doc["comparison"]["inefficiency"] <= 0.0

    def test_boundary_instance_is_extreme_exit_zero(self, tmp_path):
        scen = write_json(tmp_path / "s.json", bilateral_scenario(beta0=1.5))
        out = tmp_path / "report.json"
        assert main(["analyze", "--scenario", scen, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["nash"]["kind"] == "extreme"
        assert doc["nash"]["elasticities"][0] == "inf"
        assert doc["nash"]["theta_total"] == "inf"
        assert doc["nash"]["prices"] == [0.0]

    def test_readme_scenario_on_the_boundary_is_extreme(self, tmp_path):
        # delta_0 = 4: delta_0 (beta_0 - 1) = delta_1 (1 + beta_1) exactly
        doc = bilateral_scenario(beta0=1.2, deltas=(4.0, 1.0), total=3.0)
        scen = write_json(tmp_path / "s.json", doc)
        out = tmp_path / "report.json"
        assert main(["analyze", "--scenario", scen, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["nash"]["kind"] == "extreme"
        assert "incompleteness" in report

    def test_readme_scenario_computes_the_competitive_equilibrium_twice(self, tmp_path, monkeypatch):
        # once for the market and once for its complete counterpart: the
        # incompleteness comparison reuses the market's allocations
        calls = []
        for module in (thinmarket.cli, thinmarket.analysis):
            def counted(*args, _original=module.competitive_equilibrium):
                calls.append(args)
                return _original(*args)

            monkeypatch.setattr(module, "competitive_equilibrium", counted)
        scen = write_json(tmp_path / "s.json", bilateral_scenario(total=3.0))
        out = tmp_path / "report.json"
        assert main(["analyze", "--scenario", scen, "--out", str(out)]) == 0
        assert "incompleteness" in json.loads(out.read_text())
        assert len(calls) == 2

    def test_unsolvable_instance_exit_five(self, tmp_path, capsys):
        scen = write_json(tmp_path / "s.json", bilateral_scenario(beta0=HAIRLINE))
        out = tmp_path / "report.json"
        assert main(["analyze", "--scenario", scen, "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "boundary" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_malformed_matrix_exit_one(self, tmp_path, capsys):
        doc = bilateral_scenario()
        doc["securities_cov"] = [[1.0], [0.5, 1.0]]
        scen = write_json(tmp_path / "s.json", doc)
        assert main(["analyze", "--scenario", scen, "--out", str(tmp_path / "r.json")]) == 1
        assert "securities_cov" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, field",
        [
            (("securities_cov", 0, 0), "securities_cov[0]"),
            (("traders", 0, "delta"), "traders[0].delta"),
            (("traders", 0, "cov_es", 0), "traders[0].cov_es"),
            (("traders", 1, "endowment_mean"), "traders[1].endowment_mean"),
            (("traders", 1, "endowment_var"), "traders[1].endowment_var"),
            (("total_endowment_var",), "total_endowment_var"),
        ],
    )
    @pytest.mark.parametrize("command", ["analyze", "sweep", "validate"])
    def test_integer_too_large_for_a_float_exit_one(self, tmp_path, capsys, command, path, field):
        doc = bilateral_scenario(total=3.0)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = 10**400
        scen = write_json(tmp_path / "s.json", doc)
        extra = {"sweep": ["--param", "0:delta", "--grid", "1,2"], "validate": ["--samples", "10"]}
        assert main([command, "--scenario", scen, *extra.get(command, [])]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenario field '{field}': ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_missing_file_exit_one(self, tmp_path, capsys):
        assert main(["analyze", "--scenario", str(tmp_path / "nope.json")]) == 1

    def test_unwritable_out_exit_one(self, tmp_path, capsys):
        scen = write_json(tmp_path / "s.json", bilateral_scenario())
        out = tmp_path / "no_such_dir" / "r.json"
        assert main(["analyze", "--scenario", scen, "--out", str(out)]) == 1
        assert_one_error_line(capsys)

    def test_invalid_model_exit_two(self, tmp_path):
        doc = bilateral_scenario()
        doc["traders"][0]["delta"] = 0.0
        scen = write_json(tmp_path / "s.json", doc)
        out = tmp_path / "r.json"
        assert main(["analyze", "--scenario", scen, "--out", str(out)]) == 2
        report = json.loads(out.read_text())
        assert not report["validation"]["ok"]
        assert any("strictly positive" in v for v in report["validation"]["violations"])

    def test_unsupported_four_trader_exit_three(self, tmp_path):
        doc = {
            "schema_version": "1",
            "securities_cov": [[1.0]],
            "traders": [
                {"delta": 1.0, "cov_es": [2.0]},
                {"delta": 1.0, "cov_es": [2.0]},
                {"delta": 1.0, "cov_es": [0.0]},
                {"delta": 1.0, "cov_es": [-3.0]},
            ],
        }
        scen = write_json(tmp_path / "s.json", doc)
        out = tmp_path / "r.json"
        assert main(["analyze", "--scenario", scen, "--out", str(out)]) == 3
        report = json.loads(out.read_text())
        assert report["nash"]["kind"] == "unsupported_regime"
        assert "beta > 1" in report["nash"]["detail"]
        # diagnostics still present
        assert report["exposures"]["beta"] == [2.0, 2.0, 0.0, -3.0]
        assert "comparison" not in report

    def test_reports_are_deterministic(self, tmp_path):
        scen = write_json(tmp_path / "s.json", bilateral_scenario(total=3.0))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["analyze", "--scenario", scen, "--out", str(out1)]) == 0
        assert main(["analyze", "--scenario", scen, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert "incompleteness" in doc

    def test_trivial_scenario_reports_trivial(self, tmp_path):
        doc = {
            "schema_version": "1",
            "securities_cov": [[1.0]],
            "traders": [
                {"delta": 1.0, "cov_es": [2.0]},
                {"delta": 2.0, "cov_es": [-2.0]},
            ],
        }
        scen = write_json(tmp_path / "s.json", doc)
        out = tmp_path / "r.json"
        assert main(["analyze", "--scenario", scen, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["nash"]["kind"] == "trivial"
        assert report["exposures"]["is_trivial"]
        assert report["exposures"]["beta"] is None
        assert report["comparison"]["du"] == [0.0, 0.0]


class TestScenarioRoundTrip:
    def test_parse_serialize_is_value_identical(self, tmp_path):
        scen_path = tmp_path / "s.json"
        write_json(scen_path, bilateral_scenario(beta0=0.123456789012345678, total=2.25))
        model = load_scenario(scen_path)
        saved = tmp_path / "saved.json"
        save_scenario(model, saved)
        reloaded = load_scenario(saved)
        assert scenario_to_dict(model) == scenario_to_dict(reloaded)
        resaved = tmp_path / "resaved.json"
        save_scenario(reloaded, resaved)
        assert saved.read_bytes() == resaved.read_bytes()


class TestSweep:
    def test_single_point_matches_analyze(self, tmp_path):
        scen = write_json(tmp_path / "s.json", bilateral_scenario())
        report_path = tmp_path / "r.json"
        csv_path = tmp_path / "sweep.csv"
        assert main(["analyze", "--scenario", scen, "--out", str(report_path)]) == 0
        assert (
            main(
                [
                    "sweep",
                    "--scenario",
                    scen,
                    "--param",
                    "0:delta",
                    "--grid",
                    "1.0",
                    "--out",
                    str(csv_path),
                ]
            )
            == 0
        )
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert_row_matches_report(rows[0], json.loads(report_path.read_text()))

    def test_delta_sweep_approaches_risk_neutral_limit(self, tmp_path):
        beta0 = 0.35
        scen = write_json(tmp_path / "s.json", bilateral_scenario(beta0=beta0))
        csv_path = tmp_path / "sweep.csv"
        grid = "1,10,100,1000,10000,100000,1000000"
        assert (
            main(
                ["sweep", "--scenario", scen, "--param", "0:delta", "--grid", grid, "--out", str(csv_path)]
            )
            == 0
        )
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        limit = 1.0 * (1 + beta0) * (1 - beta0) ** 2 / 8.0  # <a_I,C a_I> = 1, delta_1 = 1
        gaps = [abs(float(r["du_0"]) - limit) / limit for r in rows]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-3

    def test_kind_flips_at_extreme_threshold(self, tmp_path):
        scen = write_json(tmp_path / "s.json", bilateral_scenario(beta0=1.6))
        csv_path = tmp_path / "sweep.csv"
        grid = "0.4,0.5,0.6,0.7,0.8"
        assert (
            main(
                ["sweep", "--scenario", scen, "--param", "0:delta", "--grid", grid, "--out", str(csv_path)]
            )
            == 0
        )
        with open(csv_path, newline="") as fh:
            kinds = [row["kind"] for row in csv.DictReader(fh)]
        # threshold: delta_0 (1 + beta_0)_+ + 0.4 <= 2 delta_0 beta_0 at delta_0 = 2/3
        assert kinds == [
            "bilateral_closed_form",
            "bilateral_closed_form",
            "bilateral_closed_form",
            "extreme",
            "extreme",
        ]

    def test_failed_points_carry_kind(self, tmp_path):
        scen = write_json(tmp_path / "s.json", bilateral_scenario())
        csv_path = tmp_path / "sweep.csv"
        assert (
            main(
                ["sweep", "--scenario", scen, "--param", "0:delta", "--grid=-1.0,1.0", "--out", str(csv_path)]
            )
            == 0
        )
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["kind"] == "validation_failed"
        assert rows[0]["theta_0"] == ""
        assert rows[1]["kind"] == "bilateral_closed_form"

    def test_unsolvable_points_carry_kind(self, tmp_path):
        scen = write_json(tmp_path / "s.json", bilateral_scenario(beta0=HAIRLINE))
        csv_path = tmp_path / "sweep.csv"
        assert (
            main(
                ["sweep", "--scenario", scen, "--param", "0:delta", "--grid=0.5,1.0,2.0", "--out", str(csv_path)]
            )
            == 0
        )
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["kind"] for row in rows] == ["bilateral_closed_form", "solve_failed", "extreme"]
        assert rows[1]["theta_0"] == ""

    def test_readme_scenario_sweep_through_the_boundary(self, tmp_path):
        doc = bilateral_scenario(beta0=1.2, deltas=(4.0, 1.0), total=3.0)
        scen = write_json(tmp_path / "s.json", doc)
        csv_path = tmp_path / "sweep.csv"
        assert (
            main(
                ["sweep", "--scenario", scen, "--param", "0:delta", "--grid=3.5,4.0,4.5", "--out", str(csv_path)]
            )
            == 0
        )
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["kind"] for row in rows] == ["bilateral_closed_form", "extreme", "extreme"]
        assert rows[1]["value"] == "4" and rows[1]["theta_0"] == "inf"

    def test_unsupported_points_carry_kind(self, tmp_path):
        # sweeping trader 3's exposure drives the market into and out of the
        # two-high-beta configuration that no result covers
        doc = four_trader_scenario()
        scen = write_json(tmp_path / "s.json", doc)
        csv_path = tmp_path / "sweep.csv"
        assert (
            main(
                ["sweep", "--scenario", scen, "--param", "3:cov_es[0]", "--grid=-3.0,1.0", "--out", str(csv_path)]
            )
            == 0
        )
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["kind"] == "unsupported_regime"
        assert rows[0]["du_0"] == ""
        # at cov_es = 1.0 the aggregate exposure moves and betas leave the gap
        assert rows[1]["kind"] == "general_non_extreme"
        doc["traders"][3]["cov_es"] = [1.0]
        point = write_json(tmp_path / "point.json", doc)
        report_path = tmp_path / "r.json"
        assert main(["analyze", "--scenario", point, "--out", str(report_path)]) == 0
        assert_row_matches_report(rows[1], json.loads(report_path.read_text()))

    def test_validates_and_derives_once_per_grid(self, tmp_path, monkeypatch):
        calls = {"validate": 0, "derive": 0, "solve": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(
            thinmarket.model, "validate_model", counted("validate", thinmarket.model.validate_model)
        )
        monkeypatch.setattr(
            thinmarket.cli, "derive_exposures", counted("derive", thinmarket.cli.derive_exposures)
        )
        monkeypatch.setattr(thinmarket.nash, "solve", counted("solve", thinmarket.nash.solve))
        scen = write_json(tmp_path / "s.json", four_trader_scenario())
        csv_path = tmp_path / "sweep.csv"
        grid = "--grid=-3.0,1.0,0.5,-4.0,-0.5,-6.0,2.0,nan,-1.5"
        assert main(["sweep", "--scenario", scen, "--param", "3:cov_es[0]", grid, "--out", str(csv_path)]) == 0
        with open(csv_path, newline="") as fh:
            kinds = [row["kind"] for row in csv.DictReader(fh)]
        assert set(kinds) == {
            "unsupported_regime", "general_non_extreme", "trivial", "extreme", "validation_failed"
        }
        # the grid's general points are root-found inside solve_grid, not by solve
        assert calls == {"validate": 1, "derive": 1, "solve": 0}

    def test_inf_token_in_csv(self, tmp_path):
        scen = write_json(tmp_path / "s.json", bilateral_scenario(beta0=1.5))
        csv_path = tmp_path / "sweep.csv"
        assert (
            main(
                ["sweep", "--scenario", scen, "--param", "0:delta", "--grid", "1.0", "--out", str(csv_path)]
            )
            == 0
        )
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["theta_0"] == "inf"
        assert float(rows[0]["k_0"]) == 1.0

    def test_two_security_sweep_headers(self, tmp_path):
        doc = {
            "schema_version": "1",
            "securities_cov": [[1.0, 0.3], [0.3, 2.0]],
            "traders": [
                {"delta": 1.0, "cov_es": [1.0, 0.5]},
                {"delta": 2.0, "cov_es": [-0.4, 0.2]},
            ],
        }
        scen = write_json(tmp_path / "s.json", doc)
        csv_path = tmp_path / "sweep.csv"
        assert (
            main(
                ["sweep", "--scenario", scen, "--param", "1:cov_es[1]", "--grid", "0.2,0.4", "--out", str(csv_path)]
            )
            == 0
        )
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {
            "value", "kind", "theta_0", "theta_1", "k_0", "k_1",
            "p_0", "p_1", "du_0", "du_1", "inefficiency",
        }
        assert all(row["kind"] != "" for row in rows)

    def test_bad_param_spec_exit_one(self, tmp_path, capsys):
        scen = write_json(tmp_path / "s.json", bilateral_scenario())
        assert main(["sweep", "--scenario", scen, "--param", "0.delta", "--grid", "1", "--out", "x"]) == 1
        assert main(["sweep", "--scenario", scen, "--param", "9:delta", "--grid", "1", "--out", "x"]) == 1

    def test_unwritable_out_exit_one(self, tmp_path, capsys, monkeypatch):
        # the output is opened before the grid is solved
        solves = []

        def counted(fn):
            def wrapper(exposures):
                solves.append(exposures)
                return fn(exposures)

            return wrapper

        monkeypatch.setattr(thinmarket.cli, "solve_grid", counted(thinmarket.cli.solve_grid))
        monkeypatch.setattr(thinmarket.nash, "solve", counted(thinmarket.nash.solve))
        scen = write_json(tmp_path / "s.json", bilateral_scenario())
        out = tmp_path / "no_such_dir" / "s.csv"
        assert main(["sweep", "--scenario", scen, "--param", "0:delta", "--grid", "1", "--out", str(out)]) == 1
        assert_one_error_line(capsys)
        assert len(solves) == 0

    def test_grid_skips_blank_fields(self, tmp_path):
        scen = write_json(tmp_path / "s.json", bilateral_scenario())
        csv_path = tmp_path / "sweep.csv"
        argv = ["sweep", "--scenario", scen, "--param", "0:delta", "--out", str(csv_path)]
        for grid, values in ((" 0.5, 1 ,,2,", ["0.5", "1", "2"]), ("1_0", ["10"])):
            assert main(argv + ["--grid=" + grid]) == 0
            with open(csv_path, newline="") as fh:
                assert [row["value"] for row in csv.DictReader(fh)] == values

    @pytest.mark.parametrize(
        "grid, message", [("abc", "expected a comma-separated list"), (",", "at least one grid point is required")]
    )
    def test_bad_grid_exit_one(self, tmp_path, capsys, grid, message):
        scen = write_json(tmp_path / "s.json", bilateral_scenario())
        argv = ["sweep", "--scenario", scen, "--param", "0:delta", "--grid=" + grid, "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--grid" in err and message in err

    def test_stdout_matches_out_file(self, tmp_path, capsysbinary):
        scen = write_json(tmp_path / "s.json", bilateral_scenario(deltas=(4.0, 1.0), total=3.0))
        csv_path = tmp_path / "sweep.csv"
        argv = ["sweep", "--scenario", scen, "--param", "0:delta", "--grid", "0.5,1,2,4,8,0"]
        assert main(argv) == 0
        stdout = capsysbinary.readouterr().out
        assert main(argv + ["--out", str(csv_path)]) == 0
        assert stdout == csv_path.read_bytes()
        assert stdout.startswith(b"value,kind,theta_0,theta_1,k_0,k_1,p_0,du_0,du_1,inefficiency\n")
        assert stdout.count(b"\n") == 7


class TestValidate:
    def test_supported_scenario_passes(self, tmp_path, capsys):
        scen = write_json(tmp_path / "s.json", bilateral_scenario())
        code = main(["validate", "--scenario", scen, "--samples", "50000", "--seed", "42"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_extreme_scenario_passes(self, tmp_path, capsys):
        scen = write_json(tmp_path / "s.json", bilateral_scenario(beta0=1.5))
        code = main(["validate", "--scenario", scen, "--samples", "50000", "--seed", "42"])
        assert code == 0

    def test_tolerance_override_fails_named_check(self, tmp_path, capsys):
        scen = write_json(tmp_path / "s.json", bilateral_scenario())
        code = main(
            [
                "validate",
                "--scenario",
                scen,
                "--samples",
                "20000",
                "--tol-override",
                "grid-k=1e-30",
            ]
        )
        out = capsys.readouterr().out
        assert code == 4
        assert any("grid-k" in line and "FAIL" in line for line in out.splitlines())

    def test_trivial_scenario_notes_flat_response(self, tmp_path, capsys):
        doc = {
            "schema_version": "1",
            "securities_cov": [[1.0]],
            "traders": [
                {"delta": 1.0, "cov_es": [1.0], "endowment_var": 1.0},
                {"delta": 1.0, "cov_es": [-1.0], "endowment_var": 1.0},
            ],
        }
        scen = write_json(tmp_path / "s.json", doc)
        code = main(["validate", "--scenario", scen, "--samples", "20000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "flat response" in out

    def test_invalid_scenario_exit_two(self, tmp_path, capsys):
        doc = bilateral_scenario()
        doc["traders"][1]["delta"] = -1.0
        scen = write_json(tmp_path / "s.json", doc)
        assert main(["validate", "--scenario", scen, "--samples", "1000"]) == 2

    def test_unsolvable_scenario_exit_five(self, tmp_path, capsys):
        scen = write_json(tmp_path / "s.json", bilateral_scenario(beta0=HAIRLINE))
        assert main(["validate", "--scenario", scen, "--samples", "1000"]) == 5
        assert capsys.readouterr().err.startswith("error: ")

    def test_zero_samples_exit_one(self, tmp_path, capsys):
        scen = write_json(tmp_path / "s.json", bilateral_scenario())
        for option in (["--samples", "0"], ["--seed", "-1"]):
            assert main(["validate", "--scenario", scen, *option]) == 1
            assert_one_error_line(capsys)

    def test_unsupported_scenario_exit_three(self, tmp_path, capsys):
        doc = {
            "schema_version": "1",
            "securities_cov": [[1.0]],
            "traders": [
                {"delta": 1.0, "cov_es": [2.0]},
                {"delta": 1.0, "cov_es": [2.0]},
                {"delta": 1.0, "cov_es": [0.0]},
                {"delta": 1.0, "cov_es": [-3.0]},
            ],
        }
        scen = write_json(tmp_path / "s.json", doc)
        assert main(["validate", "--scenario", scen, "--samples", "1000"]) == 3


class TestParser:
    """The parser is built once per process, and main looks each command up
    by name when it runs."""

    def test_one_parser_per_process(self):
        assert thinmarket.cli.build_parser() is thinmarket.cli.build_parser()

    def test_patched_command_is_called(self, tmp_path, monkeypatch):
        scen = write_json(tmp_path / "s.json", bilateral_scenario())
        argv = ["sweep", "--scenario", scen, "--param", "0:delta", "--grid", "1,2", "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 0
        calls = []

        def counted(args, _original=thinmarket.cli.cmd_sweep):
            calls.append(args.command)
            return _original(args)

        monkeypatch.setattr(thinmarket.cli, "cmd_sweep", counted)
        assert main(argv) == 0
        assert calls == ["sweep"]

    def test_tol_override_does_not_carry_over(self, tmp_path, capsys):
        scen = write_json(tmp_path / "s.json", bilateral_scenario())
        argv = ["validate", "--scenario", scen, "--samples", "20000"]
        assert main(argv + ["--tol-override", "grid-k=1e-30"]) == 4
        capsys.readouterr()
        assert main(argv) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_usage_error_and_help_after_a_successful_call(self, tmp_path, capsys):
        scen = write_json(tmp_path / "s.json", bilateral_scenario())
        assert main(["analyze", "--scenario", scen, "--out", str(tmp_path / "r.json")]) == 0
        assert main(["sweep", "--scenario", scen, "--grid", "1"]) == 1
        assert_one_error_line(capsys)
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--scenario", "{latin1}"],
        ["sweep", "--scenario", "{latin1}", "--param", "0:delta", "--grid", "1"],
        ["validate", "--scenario", "{latin1}", "--samples", "10"],
        ["analyze", "--scenario", "{deep}"],
        pytest.param(
            ["sweep", "--scenario", "{good}", "--param", "0:delta", "--grid", "1", "--out", "/dev/full"],
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
        ),
        ["validate", "--scenario", "{good}", "--samples", "10000000000000000000000"],
        ["validate", "--scenario", "{good}", "--samples", "10", "--tol-override", "grid-k=abc"],
        ["analyze"],
        ["frobnicate"],
    ],
    ids=[
        "analyze-not-utf8", "sweep-not-utf8", "validate-not-utf8", "deep-json", "sweep-disk-full",
        "samples-too-large", "tol-override-not-a-number", "missing-scenario", "unknown-command",
    ],
)
def test_bad_input_exits_one_with_one_error_line(tmp_path, capsys, argv):
    paths = {
        "good": write_json(tmp_path / "good.json", bilateral_scenario()),
        "latin1": str(tmp_path / "latin1.json"),
        "deep": str(tmp_path / "deep.json"),
    }
    Path(paths["latin1"]).write_bytes(b'{"schema_version": "\xe9"}')
    Path(paths["deep"]).write_text("[" * 100_000 + "]" * 100_000)
    assert main([arg.format(**paths) for arg in argv]) == 1
    assert_one_error_line(capsys)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert "analyze" in capsys.readouterr().out


def test_analyze_imports_no_scipy(tmp_path):
    # numpy is the only runtime dependency: a CLI process never loads scipy,
    # on the bilateral closed form or on the general root-finding path.
    bilateral = write_json(tmp_path / "bilateral.json", bilateral_scenario(total=3.0))
    rng = np.random.default_rng(3)
    model = model_from_betas(rng, constrained_betas(rng, 10), random_deltas(rng, 10), n_securities=5)
    general = tmp_path / "general.json"
    save_scenario(model, general)
    child = textwrap.dedent(
        """
        import sys
        from thinmarket.cli import main
        for scenario, report in zip(sys.argv[1::2], sys.argv[2::2]):
            assert main(["analyze", "--scenario", scenario, "--out", report]) == 0
            loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
            assert not loaded, (scenario, loaded)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    reports = [tmp_path / "bilateral_report.json", tmp_path / "general_report.json"]
    proc = subprocess.run(
        [sys.executable, "-c", child, bilateral, str(reports[0]), str(general), str(reports[1])],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    kinds = [json.loads(path.read_text())["nash"]["kind"] for path in reports]
    assert kinds == ["bilateral_closed_form", "general_non_extreme"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_risk_tolerances_fail_without_runtime_warnings(tmp_path, capsys):
    # a third trader in the README scenario; delta_0 near the float maximum
    # overflows the classifier's terms and the utilities' 2 delta, which the
    # solver and the outcome absorb without a warning reaching the user
    doc = bilateral_scenario(total=3.0)
    doc["traders"].append({"delta": 0.5, "cov_es": [0.3]})
    scen = write_json(tmp_path / "s.json", doc)
    csv_path = tmp_path / "sweep.csv"
    grid = "--grid=0,-1,inf,nan,1e-308,1e308,1"
    assert main(["sweep", "--scenario", scen, "--param", "0:delta", grid, "--out", str(csv_path)]) == 0
    with open(csv_path, newline="") as fh:
        kinds = [row["kind"] for row in csv.DictReader(fh)]
    assert kinds == ["validation_failed"] * 4 + ["general_non_extreme", "solve_failed", "general_non_extreme"]
    assert capsys.readouterr().err == ""

    doc["traders"][0]["delta"] = 1e308
    big = write_json(tmp_path / "big.json", doc)
    out = tmp_path / "report.json"
    assert main(["analyze", "--scenario", big, "--out", str(out)]) == 5
    err = capsys.readouterr().err
    assert err == "error: F(1e+296) <= 1 at the lower bracket end; precondition violated\n"
    assert not out.exists()
