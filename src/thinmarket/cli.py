"""Command-line front end: analyze a scenario, sweep a parameter to CSV, or
run the validation oracles.

Exit codes are a stable contract: 0 success, 1 I/O or parse error, 2 model
validation failure, 3 unsupported equilibrium regime (a diagnostic report is
still written), 4 a validation check failed.
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
from dataclasses import replace

import numpy as np

from .analysis import compare, incompleteness_effect
from .best_response import best_response
from .competitive import competitive_equilibrium
from .errors import InvalidModelError, ScenarioError
from .model import ValidationResult, certainty_equivalent, derive_exposures
from .nash import KIND_UNSUPPORTED, solve
from .oracles import McConfig, grid_best_response_share, iterate_best_responses, mc_certainty_equivalent
from .scenario import (
    INF_TOKEN,
    build_report,
    document_json,
    load_scenario,
    write_report,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_UNSUPPORTED = 3
EXIT_CHECK_FAILED = 4

_PARAM_RE = re.compile(r"^(\d+):(delta|cov_es\[(\d+)\])$")

_DEFAULT_TOLS = {
    "grid-k": 1e-6,
    "iteration": 1e-7,
    "nash-residual": 1e-8,
    "mc-sigma": 3.0,
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit(doc: dict, out_path) -> None:
    if out_path is None:
        sys.stdout.write(document_json(doc))
    else:
        write_report(doc, out_path)


def _analyze_model(model):
    """Shared pipeline: returns (exit_code, report_dict)."""
    try:
        exposures = derive_exposures(model)  # validates the model once
    except InvalidModelError as exc:
        return EXIT_INVALID, build_report(model, ValidationResult(exc.violations))
    verdict = ValidationResult()
    comp = competitive_equilibrium(exposures)
    nash = solve(exposures)
    if nash.kind == KIND_UNSUPPORTED:
        doc = build_report(model, verdict, exposures=exposures, competitive=comp, nash=nash)
        return EXIT_UNSUPPORTED, doc
    comparison = compare(exposures, comp, nash)
    inc = None
    if model.total_endowment_var is not None:
        try:
            inc = incompleteness_effect(model)
        except ValueError:
            inc = None  # not applicable (trivial or not essentially bilateral)
    doc = build_report(
        model,
        verdict,
        exposures=exposures,
        competitive=comp,
        nash=nash,
        comparison=comparison,
        incompleteness=inc,
    )
    return EXIT_OK, doc


def cmd_analyze(args) -> int:
    try:
        model = load_scenario(args.scenario)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    code, doc = _analyze_model(model)
    _emit(doc, args.out)
    return code


def _set_trader_param(model, index: int, field: str, component: int | None, value: float):
    if index >= model.n_traders:
        raise ScenarioError("--param", f"trader index {index} out of range")
    trader = model.traders[index]
    if field == "delta":
        trader = replace(trader, delta=value)
    else:
        if component is None or component >= model.n_securities:
            raise ScenarioError("--param", "cov_es component out of range")
        cov = np.array(trader.cov_endowment_securities)
        cov[component] = value
        trader = replace(trader, cov_endowment_securities=cov)
    traders = list(model.traders)
    traders[index] = trader
    return replace(model, traders=tuple(traders))


def cmd_sweep(args) -> int:
    try:
        model = load_scenario(args.scenario)
        match = _PARAM_RE.match(args.param)
        if not match:
            raise ScenarioError("--param", "expected INDEX:delta or INDEX:cov_es[J]")
        index = int(match.group(1))
        field = "delta" if match.group(2) == "delta" else "cov_es"
        component = None if match.group(3) is None else int(match.group(3))
        try:
            grid = [float(v) for v in args.grid.split(",") if v.strip() != ""]
        except ValueError:
            raise ScenarioError("--grid", "expected a comma-separated list of numbers")
        if not grid:
            raise ScenarioError("--grid", "at least one grid point is required")
        # probe once so bad indices fail before any work
        _set_trader_param(model, index, field, component, grid[0])
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

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
    rows = []
    for value in grid:
        point = _set_trader_param(model, index, field, component, value)
        try:
            exposures = derive_exposures(point)
        except InvalidModelError:
            rows.append([_fmt(value), "validation_failed"] + blank)
            continue
        nash = solve(exposures)
        if nash.kind == KIND_UNSUPPORTED:
            rows.append([_fmt(value), nash.kind] + blank)
            continue
        comparison = compare(exposures, competitive_equilibrium(exposures), nash)
        thetas = [
            INF_TOKEN if t.is_infinite else _fmt(t.as_float) for t in nash.elasticities
        ]
        rows.append(
            [_fmt(value), nash.kind]
            + thetas
            + [_fmt(s) for s in nash.k_shares]
            + [_fmt(p) for p in nash.outcome.prices]
            + [_fmt(d) for d in comparison.du]
            + [_fmt(comparison.inefficiency)]
        )

    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def _parse_tol_overrides(pairs):
    tols = dict(_DEFAULT_TOLS)
    for pair in pairs or []:
        name, _, value = pair.partition("=")
        if name not in tols or not value:
            raise ScenarioError("--tol-override", f"expected NAME=VALUE with NAME in {sorted(tols)}")
        tols[name] = float(value)
    return tols


def cmd_validate(args) -> int:
    try:
        model = load_scenario(args.scenario)
        tols = _parse_tol_overrides(args.tol_override)
    except (ScenarioError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        exposures = derive_exposures(model)
    except InvalidModelError as exc:
        for violation in exc.violations:
            print(f"invalid: {violation}", file=sys.stderr)
        return EXIT_INVALID

    checks: list[tuple[str, bool, str]] = []

    # Monte-Carlo certainty equivalents of each trader's autarky position.
    for i, trader in enumerate(model.traders):
        exact = certainty_equivalent(trader.endowment_mean, trader.endowment_var, trader.delta)
        est = mc_certainty_equivalent(
            trader.endowment_mean,
            trader.endowment_var,
            trader.delta,
            McConfig(sample_count=args.samples, seed=args.seed + i),
        )
        if est.standard_error == 0.0:
            ok = abs(est.value - exact) < 1e-12 and not est.unreliable
            detail = f"exact, err={est.value - exact:.3g}"
        else:
            z = abs(est.value - exact) / est.standard_error
            ok = z <= tols["mc-sigma"] and not est.unreliable
            detail = f"z={z:.2f} (limit {tols['mc-sigma']:g})"
        checks.append((f"mc-ce[{i}]", ok, detail))

    if exposures.is_trivial:
        print("note: flat response (a_I = 0); response-function oracles skipped")
    else:
        nash = solve(exposures)
        if nash.kind == KIND_UNSUPPORTED:
            print(f"unsupported regime: {nash.detail}", file=sys.stderr)
            return EXIT_UNSUPPORTED

        for i in range(exposures.n_traders):
            rest = exposures.delta_total - float(exposures.delta[i])
            closed = best_response(exposures, i, rest).k
            gridded = grid_best_response_share(exposures, i, rest)
            err = abs(closed - gridded)
            checks.append(
                (f"grid-k[{i}]", err <= tols["grid-k"], f"|dk|={err:.3g} (limit {tols['grid-k']:g})")
            )

        trace = iterate_best_responses(exposures, [float(d) for d in exposures.delta])
        ok = trace.converged
        worst = 0.0
        if ok:
            final = trace.iterates[-1]
            for got, want in zip(final, nash.elasticities):
                if got.is_infinite or want.is_infinite:
                    if got.kind != want.kind:
                        ok = False
                        worst = math.inf
                else:
                    dev = abs(got.as_float - want.as_float) / max(
                        1.0, abs(got.as_float), abs(want.as_float)
                    )
                    worst = max(worst, dev)
            ok = ok and worst <= tols["iteration"]
        checks.append(
            (
                "iteration",
                ok,
                f"converged={trace.converged}, dev={worst:.3g} (limit {tols['iteration']:g})",
            )
        )

        residual = 0.0 if nash.residuals is None else float(np.max(np.abs(nash.residuals)))
        checks.append(
            (
                "nash-residual",
                residual <= tols["nash-residual"],
                f"max|res|={residual:.3g} (limit {tols['nash-residual']:g})",
            )
        )

    width = max(len(name) for name, _, _ in checks)
    all_ok = True
    for name, ok, detail in checks:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
        all_ok = all_ok and ok
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thinmarket",
        description="Equilibria of thin CARA-Gaussian risk-sharing markets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full equilibrium report for a scenario")
    p_analyze.add_argument("--scenario", required=True, help="scenario JSON path")
    p_analyze.add_argument("--out", default=None, help="report path (stdout if omitted)")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter and emit CSV")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--param", required=True, help="INDEX:delta or INDEX:cov_es[J]")
    p_sweep.add_argument("--grid", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", default=None, help="CSV path (stdout if omitted)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_validate = sub.add_parser("validate", help="run the cross-checking oracles")
    p_validate.add_argument("--scenario", required=True)
    p_validate.add_argument("--samples", type=int, default=1_000_000)
    p_validate.add_argument("--seed", type=int, default=42)
    p_validate.add_argument(
        "--tol-override",
        action="append",
        metavar="NAME=VALUE",
        help="override a check tolerance (test hook); repeatable",
    )
    p_validate.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
