"""Command-line front end: analyze a scenario, sweep a parameter to CSV, or
run the validation oracles.

Exit codes are a stable contract: 0 success, 1 usage, I/O or parse error, 2
model validation failure, 3 unsupported equilibrium regime (a diagnostic
report is still written), 4 a validation check failed, 5 the equilibrium
could not be solved or verified.  The commands raise, and `main` alone maps
a failure to its code and one line on stderr (`error:`, or for an invalid
model one `invalid:` line per violation).  Only outcomes that come with a
report keep their own codes: analyze's 2 and 3, validate's 3 and 4, and
sweep's per-point failure rows.

`sweep` evaluates its grid as one stacked model, whose arrays carry a leading
grid axis: the grid is validated and derived once, and `solve_grid` runs the
Nash kernel that `solve` runs for analyze over every point at once (general
points are root-found one at a time inside it), with the one-market
arithmetic, so each CSV row is byte-identical to analyzing that point alone.
Writing the numbers is the largest cost of a two-trader sweep, about half of
it: CPython's 17-digit float formatting takes about 0.4 us a number on a
2-vCPU Xeon VM, and the CSV body is one %-format of one flat tuple, with one
template per row.

The parser is built once per process (`build_parser` is cached), and `main`
looks the command function up by name, `cmd_<command>`, on each call rather
than storing it in the parser, so a function patched on this module after
the first call (a test's or a tracer's wrapper) is the one that runs.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from contextlib import nullcontext

import numpy as np

from .analysis import compare, incompleteness_effect
from .best_response import best_response
from .competitive import competitive_equilibrium
from .errors import InvalidModelError, ScenarioError
from .model import ValidationResult, certainty_equivalent, derive_exposures
from .nash import (
    KIND_BILATERAL,
    KIND_EXTREME,
    KIND_FAILED,
    KIND_GENERAL,
    KIND_TRIVIAL,
    KIND_UNSUPPORTED,
    RESIDUAL_TOL,
    SOLVE_ERRORS,
    solve,
    solve_grid,
)
from .oracles import McConfig, grid_best_response_share, iterate_best_responses, mc_certainty_equivalent
from .scenario import (
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
EXIT_SOLVE_FAILED = 5

_PARAM_RE = re.compile(r"^(\d+):(delta|cov_es\[(\d+)\])$")

_DEFAULT_TOLS = {
    "grid-k": 1e-6,
    "iteration": 1e-7,
    "nash-residual": RESIDUAL_TOL,
    "mc-sigma": 3.0,
}


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
            inc = incompleteness_effect(exposures, comparison.du)
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
    code, doc = _analyze_model(load_scenario(args.scenario))
    _emit(doc, args.out)
    return code


def _grid_model(model, param: str, grid: list[float]):
    """The stacked model of a sweep: the parameter `param` names (INDEX:delta,
    a trader's risk tolerance, or INDEX:cov_es[J], its Cov(E_i, S_J)) set to
    each grid value in turn."""
    match = _PARAM_RE.match(param)
    if not match:
        raise ScenarioError("--param", "expected INDEX:delta or INDEX:cov_es[J]")
    index = int(match.group(1))
    component = None if match.group(3) is None else int(match.group(3))
    if index >= model.n_traders:
        raise ScenarioError("--param", f"trader index {index} out of range")
    if component is not None and component >= model.n_securities:
        raise ScenarioError("--param", "cov_es component out of range")
    deltas = np.repeat(model.deltas[None], len(grid), axis=0)
    cov_rows = np.repeat(model.cov_matrix_rows[None], len(grid), axis=0)
    if component is None:
        deltas[:, index] = grid
    else:
        cov_rows[:, index, component] = grid
    return model.stacked(deltas, cov_rows)


_SOLVED_KINDS = frozenset((KIND_TRIVIAL, KIND_EXTREME, KIND_BILATERAL, KIND_GENERAL))


def _sweep_body(model, grid: list[float], width: int) -> str:
    """The CSV lines of a sweep after the header, as one string; width is the
    number of value columns.  Each line's kind is what analyzing the point
    alone gives: validation_failed, unsupported_regime or solve_failed (with
    empty values), or the Nash kind with the point's values.  Numbers are
    written with 17 significant digits, an infinite elasticity as "inf" (the
    report's INF_TOKEN); no field needs CSV quoting."""
    try:
        exposures = derive_exposures(model)
    except InvalidModelError:  # the covariance itself fails, at every point
        kinds, numbers = ["validation_failed"] * len(grid), np.array(grid)[:, None]
    else:
        nash = solve_grid(exposures)
        # unsolved points carry inf and NaN through the row-wise arithmetic
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            comparison = compare(exposures, competitive_equilibrium(exposures), nash)
        kinds = np.where(comparison.failed, KIND_FAILED, nash.kind)
        kinds = np.where(exposures.valid, kinds, "validation_failed").tolist()
        numbers = np.concatenate(
            (np.array(grid)[:, None], nash.thetas, nash.k_shares, nash.outcome.prices,
             comparison.du, comparison.inefficiency[:, None]),
            axis=1,
        )
    # One %-format for the whole body.  A row's template spells its kind and
    # takes the row's numbers, or only its value if the point failed.
    templates = {
        kind: "%.17g," + kind + (",%.17g" * width if kind in _SOLVED_KINDS else "," * width) + "\n"
        for kind in set(kinds)
    }
    keep = np.ones(numbers.shape, dtype=bool)
    keep[[kind not in _SOLVED_KINDS for kind in kinds], 1:] = False
    return "".join(map(templates.__getitem__, kinds)) % tuple(numbers[keep].tolist())


def cmd_sweep(args) -> int:
    model = load_scenario(args.scenario)
    try:
        grid = list(map(float, filter(str.strip, args.grid.split(","))))
    except ValueError:
        raise ScenarioError("--grid", "expected a comma-separated list of numbers") from None
    if not grid:
        raise ScenarioError("--grid", "at least one grid point is required")
    grid_model = _grid_model(model, args.param, grid)

    n, k = model.n_traders, model.n_securities
    header = (
        ["value", "kind"]
        + [f"theta_{i}" for i in range(n)]
        + [f"k_{i}" for i in range(n)]
        + [f"p_{j}" for j in range(k)]
        + [f"du_{i}" for i in range(n)]
        + ["inefficiency"]
    )
    # open the output first, so an unwritable path fails before any solve
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    with out as fh:
        fh.write(",".join(header) + "\n")
        fh.write(_sweep_body(grid_model, grid, len(header) - 2))
    return EXIT_OK


def _parse_tol_overrides(pairs):
    tols = dict(_DEFAULT_TOLS)
    for pair in pairs or []:
        name, _, value = pair.partition("=")
        if name not in tols or not value:
            raise ScenarioError("--tol-override", f"expected NAME=VALUE with NAME in {sorted(tols)}")
        try:
            tols[name] = float(value)
        except ValueError:
            raise ScenarioError("--tol-override", f"{name}: expected a number") from None
    return tols


def cmd_validate(args) -> int:
    model = load_scenario(args.scenario)
    tols = _parse_tol_overrides(args.tol_override)
    try:
        mc_configs = [
            McConfig(sample_count=args.samples, seed=args.seed + i) for i in range(model.n_traders)
        ]
    except ValueError as exc:
        raise ScenarioError("--samples/--seed", str(exc)) from None
    exposures = derive_exposures(model)

    checks: list[tuple[str, bool, str]] = []

    # Monte-Carlo certainty equivalents of each trader's autarky position.
    columns = (model.endowment_means, model.endowment_vars, model.deltas)
    for i, (mean, var, delta) in enumerate(zip(*(column.tolist() for column in columns))):
        exact = certainty_equivalent(mean, var, delta)
        est = mc_certainty_equivalent(mean, var, delta, mc_configs[i])
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
            for got, want in zip(final, nash.thetas.tolist()):
                if got.is_infinite or math.isinf(want):
                    if got.is_infinite != math.isinf(want):
                        ok = False
                        worst = math.inf
                else:
                    dev = abs(got.as_float - want) / max(1.0, abs(got.as_float), abs(want))
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


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ScenarioError, so main reports them like any other
    bad input (exit 1, one line), and main returns instead of exiting."""

    def error(self, message):
        raise ScenarioError("(command line)", message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thinmarket",
        description="Equilibria of thin CARA-Gaussian risk-sharing markets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full equilibrium report for a scenario")
    p_analyze.add_argument("--scenario", required=True, help="scenario JSON path")
    p_analyze.add_argument("--out", default=None, help="report path (stdout if omitted)")

    p_sweep = sub.add_parser("sweep", help="sweep one parameter and emit CSV")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--param", required=True, help="INDEX:delta or INDEX:cov_es[J]")
    p_sweep.add_argument("--grid", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", default=None, help="CSV path (stdout if omitted)")

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
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return globals()["cmd_" + args.command](args)
    except InvalidModelError as exc:
        for violation in exc.violations:
            print(f"invalid: {violation}", file=sys.stderr)
        return EXIT_INVALID
    # ScenarioError is a ValueError, and so in SOLVE_ERRORS: it must come first
    except (ScenarioError, OSError) as exc:
        error, code = exc, EXIT_IO
    except SOLVE_ERRORS as exc:
        error, code = exc, EXIT_SOLVE_FAILED
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
