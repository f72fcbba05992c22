"""Command-line front end: analyze a scenario, sweep a parameter to CSV, or
run the validation oracles.

Exit codes are a stable contract: 0 success, 1 usage, I/O or parse error, 2
model validation failure, 3 unsupported equilibrium regime (a diagnostic
report is still written), 4 a validation check failed, 5 an internal check
of the solver failed (markets at and next to the extreme boundary solve).
The commands raise, and `main` alone maps a failure to its code and one
line on stderr (`error:`, or for an invalid model one `invalid:` line per
violation).  Only outcomes that come with a report keep their own codes:
analyze's 2 and 3, validate's 3 and 4, and sweep's per-point failure rows.

`sweep` evaluates its grid as one stacked model, validated and derived once,
and `solve` and `compare` run once over every point (general points are
root-found one at a time inside `solve`).  A market is solved as a one-point
stack, and the one-market call raises the failure that a grid records for
its point, so each CSV row is byte-identical to analyzing that point alone.
Writing the numbers is most of the cost of a two-trader sweep.  Of about
11 ms per 2048-point sweep in process on a 2-vCPU Xeon VM (Python 3.11,
numpy 2.4), the %.17g format takes about 7 ms (about 0.4 us a number),
derive, solve and compare together about 1.7 ms, and parsing the grid and
writing the file about 1.2 ms.  So the CSV body is one %-format of one flat
tuple, with one template per row.

`validate` prints one (name, PASS or FAIL, detail) row per check: per trader
the Monte-Carlo certainty equivalent and the grid-searched best response,
then best-response iteration and the Nash residual, each within a fixed limit.
It imports the oracles itself, so `analyze` and `sweep` never load them.

A cold `analyze` process is mostly fixed cost.  On a 2-vCPU Xeon VM
(Python 3.11, numpy 2.4) interpreter start-up with `site` takes 40-60 ms,
`import numpy` 70-100 ms, the thinmarket imports (with the standard modules
they load) 20-35 ms and the analysis itself 3-8 ms.  The interpreter's
exit-time collections would add 20-25 ms, walking every object the imports
created, so the process entry `console_main` (`python -m thinmarket.cli` and
the `thinmarket` script) freezes the heap after `main` returns and they skip
it; atexit handlers, stream flushing and exit codes are unaffected.  `main`
itself freezes nothing: the tests and the benchmark call it in-process, where
every freeze would move that call's survivors into the permanent generation
for good.

The parser is built once per process (`build_parser` is cached), and `main`
looks the command function up by name, `cmd_<command>`, on each call rather
than storing it in the parser, so a function patched on this module after
the first call (a test's or a tracer's wrapper) is the one that runs.
"""

from __future__ import annotations

import argparse
import functools
import gc
import re
import sys
from contextlib import nullcontext
from types import MappingProxyType
from typing import NoReturn

import numpy as np

from .analysis import _incompleteness_inapplicable, compare, incompleteness_effect
from .best_response import best_response
from .competitive import competitive_equilibrium
from .errors import InvalidModelError, ScenarioError
from .model import certainty_equivalent, derive_exposures
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
)
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

# validate's fixed limits, under the names its table prints them with
_LIMITS = MappingProxyType({
    "mc-sigma": 3.0,  # z-score of a Monte-Carlo certainty equivalent
    "grid-k": 1e-6,  # |dk| between the grid search and the best response's share
    "iteration": 1e-7,  # relative deviation of the iterate from the Nash thetas
    "nash-residual": RESIDUAL_TOL,  # the largest Nash residual
})


def cmd_analyze(args) -> int:
    model = load_scenario(args.scenario)
    try:
        exposures = derive_exposures(model)  # validates the model once
    except InvalidModelError as exc:
        code, doc = EXIT_INVALID, build_report(model, exc.violations)
    else:
        comp = competitive_equilibrium(exposures)
        nash = solve(exposures)
        comparison = inc = None
        if nash.kind != KIND_UNSUPPORTED:
            comparison = compare(exposures, comp, nash)
            if _incompleteness_inapplicable(exposures) is None:
                inc = incompleteness_effect(exposures, comparison.du)
        doc = build_report(
            model,
            (),
            exposures=exposures,
            competitive=comp,
            nash=nash,
            comparison=comparison,
            incompleteness=inc,
        )
        code = EXIT_UNSUPPORTED if comparison is None else EXIT_OK
    if args.out is None:
        sys.stdout.write(document_json(doc))
    else:
        write_report(doc, args.out)
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
    cov_rows = model.cov_matrix_rows  # a risk-tolerance sweep's points share them
    if component is None:
        deltas[:, index] = grid
    else:
        cov_rows = np.repeat(cov_rows[None], len(grid), axis=0)
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
        kinds, numbers = ["validation_failed"] * len(grid), np.repeat(np.array(grid)[:, None], width + 1, 1)
    else:
        nash = solve(exposures)
        comparison = compare(exposures, competitive_equilibrium(exposures), nash)
        kinds = np.where(comparison.failed, KIND_FAILED, nash.kind)
        kinds = np.where(exposures.valid, kinds, "validation_failed").tolist()
        numbers = np.concatenate(
            (np.array(grid)[:, None], nash.thetas, nash.k_shares, nash.outcome.prices,
             comparison.du, comparison.inefficiency[:, None]),
            axis=1,
        )
    # One %-format for the whole body.  A row's template spells its kind and
    # takes every number of the row; a failed point's writes only its value,
    # and %.0s writes each other number as an empty field.
    templates = {
        kind: "%.17g," + kind + (",%.17g" if kind in _SOLVED_KINDS else ",%.0s") * width + "\n"
        for kind in set(kinds)
    }
    return "".join(map(templates.__getitem__, kinds)) % tuple(numbers.ravel().tolist())


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


def _iteration_deviation(iterate, thetas: np.ndarray) -> float:
    """Largest relative deviation of a best-response iterate from the Nash
    elasticities: inf where exactly one of a pair is infinite, and a pair of
    infinities agrees (so inf - inf is never formed)."""
    final = np.array(iterate)
    finite = np.isfinite(final) & np.isfinite(thetas)
    if np.any(final[~finite] != thetas[~finite]):
        return np.inf
    got, want = final[finite], thetas[finite]
    dev = np.abs(got - want) / np.maximum(1.0, np.maximum(np.abs(got), np.abs(want)))
    return float(dev.max(initial=0.0))


def cmd_validate(args) -> int:
    from .oracles import McConfig, grid_best_response_share, iterate_best_responses, mc_certainty_equivalent

    model = load_scenario(args.scenario)
    try:
        mc_configs = [
            McConfig(sample_count=args.samples, seed=args.seed + i) for i in range(model.n_traders)
        ]
    except ValueError as exc:
        raise ScenarioError("--samples/--seed", str(exc)) from None
    exposures = derive_exposures(model)
    # classify before sampling: an unsupported market reports no rows
    nash = None if exposures.is_trivial else solve(exposures)
    if nash is not None and nash.kind == KIND_UNSUPPORTED:
        print(f"unsupported regime: {nash.detail}", file=sys.stderr)
        return EXIT_UNSUPPORTED

    # Monte-Carlo certainty equivalents of each trader's autarky position.
    rows = []
    limit = _LIMITS["mc-sigma"]
    columns = (model.endowment_means, model.endowment_vars, model.deltas)
    for i, (mean, var, delta) in enumerate(zip(*(column.tolist() for column in columns))):
        exact = certainty_equivalent(mean, var, delta)
        est = mc_certainty_equivalent(mean, var, delta, mc_configs[i])
        if est.standard_error == 0.0:
            ok = abs(est.value - exact) < 1e-12
            detail = f"exact, err={est.value - exact:.3g}"
        else:
            z = abs(est.value - exact) / est.standard_error
            ok = z <= limit
            detail = f"z={z:.2f} (limit {limit:g})"
        rows.append((f"mc-ce[{i}]", ok and not est.unreliable, detail))

    if nash is None:
        print("note: flat response (a_I = 0); response-function oracles skipped")
    else:
        limit = _LIMITS["grid-k"]
        for i in range(exposures.n_traders):
            rest = exposures.delta_total - float(exposures.delta[i])
            closed = best_response(exposures, i, rest).k
            err = abs(closed - grid_best_response_share(exposures, i, rest))
            rows.append((f"grid-k[{i}]", err <= limit, f"|dk|={err:.3g} (limit {limit:g})"))

        trace = iterate_best_responses(exposures, exposures.delta.tolist())
        worst = _iteration_deviation(trace.iterates[-1], nash.thetas) if trace.converged else 0.0
        limit = _LIMITS["iteration"]
        detail = f"converged={trace.converged}, dev={worst:.3g} (limit {limit:g})"
        rows.append(("iteration", trace.converged and worst <= limit, detail))

        residual = 0.0 if nash.residuals is None else float(np.max(np.abs(nash.residuals)))
        limit = _LIMITS["nash-residual"]
        detail = f"max|res|={residual:.3g} (limit {limit:g})"
        rows.append(("nash-residual", residual <= limit, detail))

    width = max(len(name) for name, _, _ in rows)
    for name, ok, detail in rows:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    return EXIT_OK if all(ok for _, ok, _ in rows) else EXIT_CHECK_FAILED


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


def console_main() -> NoReturn:
    """Process entry of `python -m thinmarket.cli` and the `thinmarket`
    script: run `main`, freeze the heap, exit with main's code."""
    code = main()
    gc.freeze()  # the exit-time collections skip the frozen objects
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
