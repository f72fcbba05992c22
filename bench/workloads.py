"""The three workloads as lists of operations over seeded inputs.

An operation is one closed-loop request: `run(recorder)` does the work and
returns its output, raising on failure; `canonical(output)` gives the bytes
the digest is taken of, and `check(output)` verifies the output
independently, raising check.CheckError.  With a Recorder the operation runs
traced.  Only public entry points are called:
the CLI (`python -m thinmarket.cli`, `thinmarket.cli.main`) and
`derive_exposures`, `competitive_equilibrium`, `solve` and `compare`.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import check
import instances
from tracer import Patches

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("analyze_cold", "sweep_bilateral", "solve_large")
# A cold analyze takes about half a second; a child still running after this
# is killed and its operation counted as failed.
ANALYZE_TIMEOUT_S = 60


class OpFailed(RuntimeError):
    """The program failed on an operation (as opposed to a wrong output)."""


def work_root() -> Path:
    path = ROOT / ".bench_work"
    path.mkdir(exist_ok=True)
    return path


def child_env() -> dict:
    """Environment of every child: thinmarket from ./src, and bytecode cached
    under the work directory (as an installed package has its bytecode
    compiled), whatever PYTHONDONTWRITEBYTECODE the caller set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(work_root() / "pycache")
    return env


def _traced(recorder):
    return Patches(recorder) if recorder is not None else contextlib.nullcontext()


class AnalyzeOp:
    """A fresh `python -m thinmarket.cli analyze` process on one scenario."""

    def __init__(self, case: instances.AnalyzeCase, workdir: str):
        self.name, self.case, self.items = case.name, case, 1
        self.known_defect = case.known_defect
        self.scenario = os.path.join(workdir, f"{case.name}.json")
        self.report = os.path.join(workdir, f"{case.name}.report.json")
        self.spans = os.path.join(workdir, f"{case.name}.spans.json")
        self.stderr = os.path.join(workdir, f"{case.name}.stderr")
        with open(self.scenario, "w", encoding="utf-8") as fh:
            json.dump(case.scenario, fh)
        self.max_rss_kb = 0

    def run(self, recorder=None):
        for path in (self.report, self.spans):
            if os.path.exists(path):
                os.remove(path)
        cli_args = ["analyze", "--scenario", self.scenario, "--out", self.report]
        if recorder is None:
            argv = [sys.executable, "-m", "thinmarket.cli", *cli_args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "child.py"), "analyze", self.spans, *cli_args]
        with open(self.stderr, "wb") as err:
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err, env=child_env())
            try:
                code = _wait(proc, self)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        if recorder is not None and os.path.exists(self.spans):
            with open(self.spans, encoding="utf-8") as fh:
                recorder.spans.extend(json.load(fh))
        if code != 0:
            with open(self.stderr, encoding="utf-8", errors="replace") as fh:
                lines = fh.read().strip().splitlines()
            raise OpFailed(f"exit {code}: {lines[-1] if lines else ''}")
        with open(self.report, encoding="utf-8") as fh:
            return fh.read()

    def canonical(self, text: str) -> bytes:
        return text.encode()

    def check(self, text: str) -> None:
        check.check_report(self.case, text)


def _wait(proc: subprocess.Popen, op: AnalyzeOp) -> int:
    """Wait for the child and record its peak resident set size."""
    timer = threading.Timer(ANALYZE_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    op.max_rss_kb = max(op.max_rss_kb, usage.ru_maxrss)
    return proc.returncode


class SweepOp:
    """One in-process `thinmarket.cli.main(["sweep", ...])` call writing CSV."""

    def __init__(self, chunk: instances.SweepChunk, workdir: str):
        self.name, self.chunk, self.items = chunk.name, chunk, len(chunk.grid)
        self.known_defect = chunk.known_defect
        label = chunk.name.partition(":")[0]
        scenario = os.path.join(workdir, f"{label}.json")
        with open(scenario, "w", encoding="utf-8") as fh:
            json.dump(chunk.scenario, fh)
        self.out = os.path.join(workdir, chunk.name.replace(":", "_") + ".csv")
        self.argv = ["sweep", "--scenario", scenario, "--param", chunk.param,
                     "--grid=" + ",".join(repr(v) for v in chunk.grid), "--out", self.out]

    def run(self, recorder=None):
        import thinmarket.cli

        if os.path.exists(self.out):
            os.remove(self.out)
        with _traced(recorder):
            code = thinmarket.cli.main(self.argv)
        if code != 0:
            raise OpFailed(f"exit {code}")
        with open(self.out, encoding="utf-8") as fh:
            return fh.read()

    def canonical(self, text: str) -> bytes:
        return text.encode()

    def check(self, text: str) -> None:
        check.check_sweep_csv(self.chunk, text)


class SolveOp:
    """derive_exposures -> competitive_equilibrium -> solve -> compare."""

    def __init__(self, index: int, market: instances.Market):
        import thinmarket as tm

        self.name, self.market, self.items = f"market{index}", market, 1
        self.known_defect = False
        self.model = tm.MarketModel(
            securities_cov=market.cov,
            traders=tuple(tm.TraderProfile(d, row, mean, var) for d, row, mean, var
                          in zip(market.deltas, market.cov_rows, market.means, market.variances)),
        )

    def run(self, recorder=None):
        import thinmarket as tm

        with _traced(recorder):
            exposures = tm.derive_exposures(self.model)
            competitive = tm.competitive_equilibrium(exposures)
            solution = tm.solve(exposures)
            return solution, tm.compare(exposures, competitive, solution)

    def canonical(self, output) -> bytes:
        return check.solution_bytes(*output)

    def check(self, output) -> None:
        check.check_solution(self.market, *output, self.name)


def build(workload: str, seed: int, workdir: str) -> list:
    """One round of operations: every input of the workload once."""
    if workload == "analyze_cold":
        return [AnalyzeOp(case, workdir) for case in instances.analyze_cases(seed)]
    if workload == "sweep_bilateral":
        return [SweepOp(chunk, workdir) for chunk in instances.sweep_chunks(seed)]
    if workload == "solve_large":
        return [SolveOp(i, m) for i, m in enumerate(instances.solve_markets(seed))]
    raise ValueError(f"unknown workload {workload!r}")
