"""thinmarket benchmark: three closed-loop workloads with one client each.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the package is imported from
./src.  Workloads (see BENCHMARK.json for why each was chosen):

    analyze_cold     a fresh `python -m thinmarket.cli analyze` per operation
    sweep_bilateral  in-process `cli.main(["sweep", ...])`, 2048 points per call
    solve_large      in-process derive -> competitive -> solve -> compare, N=2000

With --trace 0 the run reports the end-to-end metrics: setup_s, op_s.p50 and
op_s.tail over successful operations (an analyze call, a sweep call, a
solve), items_per_s (analyze calls, grid points or solves completed per
second), success_frac and peak_rss_mb.  op_s.tail is the highest
percentile with at least ten samples above it; its percentile and sample
count are printed beside it.  With --trace 1 the same operations run
alternately untraced and traced, and the run reports per-layer metrics per
item (analyze call, grid point or solve) over the successful traced
operations, plus trace.overhead_frac, the traced over the untraced time.
`--workload all` runs every workload with and without tracing in turn.

Every time is reported at reference host speed: calibrate.py runs a fixed
reference computation before and after each operation (and each set-up
process) and scales the operation's wall time by REFERENCE_S over their mean,
so that the host's speed drifting between runs does not read as a change of
the program.  Unscaled wall-time medians are printed as comments.

Every output is checked independently (see check.py); a digest of each is
printed, and an output that changes between repeats is an error.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

# Pinned before numpy loads anywhere, here (through the imports below) or in
# the children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402
from calibrate import Clock  # noqa: E402
from check import CheckError, digest  # noqa: E402
from instances import KNOWN_DEFECT  # noqa: E402
from tracer import LAYER_METRICS, Recorder, layer_totals  # noqa: E402

SETUP_REPEATS = 9
TAIL_ABOVE = 10
CHILD_TIMEOUT_S = 170

E2E_UNITS = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "items_per_s": "1/s",
    "success_frac": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass
class Record:
    op: object
    seconds: float
    ok: bool
    traced: bool = False
    spans: list = field(default_factory=list)
    scale: float = 1.0  # wall seconds to reference seconds, see calibrate.py

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


class Tally:
    """Failures, digests and correctness of every output of one run."""

    def __init__(self):
        self.failures: dict[str, Counter] = defaultdict(Counter)
        self.digests: dict[str, str] = {}
        self.errors: list[str] = []

    def failed(self, op, exc: BaseException) -> None:
        self.failures[op.name][f"{type(exc).__name__}: {exc}"] += 1
        if not op.known_defect:
            self.errors.append(f"{op.name} failed: {type(exc).__name__}: {exc}")

    def verify(self, op, output) -> None:
        """Full check on the first output of each operation; later outputs
        must be byte-identical to it."""
        try:
            value = digest(op.canonical(output))
            first = self.digests.get(op.name)
            if first is None:
                self.digests[op.name] = value
                op.check(output)
            elif value != first:
                raise CheckError("output changed between repeats")
        except Exception as exc:  # any error while checking means a wrong output
            self.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")


def run_once(op, tally: Tally, traced: bool = False) -> Record:
    recorder = Recorder() if traced else None
    start = time.perf_counter()
    try:
        output = op.run(recorder)
    except Exception as exc:  # an operation's failure is counted, not fatal
        record = Record(op, time.perf_counter() - start, False, traced)
        tally.failed(op, exc)
    else:
        record = Record(op, time.perf_counter() - start, True, traced)
        tally.verify(op, output)
    if recorder is not None:
        record.spans = recorder.spans
    return record


def measure(ops, seconds: float, tally: Tally, paired: bool) -> list[Record]:
    """Whole rounds over `ops` while another round as long as the last one
    still ends within `seconds`.  Paired runs do each operation untraced and
    traced back to back, alternating which goes first from round to round.
    Every operation is bracketed by calibration chunks."""
    records = []
    clock = Clock()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() + round_s < deadline:
        round_start = time.perf_counter()
        order = ((False, True) if rounds % 2 == 0 else (True, False)) if paired else (False,)
        for op in ops:
            for traced in order:
                record = run_once(op, tally, traced)
                record.scale = clock.scale()
                records.append(record)
        round_s = time.perf_counter() - round_start
        rounds += 1
    return records


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with TAIL_ABOVE samples above it."""
    values = sorted(values)
    n = len(values)
    if n <= TAIL_ABOVE:
        return values[-1], f"max of {n}"
    return values[n - TAIL_ABOVE - 1], f"p{100.0 * (n - TAIL_ABOVE) / n:.0f} of {n}"


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Import plus input generation, each in a fresh process, in reference
    seconds."""
    argv = [sys.executable, str(workloads.BENCH_DIR / "child.py"), "setup", workload, str(seed)]
    out = []
    clock = Clock()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(argv, capture_output=True, text=True, env=workloads.child_env(),
                              timeout=CHILD_TIMEOUT_S, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]) * clock.scale())
    return out


def end_to_end(records, ops, setup: list[float], workload: str):
    ok = [r for r in records if r.ok]
    latencies = [r.ref_seconds for r in ok]
    tail_value, tail_note = tail(latencies)
    if workload == "analyze_cold":
        rss_kb = max(op.max_rss_kb for op in ops)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup),
        "op_s.p50": statistics.median(latencies),
        "op_s.tail": tail_value,
        "items_per_s": sum(r.op.items for r in ok) / sum(r.ref_seconds for r in records),
        "success_frac": len(ok) / len(records),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    notes = {"op_s.tail": tail_note, "setup_s": f"median of {len(setup)}",
             "op_s.p50": f"unscaled wall {statistics.median(r.seconds for r in ok):.6g} s, "
                         f"median scale {statistics.median(r.scale for r in records):.4f}"}
    return {name: (value, E2E_UNITS[name]) for name, value in metrics.items()}, notes


def per_layer(records):
    traced = [r for r in records if r.ok and r.traced]
    untraced = [r for r in records if r.ok and not r.traced]
    items = sum(r.op.items for r in traced)
    totals = Counter()
    counts = {name for name in LAYER_METRICS if name.endswith(("_calls", "_evals"))}
    for r in traced:
        totals.update({name: value if name in counts else value * r.scale
                       for name, value in layer_totals(r.spans).items()})
    metrics = {}
    for name in LAYER_METRICS:
        metrics[name] = (totals[name] / items, "count" if name in counts else "s")
    overhead = sum(r.ref_seconds for r in traced) / sum(r.ref_seconds for r in untraced)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics, {"trace.overhead_frac": f"{len(traced)} traced, {len(untraced)} untraced ops"}


def write_spans(records, path) -> None:
    """The spans of the first traced operation on each input, in
    microseconds from that operation's first span."""
    out = {}
    for r in records:
        if r.traced and r.spans and r.op.name not in out:
            origin = min(span[1] for span in r.spans)
            out[r.op.name] = [[name, round((start - origin) * 1e6), round((end - origin) * 1e6),
                               parent] for name, start, end, parent in r.spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def run_workload(args) -> dict:
    with tempfile.TemporaryDirectory(dir=workloads.work_root()) as workdir:
        setup = [] if args.trace else setup_seconds(args.workload, args.seed)
        ops = workloads.build(args.workload, args.seed, workdir)
        tally = Tally()
        if args.workload != "analyze_cold":
            run_once(next(op for op in ops if not op.known_defect), tally)  # warm-up
        records = measure(ops, args.seconds, tally, paired=bool(args.trace))
        if not any(r.ok for r in records):
            raise SystemExit(f"error: every operation failed: {tally.errors[:3]}")
        if args.trace:
            metrics, notes = per_layer(records)
            spans_path = workloads.work_root() / f"spans_{args.workload}_seed{args.seed}.json"
            write_spans(records, spans_path)
        else:
            metrics, notes = end_to_end(records, ops, setup, args.workload)

    failed = sum(not r.ok for r in records)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(environment()))
    print(f"# operations: {len(records)} attempted, {failed} failed; known defect kept: {KNOWN_DEFECT}")
    for name, counts in tally.failures.items():
        for reason, count in counts.items():
            print(f"# failure {name} x{count}: {reason}")
    print("# digests " + json.dumps(tally.digests))
    if args.trace:
        print(f"# spans of one traced operation per input: {spans_path.relative_to(workloads.ROOT)}")
    for error in tally.errors:
        print(f"# ERROR {error}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<28} {value:<14.6g} {unit}{note}")
    return {
        "correct": not tally.errors,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload untraced and traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"workload {name} (trace {trace}) exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = workloads.SRC / "thinmarket" / "__init__.py"
    if not package.is_file():
        print(f"error: {package} not found; run from the root of a thinmarket checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    import thinmarket

    if os.path.dirname(os.path.abspath(thinmarket.__file__)) != str(package.parent):
        print(f"error: imported thinmarket from {thinmarket.__file__}, not {package.parent}",
              file=sys.stderr)
        return 2

    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
