"""Child processes of the benchmark.

    child.py setup WORKLOAD SEED
        Import thinmarket and build the workload's inputs, as the benchmark
        process does; print the seconds that took.
    child.py analyze SPANS_PATH CLI_ARGS...
        Traced stand-in for `python -m thinmarket.cli CLI_ARGS...`: imports the
        package under spans, installs the span wrappers, runs cli.main and
        writes the spans as JSON to SPANS_PATH, also when cli.main raises.

Both expect thinmarket on PYTHONPATH and BLAS pinned by the parent.
"""

import json
import sys
import tempfile
import time


def setup(workload: str, seed: int) -> None:
    start = time.perf_counter()
    import thinmarket  # noqa: F401  (timed: part of set-up)

    import workloads

    with tempfile.TemporaryDirectory(dir=workloads.work_root()) as scratch:
        workloads.build(workload, seed, scratch)
        print(time.perf_counter() - start)


def analyze(spans_path: str, argv: list[str]) -> int:
    from tracer import Patches, Recorder, import_traced

    recorder = Recorder()
    remove_hook = import_traced(recorder, "thinmarket.cli")
    try:
        with Patches(recorder):
            cli = sys.modules["thinmarket.cli"]
            return cli.main(argv)
    finally:
        remove_hook()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        setup(rest[0], int(rest[1]))
    elif mode == "analyze":
        raise SystemExit(analyze(rest[0], rest[1:]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
