"""Self-test of the benchmark harness at tiny sizes.

    python3 bench/selftest.py

Checks that the span wrappers replace every binding of a traced name and
restore the originals, that a missing traced name fails loudly and leaves
nothing patched, that self time is never negative, that a raising operation
is counted as a failure without aborting the run, and that the independent
checker rejects a perturbed equilibrium.  Exits non-zero on the first
failed check.
"""

import sys
import tempfile

import numpy as np

import check
import instances
import run
import workloads
from tracer import TARGETS, Patches, Recorder, TracerError, _resolve, layer_totals, self_times

sys.path.insert(0, str(workloads.SRC))

import thinmarket  # noqa: E402


def expect(condition, message):
    if not condition:
        raise AssertionError(message)
    print(f"ok  {message}")


def bindings():
    """Every (owner, attribute) that refers to a traced original."""
    found = []
    for module_name, attr, _ in TARGETS:
        owner, name = _resolve(module_name, attr)
        original = getattr(owner, name)
        if isinstance(owner, type):
            found.append((owner, name, original))
            continue
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").partition(".")[0] != "thinmarket":
                continue
            found.extend((module, a, v) for a, v in vars(module).items() if v is original)
    return found


def test_patches_restore():
    before = bindings()
    patches = Patches(Recorder())
    expect(all(getattr(o, a) is not v for o, a, v in before),
           f"all {len(before)} bindings of traced names are wrapped")
    patches.undo()
    expect(all(getattr(o, a) is v for o, a, v in before), "undo restores every original")

    broken = TARGETS + (("thinmarket.nash", "no_such_function", "nash.missing"),)
    try:
        Patches(Recorder(), broken)
    except TracerError as exc:
        expect("no_such_function" in str(exc), "a missing traced name raises TracerError")
    else:
        expect(False, "a missing traced name raises TracerError")
    expect(all(getattr(o, a) is v for o, a, v in before), "a failed install leaves nothing patched")


def test_self_time():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 3.0, 0], ["c", 2.0, 5.0, 0], ["d", 9.0, 12.0, 0]]
    own = self_times(spans)
    expect(own[0] == 5.0, "self time subtracts the union of overlapping children")

    rng = np.random.default_rng(0)
    betas = np.concatenate([[1.0 - (rest := rng.uniform(-1.2, 0.9, 11)).sum()], rest])
    market = instances.targeted_market(rng, betas, rng.uniform(0.5, 2.0, 12), k=2)
    op = workloads.SolveOp(0, market)
    recorder = Recorder()
    output = op.run(recorder)
    op.check(output)
    own = self_times(recorder.spans)
    expect(len(own) > 12 and min(own) >= 0.0, f"self time is non-negative on {len(own)} real spans")
    totals = layer_totals(recorder.spans)
    expect(totals["nash.best_response_calls"] == 12, "verification calls best_response once per trader")


def test_failures_are_counted(workdir):
    grid = (3.5, instances.README_BOUNDARY_DELTA, 4.5)
    defect = instances.SweepChunk("boundary", instances.README_SCENARIO, 0, "delta", grid, True)
    fine = instances.SweepChunk("fine", instances.README_SCENARIO, 0, "delta", (0.5, 2.0), False)
    ops = [workloads.SweepOp(defect, workdir), workloads.SweepOp(fine, workdir)]
    tally = run.Tally()
    records = run.measure(ops, 0.0, tally, paired=True)
    expect([r.ok for r in records] == [False, False, True, True],
           "a raising sweep is counted as failed and the run goes on")
    expect("ValueError" in next(iter(tally.failures["boundary"])), "the exception type is recorded")
    expect(not tally.errors, "a failure of the known defect does not make the run incorrect")
    expect(all(0.0 < r.scale < 10.0 for r in records),
           "every operation gets a calibration scale, failed ones too")

    chunk = instances.SweepChunk("unexpected", instances.README_SCENARIO, 0, "delta", grid, False)
    unexpected = workloads.SweepOp(chunk, workdir)
    run.run_once(unexpected, tally)
    expect(tally.errors, "a failure elsewhere makes the run incorrect")

    case = instances.analyze_cases(0)[-1]
    record = run.run_once(workloads.AnalyzeOp(case, workdir), tally)
    reason = next(iter(tally.failures[case.name]))
    expect(not record.ok and "exit 1" in reason, f"a crashing analyze child is counted: {reason}")


def test_checker_rejects_perturbation():
    market = instances.market_from_scenario(instances.README_SCENARIO)
    betas = instances.projected_betas(market)
    exposures = thinmarket.derive_exposures(thinmarket.scenario_from_dict(instances.README_SCENARIO))
    thetas = [t.as_float for t in thinmarket.solve(exposures).elasticities]
    expect(not check.best_response_violations(market.deltas, betas, thetas),
           "the checker accepts the solver's equilibrium")
    thetas[0] *= 1.0 + 1e-6
    expect(check.best_response_violations(market.deltas, betas, thetas),
           "the checker rejects an elasticity moved by 1e-6")


def main():
    test_patches_restore()
    test_self_time()
    with tempfile.TemporaryDirectory(dir=workloads.work_root()) as workdir:
        test_failures_are_counted(workdir)
    test_checker_rejects_perturbation()
    print("selftest passed")


if __name__ == "__main__":
    main()
