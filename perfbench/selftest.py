"""Self-test of the benchmark at tiny sizes (N = 8, t_max = 0.2); runs in seconds.

    python3 perfbench/selftest.py

For each of the four workload generators it runs the program once, builds a
reference from that output and checks that the output check accepts it, that
deliberately corrupted outputs fail it, and that a traced iteration merges the
spans of every process (pool workers included) into the full set of per-layer
metrics with every wrapper restored. It also checks that the result line has
exactly the keys and metric names that ``BENCHMARK.json`` declares. Exits
non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import tracing
from run import (END_TO_END, HERE, PER_LAYER, STATE, child_env, result_line, run_iteration,
                 scale_times, summarize)  # run sets the BLAS thread pin before numpy loads
import probe  # noqa: E402
from make_reference import run_program
from workloads import WORKLOADS, make_config


def expect(condition: bool, message: str):
    if not condition:
        raise AssertionError(message)


def corruptions(command: str):
    """(description, file name, edit of its text) that the check must reject."""
    if command == "oracle-check":
        def fail_flag(text):
            return json.dumps({**json.loads(text), "pass": False})

        def worse_rdms(text):
            report = json.loads(text)
            return json.dumps({**report, "max_rdm_deviation": 2 * report["max_rdm_deviation"]})

        return [("oracle FAIL", "oracle_report.json", fail_flag),
                ("looser RDM accuracy", "oracle_report.json", worse_rdms)]

    def shift_series(text):
        header, first, *rest = text.splitlines()
        fields = first.split(",")
        fields[-1] = repr(float(fields[-1]) + 1e-3)
        return "\n".join([header, ",".join(fields), *rest]) + "\n"

    def abort(text):
        manifest = json.loads(text)
        for run in manifest["runs"].values():
            run["aborted"] = True
        return json.dumps({**manifest, "status": "aborted"})

    def drop_row(text):
        return "\n".join(text.splitlines()[:-1]) + "\n"

    return [("series value off by 1e-3", "series.csv", shift_series),
            ("aborted manifest", "manifest.json", abort),
            ("missing degree row", "degrees.csv", drop_row)]


def check_workload(workload, env):
    work = STATE / "selftest" / workload.name
    config = make_config(workload, seed=1, tiny=True)
    expect(run_program(workload, config, work, env) == 0, "program failed on the tiny config")
    out = work / "out"
    reference = checks.build_reference(out, workload.command)
    problems, acc = checks.check(out, workload.command, 0, reference)
    expect(problems == [], f"correct output rejected: {problems}")
    expect(acc is not None and set(acc) <= set(reference["accuracy"]), "accuracy figures missing")
    expect(checks.check(out, workload.command, 3, reference)[0] != [], "exit code 3 accepted")

    for label, name, edit in corruptions(workload.command):
        original = (out / name).read_text()
        (out / name).write_text(edit(original))
        problems, _ = checks.check(out, workload.command, 0, reference)
        (out / name).write_text(original)
        expect(problems != [], f"corrupted output accepted: {label}")

    cpus = os.sched_getaffinity(0)
    before = probe.measure(cpus, bursts=3)
    traced = run_iteration(workload, work / "config.yaml", work / "traced", env, True,
                           f"selftest-{workload.name}", 60.0, reference)
    scale_times(traced, before, probe.measure(cpus, bursts=3))
    expect(traced["wall_s"] > 0 and traced["setup_s"] > 0, "scaled times missing")
    expect(traced["problems"] == [], f"traced iteration failed: {traced['problems']}")
    layers = traced["layers"]
    expect(set(layers) == set(PER_LAYER) - {"trace.overhead_s"},
           f"per-layer metrics differ: {sorted(set(PER_LAYER) ^ set(layers))}")
    spans = tracing.load_spans(work / "traced" / "trace")
    processes = {span[0].split("-")[0] for span in spans}
    if workload.workers > 1:
        expect(len(processes) == 1 + workload.workers, f"spans from {len(processes)} processes")
        expect(0 < layers["cli.parallel_efficiency"] <= 1.0, "parallel efficiency out of range")
    names = {span[2] for span in spans}
    layer = "exact.evolve" if workload.command == "oracle-check" else "analysis.degree"
    expect({"mps.gate", "tebd.evolve", "dmrg.ground_state", layer} <= names,
           f"layers missing from the trace: {sorted(names)}")
    shutil.rmtree(work)
    return traced


def check_result_line(iterations):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS), "workload names differ")
    for trace, declared, units in ((False, spec["end_to_end"], END_TO_END),
                                   (True, spec["per_layer"], PER_LAYER)):
        expect({m["name"]: m["unit"] for m in declared} == units,
               f"BENCHMARK.json metrics differ from the benchmark's (trace={trace})")
        metrics = summarize(iterations, trace)
        line = json.loads(json.dumps(result_line(metrics, trace, 2, 0)))
        expect(list(line) == ["correct", "attempted", "failed", "metrics"], "result keys")
        expect(set(line["metrics"]) == set(units), "result metric names")
        expect(all(isinstance(m["value"], (int, float)) for m in line["metrics"].values()),
               "non-numeric metric value")


def check_restore():
    """Wrappers are in place while a tracer is installed and gone after restore."""
    sys.path.insert(0, str(HERE.parent / "src"))
    tracer = tracing.Tracer("selftest-restore", STATE / "selftest" / "restore")
    tracer.install()
    try:
        tracing.assert_unwrapped()
    except RuntimeError:
        pass
    else:
        raise AssertionError("install left no wrapper in place")
    tracer.restore()
    tracing.assert_unwrapped()
    expect(tracer.spans == [], "spans recorded without any call")


def main() -> int:
    check_restore()
    print("ok  tracer installs and restores every wrapper")
    env = child_env()
    iterations = []
    for workload in WORKLOADS.values():
        traced = check_workload(workload, env)
        iterations.append(traced)
        print(f"ok  {workload.name}: check, {len(corruptions(workload.command))} corruptions "
              f"rejected, spans merged, wrappers restored")
    # a plain iteration for the end-to-end summary; it reuses the traced figures
    iterations.append({**iterations[0], "traced": False})
    check_result_line(iterations)
    print("ok  result line matches BENCHMARK.json")
    shutil.rmtree(STATE / "selftest", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
