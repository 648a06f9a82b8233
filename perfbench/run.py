"""spinquench benchmark: time to solution, set-up time and memory, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. For S seconds the workload's pipeline runs
again and again, each iteration a fresh process started only after the
previous one ended (closed loop, one client), through the calls that
``spinquench.cli.main`` makes. Every iteration's outputs are checked against
the seed-commit reference in ``reference/``. With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics (medians over
the iterations); with ``--trace 1`` traced and untraced iterations alternate
and it holds the per-layer metrics of the traced ones. The lines before it
report every metric by name with its unit, the accuracy figures and the
environment; the same record is written to ``.perfbench/results/``.

BLAS and OpenMP are pinned to one thread per process. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:  # before numpy is imported, here and in every iteration
    os.environ[_var] = BLAS_THREADS

import checks  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

MIN_ITERATIONS = 3
HARD_LIMIT_S = 150.0  # no iteration starts after this; each is killed at it

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "mps.gate_calls": "count", "mps.gate_s": "s", "mps.gate_us_p50": "us",
    "mps.gate_us_p99": "us", "mps.gate_gflop_computed": "Gflop", "mps.gate_gflops": "Gflop/s",
    "mps.canonicalize_calls": "count", "mps.canonicalize_s": "s", "mps.max_bond": "count",
    "mps.rdm_calls": "count", "mps.rdm_s": "s", "mps.energy_calls": "count",
    "mps.energy_s": "s",
    "tebd.evolve_s": "s", "tebd.self_s": "s", "tebd.steps": "count",
    "tebd.steps_per_s": "1/s", "tebd.snapshots": "count",
    "dmrg.calls": "count", "dmrg.ground_state_s": "s", "dmrg.sweeps": "count",
    "dmrg.bond_dim": "count",
    "analysis.distance_series_calls": "count", "analysis.distance_series_s": "s",
    "analysis.distance_evals": "count", "analysis.spectra_per_rdm": "ratio",
    "analysis.degree_s": "s", "analysis.extrema_s": "s",
    "exact.ground_state_s": "s", "exact.propagator_init_s": "s", "exact.evolve_calls": "count",
    "exact.evolve_s": "s", "exact.rdm_s": "s",
    "model.build_s": "s",
    "cli.load_config_s": "s", "cli.self_s": "s", "cli.rows_written": "count",
    "cli.output_bytes": "bytes", "cli.parallel_efficiency": "ratio",
    "trace.overhead_s": "s",
}
ACCURACY_UNITS = {"energy_drift": "rel", "discarded_weight": "weight", "rdm_dev": "abs",
                  "series_dev": "abs", "gs_energy_dev": "abs"}

ENV_PROBE = """
import json, platform, numpy, scipy, spinquench, spinquench.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    openblas = f"{blas.get('name')} {blas.get('version')}"
except Exception:
    openblas = "unknown"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "openblas": openblas,
                  "module": spinquench.__file__}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "none"


def environment(env: dict, seed: int) -> dict:
    """Probe the interpreter the iterations use; this also fills the bytecode cache."""
    found = subprocess.run([sys.executable, "-c", ENV_PROBE], env=env, capture_output=True,
                           text=True, timeout=60)
    if found.returncode != 0:
        raise RuntimeError(f"cannot import spinquench from {ROOT / 'src'}:\n{found.stderr}")
    info = json.loads(found.stdout.strip().splitlines()[-1])
    module = Path(info.pop("module")).resolve()
    if not module.is_relative_to(ROOT / "src"):
        raise RuntimeError(f"spinquench imported from {module}, not from this checkout")
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **info,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def output_stats(out_dir: Path) -> dict:
    files = [p for p in out_dir.iterdir() if p.is_file()]
    rows = sum(max(len(p.read_text().splitlines()) - 1, 0) for p in files if p.suffix == ".csv")
    return {"cli.rows_written": rows, "cli.output_bytes": sum(p.stat().st_size for p in files)}


def run_iteration(workload, config_path: Path, it_dir: Path, env: dict, traced: bool,
                  run_id: str, timeout: float, reference: dict) -> dict:
    """One fresh program process; returns its measurements and check result."""
    it_dir.mkdir(parents=True)
    out, marks, trace_dir = it_dir / "out", it_dir / "marks.json", it_dir / "trace"
    cmd = [sys.executable, str(HERE / "child.py"), str(config_path), workload.command,
           str(workload.workers), str(out), str(marks)]
    if traced:
        cmd += [str(trace_dir), run_id]
    with open(it_dir / "log.txt", "w") as log:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=it_dir, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        # the whole process group goes, pool workers included
        watchdog = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        ended = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)  # reaped by wait4, not Popen

    problems, acc = checks.check(out, workload.command, code, reference)
    setup = None
    try:
        mark = json.loads(marks.read_text())
        setup = mark["loaded"] - launched
        if not Path(mark["module"]).is_relative_to(ROOT / "src"):
            problems.append((None, f"ran spinquench from {mark['module']}"))
    except (OSError, ValueError, KeyError) as err:
        problems.append((None, f"no timing marks: {err!r}"))
    failed_ids = {qid for qid, _ in problems}
    result = {
        "traced": traced,
        "wall_raw_s": ended - launched,
        "setup_raw_s": setup,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "returncode": code,
        "points": workload.n_points,
        "failed": workload.n_points if None in failed_ids else len(failed_ids),
        "problems": [msg if qid is None else f"{qid}: {msg}" for qid, msg in problems],
        "accuracy": acc,
    }
    if traced and code == 0:
        result["layers"] = {**tracing.layer_metrics(tracing.load_spans(trace_dir)),
                            **output_stats(out)}
    return result


def scale_times(it: dict, probe_before: float, probe_after: float) -> dict:
    """Add the iteration's times scaled by the probe times around it (see probe.py)."""
    it["probe_s"] = (probe_before + probe_after) / 2.0
    scale = probe.NOMINAL_S / it["probe_s"]
    it["wall_s"] = it["wall_raw_s"] * scale
    it["setup_s"] = None if it["setup_raw_s"] is None else it["setup_raw_s"] * scale
    return it


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(iterations: list, trace: bool) -> dict:
    """Metric name -> value: medians over the untraced (or traced) iterations."""
    plain = [it for it in iterations if not it["traced"]]
    if not trace:
        return {name: statistics.median(it[name] for it in plain if it[name] is not None)
                for name in END_TO_END}
    layered = [it["layers"] for it in iterations if "layers" in it]
    metrics = {name: statistics.median(layer[name] for layer in layered)
               for name in PER_LAYER if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (
        statistics.median(it["wall_s"] for it in iterations if it["traced"])
        - statistics.median(it["wall_s"] for it in plain)
    )
    return metrics


def result_line(metrics: dict, trace: bool, attempted: int, failed: int) -> dict:
    """The JSON object the benchmark prints last."""
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def report(workload, args, env_record, iterations, metrics, reference):
    units = PER_LAYER if args.trace else END_TO_END
    attempted = sum(it["points"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    traced = sum(it["traced"] for it in iterations)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(iterations)} iterations ({traced} traced), closed loop, one client")
    print("env " + " ".join(f"{k}={v}" for k, v in env_record.items()))
    for it in iterations:
        for problem in it["problems"]:
            print(f"FAILED CHECK: {problem}")
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:.6g} {unit}")
    if not args.trace:
        plain = [it for it in iterations if not it["traced"]]
        for name in END_TO_END:
            lo, hi = quartiles([it[name] for it in plain if it[name] is not None])
            print(f"  {name} over {len(plain)} iterations: q1 {lo:.6g}, q3 {hi:.6g}")
        for name in ("wall_raw_s", "setup_raw_s", "probe_s"):
            values = [it[name] for it in plain if it[name] is not None]
            print(f"  {name} (unscaled) median {statistics.median(values):.6g} s")
    print(f"{'failed_frac':32s} {failed / attempted:.6g} ratio ({failed}/{attempted} points)")
    accs = [it["accuracy"] for it in iterations if it["accuracy"]]
    for name, value in (accs[-1] if accs else {}).items():
        ref = reference["accuracy"][name]
        print(f"{name:32s} {value:.6g} {ACCURACY_UNITS[name]} (seed commit {ref:.6g})")
    return attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spinquench" / "cli.py").is_file():
        print(f"error: no spinquench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference" / f"{workload.name}.json").read_text())
    env = child_env()
    env_record = environment(env, args.seed)

    work = STATE / "runs" / f"{workload.name}-{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config_path = work / "config.yaml"
        config_path.write_text(json.dumps(make_config(workload, args.seed), indent=1))
        iterations: list = []
        # the iterations and the probe share these CPUs; the children inherit the pin
        cpus = set(sorted(os.sched_getaffinity(0), reverse=True)[:workload.workers])
        os.sched_setaffinity(0, cpus)
        probe.measure(cpus, bursts=2)  # first linear-algebra calls pay lazy set-up
        probe_s = probe.measure(cpus)
        start = time.monotonic()
        while True:
            elapsed = time.monotonic() - start
            expected = (statistics.median(it["wall_raw_s"] + it["probe_s"] for it in iterations)
                        if iterations else 0.0)
            if len(iterations) >= MIN_ITERATIONS and elapsed + expected > args.seconds:
                break
            if iterations and elapsed + expected > HARD_LIMIT_S:
                break
            index = len(iterations)
            traced = bool(args.trace) and index % 2 == 1
            it = run_iteration(
                workload, config_path, work / f"it{index}", env, traced,
                f"{workload.name}-{args.seed}-{index}", max(HARD_LIMIT_S - elapsed, 10.0),
                reference,
            )
            shutil.rmtree(work / f"it{index}", ignore_errors=True)
            probe_after = probe.measure(cpus)
            iterations.append(scale_times(it, probe_s, probe_after))
            probe_s = probe_after
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace and not any("layers" in it for it in iterations):
        print("error: no traced iteration completed", file=sys.stderr)
        return 1
    metrics = summarize(iterations, bool(args.trace))
    attempted, failed = report(workload, args, env_record, iterations, metrics, reference)
    record = result_line(metrics, bool(args.trace), attempted, failed)
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "workload": workload.name, "environment": env_record,
                    "iterations": iterations}, indent=1) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
