"""Compare benchmark results of two commits; refuses results from different environments.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Each file is a result record that ``run.py`` wrote to ``.perfbench/results/``
(one workload, one trace mode). The comparison is refused (exit code 2) unless
every record has the same workload, trace mode and environment: nproc, CPU
model, Python, numpy, scipy and OpenBLAS versions and the BLAS thread pin. The
seed, git commit and source digest may differ. For each metric it prints the
median of each side, the change, and for end-to-end metrics whether the change
stays within the bound in ``BENCHMARK.json``. It claims no gain: that needs the
paired runs described in README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SAME_ENV = ("nproc", "cpu_affinity", "cpu_model", "python", "numpy", "scipy", "openblas",
            "blas_threads")


def load(paths) -> list:
    return [json.loads(Path(p).read_text()) for p in paths]


def refusal(records) -> str | None:
    """Why these records may not be compared, or None."""
    first = records[0]
    for record in records[1:]:
        if record["workload"] != first["workload"]:
            return f"workloads differ: {first['workload']} vs {record['workload']}"
        if set(record["metrics"]) != set(first["metrics"]):
            return "records hold different metrics (trace modes differ?)"
        for key in SAME_ENV:
            if record["environment"].get(key) != first["environment"].get(key):
                return (f"environment differs in {key}: {first['environment'].get(key)!r} "
                        f"vs {record['environment'].get(key)!r}")
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    reason = refusal(base + new)
    if reason:
        print(f"refused: {reason}", file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{base[0]['workload']}: {len(base)} base vs {len(new)} new records")
    for name, entry in base[0]["metrics"].items():
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        n = statistics.median(r["metrics"][name]["value"] for r in new)
        change = (n - b) / b if b else float("nan")
        verdict = ""
        if name in bounds:
            worse = change if bounds[name]["better"] == "lower" else -change
            verdict = "  regression" if worse > bounds[name]["bound"] else "  within bound"
        print(f"{name:32s} {b:12.6g} -> {n:12.6g} {entry['unit']:8s} {change:+.1%}{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
