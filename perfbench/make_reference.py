"""Write the reference outputs the benchmark checks every iteration against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload once with seed 0 on the code of this checkout and stores
row counts, ground energies, accuracy figures, every fifth series value and
every degree value in ``perfbench/reference/<workload>.json``. Run it only on
the seed commit (or after a change the benchmark's owners accept as changing
the physics); a later change is checked against these values.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
from run import HERE, STATE, child_env
from workloads import WORKLOADS, make_config

REFERENCE_SEED = 0


def dumps(ref: dict) -> str:
    """JSON with one table row per line, so that a diff shows which values moved."""
    fields = []
    for key, value in ref.items():
        if isinstance(value, list):
            rows = ",\n  ".join(json.dumps(row) for row in value)
            fields.append(f"{json.dumps(key)}: [\n  {rows}\n ]")
        else:
            fields.append(f"{json.dumps(key)}: {json.dumps(value)}")
    return "{\n " + ",\n ".join(fields) + "\n}\n"


def run_program(workload, config_doc: dict, work: Path, env: dict) -> int:
    """Run the program once, untimed, with its outputs in ``work/out``."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.yaml"
    config.write_text(json.dumps(config_doc))
    return subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(config), workload.command,
         str(workload.workers), str(work / "out"), str(work / "marks.json")],
        env=env, cwd=work, stdout=subprocess.DEVNULL,
    ).returncode


def main(names) -> int:
    env = child_env()
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        work = STATE / "reference" / name
        code = run_program(workload, make_config(workload, REFERENCE_SEED), work, env)
        if code != 0:
            print(f"{name}: program exited {code}; no reference written", file=sys.stderr)
            return 1
        ref = checks.build_reference(work / "out", workload.command)
        (HERE / "reference" / f"{name}.json").write_text(dumps(ref))
        shutil.rmtree(work)
        print(f"{name}: reference written")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
