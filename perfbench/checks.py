"""Output check of one benchmark iteration against reference outputs of the seed commit.

An iteration passes when the program exited 0 and, for ``run``, the manifest
says ``ok`` with no aborted point, the CSV files have the reference row counts,
every stored series and degree value matches within ``SERIES_TOL`` and every
ground energy within ``ENERGY_TOL``; for ``oracle-check``, the report says
PASS. Both are the program's own oracle tolerances. On top, the accuracy
figures (energy drift, discarded weight, dense-reference deviations) may not
exceed their reference value by more than ``ACCURACY_SLACK`` of it, so that a
speed-up bought by looser truncation fails the check instead of passing as a
gain.

``build_reference`` turns one iteration's outputs into the stored reference;
``make_reference.py`` writes it to ``reference/<workload>.json``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

SERIES_TOL = 1e-4
ENERGY_TOL = 1e-8
ACCURACY_SLACK = 0.25
SERIES_SAMPLE = 5  # the reference keeps every fifth series row (all degree rows)
CSV_FILES = ("series.csv", "degrees.csv", "timescales.csv")
ORACLE_KEYS = {
    "rdm_dev": "max_rdm_deviation",
    "series_dev": "max_series_deviation",
    "gs_energy_dev": "ground_energy_deviation",
}


def _key(*fields) -> tuple:
    """Row identity; grid values are rounded so their formatting does not matter."""
    return tuple(round(float(f), 9) if isinstance(f, (int, float)) else f for f in fields)


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_outputs(out_dir, command: str) -> dict:
    """Parse the files one iteration wrote; raises OSError/ValueError if unreadable."""
    out = Path(out_dir)
    if command == "oracle-check":
        report = json.loads((out / "oracle_report.json").read_text())
        return {"report": report}
    tables = {name: _read_csv(out / name) for name in CSV_FILES}
    return {"manifest": json.loads((out / "manifest.json").read_text()), **tables}


def accuracy(outputs: dict) -> dict:
    """Accuracy figures of one iteration (all lower-is-better)."""
    if "report" in outputs:
        return {name: float(outputs["report"][key]) for name, key in ORACLE_KEYS.items()}
    runs = outputs["manifest"]["runs"].values()
    return {
        "energy_drift": max(float(r["energy_drift"]) for r in runs),
        "discarded_weight": max(float(r["cumulative_discarded_weight"]) for r in runs),
    }


def build_reference(out_dir, command: str) -> dict:
    """Reference document from the outputs of a correct iteration."""
    outputs = read_outputs(out_dir, command)
    ref = {"command": command, "accuracy": accuracy(outputs)}
    if command == "oracle-check":
        return ref
    ref["ground_energy"] = {
        qid: run["ground_energy"] for qid, run in outputs["manifest"]["runs"].items()
    }
    ref["rows"] = {name: len(outputs[name]) for name in CSV_FILES}
    ref["series"] = [
        [r["quench_id"], r["measure"], int(r["ell"]), float(r["delta"]), float(r["t"]),
         float(r["value"])]
        for r in outputs["series.csv"][::SERIES_SAMPLE]
    ]
    ref["degrees"] = [
        [r["quench_id"], r["measure"], int(r["ell"]), float(r["delta"]), float(r["degree"])]
        for r in outputs["degrees.csv"]
    ]
    return ref


def _compare_rows(label, rows, ref_rows, value_field, problems):
    """Match reference rows (last entry the value) by key; tag misses by quench id."""
    have = {}
    for r in rows:
        key_fields = (r["quench_id"], r["measure"], int(r["ell"]), float(r["delta"]))
        if value_field == "value":
            key_fields += (float(r["t"]),)
        have[_key(*key_fields)] = float(r[value_field])
    for *fields, expected in ref_rows:
        got = have.get(_key(*fields))
        if got is None:
            problems.append((fields[0], f"{label} row {fields} missing"))
        elif not abs(got - expected) <= SERIES_TOL:
            problems.append((fields[0], f"{label} {fields}: {got!r} vs reference {expected!r}"))


def _check_accuracy(acc: dict, ref_acc: dict, problems):
    for name, ref_value in ref_acc.items():
        if name == "gs_energy_dev":
            continue  # at rounding level; held to ENERGY_TOL by the oracle itself
        limit = ref_value * (1.0 + ACCURACY_SLACK)
        if not acc[name] <= limit:
            problems.append((None, f"{name} {acc[name]:.6g} exceeds {limit:.6g} "
                                   f"(reference {ref_value:.6g} + {ACCURACY_SLACK:.0%})"))


def check(out_dir, command: str, returncode: int, reference: dict):
    """Check one iteration. Returns (problems, accuracy figures or None).

    Each problem is ``(quench_id or None, message)``; ``None`` means the whole
    iteration is affected.
    """
    problems = []
    if returncode != 0:
        problems.append((None, f"exit code {returncode}"))
    try:
        outputs = read_outputs(out_dir, command)
        acc = accuracy(outputs)
    except (OSError, ValueError, KeyError) as err:
        problems.append((None, f"unreadable outputs: {err!r}"))
        return problems, None

    if command == "oracle-check":
        report = outputs["report"]
        if report.get("pass") is not True:
            problems.append((None, "oracle-check did not PASS"))
        for name, key in ORACLE_KEYS.items():
            tol = ENERGY_TOL if name == "gs_energy_dev" else SERIES_TOL
            if not acc[name] <= tol:
                problems.append((None, f"{key} {acc[name]:.3e} above {tol:g}"))
        _check_accuracy(acc, reference["accuracy"], problems)
        return problems, acc

    manifest = outputs["manifest"]
    if manifest.get("status") != "ok":
        problems.append((None, f"manifest status {manifest.get('status')!r}"))
    runs = manifest.get("runs", {})
    if set(runs) != set(reference["ground_energy"]):
        problems.append((None, f"quench points {sorted(runs)} differ from the reference"))
    for qid, run in runs.items():
        if run.get("aborted"):
            problems.append((qid, f"aborted: {run.get('abort_reason')}"))
        expected = reference["ground_energy"].get(qid)
        if expected is not None and not abs(run["ground_energy"] - expected) <= ENERGY_TOL:
            problems.append((qid, f"ground energy {run['ground_energy']!r} vs {expected!r}"))
    for name, count in reference["rows"].items():
        if len(outputs[name]) != count:
            problems.append((None, f"{name} has {len(outputs[name])} rows, expected {count}"))
    _compare_rows("series", outputs["series.csv"], reference["series"], "value", problems)
    _compare_rows("degree", outputs["degrees.csv"], reference["degrees"], "degree", problems)
    _check_accuracy(acc, reference["accuracy"], problems)
    return problems, acc
