"""Per-layer spans for the traced benchmark run, recorded from outside the program.

``Tracer.install`` wraps the public functions of each spinquench layer at the
name its caller looks up (``spinquench.cli.ground_state``,
``MpsState.apply_two_site_gate``, ...). Nothing under ``src/`` changes.
Every call then records a span ``(id, parent, name, start, end, run_id,
attrs)`` in memory; ``restore`` puts every original back and ``flush`` writes
the spans as JSON lines, one file per process. Pool workers inherit the
wrappers through ``fork`` and flush their own spans after each quench point,
before the point's result goes back to the parent; ``load_spans`` merges all
files of a run and ``layer_metrics`` turns them into the per-layer metrics.

Span times come from ``time.perf_counter`` (CLOCK_MONOTONIC), which is shared
by the parent and its forked workers, so spans of different processes lie on
one time line.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter

MARK = "_perfbench_span"

# (module, class or None, attribute, span name). A function is wrapped where its
# caller looks it up, so the same function may appear under two owners.
SITES = (
    ("spinquench.cli", None, "load_config", "cli.load_config"),
    ("spinquench.cli", None, "run_quench_experiment", "cli.run_quench_experiment"),
    ("spinquench.cli", None, "run_oracle_check", "cli.run_oracle_check"),
    ("spinquench.cli", None, "_run_point", "cli.run_point"),
    ("spinquench.cli", None, "build_hamiltonian", "model.build_hamiltonian"),
    ("spinquench.tebd", None, "build_hamiltonian", "model.build_hamiltonian"),
    ("spinquench.tebd", None, "build_trotter_gates", "model.build_trotter_gates"),
    ("spinquench.cli", None, "ground_state", "dmrg.ground_state"),
    ("spinquench.cli", None, "evolve", "tebd.evolve"),
    ("spinquench.mps", "MpsState", "apply_two_site_gate", "mps.gate"),
    ("spinquench.mps", "MpsState", "canonicalize", "mps.canonicalize"),
    ("spinquench.mps", "MpsState", "rdm", "mps.rdm"),
    ("spinquench.mps", "MpsState", "energy", "mps.energy"),
    ("spinquench.cli", None, "distance_series", "analysis.distance_series"),
    ("spinquench.cli", None, "degree", "analysis.degree"),
    ("spinquench.cli", None, "extrema_gaps", "analysis.extrema_gaps"),
    ("spinquench.cli", None, "ed_ground_state", "exact.ground_state"),
    ("spinquench.exact", "DensePropagator", "__init__", "exact.propagator_init"),
    ("spinquench.exact", "DensePropagator", "evolve", "exact.evolve"),
    ("spinquench.cli", None, "ed_rdm", "exact.rdm"),
)


def _owner(module: str, cls):
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _svd_flop(m: int, n: int) -> int:
    """Thin complex SVD of an m x n matrix: 4x the real R-SVD count 6mnk + 20k^3."""
    k = min(m, n)
    return 4 * (6 * m * n * k + 20 * k**3)


def _gate_before(args, kwargs):
    state, left = args[0], _arg(args, kwargs, 2, "left_site")
    dl, _, chi = state.tensors[left].shape
    dr = state.tensors[left + 1].shape[2]
    # complex multiply-add = 8 flop: theta contraction, gate application, SVD
    return 8 * (4 * dl * chi * dr + 16 * dl * dr) + _svd_flop(2 * dl, 2 * dr)


def _gate_after(args, kwargs, result, flop):
    state, left = args[0], _arg(args, kwargs, 2, "left_site")
    return {"flop": flop, "bond": state.tensors[left].shape[2]}


def _quench_after(args, kwargs, result, _):
    return {"workers": _arg(args, kwargs, 1, "workers", 1)}


def _ground_state_after(args, kwargs, result, _):
    return {"sweeps": result.sweeps, "bond": max(result.state.bond_dims, default=1)}


def _evolve_after(args, kwargs, result, _):
    return {"n_sites": args[0].n_sites, "snapshots": result.n_times,
            "rdms": result.n_times * len(result.rdms)}


def _series_after(args, kwargs, result, _):
    return {"measure": result.measure, "evals": len(result)}


HOOKS = {
    "mps.gate": (_gate_before, _gate_after),
    "cli.run_quench_experiment": (None, _quench_after),
    "dmrg.ground_state": (None, _ground_state_after),
    "tebd.evolve": (None, _evolve_after),
    "analysis.distance_series": (None, _series_after),
}


class Tracer:
    """Span recorder for one benchmark iteration (one program process)."""

    def __init__(self, run_id: str, out_dir):
        self.run_id = run_id
        self.out_dir = Path(out_dir)
        self.owner_pid = self.pid = os.getpid()
        self.spans: list = []
        self.stack: list = []
        self._ids = itertools.count()
        self._patches: list = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        # A forked worker keeps the stack (its spans hang under the span that
        # forked it) but not the spans the parent recorded before the fork.
        self.pid = os.getpid()
        self.spans = []

    def _wrap(self, name: str, fn, flush_in_worker: bool):
        before, after = HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = f"{tracer.pid}-{next(tracer._ids)}"
            parent = tracer.stack[-1] if tracer.stack else None
            pre = before(args, kwargs) if before else None
            tracer.stack.append(span_id)
            result, ok = None, False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                tracer.stack.pop()
                attrs = after(args, kwargs, result, pre) if ok and after else None
                tracer.spans.append((span_id, parent, name, start, end, tracer.run_id, attrs))
                if flush_in_worker and tracer.pid != tracer.owner_pid:
                    tracer.flush()

        setattr(wrapper, MARK, name)
        return wrapper

    def install(self):
        """Wrap every site in SITES; call ``restore`` when the run ends."""
        for module, cls, attr, name in SITES:
            owner = _owner(module, cls)
            original = getattr(owner, attr)
            if hasattr(original, MARK):
                raise RuntimeError(f"{module}.{cls or ''}.{attr} is already wrapped")
            setattr(owner, attr, self._wrap(name, original, name == "cli.run_point"))
            self._patches.append((owner, attr, original))

    def restore(self):
        """Put every wrapped name back; raise if any was not restored."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        assert_unwrapped()

    def flush(self):
        """Append this process's spans to its own file and forget them."""
        if not self.spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


def assert_unwrapped():
    """Raise if any traced site still carries a wrapper."""
    left = [f"{module}.{cls or ''}.{attr}" for module, cls, attr, _ in SITES
            if hasattr(getattr(_owner(module, cls), attr), MARK)]
    if left:
        raise RuntimeError(f"wrappers left installed: {left}")


# -- merge and per-layer metrics (run in the benchmark's own process) --------


def load_spans(trace_dir) -> list:
    """Merge the span files of every process of one run; check their linkage."""
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(tuple(json.loads(line)) for line in fh if line.strip())
    by_id = {s[0]: s for s in spans}
    if len(by_id) != len(spans):
        raise ValueError("duplicate span ids in trace")
    for span_id, parent, name, start, end, _, _ in spans:
        if end < start:
            raise ValueError(f"span {span_id} ({name}) ends before it starts")
        if parent is not None and parent not in by_id:
            raise ValueError(f"span {span_id} ({name}) has unknown parent {parent}")
    return spans


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover.

    Children of one span may overlap when they ran in different pool workers,
    so the covered part is the union of their intervals.
    """
    children = defaultdict(list)
    for span_id, parent, _, start, end, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = {}
    for span_id, _, _, start, end, _, _ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span_id] = (end - start) - covered
    return result


def _gates_per_step(n_sites: int) -> int:
    """Gates in one second-order Trotter step: odd layer twice, even layer once."""
    bonds = n_sites - 1
    return 2 * len(range(0, bonds, 2)) + len(range(1, bonds, 2))


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for an empty one)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def layer_metrics(spans) -> dict:
    """Per-layer metrics (name -> value) of one traced iteration."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)
    own = self_times(spans)

    def total(name):
        return sum(s[4] - s[3] for s in by_name[name])

    def attrs(name, key):
        return [s[6][key] for s in by_name[name] if s[6]]

    m = {}
    gates = by_name["mps.gate"]
    gate_us = sorted((s[4] - s[3]) * 1e6 for s in gates)
    m["mps.gate_calls"] = len(gates)
    m["mps.gate_s"] = total("mps.gate")
    m["mps.gate_us_p50"] = _percentile(gate_us, 50)
    m["mps.gate_us_p99"] = _percentile(gate_us, 99)
    m["mps.gate_gflop_computed"] = sum(attrs("mps.gate", "flop")) / 1e9
    m["mps.gate_gflops"] = m["mps.gate_gflop_computed"] / m["mps.gate_s"] if gates else 0.0
    m["mps.canonicalize_calls"] = len(by_name["mps.canonicalize"])
    m["mps.canonicalize_s"] = total("mps.canonicalize")
    m["mps.max_bond"] = max(attrs("mps.gate", "bond"), default=0)
    m["mps.rdm_calls"] = len(by_name["mps.rdm"])
    m["mps.rdm_s"] = total("mps.rdm")
    m["mps.energy_calls"] = len(by_name["mps.energy"])
    m["mps.energy_s"] = total("mps.energy")

    evolves = by_name["tebd.evolve"]
    gates_under = defaultdict(int)
    for s in gates:
        gates_under[s[1]] += 1
    steps = sum(gates_under[s[0]] // _gates_per_step(s[6]["n_sites"]) for s in evolves if s[6])
    m["tebd.evolve_s"] = total("tebd.evolve")
    m["tebd.self_s"] = sum(own[s[0]] for s in evolves)
    m["tebd.steps"] = steps
    m["tebd.steps_per_s"] = steps / m["tebd.evolve_s"] if evolves else 0.0
    m["tebd.snapshots"] = sum(attrs("tebd.evolve", "snapshots"))

    m["dmrg.calls"] = len(by_name["dmrg.ground_state"])
    m["dmrg.ground_state_s"] = total("dmrg.ground_state")
    m["dmrg.sweeps"] = sum(attrs("dmrg.ground_state", "sweeps"))
    m["dmrg.bond_dim"] = max(attrs("dmrg.ground_state", "bond"), default=0)

    series = [s[6] for s in by_name["analysis.distance_series"] if s[6]]
    evals = sum(a["evals"] for a in series)
    # trace distance: one eigendecomposition of the difference per value;
    # total variation distance: one spectrum of each of the two states
    spectra = sum(a["evals"] * (2 if a["measure"] == "tvd" else 1) for a in series)
    recorded = sum(attrs("tebd.evolve", "rdms")) + len(by_name["exact.rdm"])
    m["analysis.distance_series_calls"] = len(by_name["analysis.distance_series"])
    m["analysis.distance_series_s"] = total("analysis.distance_series")
    m["analysis.distance_evals"] = evals
    m["analysis.spectra_per_rdm"] = spectra / recorded if recorded else 0.0
    m["analysis.degree_s"] = total("analysis.degree")
    m["analysis.extrema_s"] = total("analysis.extrema_gaps")

    m["exact.ground_state_s"] = total("exact.ground_state")
    m["exact.propagator_init_s"] = total("exact.propagator_init")
    m["exact.evolve_calls"] = len(by_name["exact.evolve"])
    m["exact.evolve_s"] = total("exact.evolve")
    m["exact.rdm_s"] = total("exact.rdm")

    m["model.build_s"] = total("model.build_hamiltonian") + total("model.build_trotter_gates")

    m["cli.load_config_s"] = total("cli.load_config")
    m["cli.self_s"] = sum(own[s[0]] for s in spans
                          if s[2].startswith("cli.") and s[2] != "cli.load_config")
    runs = by_name["cli.run_quench_experiment"]
    run_span = sum((s[4] - s[3]) * (s[6]["workers"] if s[6] else 1) for s in runs)
    m["cli.parallel_efficiency"] = total("cli.run_point") / run_span if run_span else 0.0
    return m
