"""Experiment runner: config in, ground state -> quench -> distance analysis, CSV out.

A YAML config describes one quench (optionally swept over one post-quench
parameter); the runner produces ``series.csv``, ``degrees.csv``,
``timescales.csv`` and ``manifest.json`` in the output directory. The
``oracle-check`` command runs the same pipeline side by side with the dense
reference implementation and reports the deviations.

Exit codes: 0 success, 2 config error, 3 numerical abort, 4 oracle-check
failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace, asdict
from multiprocessing import Pool
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .model import HamiltonianParams, build_hamiltonian
from .mps import RDM_SITE_CAP, DensityMatrix, TruncationPolicy
from .dmrg import DmrgSettings, ground_state
from .tebd import EvolutionRecord, QuenchProtocol, evolve
from .analysis import degree, distance_series, extrema_gaps
from .exact import DensePropagator, ed_ground_state, ed_rdm

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ORACLE = 4

SWEEP_AXES = ("post.h_z", "post.h_x", "post.J")

ORACLE_RDM_TOL = 1e-4
ORACLE_SERIES_TOL = 1e-4
ORACLE_ENERGY_TOL = 1e-8
ORACLE_MAX_SITES = 10  # the dense helpers reach 12; this keeps oracle-check to seconds
# recorded times the dense reference evolves and reduces per product: taking all
# 201 snapshots of an 8-site chain at once raised the peak resident set by 1.6 MB
_ORACLE_CHUNK = 32


class ConfigError(Exception):
    """Aggregated config validation failure; ``errors`` lists every item."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    seed: int
    n_sites: int
    pre: tuple  # (J, h_x, h_z)
    post: tuple
    t_max: float
    tau: float
    record_stride: int
    cutoff: float
    chi_max: int
    max_sweeps: int
    energy_tol: float
    local_solver_iters: int
    subsystem_sizes: tuple
    delta_grid: tuple
    measures: tuple
    series_smoothing: int
    curve_smoothing: int
    sweep_axis: str | None = None
    sweep_values: tuple = ()
    output_dir: str = "out"

    def pre_params(self) -> HamiltonianParams:
        return HamiltonianParams(*self.pre, self.n_sites)

    def post_params(self) -> HamiltonianParams:
        return HamiltonianParams(*self.post, self.n_sites)

    def policy(self) -> TruncationPolicy:
        return TruncationPolicy(cutoff=self.cutoff, chi_max=self.chi_max)

    def dmrg_settings(self) -> DmrgSettings:
        return DmrgSettings(
            max_sweeps=self.max_sweeps,
            energy_tol=self.energy_tol,
            policy=self.policy(),
            local_solver_iters=self.local_solver_iters,
        )

    def protocol(self, post: HamiltonianParams) -> QuenchProtocol:
        return QuenchProtocol(
            pre=self.pre_params(),
            post=post,
            t_max=self.t_max,
            tau=self.tau,
            record_stride=self.record_stride,
            subsystem_sizes=self.subsystem_sizes,
            policy=self.policy(),
        )


def _section(doc, key, errors, allowed):
    sub = doc.get(key, {})
    if sub is None:
        sub = {}
    if not isinstance(sub, dict):
        errors.append(f"section '{key}' must be a mapping")
        return {}
    unknown = set(sub) - set(allowed)
    for bad in sorted(unknown):
        errors.append(f"unknown key '{key}.{bad}'")
    return sub


def _fields(mapping, prefix, errors):
    if not isinstance(mapping, dict):
        errors.append(f"'{prefix}' must be a mapping with J, h_x, h_z")
        return (0.0, 0.0, 0.0)
    unknown = set(mapping) - {"J", "h_x", "h_z"}
    for bad in sorted(unknown):
        errors.append(f"unknown key '{prefix}.{bad}'")
    return tuple(
        _number(mapping, name, 0.0, f"{prefix}.{name}", errors) for name in ("J", "h_x", "h_z")
    )


def _number(mapping, key, default, label, errors) -> float:
    """``mapping[key]`` as a finite float; on failure an error item and ``default``."""
    raw = mapping.get(key, default)
    try:
        value = float(raw)
    except (TypeError, ValueError):
        errors.append(f"'{label}' must be a number, got {raw!r}")
        return default
    if not math.isfinite(value):
        errors.append(f"'{label}' must be finite")
        return default
    return value


def load_config(path) -> ExperimentConfig:
    """Parse and validate a YAML experiment config; raises ConfigError."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError([f"config file not found: {path}"])
    try:
        doc = yaml.safe_load(path.read_text())
    except yaml.YAMLError as err:
        raise ConfigError([f"invalid YAML: {err}"]) from err
    if not isinstance(doc, dict):
        raise ConfigError(["config root must be a mapping"])

    errors: list = []
    top_allowed = {
        "name", "seed", "output_dir", "system", "quench",
        "truncation", "dmrg", "analysis", "sweep",
    }
    for bad in sorted(set(doc) - top_allowed):
        errors.append(f"unknown key '{bad}'")

    name = str(doc.get("name", path.stem))
    seed = doc.get("seed", 0)
    if not isinstance(seed, int):
        errors.append(f"'seed' must be an integer, got {seed!r}")
        seed = 0
    output_dir = str(doc.get("output_dir", "out"))

    system = _section(doc, "system", errors, {"sites"})
    n_sites = system.get("sites")
    sites_ok = isinstance(n_sites, int) and n_sites >= 2
    if not sites_ok:
        errors.append("'system.sites' must be an integer >= 2")
        n_sites = 2

    quench = _section(
        doc, "quench", errors, {"pre", "post", "t_max", "tau", "record_stride"}
    )
    if "pre" not in quench or "post" not in quench:
        errors.append("'quench.pre' and 'quench.post' are required")
    pre = _fields(quench.get("pre", {}), "quench.pre", errors)
    post = _fields(quench.get("post", {}), "quench.post", errors)
    t_max = _number(quench, "t_max", 20.0, "quench.t_max", errors)
    tau = _number(quench, "tau", 0.01, "quench.tau", errors)
    record_stride = quench.get("record_stride", 10)
    if t_max <= 0:
        errors.append("'quench.t_max' must be positive")
    if tau <= 0:
        errors.append("'quench.tau' must be positive")
    if not isinstance(record_stride, int) or record_stride < 1:
        errors.append("'quench.record_stride' must be an integer >= 1")
        record_stride = 1

    trunc = _section(doc, "truncation", errors, {"cutoff", "chi_max"})
    cutoff = _number(trunc, "cutoff", 1e-9, "truncation.cutoff", errors)
    chi_max = trunc.get("chi_max", 50)
    if cutoff < 0:
        errors.append("'truncation.cutoff' must be non-negative")
    if not isinstance(chi_max, int) or chi_max < 1:
        errors.append("'truncation.chi_max' must be an integer >= 1")
        chi_max = 1

    dmrg = _section(
        doc, "dmrg", errors, {"max_sweeps", "energy_tol", "local_solver_iters"}
    )
    max_sweeps = dmrg.get("max_sweeps", 30)
    energy_tol = _number(dmrg, "energy_tol", 1e-10, "dmrg.energy_tol", errors)
    local_iters = dmrg.get("local_solver_iters", 100)
    if not isinstance(max_sweeps, int) or max_sweeps < 1:
        errors.append("'dmrg.max_sweeps' must be an integer >= 1")
        max_sweeps = 1
    if energy_tol <= 0:
        errors.append("'dmrg.energy_tol' must be positive")
    if not isinstance(local_iters, int) or local_iters < 1:
        errors.append("'dmrg.local_solver_iters' must be an integer >= 1")
        local_iters = 1

    analysis = _section(
        doc, "analysis", errors,
        {"subsystem_sizes", "delta_grid", "measures", "series_smoothing", "curve_smoothing"},
    )
    sizes = analysis.get("subsystem_sizes", [1, 2, 3, 4])
    if not isinstance(sizes, list) or not all(isinstance(s, int) and s >= 1 for s in sizes):
        errors.append("'analysis.subsystem_sizes' must be a list of positive integers")
        sizes = [1]
    size_cap = min(RDM_SITE_CAP, n_sites) if sites_ok else RDM_SITE_CAP
    if any(s > size_cap for s in sizes):
        errors.append(
            f"'analysis.subsystem_sizes' entries must be at most {size_cap} "
            f"(the block cap {RDM_SITE_CAP} and system.sites), got {sizes}"
        )
    spacing = record_stride * tau
    grid_spec = analysis.get("delta_grid", {"start": 0.1, "stop": 4.0, "step": 0.1})
    deltas = _parse_delta_grid(grid_spec, spacing, errors)
    measures = analysis.get("measures", ["td", "tvd"])
    if not isinstance(measures, list) or not all(m in ("td", "tvd") for m in measures):
        errors.append("'analysis.measures' entries must be 'td' or 'tvd'")
        measures = ["td"]
    series_smoothing = analysis.get("series_smoothing", 1)
    curve_smoothing = analysis.get("curve_smoothing", 3)
    for label, value in (("series_smoothing", series_smoothing), ("curve_smoothing", curve_smoothing)):
        if not isinstance(value, int) or value < 1:
            errors.append(f"'analysis.{label}' must be an integer >= 1")

    sweep = _section(doc, "sweep", errors, {"axis", "values"})
    sweep_axis = sweep.get("axis")
    sweep_values: tuple = ()
    if sweep:
        if sweep_axis not in SWEEP_AXES:
            errors.append(f"'sweep.axis' must be one of {SWEEP_AXES}, got {sweep_axis!r}")
            sweep_axis = None
        raw_values = sweep.get("values", [])
        if not isinstance(raw_values, list) or not raw_values:
            errors.append("'sweep.values' must be a non-empty list of numbers")
        else:
            try:
                sweep_values = tuple(float(v) for v in raw_values)
            except (TypeError, ValueError):
                errors.append("'sweep.values' must be numbers")
            if any(not math.isfinite(v) for v in sweep_values):
                errors.append("'sweep.values' must be finite")

    if errors:
        raise ConfigError(errors)

    return ExperimentConfig(
        name=name,
        seed=seed,
        n_sites=n_sites,
        pre=pre,
        post=post,
        t_max=t_max,
        tau=tau,
        record_stride=record_stride,
        cutoff=cutoff,
        chi_max=chi_max,
        max_sweeps=max_sweeps,
        energy_tol=energy_tol,
        local_solver_iters=local_iters,
        subsystem_sizes=tuple(sizes),
        delta_grid=deltas,
        measures=tuple(dict.fromkeys(measures)),
        series_smoothing=series_smoothing,
        curve_smoothing=curve_smoothing,
        sweep_axis=sweep_axis,
        sweep_values=sweep_values,
        output_dir=output_dir,
    )


def _parse_delta_grid(spec, spacing, errors):
    """Delta values must sit on the recording grid; off-grid entries are errors."""
    if isinstance(spec, dict):
        unknown = set(spec) - {"start", "stop", "step"}
        for bad in sorted(unknown):
            errors.append(f"unknown key 'analysis.delta_grid.{bad}'")
        try:
            start = float(spec.get("start", 0.1))
            stop = float(spec.get("stop", 4.0))
            step = float(spec.get("step", 0.1))
        except (TypeError, ValueError):
            errors.append("'analysis.delta_grid' start/stop/step must be numbers")
            return ()
        if step <= 0 or stop < start:
            errors.append("'analysis.delta_grid' needs step > 0 and stop >= start")
            return ()
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        values = [start + k * step for k in range(count)]
    elif isinstance(spec, list):
        try:
            values = [float(v) for v in spec]
        except (TypeError, ValueError):
            errors.append("'analysis.delta_grid' entries must be numbers")
            return ()
    else:
        errors.append("'analysis.delta_grid' must be a mapping or a list")
        return ()
    deltas = []
    for v in values:
        ratio = v / spacing
        if abs(ratio - round(ratio)) > 1e-6:
            errors.append(
                f"delta {v:g} is not a multiple of the record spacing {spacing:g}"
            )
        else:
            deltas.append(round(ratio) * spacing)
    return tuple(deltas)


# -- pipeline ----------------------------------------------------------------


def _quench_points(config: ExperimentConfig):
    """(quench_id, post params) for the base run or every sweep value."""
    if config.sweep_axis is None:
        return [(config.name, config.post_params())]
    field_name = {"post.J": "coupling", "post.h_x": "h_x", "post.h_z": "h_z"}[config.sweep_axis]
    points = []
    for value in config.sweep_values:
        post = replace(config.post_params(), **{field_name: value})
        points.append((f"{config.name}:{config.sweep_axis}={value:g}", post))
    return points


@dataclass(eq=False)
class PointResult:
    quench_id: str
    series_rows: list = field(default_factory=list)
    degree_rows: list = field(default_factory=list)
    timescale_rows: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    aborted: bool = False


def _analyse_record(config: ExperimentConfig, quench_id: str, record: EvolutionRecord,
                    result: PointResult):
    window = (float(record.times[0]), float(record.times[-1])) if record.n_times else (0.0, 0.0)
    for measure in config.measures:
        for ell in config.subsystem_sizes:
            curve_degrees = []
            for delta in config.delta_grid:
                series = distance_series(record, ell, delta, measure)
                for t, value in zip(series.times, series.values):
                    result.series_rows.append(
                        (quench_id, measure, ell, series.delta, float(t), float(value))
                    )
                if len(series) >= 2:
                    deg = degree(series, record.spacing)
                    result.degree_rows.append(
                        (quench_id, measure, ell, series.delta, deg, window[0], window[1])
                    )
                    curve_degrees.append(deg)
                    if len(series) >= 3:
                        rep = extrema_gaps(
                            series.times, series.values, "minima",
                            smoothing_window=config.series_smoothing,
                        )
                        result.timescale_rows.append(
                            (quench_id, f"{measure}_series_minima", ell, series.delta,
                             rep.mean_gap, rep.n_extrema)
                        )
                else:
                    result.diagnostics.setdefault("degenerate_series", []).append(
                        {"measure": measure, "ell": ell, "delta": delta,
                         "reason": "fewer than two recorded times; degree undefined"}
                    )
            if len(curve_degrees) >= 3 and len(curve_degrees) == len(config.delta_grid):
                for kind in ("maxima", "minima"):
                    rep = extrema_gaps(
                        np.asarray(config.delta_grid), np.asarray(curve_degrees), kind,
                        smoothing_window=min(config.curve_smoothing, len(curve_degrees)),
                    )
                    result.timescale_rows.append(
                        (quench_id, f"{measure}_degree_{kind}", ell, None,
                         rep.mean_gap, rep.n_extrema)
                    )


def _run_point(args) -> PointResult:
    config, gs, quench_id, post = args
    result = PointResult(quench_id=quench_id)
    start = time.perf_counter()
    record = evolve(gs.state, config.protocol(post))
    _analyse_record(config, quench_id, record, result)
    drift = 0.0
    if record.n_times and record.energies[0] != 0:
        drift = float(np.max(np.abs(record.energies - record.energies[0]))
                      / abs(record.energies[0]))
    result.aborted = record.aborted
    result.diagnostics.update(
        {
            "post": {"J": post.coupling, "h_x": post.h_x, "h_z": post.h_z},
            "ground_energy": gs.energy,
            "dmrg_converged": gs.converged,
            "dmrg_sweeps": gs.sweeps,
            "dmrg_matvecs": gs.matvecs,
            "chi_max_reached_at": _first_time(record.times,
                                              np.asarray(record.max_bond) >= config.chi_max),
            "cutoff_exceeded_at": _first_time(record.times,
                                              record.cumulative_discarded > config.cutoff),
            "max_bond_dimension": int(max(record.max_bond)) if record.max_bond else 0,
            "energy_drift": drift,
            "cumulative_discarded_weight": float(record.cumulative_discarded[-1])
            if record.n_times else 0.0,
            "recorded_times": record.n_times,
            "achieved_t_max": float(record.times[-1]) if record.n_times else 0.0,
            "aborted": record.aborted,
            "abort_reason": record.abort_reason,
            "wall_seconds": time.perf_counter() - start,
        }
    )
    return result


def _first_time(times, hits):
    """The first recorded time at which ``hits`` holds, or None."""
    index = np.flatnonzero(hits)
    return float(times[index[0]]) if index.size else None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.15g}"
    return str(value)


# (file name, header, PointResult attribute holding its rows)
_CSV_FILES = (
    ("series.csv", "quench_id,measure,ell,delta,t,value", "series_rows"),
    ("degrees.csv", "quench_id,measure,ell,delta,degree,window_start,window_end", "degree_rows"),
    ("timescales.csv", "quench_id,series_kind,ell,delta,mean_gap,n_extrema", "timescale_rows"),
)


def _write_atomically(path: Path, chunks):
    """Write under a temporary name, then rename: a reader never sees a partial file.

    A failed write removes the temporary file and re-raises.
    """
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w", newline="") as fh:
            fh.writelines(chunks)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: str, rows):
    lines = (",".join(_fmt(v) for v in row) + "\n" for row in rows)
    _write_atomically(path, itertools.chain([header + "\n"], lines))


def _write_manifest(out: Path, config: ExperimentConfig, status: str, **fields):
    manifest = {
        "software_version": __version__,
        "seed": config.seed,
        "config": asdict(config),
        "status": status,
        **fields,
    }
    _write_atomically(out / "manifest.json",
                      [json.dumps(manifest, indent=2, sort_keys=True) + "\n"])


def run_quench_experiment(config: ExperimentConfig, workers: int = 1,
                          output_dir=None) -> int:
    """Execute every sweep point and persist series/degrees/timescales/manifest.

    Every point is quenched from one pre-quench ground state, computed once.
    The manifest says ``running``, and no CSV is present, until the outputs
    are written, so a run that fails part-way never leaves an earlier run's
    success or results behind.
    """
    out = Path(output_dir if output_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_manifest(out, config, "running")
    for name, _, _ in _CSV_FILES:
        (out / name).unlink(missing_ok=True)
    started = time.perf_counter()
    gs = ground_state(build_hamiltonian(config.pre_params()), config.dmrg_settings(),
                      seed=config.seed)
    ground_state_seconds = time.perf_counter() - started
    jobs = [(config, gs, quench_id, post) for quench_id, post in _quench_points(config)]
    if workers > 1 and len(jobs) > 1:
        with Pool(processes=workers) as pool:
            results = pool.map(_run_point, jobs)
    else:
        results = [_run_point(job) for job in jobs]

    for name, header, attr in _CSV_FILES:
        _write_csv(out / name, header, (row for res in results for row in getattr(res, attr)))

    aborted = any(res.aborted for res in results)
    _write_manifest(
        out, config, "aborted" if aborted else "ok",
        wall_seconds=time.perf_counter() - started,
        ground_state_seconds=ground_state_seconds,
        runs={res.quench_id: res.diagnostics for res in results},
    )
    return EXIT_NUMERICAL if aborted else EXIT_OK


def run_oracle_check(config: ExperimentConfig, output_dir=None) -> int:
    """Run the MPS and dense pipelines on identical parameters and compare.

    The dense reference works through the recorded times in chunks of
    ``_ORACLE_CHUNK``: one propagator product, and one partial trace per block
    size, for each chunk. A failed run leaves no report: the old one goes
    first, the new one is written atomically.
    """
    out = Path(output_dir if output_dir is not None else config.output_dir)
    report_path = out / "oracle_report.json"
    report_path.unlink(missing_ok=True)
    if config.n_sites > ORACLE_MAX_SITES:
        raise ConfigError(
            [f"oracle-check needs system.sites <= {ORACLE_MAX_SITES}, got {config.n_sites}"]
        )
    out.mkdir(parents=True, exist_ok=True)

    pre, post = config.pre_params(), config.post_params()
    gs = ground_state(build_hamiltonian(pre), config.dmrg_settings(), seed=config.seed)
    record = evolve(gs.state, config.protocol(post))

    ref_state, ref_energy = ed_ground_state(pre)
    propagator = DensePropagator(post)
    ref_chunks = {ell: [] for ell in config.subsystem_sizes}
    for start in range(0, record.n_times, _ORACLE_CHUNK):
        times = record.times[start:start + _ORACLE_CHUNK]
        psi = propagator.evolve(ref_state, times)
        for ell in config.subsystem_sizes:
            ref_chunks[ell].append(ed_rdm(psi, record.blocks[ell], time_stamp=times))
    ref_rdms = {ell: DensityMatrix.concatenate(chunks) for ell, chunks in ref_chunks.items()}
    rdm_dev = max((float(np.max(np.abs(ref_rdms[ell].entries - record.rdms[ell].entries)))
                   for ell in config.subsystem_sizes), default=0.0)
    ref_record = EvolutionRecord(
        times=record.times, spacing=record.spacing, rdms=ref_rdms, blocks=record.blocks,
        energies=record.energies, max_bond=record.max_bond,
        cumulative_discarded=record.cumulative_discarded,
    )

    series_dev = 0.0
    for measure in config.measures:
        for ell in config.subsystem_sizes:
            for delta in config.delta_grid:
                mine = distance_series(record, ell, delta, measure).values
                ref = distance_series(ref_record, ell, delta, measure).values
                if len(mine):
                    series_dev = max(series_dev, float(np.max(np.abs(mine - ref))))

    energy_dev = abs(gs.energy - ref_energy)
    passed = (
        rdm_dev <= ORACLE_RDM_TOL
        and series_dev <= ORACLE_SERIES_TOL
        and energy_dev <= ORACLE_ENERGY_TOL
    )
    report = {
        "software_version": __version__,
        "n_sites": config.n_sites,
        "max_rdm_deviation": rdm_dev,
        "max_series_deviation": series_dev,
        "ground_energy_deviation": energy_dev,
        "tolerances": {
            "rdm": ORACLE_RDM_TOL, "series": ORACLE_SERIES_TOL, "energy": ORACLE_ENERGY_TOL,
        },
        "pass": passed,
    }
    _write_atomically(report_path, [json.dumps(report, indent=2, sort_keys=True) + "\n"])
    for key in ("max_rdm_deviation", "max_series_deviation", "ground_energy_deviation"):
        print(f"{key}: {report[key]:.3e}")
    print("oracle-check:", "PASS" if passed else "FAIL")
    return EXIT_OK if passed else EXIT_ORACLE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinquench",
        description="Quench-dynamics pipelines for spin-1/2 chains",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a quench experiment from a config file")
    run_p.add_argument("config", help="path to the YAML config")
    run_p.add_argument("--workers", type=int, default=1, help="sweep-point worker count")
    run_p.add_argument("--output", default=None, help="output directory (overrides config)")

    oracle_p = sub.add_parser(
        "oracle-check", help="compare the MPS pipeline against the dense reference"
    )
    oracle_p.add_argument("config", help="path to the YAML config")
    oracle_p.add_argument("--output", default=None, help="output directory (overrides config)")

    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "run":
            return run_quench_experiment(config, workers=args.workers, output_dir=args.output)
        return run_oracle_check(config, output_dir=args.output)
    except ConfigError as err:
        for item in err.errors:
            print(f"config error: {item}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
