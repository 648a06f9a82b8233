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
from dataclasses import dataclass, field, fields, replace, asdict
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .model import HamiltonianParams, build_hamiltonian
from .mps import RDM_SITE_CAP, DensityMatrix, TruncationPolicy
from .dmrg import ground_state
from .tebd import EvolutionRecord, QuenchProtocol, evolve, grid_offset
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
# moving-average window of a degree-vs-delta curve before its extrema are found (capped
# by the curve's length); a distance series is not smoothed
_CURVE_SMOOTHING = 3


class ConfigError(Exception):
    """Aggregated config validation failure; ``errors`` lists every item."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


_POSITIVE = ("a positive number", lambda value: value > 0)
_NON_NEGATIVE = ("a non-negative number", lambda value: value >= 0)
_DELTA_RANGE = {"start": 0.1, "stop": 4.0, "step": 0.1}  # the range's defaults, and the default grid


def _integer(low):
    """An int >= ``low``; a bool is not an integer."""
    def parse(raw):
        if isinstance(raw, bool) or not isinstance(raw, int) or raw < low:
            raise ValueError(f"must be an integer >= {low}, got {raw!r}")
        return raw
    return parse


def _number(rule=("a finite number", math.isfinite)):
    """A finite float meeting ``rule`` (text, test). A numeric string counts, as PyYAML
    reads ``1e-9``, the form ``json.dumps`` writes, as ``'1e-09'``; a bool does not."""
    def parse(raw):
        try:
            value = math.nan if isinstance(raw, bool) else float(raw)
        except (TypeError, ValueError, OverflowError):
            value = math.nan
        if not (math.isfinite(value) and rule[1](value)):
            raise ValueError(f"must be {rule[0]}, got {raw!r}")
        return value
    return parse


def _one_of(choices):
    def parse(raw):
        if raw not in choices:
            raise ValueError(f"must be one of {choices}, got {raw!r}")
        return raw
    return parse


def _unique_list(item):
    """A non-empty list of ``item`` values, repeats dropped in order."""
    def parse(raw):
        if not isinstance(raw, list) or not raw:
            raise ValueError(f"must be a non-empty list, got {raw!r}")
        try:
            return tuple(dict.fromkeys(map(item, raw)))
        except ValueError as err:
            raise ValueError(f"entries {err}") from None
    return parse


def _numbers(defaults):
    """A mapping of numbers as a tuple in the order of ``defaults``, which fill in left-out keys."""
    def parse(raw):
        if not isinstance(raw, dict) or not set(raw) <= set(defaults):
            raise ValueError(f"must be a mapping of {', '.join(defaults)}, got {raw!r}")
        return tuple(_number()(raw.get(key, default)) for key, default in defaults.items())
    return parse


_couplings = _numbers({"J": 0.0, "h_x": 0.0, "h_z": 0.0})


def _delta_grid(raw):
    """Separations from a list, or from a range {start, stop, step} with both ends included."""
    if isinstance(raw, list):
        return _unique_list(_number(_NON_NEGATIVE))(raw)
    start, stop, step = _numbers(_DELTA_RANGE)(raw)
    if start < 0 or step <= 0 or stop < start:
        raise ValueError(f"needs start >= 0, step > 0 and stop >= start, got {raw!r}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(start + k * step for k in range(count))


def _sweep_values(raw):
    """Sweep values that name distinct points: each ``quench_id`` writes its value as the
    CSVs write floats."""
    values = _unique_list(_number())(raw)
    if len({_fmt(value) for value in values}) < len(values):
        raise ValueError(f"entries must differ within 15 significant digits, got {raw!r}")
    return values


def _text(raw):
    """A non-empty text; YAML null is not one, a number counts as its text."""
    if raw is None or str(raw) == "":
        raise ValueError(f"must be a non-empty text, got {raw!r}")
    return str(raw)


def _name(raw):
    """The name starts every CSV row: no comma, double quote or line break."""
    if any(char in _text(raw) for char in ',"\n\r'):
        raise ValueError(f"may not contain a comma, a double quote or a line break, got {raw!r}")
    return str(raw)


def _key(path, yaml_default, parse, **field_args):
    """A row of the config table: the YAML ``path`` (keys joined by dots) of a field,
    the YAML value that stands in for a key left out, and the parser of the value."""
    row = (tuple(path.split(".")), yaml_default, parse)
    return field(metadata={"config": row}, **field_args)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment. Its fields are the config table that ``load_config`` reads.

    A ``None`` default leaves a key required: its parser refuses ``None``. A
    config without a name takes its file's stem. Without a sweep section the
    sweep fields keep their dataclass defaults.
    """

    name: str = _key("name", None, _name)
    seed: int = _key("seed", 0, _integer(0))
    n_sites: int = _key("system.sites", None, _integer(2))
    pre: tuple = _key("quench.pre", None, _couplings)  # (J, h_x, h_z)
    post: tuple = _key("quench.post", None, _couplings)
    t_max: float = _key("quench.t_max", 20.0, _number(_POSITIVE))
    tau: float = _key("quench.tau", 0.01, _number(_POSITIVE))
    record_stride: int = _key("quench.record_stride", 10, _integer(1))
    cutoff: float = _key("truncation.cutoff", 1e-9, _number(_NON_NEGATIVE))
    chi_max: int = _key("truncation.chi_max", 50, _integer(1))
    subsystem_sizes: tuple = _key("analysis.subsystem_sizes", [1, 2, 3, 4], _unique_list(_integer(1)))
    delta_grid: tuple = _key("analysis.delta_grid", _DELTA_RANGE, _delta_grid)
    measures: tuple = _key("analysis.measures", ["td", "tvd"], _unique_list(_one_of(("td", "tvd"))))
    sweep_axis: str | None = _key("sweep.axis", None, _one_of(SWEEP_AXES), default=None)
    sweep_values: tuple = _key("sweep.values", None, _sweep_values, default=())
    output_dir: str = _key("output_dir", "out", _text, default="out")

    def pre_params(self) -> HamiltonianParams:
        return HamiltonianParams(*self.pre, self.n_sites)

    def post_params(self) -> HamiltonianParams:
        return HamiltonianParams(*self.post, self.n_sites)

    def policy(self) -> TruncationPolicy:
        return TruncationPolicy(cutoff=self.cutoff, chi_max=self.chi_max)

    def protocol(self, post: HamiltonianParams) -> QuenchProtocol:
        return QuenchProtocol(
            post=post,
            t_max=self.t_max,
            tau=self.tau,
            record_stride=self.record_stride,
            subsystem_sizes=self.subsystem_sizes,
            policy=self.policy(),
        )


def load_config(path) -> ExperimentConfig:
    """Parse and validate a YAML experiment config by the table of ``ExperimentConfig`` fields.

    Every unknown key, every field that breaks its parser's rule and every
    failed check across fields is one item of the raised ``ConfigError``.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError([f"config file not found: {path}"])
    try:
        doc = yaml.safe_load(path.read_text())
    except yaml.YAMLError as err:
        raise ConfigError([f"invalid YAML: {err}"]) from err
    if not isinstance(doc, dict):
        raise ConfigError(["config root must be a mapping"])
    doc.setdefault("name", path.stem)

    table = [(row.name, *row.metadata["config"]) for row in fields(ExperimentConfig)]
    sections = {keys[0]: doc.get(keys[0]) for _, keys, _, _ in table if len(keys) == 2}
    errors = [f"section '{key}' must be a mapping" for key, sub in sections.items()
              if not isinstance(sub, (dict, type(None)))]
    sections = {key: sub if isinstance(sub, dict) else {} for key, sub in sections.items()}
    known = {keys[:depth] for _, keys, _, _ in table for depth in (1, 2)}
    given = [(key,) for key in doc] + [(key, sub) for key, value in sections.items() for sub in value]
    errors += [f"unknown key '{'.'.join(map(str, key))}'" for key in given if key not in known]

    values = {}
    for name, keys, default, parse in table:
        if keys[0] == "sweep" and not sections["sweep"]:
            continue
        raw = (sections[keys[0]] if len(keys) == 2 else doc).get(keys[-1], default)
        try:
            values[name] = parse(raw)
        except ValueError as err:
            errors.append(f"'{'.'.join(keys)}' {err}")

    # the two checks that read more than one field run whenever their fields parsed
    if {"n_sites", "subsystem_sizes"} <= values.keys():
        cap = min(RDM_SITE_CAP, values["n_sites"])
        if max(values["subsystem_sizes"]) > cap:
            errors.append(f"'analysis.subsystem_sizes' entries must be at most {cap} (the block "
                          f"cap {RDM_SITE_CAP} and system.sites), got {values['subsystem_sizes']}")
    if {"delta_grid", "tau", "record_stride"} <= values.keys():
        spacing = values["record_stride"] * values["tau"]
        multiples = []
        for v in values["delta_grid"]:
            try:
                multiples.append(grid_offset(v, spacing))
            except ValueError as err:
                errors.append(f"'analysis.delta_grid' {err}")
        multiples = list(dict.fromkeys(multiples))
        steps = set(np.diff(multiples))  # the degree curve's extrema need a uniform grid
        if len(steps) > 1 or min(steps, default=1) < 0:
            errors.append(f"'analysis.delta_grid' must be strictly increasing and evenly "
                          f"spaced, got {list(values['delta_grid'])}")
        values["delta_grid"] = tuple(k * spacing for k in multiples)

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(**values)


# -- pipeline ----------------------------------------------------------------


def _quench_points(config: ExperimentConfig):
    """(quench_id, post params) for the base run or every sweep value."""
    if config.sweep_axis is None:
        return [(config.name, config.post_params())]
    field_name = {"post.J": "coupling", "post.h_x": "h_x", "post.h_z": "h_z"}[config.sweep_axis]
    return [(f"{config.name}:{config.sweep_axis}={_fmt(value)}",
             replace(config.post_params(), **{field_name: value})) for value in config.sweep_values]


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
    window = (float(record.times[0]), float(record.times[-1]))
    for measure in config.measures:
        for ell in config.subsystem_sizes:
            curve_degrees = []
            for delta in config.delta_grid:
                series = distance_series(record, ell, delta, measure)
                result.series_rows += [(quench_id, measure, ell, series.delta, float(t), float(v))
                                       for t, v in zip(series.times, series.values)]
                if len(series) >= 2:
                    deg = degree(series)
                    result.degree_rows.append((quench_id, measure, ell, series.delta, deg, *window))
                    curve_degrees.append(deg)
                    if len(series) >= 3:
                        rep = extrema_gaps(series.times, series.values, "minima")
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
                        smoothing_window=min(_CURVE_SMOOTHING, len(curve_degrees)),
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
    first = record.energies[0]
    drift = float(np.max(np.abs(record.energies - first)) / abs(first)) if first != 0 else 0.0
    result.aborted = record.aborted
    result.diagnostics.update(
        {
            "post": {"J": post.coupling, "h_x": post.h_x, "h_z": post.h_z},
            "ground_energy": gs.energy,
            "dmrg_converged": gs.converged,
            "dmrg_sweeps": gs.sweeps,
            "dmrg_matvecs": gs.matvecs,
            "dmrg_discarded_weight": gs.discarded_weight,
            "chi_max_reached_at": _first_time(record.times,
                                              np.asarray(record.max_bond) >= config.chi_max),
            "cutoff_exceeded_at": _first_time(record.times,
                                              record.cumulative_discarded > config.cutoff),
            "max_bond_dimension": int(max(record.max_bond)),
            "energy_drift": drift,
            "cumulative_discarded_weight": float(record.cumulative_discarded[-1]),
            "recorded_times": record.n_times,
            "achieved_t_max": float(record.times[-1]),
            "aborted": record.aborted,
            "abort_reason": record.abort_reason,
            "evolution_path": record.evolution_path,
            "wall_seconds": time.perf_counter() - start,
        }
    )
    return result


def _first_time(times, hits):
    """The first recorded time at which ``hits`` holds, or None."""
    index = np.flatnonzero(hits)
    return float(times[index[0]]) if index.size else None


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.15g}"
    return "" if value is None else str(value)


# (file name, header, PointResult attribute holding its rows)
_CSV_FILES = (
    ("series.csv", "quench_id,measure,ell,delta,t,value", "series_rows"),
    ("degrees.csv", "quench_id,measure,ell,delta,degree,window_start,window_end", "degree_rows"),
    ("timescales.csv", "quench_id,series_kind,ell,delta,mean_gap,n_extrema", "timescale_rows"),
)


def _output_dir(config: ExperimentConfig, output_dir, stale, make=True) -> Path:
    """``output_dir``, or else the config's, made if ``make`` and cleared of the files
    ``stale`` names; a path unusable as a directory is a config error that names it."""
    out = Path(output_dir if output_dir is not None else config.output_dir)
    try:
        if make:
            out.mkdir(parents=True, exist_ok=True)
        for name in stale:
            (out / name).unlink(missing_ok=True)
    except OSError as err:
        raise ConfigError([f"output directory '{out}' is not usable: {err.strerror}"]) from None
    return out


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
    With ``workers`` > 1 and more than one point, a pool of at most one process
    per point runs them.
    The manifest says ``running``, and no CSV is present, until the outputs
    are written, so a run that fails part-way never leaves an earlier run's
    success or results behind.
    """
    out = _output_dir(config, output_dir, ["manifest.json"] + [name for name, _, _ in _CSV_FILES])
    _write_manifest(out, config, "running")
    started = time.perf_counter()
    gs = ground_state(build_hamiltonian(config.pre_params()), config.policy(), seed=config.seed)
    ground_state_seconds = time.perf_counter() - started
    jobs = [(config, gs, quench_id, post) for quench_id, post in _quench_points(config)]
    if workers > 1 and len(jobs) > 1:
        from multiprocessing import Pool  # only a pooled run pays for the import

        with Pool(processes=min(workers, len(jobs))) as pool:
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
    size, for each chunk; each block size's matrices then become one stacked
    ``DensityMatrix``. A run that aborted compares what it recorded, fails and
    exits 3. A failed run leaves no report: the old one goes first, the new
    one is written atomically.
    """
    out = _output_dir(config, output_dir, ["oracle_report.json"], make=False)
    errors = []
    if config.n_sites > ORACLE_MAX_SITES:
        errors.append(f"oracle-check needs system.sites <= {ORACLE_MAX_SITES}, "
                      f"got {config.n_sites}")
    if config.sweep_axis is not None:
        errors.append(f"oracle-check compares one quench and refuses a 'sweep' section, "
                      f"got {len(config.sweep_values)} points on {config.sweep_axis}")
    if errors:
        raise ConfigError(errors)
    _output_dir(config, out, [])

    pre, post = config.pre_params(), config.post_params()
    gs = ground_state(build_hamiltonian(pre), config.policy(), seed=config.seed)
    record = evolve(gs.state, config.protocol(post))

    ref_state, ref_energy = ed_ground_state(pre)
    propagator = DensePropagator(post)
    ref_chunks = {ell: [] for ell in config.subsystem_sizes}
    for start in range(0, record.n_times, _ORACLE_CHUNK):
        psi = propagator.evolve(ref_state, record.times[start:start + _ORACLE_CHUNK])
        for ell, chunks in ref_chunks.items():
            chunks.append(ed_rdm(psi, record.rdms[ell].sites))
    ref_rdms = {ell: DensityMatrix(np.concatenate(chunks), record.rdms[ell].sites)
                for ell, chunks in ref_chunks.items()}
    rdm_dev = max((float(np.max(np.abs(ref_rdms[ell].entries - record.rdms[ell].entries)))
                   for ell in config.subsystem_sizes), default=0.0)
    ref_record = replace(record, rdms=ref_rdms)

    series_dev = 0.0
    for measure in config.measures:
        for ell in config.subsystem_sizes:
            for delta in config.delta_grid:
                mine = distance_series(record, ell, delta, measure).values
                ref = distance_series(ref_record, ell, delta, measure).values
                if len(mine):
                    series_dev = max(series_dev, float(np.max(np.abs(mine - ref))))

    energy_dev = abs(gs.energy - ref_energy)
    passed = (not record.aborted and rdm_dev <= ORACLE_RDM_TOL
              and series_dev <= ORACLE_SERIES_TOL and energy_dev <= ORACLE_ENERGY_TOL)
    report = {
        "software_version": __version__,
        "n_sites": config.n_sites,
        "max_rdm_deviation": rdm_dev,
        "max_series_deviation": series_dev,
        "ground_energy_deviation": energy_dev,
        "tolerances": {
            "rdm": ORACLE_RDM_TOL, "series": ORACLE_SERIES_TOL, "energy": ORACLE_ENERGY_TOL,
        },
        "aborted": record.aborted,
        "abort_reason": record.abort_reason,
        "achieved_t_max": float(record.times[-1]),
        "pass": passed,
    }
    _write_atomically(out / "oracle_report.json",
                      [json.dumps(report, indent=2, sort_keys=True) + "\n"])
    for key in ("max_rdm_deviation", "max_series_deviation", "ground_energy_deviation"):
        print(f"{key}: {report[key]:.3e}")
    print("oracle-check:", "PASS" if passed else "FAIL")
    if record.aborted:
        print(f"aborted at t = {report['achieved_t_max']:g}: {record.abort_reason}")
        return EXIT_NUMERICAL
    return EXIT_OK if passed else EXIT_ORACLE


def _worker_count(raw: str) -> int:
    """``--workers``: an integer >= 1; argparse exits 2 on anything else."""
    try:
        return _integer(1)(int(raw))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {raw!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinquench",
        description="Quench-dynamics pipelines for spin-1/2 chains",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a quench experiment from a config file")
    oracle_p = sub.add_parser("oracle-check",
                              help="compare the MPS pipeline against the dense reference")
    for command in (run_p, oracle_p):
        command.add_argument("config", help="path to the YAML config")
        command.add_argument("--output", default=None, help="output directory (overrides config)")
    run_p.add_argument("--workers", type=_worker_count, default=1,
                       help="sweep-point worker count (at least 1; at most one per point starts)")

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
