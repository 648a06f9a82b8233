"""Config validation, experiment runner outputs, oracle check, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from spinquench.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_ORACLE,
    ConfigError,
    _quench_points,
    load_config,
    main,
    run_oracle_check,
    run_quench_experiment,
)

BASE = """
name: demo
seed: 5
system:
  sites: 6
quench:
  pre:  {J: 0.2, h_x: 1.0, h_z: 0.0}
  post: {J: 1.0, h_x: 0.1, h_z: 0.5}
  t_max: 1.0
  tau: 0.01
  record_stride: 10
analysis:
  subsystem_sizes: [1, 2]
  delta_grid: [0.1, 0.2, 0.3]
"""


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_config_defaults(tmp_path):
    config = load_config(write_config(tmp_path, BASE))
    assert config.name == "demo"
    assert config.n_sites == 6
    assert config.pre == (0.2, 1.0, 0.0)
    assert config.post == (1.0, 0.1, 0.5)
    assert config.cutoff == 1e-9
    assert config.chi_max == 50
    assert config.sweep_axis is None and config.sweep_values == ()
    assert config.measures == ("td", "tvd")
    assert config.delta_grid == pytest.approx((0.1, 0.2, 0.3))


def test_unknown_keys_are_itemised(tmp_path):
    # the dmrg section and the smoothing windows are constants of the program
    text = (BASE.replace("analysis:\n", "analysis:\n  curve_smoothing: 2\n")
            + "\nbogus: 1\ntruncation:\n  cut: 1\ndmrg: {max_sweeps: 5}\n")
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, text))
    joined = " ".join(err.value.errors)
    assert "bogus" in joined
    assert "truncation.cut" in joined
    assert "'dmrg'" in joined
    assert "analysis.curve_smoothing" in joined


def test_off_grid_delta_rejected(tmp_path):
    text = BASE.replace("[0.1, 0.2, 0.3]", "[0.15, 0.2, 0.25]")
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, text))
    off_grid = [item for item in err.value.errors if "not a multiple" in item]
    assert len(off_grid) == 2  # every bad delta is listed
    assert "0.15" in off_grid[0] and "0.25" in off_grid[1]


def test_delta_grid_range_form(tmp_path):
    text = BASE.replace("[0.1, 0.2, 0.3]", "{start: 0.1, stop: 0.5, step: 0.1}")
    config = load_config(write_config(tmp_path, text))
    assert config.delta_grid == pytest.approx((0.1, 0.2, 0.3, 0.4, 0.5))


def test_sweep_axis_validation(tmp_path):
    text = BASE + "\nsweep:\n  axis: pre.J\n  values: [0.1]\n"
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, text))
    text = BASE + "\nsweep:\n  axis: post.h_z\n  values: [0.2, 0.7]\n"
    config = load_config(write_config(tmp_path, text))
    assert config.sweep_axis == "post.h_z"
    assert config.sweep_values == (0.2, 0.7)


def test_missing_file_is_config_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.yaml")]) == EXIT_CONFIG


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_run_produces_expected_outputs(tmp_path):
    config = load_config(write_config(tmp_path, BASE))
    out = tmp_path / "out"
    assert run_quench_experiment(config, output_dir=out) == EXIT_OK

    header, rows = read_rows(out / "series.csv")
    assert header == "quench_id,measure,ell,delta,t,value"
    assert all(row[0] == "demo" for row in rows)
    measures = {row[1] for row in rows}
    assert measures == {"td", "tvd"}
    values = np.array([float(row[5]) for row in rows])
    assert np.all(values >= -1e-12) and np.all(values <= 1 + 1e-12)

    header, rows = read_rows(out / "degrees.csv")
    assert header == "quench_id,measure,ell,delta,degree,window_start,window_end"
    assert len(rows) == 2 * 2 * 3  # measures x sizes x deltas
    assert all(float(row[4]) >= 0 for row in rows)

    header, rows = read_rows(out / "timescales.csv")
    assert header == "quench_id,series_kind,ell,delta,mean_gap,n_extrema"
    kinds = {row[1] for row in rows}
    assert "td_series_minima" in kinds and "tvd_degree_maxima" in kinds

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["software_version"]
    assert manifest["seed"] == 5
    run_info = manifest["runs"]["demo"]
    for key in ("ground_energy", "energy_drift", "max_bond_dimension",
                "cumulative_discarded_weight", "wall_seconds", "aborted"):
        assert key in run_info


def test_rerun_is_bit_identical(tmp_path):
    config = load_config(write_config(tmp_path, BASE))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_quench_experiment(config, output_dir=out_a)
    run_quench_experiment(config, output_dir=out_b)
    for name in ("series.csv", "degrees.csv", "timescales.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_failed_rerun_does_not_leave_stale_success(tmp_path, monkeypatch):
    config = load_config(write_config(tmp_path, BASE))
    out = tmp_path / "out"
    assert run_quench_experiment(config, output_dir=out) == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["status"] == "ok"

    def failing_evolve(*args, **kwargs):
        raise RuntimeError("evolution failed")

    monkeypatch.setattr("spinquench.cli.evolve", failing_evolve)
    with pytest.raises(RuntimeError):
        run_quench_experiment(config, output_dir=out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "running"
    assert manifest["seed"] == 5
    assert manifest["config"]["name"] == "demo"


def test_horizon_below_step_flags_degrees(tmp_path):
    text = BASE.replace("t_max: 1.0", "t_max: 0.005").replace(
        "[0.1, 0.2, 0.3]", "[0.0, 0.1]"
    )
    config = load_config(write_config(tmp_path, text))
    out = tmp_path / "out"
    assert run_quench_experiment(config, output_dir=out) == EXIT_OK
    _, rows = read_rows(out / "series.csv")
    assert rows  # the delta = 0 series has its single t = 0 row
    assert all(float(row[4]) == 0.0 for row in rows)
    _, degree_rows = read_rows(out / "degrees.csv")
    assert degree_rows == []
    manifest = json.loads((out / "manifest.json").read_text())
    flagged = manifest["runs"]["demo"]["degenerate_series"]
    assert len(flagged) == 2 * 2 * 2  # every (measure, ell, delta) is undefined


def test_sweep_runs_every_point(tmp_path):
    text = BASE.replace("t_max: 1.0", "t_max: 0.5") + (
        "\nsweep:\n  axis: post.h_z\n  values: [0.3, 0.6]\n"
    )
    config = load_config(write_config(tmp_path, text))
    out = tmp_path / "out"
    assert run_quench_experiment(config, workers=2, output_dir=out) == EXIT_OK
    _, rows = read_rows(out / "series.csv")
    ids = {row[0] for row in rows}
    assert ids == {"demo:post.h_z=0.3", "demo:post.h_z=0.6"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["runs"]) == ids
    assert manifest["runs"]["demo:post.h_z=0.3"]["post"]["h_z"] == 0.3


def test_abort_propagates_exit_code(tmp_path):
    text = """
name: cramped
seed: 1
system: {sites: 12}
quench:
  pre:  {J: 1.0, h_x: 0.1, h_z: 0.5}
  post: {J: 0.2, h_x: 1.0, h_z: 0.0}
  t_max: 5.0
  tau: 0.01
  record_stride: 10
truncation: {cutoff: 1.0e-9, chi_max: 2}
analysis:
  subsystem_sizes: [1]
  delta_grid: [0.1]
"""
    config = load_config(write_config(tmp_path, text))
    out = tmp_path / "out"
    assert run_quench_experiment(config, output_dir=out) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "aborted"
    assert manifest["runs"]["cramped"]["aborted"]
    assert (out / "series.csv").exists()  # partial outputs still written


def test_oracle_check_decoupled_passes(tmp_path):
    text = """
name: decoupled
seed: 2
system: {sites: 6}
quench:
  pre:  {J: 0.0, h_x: 1.0, h_z: 0.0}
  post: {J: 0.0, h_x: 0.3, h_z: 0.7}
  t_max: 1.0
  tau: 0.01
  record_stride: 10
analysis:
  subsystem_sizes: [1, 2]
  delta_grid: [0.1, 0.2]
"""
    config = load_config(write_config(tmp_path, text))
    out = tmp_path / "out"
    assert run_oracle_check(config, output_dir=out) == EXIT_OK
    report = json.loads((out / "oracle_report.json").read_text())
    assert report["pass"]
    assert report["aborted"] is False and report["abort_reason"] is None
    assert report["achieved_t_max"] == pytest.approx(1.0)
    assert report["max_rdm_deviation"] <= 1e-10
    assert report["max_series_deviation"] <= 1e-10


def test_oracle_check_production_quench_passes(tmp_path):
    text = """
name: production-small
seed: 3
system: {sites: 8}
quench:
  pre:  {J: 0.2, h_x: 1.0, h_z: 0.0}
  post: {J: 1.0, h_x: 0.1, h_z: 0.5}
  t_max: 5.0
  tau: 0.01
  record_stride: 10
analysis:
  subsystem_sizes: [1, 2, 3]
  delta_grid: [1.0, 2.0]
"""
    config = load_config(write_config(tmp_path, text))
    out = tmp_path / "out"
    assert run_oracle_check(config, output_dir=out) == EXIT_OK
    report = json.loads((out / "oracle_report.json").read_text())
    assert report["max_rdm_deviation"] <= 1e-4
    assert report["max_series_deviation"] <= 1e-4
    assert report["ground_energy_deviation"] <= 1e-8


def test_oracle_check_fails_an_aborted_run(tmp_path, capsys):
    # chi_max 8 stalls the truncation at t = 1.4 of 3.0; the part recorded
    # still agrees with the dense reference, but a cut-short run is no pass
    text = """
name: abort-oracle
system: {sites: 10}
quench: {pre: {J: 0.2, h_x: 1.0, h_z: 0.0}, post: {J: 1.0, h_x: 1.0, h_z: 0.0}, t_max: 3.0}
truncation: {cutoff: 1.0e-12, chi_max: 8}
analysis: {subsystem_sizes: [1, 2], delta_grid: {start: 0.1, stop: 0.5, step: 0.1}}
"""
    out = tmp_path / "out"
    code = main(["oracle-check", str(write_config(tmp_path, text)), "--output", str(out)])
    assert code == EXIT_NUMERICAL
    report = json.loads((out / "oracle_report.json").read_text())
    assert report["pass"] is False
    assert report["aborted"] is True
    assert report["abort_reason"].startswith("truncation budget exceeded")
    assert report["achieved_t_max"] == pytest.approx(1.4)
    stdout = capsys.readouterr().out
    assert "aborted at t = 1.4" in stdout
    assert "oracle-check: FAIL" in stdout


def test_oracle_check_negative_control_fails(tmp_path):
    text = """
name: coarse
seed: 2
system: {sites: 6}
quench:
  pre:  {J: 0.2, h_x: 1.0, h_z: 0.0}
  post: {J: 1.0, h_x: 0.1, h_z: 0.5}
  t_max: 3.0
  tau: 0.5
  record_stride: 1
analysis:
  subsystem_sizes: [1, 2]
  delta_grid: [0.5, 1.0]
"""
    config = load_config(write_config(tmp_path, text))
    out = tmp_path / "out"
    assert run_oracle_check(config, output_dir=out) == EXIT_ORACLE
    report = json.loads((out / "oracle_report.json").read_text())
    assert not report["pass"]
    assert report["max_rdm_deviation"] > 1e-4


def test_oracle_check_rejects_large_chains(tmp_path):
    text = BASE.replace("sites: 6", "sites: 12")
    config = load_config(write_config(tmp_path, text))
    with pytest.raises(ConfigError):
        run_oracle_check(config, output_dir=tmp_path / "out")


def test_oracle_check_site_cap_is_a_config_error(tmp_path, capsys):
    text = BASE.replace("sites: 6", "sites: 11")
    out = tmp_path / "out"
    assert main(["oracle-check", str(write_config(tmp_path, text)), "--output", str(out)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: oracle-check needs system.sites <= 10, got 11" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_oracle_check_refuses_a_sweep_section(tmp_path, capsys, monkeypatch):
    def no_dmrg(*args, **kwargs):
        raise AssertionError("ground_state ran before the config was refused")

    monkeypatch.setattr("spinquench.cli.ground_state", no_dmrg)
    text = BASE + "\nsweep: {axis: post.h_z, values: [0.1, 0.9]}\n"
    out = tmp_path / "out"
    assert main(["oracle-check", str(write_config(tmp_path, text)), "--output", str(out)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: oracle-check compares one quench and refuses a 'sweep' section" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_main_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "spinquench" in capsys.readouterr().out


@pytest.mark.parametrize(
    "old, new, label",
    [
        ("t_max: 1.0", "t_max: soon", "quench.t_max"),
        ("tau: 0.01", "tau: [0.01]", "quench.tau"),
        ("record_stride: 10", "record_stride: 10\ntruncation: {cutoff: tiny}", "truncation.cutoff"),
        ("t_max: 1.0", "t_max: .nan", "quench.t_max"),
        ("tau: 0.01", "tau: 0", "quench.tau"),
        ("tau: 0.01", "tau: true", "quench.tau"),
        ("seed: 5", "seed: -1", "seed"),
        ("seed: 5", "seed: true", "seed"),
        ("record_stride: 10", "record_stride: 10\ntruncation: {chi_max: true}", "truncation.chi_max"),
        ("[0.1, 0.2, 0.3]", "[-0.1, 0.1]", "analysis.delta_grid"),
        ("name: demo", 'name: "demo,x"', "name"),
        ("tau: 0.01", "tau: 5.0e-324", "analysis.delta_grid"),
        # the extrema of the degree curve need a strictly increasing, evenly spaced grid
        ("[0.1, 0.2, 0.3]", "[0.1, 0.2, 0.4]", "analysis.delta_grid"),
        ("[0.1, 0.2, 0.3]", "[0.3, 0.1, 0.2]", "analysis.delta_grid"),
        # two values that one quench_id would name
        ("record_stride: 10",
         "record_stride: 10\nsweep: {axis: post.h_z, values: [0.3, 0.30000000000000004]}",
         "sweep.values"),
    ],
)
def test_non_numeric_values_exit_with_config_error(tmp_path, capsys, old, new, label):
    text = BASE.replace(old, new)
    out = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, text)), "--output", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'{label}'" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_repeated_sweep_values_are_quenched_once(tmp_path):
    config = load_config(write_config(tmp_path, SWEEP.replace("[0.3, 0.6]", "[0.3, 0.3, 0.6, 0.3]")))
    assert config.sweep_values == (0.3, 0.6)
    out = tmp_path / "out"
    assert run_quench_experiment(config, output_dir=out) == EXIT_OK
    assert set(json.loads((out / "manifest.json").read_text())["runs"]) == {
        "demo:post.h_z=0.3", "demo:post.h_z=0.6"}
    _, rows = read_rows(out / "degrees.csv")
    assert len(rows) == len({tuple(row[:4]) for row in rows}) == 2 * 2 * 2 * 3


def test_sweep_ids_write_values_as_the_csvs_do(tmp_path):
    values = "[0.3, 0.3000001, 0.25, 1.5, 1.0e-5, 123456]"
    config = load_config(write_config(tmp_path, SWEEP.replace("[0.3, 0.6]", values)))
    ids = [quench_id for quench_id, _ in _quench_points(config)]
    assert ids == ["demo:post.h_z=0.3", "demo:post.h_z=0.3000001", "demo:post.h_z=0.25",
                   "demo:post.h_z=1.5", "demo:post.h_z=1e-05", "demo:post.h_z=123456"]


@pytest.mark.parametrize("sites, sizes", [(6, "[1, 7]"), (60, "[9]")])
def test_oversized_block_rejected_at_load(tmp_path, capsys, monkeypatch, sites, sizes):
    text = BASE.replace("sites: 6", f"sites: {sites}").replace("[1, 2]", sizes)

    def no_ground_state(*args, **kwargs):
        raise AssertionError("the config should be rejected before DMRG runs")

    monkeypatch.setattr("spinquench.cli.ground_state", no_ground_state)
    out = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, text)), "--output", str(out)]) == EXIT_CONFIG
    assert "'analysis.subsystem_sizes'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("empty", ["", '""'])
def test_null_or_empty_name_and_output_dir_are_refused(tmp_path, capsys, monkeypatch, empty):
    # null once named every CSV row and the output directory "None"; an empty
    # output_dir wrote into the working directory
    text = BASE.replace("name: demo", f"name: {empty}\noutput_dir: {empty}")
    config = write_config(tmp_path, text)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["run", str(config)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: 'name' must be a non-empty text" in err
    assert "config error: 'output_dir' must be a non-empty text" in err
    assert "Traceback" not in err
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "oracle-check"])
@pytest.mark.parametrize("below", ["", "sub"])
def test_output_path_through_a_file_is_a_config_error(tmp_path, capsys, monkeypatch, command,
                                                      below):
    def no_dmrg(*args, **kwargs):
        raise AssertionError("ground_state ran before the output path was refused")

    monkeypatch.setattr("spinquench.cli.ground_state", no_dmrg)
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    out = taken / below if below else taken
    assert main([command, str(write_config(tmp_path, BASE)), "--output", str(out)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: output directory '{out}' is not usable" in err
    assert "Traceback" not in err
    assert taken.read_text() == "a file\n"


SWEEP = BASE.replace("t_max: 1.0", "t_max: 0.5") + (
    "\nsweep:\n  axis: post.h_z\n  values: [0.3, 0.6]\n"
)


def test_failed_rerun_removes_stale_csvs(tmp_path, monkeypatch):
    config = load_config(write_config(tmp_path, BASE))
    out = tmp_path / "out"
    assert run_quench_experiment(config, output_dir=out) == EXIT_OK
    csv_names = ("series.csv", "degrees.csv", "timescales.csv")
    assert all((out / name).exists() for name in csv_names)

    def failing_evolve(*args, **kwargs):
        raise RuntimeError("evolution failed")

    with monkeypatch.context() as patch:
        patch.setattr("spinquench.cli.evolve", failing_evolve)
        with pytest.raises(RuntimeError):
            run_quench_experiment(config, output_dir=out)
    assert json.loads((out / "manifest.json").read_text())["status"] == "running"
    assert not any((out / name).exists() for name in csv_names)

    # a failure while a CSV is written leaves no file under its final name
    def failing_fmt(value):
        raise OSError("disk full")

    monkeypatch.setattr("spinquench.cli._fmt", failing_fmt)
    with pytest.raises(OSError):
        run_quench_experiment(config, output_dir=out)
    assert json.loads((out / "manifest.json").read_text())["status"] == "running"
    assert not any((out / name).exists() for name in csv_names)


def test_failed_oracle_rerun_removes_stale_report(tmp_path, monkeypatch):
    config = load_config(write_config(tmp_path, BASE))
    out = tmp_path / "out"
    report = out / "oracle_report.json"
    assert run_oracle_check(config, output_dir=out) == EXIT_OK
    assert json.loads(report.read_text())["pass"]

    def failing_ground_state(*args, **kwargs):
        raise RuntimeError("dense ground state failed")

    with monkeypatch.context() as patch:
        patch.setattr("spinquench.cli.ed_ground_state", failing_ground_state)
        with pytest.raises(RuntimeError):
            run_oracle_check(config, output_dir=out)
    assert not report.exists()

    # a failure while the report is written leaves no file under its name
    assert run_oracle_check(config, output_dir=out) == EXIT_OK

    def failing_dumps(*args, **kwargs):
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr("spinquench.cli.json.dumps", failing_dumps)
        with pytest.raises(OSError):
            run_oracle_check(config, output_dir=out)
    assert list(out.iterdir()) == []

    # so does a config the oracle refuses
    assert run_oracle_check(config, output_dir=out) == EXIT_OK
    too_big = load_config(write_config(tmp_path, BASE.replace("sites: 6", "sites: 11"), "big.yaml"))
    with pytest.raises(ConfigError):
        run_oracle_check(too_big, output_dir=out)
    assert not report.exists()


def test_failed_final_manifest_write_keeps_running_manifest(tmp_path, monkeypatch):
    resource = pytest.importorskip("resource")
    from spinquench import cli

    config = load_config(write_config(tmp_path, BASE))
    out = tmp_path / "out"
    limits = resource.getrlimit(resource.RLIMIT_FSIZE)
    real_write_csv = cli._write_csv

    # After the last CSV, cap the size of any file this process writes, so the
    # final manifest write fails part-way, as on a full disk.
    def write_csv_then_cap_file_size(path, header, rows):
        real_write_csv(path, header, rows)
        if path.name == cli._CSV_FILES[-1][0]:
            resource.setrlimit(resource.RLIMIT_FSIZE, (256, limits[1]))

    monkeypatch.setattr("spinquench.cli._write_csv", write_csv_then_cap_file_size)
    try:
        with pytest.raises(OSError):
            run_quench_experiment(config, output_dir=out)
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, limits)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "running"
    assert manifest["seed"] == 5


def test_failed_final_manifest_write_leaves_no_partial_file(tmp_path, monkeypatch):
    resource = pytest.importorskip("resource")
    from spinquench import cli

    config = load_config(write_config(tmp_path, BASE))
    out = tmp_path / "out"
    limits = resource.getrlimit(resource.RLIMIT_FSIZE)
    real_write_csv = cli._write_csv

    # As above: after the last CSV, a file-size cap makes the final manifest
    # write fail part-way.
    def write_csv_then_cap_file_size(path, header, rows):
        real_write_csv(path, header, rows)
        if path.name == cli._CSV_FILES[-1][0]:
            resource.setrlimit(resource.RLIMIT_FSIZE, (256, limits[1]))

    monkeypatch.setattr("spinquench.cli._write_csv", write_csv_then_cap_file_size)
    try:
        with pytest.raises(OSError):
            run_quench_experiment(config, output_dir=out)
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, limits)
    assert not (out / "manifest.json.partial").exists()
    assert not list(out.glob("*.partial"))
    assert json.loads((out / "manifest.json").read_text())["status"] == "running"


def test_sweep_computes_one_ground_state(tmp_path, monkeypatch):
    from spinquench import cli

    calls = []
    real_ground_state = cli.ground_state

    def counting_ground_state(*args, **kwargs):
        calls.append(args)
        return real_ground_state(*args, **kwargs)

    monkeypatch.setattr("spinquench.cli.ground_state", counting_ground_state)
    config = load_config(write_config(tmp_path, SWEEP))
    out = tmp_path / "out"
    assert run_quench_experiment(config, workers=1, output_dir=out) == EXIT_OK
    assert len(calls) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["ground_state_seconds"] > 0
    runs = manifest["runs"].values()
    assert len(runs) == 2
    assert len({run["ground_energy"] for run in runs}) == 1
    assert len({run["dmrg_sweeps"] for run in runs}) == 1


def test_worker_count_does_not_change_outputs(tmp_path):
    config = load_config(write_config(tmp_path, SWEEP))
    out_1, out_2 = tmp_path / "w1", tmp_path / "w2"
    assert run_quench_experiment(config, workers=1, output_dir=out_1) == EXIT_OK
    assert run_quench_experiment(config, workers=2, output_dir=out_2) == EXIT_OK
    for name in ("series.csv", "degrees.csv", "timescales.csv"):
        assert (out_1 / name).read_bytes() == (out_2 / name).read_bytes()


def test_pool_starts_at_most_one_worker_per_point(tmp_path, monkeypatch):
    import multiprocessing

    sizes = []

    class InProcessPool:
        """Records the pool size and maps in this process; starts no process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [fn(job) for job in jobs]

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    config = load_config(write_config(tmp_path, SWEEP))
    assert run_quench_experiment(config, workers=8, output_dir=tmp_path / "out") == EXIT_OK
    assert sizes == [2]


@pytest.mark.parametrize("workers", ["0", "-1", "two"])
def test_workers_below_one_are_refused(tmp_path, capsys, workers):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", str(write_config(tmp_path, BASE)), f"--workers={workers}",
              "--output", str(out)])
    assert exc.value.code == EXIT_CONFIG
    assert f"argument --workers: must be an integer >= 1, got '{workers}'" \
        in capsys.readouterr().err
    assert not out.exists()


def test_run_path_does_not_import_scipy():
    code = "import sys, spinquench.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    assert proc.stdout.strip() == "[]"


def test_one_worker_run_imports_neither_numpy_random_nor_multiprocessing(tmp_path):
    config, out = write_config(tmp_path, BASE), tmp_path / "out"
    code = (
        "import sys; from spinquench.cli import load_config, run_quench_experiment; "
        f"code = run_quench_experiment(load_config({str(config)!r}), workers=1, "
        f"output_dir={str(out)!r}); "
        "print(code, [m for m in ('numpy.random', 'multiprocessing') if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    assert proc.stdout.strip().splitlines()[-1] == "0 []"


def test_oracle_check_does_not_import_scipy(tmp_path):
    config = write_config(tmp_path, BASE.replace("sites: 6", "sites: 4"))
    argv = ["oracle-check", str(config), "--output", str(tmp_path / "out")]
    code = (
        "import sys; from spinquench.cli import main; "
        f"code = main({argv!r}); "
        "print(code, [m for m in sys.modules if m.startswith('scipy')])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    assert proc.stdout.strip().splitlines()[-1] == "0 []"


CRAMPED = """
name: cramped
seed: 1
system: {sites: 12}
quench:
  pre:  {J: 1.0, h_x: 0.1, h_z: 0.5}
  post: {J: 0.2, h_x: 1.0, h_z: 0.0}
  t_max: 5.0
  tau: 0.01
  record_stride: 10
truncation: {cutoff: 1.0e-9, chi_max: 2}
analysis:
  subsystem_sizes: [1]
  delta_grid: [0.1]
"""


@pytest.mark.parametrize("text, name, limited", ((BASE, "demo", False), (CRAMPED, "cramped", True)))
def test_manifest_says_where_accuracy_ends(tmp_path, text, name, limited):
    config = load_config(write_config(tmp_path, text))
    out = tmp_path / "out"
    run_quench_experiment(config, output_dir=out)
    run = json.loads((out / "manifest.json").read_text())["runs"][name]
    assert run["dmrg_converged"]
    assert isinstance(run["dmrg_matvecs"], int) and run["dmrg_matvecs"] >= 0
    if not limited:  # bonds stay far below chi_max 50, discards below the cutoff
        assert run["max_bond_dimension"] < config.chi_max
        assert run["cumulative_discarded_weight"] <= config.cutoff
        assert run["chi_max_reached_at"] is None and run["cutoff_exceeded_at"] is None
        return
    # the pre-quench ground state already fills chi_max = 2; the discards pass
    # the cutoff later, on the record grid, before the run aborts
    assert run["aborted"]
    assert run["chi_max_reached_at"] == 0.0
    exceeded = run["cutoff_exceeded_at"]
    assert 0.0 < exceeded <= run["achieved_t_max"]
    assert exceeded / 0.1 == pytest.approx(round(exceeded / 0.1), abs=1e-9)


@pytest.mark.parametrize(
    "text, name, discarded",
    ((BASE + "truncation: {cutoff: 0.0}\n", "demo", "zero"),
     (CRAMPED.replace("t_max: 5.0", "t_max: 0.2"), "cramped", "positive")),
)
def test_manifest_gives_dmrg_discarded_weight(tmp_path, text, name, discarded):
    config = load_config(write_config(tmp_path, text))
    out = tmp_path / "out"
    run_quench_experiment(config, output_dir=out)
    weight = json.loads((out / "manifest.json").read_text())["runs"][name]["dmrg_discarded_weight"]
    if discarded == "zero":  # 6 sites fit chi_max 50, and cutoff 0 drops only exact zeros
        assert weight == 0.0
    else:  # chi_max 2 binds DMRG's own splits
        assert weight > 0.0


@pytest.mark.parametrize("sites, path", ((6, "mirror-half"), (7, "full")))
def test_manifest_names_the_evolution_path(tmp_path, sites, path):
    # an even chain with a mirror-symmetric start state evolves its right half
    config = load_config(write_config(tmp_path, BASE.replace("sites: 6", f"sites: {sites}")))
    out = tmp_path / "out"
    assert run_quench_experiment(config, output_dir=out) == EXIT_OK
    run = json.loads((out / "manifest.json").read_text())["runs"]["demo"]
    assert run["evolution_path"] == path
