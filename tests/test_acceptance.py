"""Acceptance suite: every criterion at its stated tolerance.

The heavy N=60 runs are shared session fixtures; expect a few minutes of
wall time for the whole module. Each criterion records a PASS/FAIL line
that the terminal-summary hook in conftest.py prints at the end.
"""

import time

import numpy as np
import pytest

from spinquench.model import HamiltonianParams, build_hamiltonian
from spinquench.mps import DensityMatrix, TruncationPolicy
from spinquench.dmrg import ground_state
from spinquench.tebd import EvolutionRecord, QuenchProtocol, evolve, grid_offset
from spinquench.analysis import (
    distance_series,
    extrema_gaps,
    total_variation_distance,
    trace_distance,
)
from spinquench.exact import DensePropagator, ed_ground_state, ed_rdm

from helpers import degree_curve

ACCEPTANCE_RESULTS = {}

PARA = (0.2, 1.0, 0.0)
FERRO = (1.0, 0.1, 0.5)
POLICY = TruncationPolicy(cutoff=1e-9, chi_max=50)
DELTA_GRID = tuple(np.round(np.arange(0.1, 4.0 + 1e-9, 0.1), 10))
SIZES = (1, 2, 3, 4)


def record_result(number, passed, detail):
    ACCEPTANCE_RESULTS[number] = ("PASS" if passed else "FAIL", detail)
    assert passed, f"criterion {number}: {detail}"


def params(triple, n_sites):
    return HamiltonianParams(*triple, n_sites)


def run_quench(pre, post, n_sites, t_max, tau=0.01, sizes=SIZES, seed=3):
    stride = int(round(0.1 / tau))
    gs = ground_state(build_hamiltonian(params(pre, n_sites)), seed=seed)
    protocol = QuenchProtocol(
        post=params(post, n_sites), t_max=t_max, tau=tau,
        record_stride=stride, subsystem_sizes=sizes, policy=POLICY,
    )
    return gs, evolve(gs.state, protocol)


@pytest.fixture(scope="session")
def headline_records():
    """Both quench directions at N=60, tau=0.01, t <= 20 (criteria 5-11)."""
    runs = {}
    t0 = time.perf_counter()
    _, runs["pf"] = run_quench(PARA, FERRO, 60, 20.0)
    _, runs["fp"] = run_quench(FERRO, PARA, 60, 20.0)
    runs["wall"] = time.perf_counter() - t0
    return runs


@pytest.fixture(scope="session")
def halved_step_record():
    """Para->ferro at N=60 with tau=0.002 on the same recording grid (criterion 11)."""
    _, record = run_quench(PARA, FERRO, 60, 20.0, tau=0.002)
    return record


def oracle_deviations(n_sites, t_max=5.0):
    """Max RDM/series/energy deviation between the MPS and dense pipelines."""
    sizes = (1, 2, 3)
    gs, record = run_quench(PARA, FERRO, n_sites, t_max, sizes=sizes)
    ref_state, ref_energy = ed_ground_state(params(PARA, n_sites))
    propagator = DensePropagator(params(FERRO, n_sites))
    ref_entries = {ell: [] for ell in sizes}
    rdm_dev = 0.0
    for k, t in enumerate(record.times):
        psi = propagator.evolve(ref_state, float(t))
        for ell in sizes:
            rho = ed_rdm(psi, record.rdms[ell].sites)
            ref_entries[ell].append(rho)
            rdm_dev = max(rdm_dev, float(np.max(np.abs(rho - record.rdms[ell].entries[k]))))
    ref_rdms = {
        ell: DensityMatrix(entries=np.array(rows), sites=record.rdms[ell].sites)
        for ell, rows in ref_entries.items()
    }
    ref_record = EvolutionRecord(
        times=record.times, spacing=record.spacing, rdms=ref_rdms,
        energies=record.energies, max_bond=record.max_bond,
        cumulative_discarded=record.cumulative_discarded,
    )
    series_dev = 0.0
    for measure in ("td", "tvd"):
        for ell in sizes:
            for delta in DELTA_GRID:
                mine = distance_series(record, ell, delta, measure).values
                ref = distance_series(ref_record, ell, delta, measure).values
                series_dev = max(series_dev, float(np.max(np.abs(mine - ref))))
    energy_dev = abs(gs.energy - ref_energy)
    return rdm_dev, series_dev, energy_dev


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    worst = {"rdm": 0.0, "series": 0.0, "energy": 0.0}
    for n_sites in (8, 10):
        rdm_dev, series_dev, energy_dev = oracle_deviations(n_sites)
        worst["rdm"] = max(worst["rdm"], rdm_dev)
        worst["series"] = max(worst["series"], series_dev)
        worst["energy"] = max(worst["energy"], energy_dev)
    wall = time.perf_counter() - t0
    passed = worst["rdm"] <= 1e-4 and worst["series"] <= 1e-4
    record_result(
        1, passed,
        f"oracle equivalence at N=8,10 (t<=5): rdm dev {worst['rdm']:.2e}, "
        f"series dev {worst['series']:.2e} (tol 1e-4), wall {wall:.0f}s",
    )


def test_criterion_2_ground_state_correctness():
    worst_dense = 0.0
    for triple in (PARA, FERRO):
        for n_sites in (8, 10, 12):
            result = ground_state(build_hamiltonian(params(triple, n_sites)), seed=3)
            _, reference = ed_ground_state(params(triple, n_sites))
            worst_dense = max(worst_dense, abs(result.energy - reference))
    decoupled = ground_state(build_hamiltonian(HamiltonianParams(0.0, 1.0, 0.0, 20)), seed=3)
    classical = ground_state(build_hamiltonian(HamiltonianParams(1.0, 0.0, 0.5, 10)), seed=3)
    analytic_dev = max(abs(decoupled.energy + 20.0), abs(classical.energy + 14.0))
    passed = worst_dense <= 1e-8 and analytic_dev <= 1e-10
    record_result(
        2, passed,
        f"DMRG vs dense dev {worst_dense:.2e} (tol 1e-8); analytic dev {analytic_dev:.2e} (tol 1e-10)",
    )


def test_criterion_3_distance_axioms():
    rng = np.random.default_rng(1234)
    worst_symmetry = worst_triangle = worst_bound = 0.0
    worst_range = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 17))
        mats = []
        for _ in range(3):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = m @ m.conj().T
            mats.append(rho / np.trace(rho))
        rho, sigma, chi = mats
        td = trace_distance(rho, sigma)
        tvd = total_variation_distance(rho, sigma)
        worst_range = max(worst_range, -td, td - 1.0, -tvd, tvd - 1.0)
        worst_symmetry = max(worst_symmetry, abs(td - trace_distance(sigma, rho)))
        worst_triangle = max(
            worst_triangle, td - trace_distance(rho, chi) - trace_distance(chi, sigma)
        )
        worst_bound = max(worst_bound, tvd - td)
    passed = (
        worst_range <= 1e-12
        and worst_symmetry <= 1e-12
        and worst_triangle <= 1e-10
        and worst_bound <= 1e-10
    )
    record_result(
        3, passed,
        f"1000 random pairs/triples dims 2-16: range slack {worst_range:.1e}, symmetry "
        f"{worst_symmetry:.1e}, triangle {worst_triangle:.1e}, tvd-td {worst_bound:.1e}",
    )


def test_criterion_4_markovian_null():
    paulis = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    bloch = np.array([0.4, -0.3, 0.5])
    spacing, n_times, gamma = 0.1, 201, 0.6
    times = np.arange(n_times) * spacing
    entries = []
    for t in times:
        r = bloch * np.exp(-gamma * t)
        entries.append(0.5 * (np.eye(2, dtype=complex) + sum(c * p for c, p in zip(r, paulis))))
    record = EvolutionRecord(
        times=times, spacing=spacing,
        rdms={1: DensityMatrix(entries=np.array(entries), sites=(0,))},
        energies=np.zeros(n_times), max_bond=[1] * n_times,
        cumulative_discarded=np.zeros(n_times),
    )
    largest = float(np.max(degree_curve(record, 1, DELTA_GRID, "td")))
    record_result(
        4, largest == 0.0,
        f"depolarizing semigroup: max TD-degree over default grid {largest:.1e} (must be 0)",
    )


def mean_degrees(record, measure):
    return {ell: float(degree_curve(record, ell, DELTA_GRID, measure).mean()) for ell in SIZES}


def test_criterion_5_directional_asymmetry(headline_records):
    forward = mean_degrees(headline_records["pf"], "td")
    backward = mean_degrees(headline_records["fp"], "td")
    ratios = {ell: forward[ell] / backward[ell] for ell in SIZES}
    passed = all(r >= 10.0 for r in ratios.values())
    detail = ", ".join(f"l={ell}: {r:.0f}x" for ell, r in ratios.items())
    runs = ", ".join(
        f"{label} aborted={record.aborted} last t={record.times[-1]:.1f}"
        for label, record in (("para->ferro", headline_records["pf"]),
                              ("ferro->para", headline_records["fp"]))
    )
    record_result(
        5, passed,
        f"TD-degree para->ferro vs ferro->para at N=60, t<=20 (need >=10x): {detail}; "
        f"{runs}; simulation wall {headline_records['wall']:.0f}s",
    )


def test_criterion_6_subsystem_ordering(headline_records):
    means = mean_degrees(headline_records["pf"], "td")
    passed = means[1] > means[3] and means[1] > means[4]
    record_result(
        6, passed,
        "mean TD-degree by subsystem size (para->ferro): "
        + ", ".join(f"l={ell}: {means[ell]:.2f}" for ell in SIZES),
    )


def test_criterion_7_contractivity_ordering(headline_records):
    worst = -np.inf
    for record in (headline_records["pf"], headline_records["fp"]):
        for delta in (1.0, 2.0):
            offset = grid_offset(delta, record.spacing)
            for k in range(record.n_times - offset):
                tds = [
                    trace_distance(record.rdms[ell].entries[k + offset],
                                   record.rdms[ell].entries[k])
                    for ell in SIZES
                ]
                worst = max(worst, max(s - b for s, b in zip(tds[:-1], tds[1:])))
    record_result(
        7, worst <= 1e-10,
        f"TD ordering l=4 >= l=3 >= l=2 >= l=1 at every t, delta in {{1,2}}, both "
        f"directions: worst violation {worst:.1e} (tol 1e-10)",
    )


def test_criterion_8_tvd_timescale(headline_records):
    gaps = {}
    for ell in SIZES:
        for delta in (1.0, 2.0):
            series = distance_series(headline_records["pf"], ell, delta, "tvd")
            report = extrema_gaps(series.times, series.values, "minima", smoothing_window=1)
            assert report.mean_gap is not None
            gaps[(ell, delta)] = report.mean_gap
    values = list(gaps.values())
    spread = max(values) - min(values)
    passed = all(0.70 <= g <= 0.86 for g in values) and spread <= 0.1
    record_result(
        8, passed,
        f"TVD-vs-t minima gaps in [{min(values):.3f}, {max(values):.3f}] "
        f"(need within [0.70, 0.86]), spread {spread:.3f} (tol 0.1)",
    )


def test_criterion_9_degree_curve_timescale(headline_records):
    locations = {}
    mean_gaps = {}
    for ell in (2, 3, 4):
        curve = degree_curve(headline_records["pf"], ell, DELTA_GRID, "tvd")
        report = extrema_gaps(np.asarray(DELTA_GRID), curve, "maxima", smoothing_window=3)
        assert report.mean_gap is not None
        locations[ell] = report.locations
        mean_gaps[ell] = report.mean_gap
    spacing_ok = all(1.4 <= g <= 1.8 for g in mean_gaps.values())
    alignment = 0.0
    for a in (2, 3, 4):
        for b in (2, 3, 4):
            common = min(len(locations[a]), len(locations[b]))
            alignment = max(
                alignment,
                float(np.max(np.abs(locations[a][:common] - locations[b][:common]))),
            )
    passed = spacing_ok and alignment <= 0.2
    record_result(
        9, passed,
        f"D1(delta) maxima spacing {sorted(set(round(g, 3) for g in mean_gaps.values()))} "
        f"(need [1.4, 1.8]); cross-size location mismatch {alignment:.2f} (tol 0.2)",
    )


def test_criterion_10_tvd_degree_ratio(headline_records):
    forward = mean_degrees(headline_records["pf"], "tvd")
    backward = mean_degrees(headline_records["fp"], "tvd")
    ratios = {ell: forward[ell] / backward[ell] for ell in SIZES}
    passed = min(ratios.values()) >= 8.0
    detail = ", ".join(f"l={ell}: {r:.0f}x" for ell, r in ratios.items())
    record_result(10, passed, f"TVD-degree ratio para->ferro vs ferro->para (need >=8x): {detail}")


def test_criterion_11_numerical_robustness(headline_records, halved_step_record):
    drifts = []
    for record in (headline_records["pf"], headline_records["fp"]):
        drifts.append(
            float(np.max(np.abs(record.energies - record.energies[0])) / abs(record.energies[0]))
        )
    base = headline_records["pf"]
    halved = halved_step_record
    worst_change = 0.0
    for measure in ("td", "tvd"):
        for ell in SIZES:
            for delta in DELTA_GRID:
                a = distance_series(base, ell, delta, measure).values
                b = distance_series(halved, ell, delta, measure).values
                n = min(len(a), len(b))
                worst_change = max(worst_change, float(np.max(np.abs(a[:n] - b[:n]))))
    passed = max(drifts) <= 1e-3 and worst_change < 1e-3
    record_result(
        11, passed,
        f"energy drift {max(drifts):.1e} (tol 1e-3); max series change tau 0.01 vs 0.002 "
        f"{worst_change:.1e} (tol 1e-3)",
    )
