"""Distance measures, series statistics, revival degrees, extrema timescales."""

import numpy as np
import pytest

from spinquench.dmrg import ground_state
from spinquench.model import HamiltonianParams, build_hamiltonian
from spinquench.mps import DensityMatrix, TruncationPolicy
from spinquench.tebd import EvolutionRecord, QuenchProtocol, evolve
from spinquench.analysis import (
    DistanceSeries,
    degree,
    distance_series,
    extrema_gaps,
    slope_series,
    total_variation_distance,
    trace_distance,
)

from helpers import degree_curve

UP = np.array([[1, 0], [0, 0]], dtype=complex)
DOWN = np.array([[0, 0], [0, 1]], dtype=complex)
MIXED = np.eye(2, dtype=complex) / 2


def random_density_matrix(rng, dim):
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = mat @ mat.conj().T
    return rho / np.trace(rho)


def make_record(rdm_entries, spacing=0.1, ell=1, sites=(0,)):
    n = len(rdm_entries)
    times = np.arange(n) * spacing
    rdms = {ell: DensityMatrix(entries=np.array(rdm_entries), sites=sites)}
    return EvolutionRecord(
        times=times, spacing=spacing, rdms=rdms,
        energies=np.zeros(n), max_bond=[1] * n, cumulative_discarded=np.zeros(n),
    )


def depolarizing_record(gamma=0.7, spacing=0.1, n_times=201):
    """One qubit whose Bloch vector contracts as exp(-gamma t): Markovian by construction."""
    bloch = np.array([0.3, -0.4, 0.6])
    paulis = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    entries = []
    for k in range(n_times):
        r = bloch * np.exp(-gamma * k * spacing)
        rho = 0.5 * (np.eye(2, dtype=complex) + sum(c * p for c, p in zip(r, paulis)))
        entries.append(rho)
    return make_record(entries)


def test_trace_distance_reference_points():
    assert trace_distance(UP, UP) == pytest.approx(0.0, abs=1e-15)
    assert trace_distance(UP, DOWN) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(UP, MIXED) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        trace_distance(UP, np.eye(4) / 4)
    with pytest.raises(ValueError):
        trace_distance(UP[None], DOWN[None])  # two matrices, not stacks


def test_tvd_reference_points():
    assert total_variation_distance(UP, UP) == pytest.approx(0.0, abs=1e-15)
    assert total_variation_distance(UP, MIXED) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        total_variation_distance(UP, np.eye(4) / 4)


def test_distance_axioms_on_random_states():
    rng = np.random.default_rng(17)
    for _ in range(200):
        dim = int(rng.integers(2, 17))
        rho, sigma, chi = (random_density_matrix(rng, dim) for _ in range(3))
        td = trace_distance(rho, sigma)
        assert -1e-12 <= td <= 1 + 1e-12
        assert abs(td - trace_distance(sigma, rho)) <= 1e-12
        assert td <= trace_distance(rho, chi) + trace_distance(chi, sigma) + 1e-10
        tvd = total_variation_distance(rho, sigma)
        assert -1e-12 <= tvd <= 1 + 1e-12
        assert tvd <= td + 1e-10  # sorted-spectrum l1 is bounded by the trace norm


@pytest.fixture(scope="module")
def quench_record():
    """Para -> ferro quench on 8 sites, blocks of 1-3 sites, 21 snapshots."""
    pre = HamiltonianParams(0.2, 1.0, 0.0, 8)
    post = HamiltonianParams(1.0, 0.1, 0.5, 8)
    gs = ground_state(build_hamiltonian(pre), seed=4)
    protocol = QuenchProtocol(
        post=post, t_max=2.0, tau=0.01, record_stride=10,
        subsystem_sizes=(1, 2, 3), policy=TruncationPolicy(1e-9, 50),
    )
    return evolve(gs.state, protocol)


def test_batched_series_equals_pairwise_loop(quench_record):
    record = quench_record
    pairwise = {"td": trace_distance, "tvd": total_variation_distance}
    for measure, fn in pairwise.items():
        for ell in (1, 2, 3):
            rdms = record.rdms[ell].entries
            for offset in (0, 7, record.n_times + 2):
                series = distance_series(record, ell, offset * record.spacing, measure)
                loop = np.array(
                    [fn(rdms[k + offset], rdms[k]) for k in range(len(rdms) - offset)]
                )
                assert np.array_equal(series.values, loop)
                assert len(series) == max(record.n_times - offset, 0)


def test_density_matrix_spectrum_is_cached_and_read_only(quench_record):
    stack = quench_record.rdms[3]
    spectrum = stack.spectrum()
    assert spectrum is stack.spectrum()
    for k in range(0, len(stack), 5):
        assert np.array_equal(spectrum[k], np.linalg.eigvalsh(stack.entries[k]))
    assert not spectrum.flags.writeable


def test_tvd_rejects_spectrum_without_weight():
    zero = np.zeros((2, 2), dtype=complex)
    with pytest.raises(ValueError, match="no positive weight"):
        total_variation_distance(UP, zero)


def test_series_zero_separation_is_zero():
    rng = np.random.default_rng(18)
    record = make_record([random_density_matrix(rng, 2) for _ in range(20)])
    series = distance_series(record, 1, 0.0, "td")
    assert len(series) == 20
    assert np.max(series.values) <= 1e-12


def test_series_stationary_record_is_zero():
    rho = np.diag([0.6, 0.4]).astype(complex)
    record = make_record([rho.copy() for _ in range(15)])
    for measure in ("td", "tvd"):
        series = distance_series(record, 1, 0.3, measure)
        assert np.max(series.values) <= 1e-12
        assert len(series) == 12


def test_series_rejects_off_grid_delta_and_unknown_ell():
    rng = np.random.default_rng(19)
    record = make_record([random_density_matrix(rng, 2) for _ in range(10)])
    with pytest.raises(ValueError):
        distance_series(record, 1, 0.25, "td")
    with pytest.raises(ValueError):
        distance_series(record, 2, 0.2, "td")
    with pytest.raises(ValueError):
        distance_series(record, 1, 0.2, "fidelity")


def make_series(values, spacing=0.01):
    values = np.asarray(values, dtype=float)
    return DistanceSeries(
        measure="td", ell=1, delta=0.1,
        times=np.arange(len(values)) * spacing, values=values,
    )


def test_slope_reference_points():
    assert np.allclose(slope_series(make_series([0.4] * 5)), 0.0)
    assert np.allclose(slope_series(make_series([0.5, 0.3])), [-20.0])
    slopes = slope_series(make_series([0.9, 0.7, 0.4, 0.2]))
    assert np.all(slopes < 0)


def test_slope_validates_step_and_length():
    with pytest.raises(ValueError):
        slope_series(make_series([0.5]))
    # the step is the series' own spacing
    assert np.allclose(slope_series(make_series([0.5, 0.4], spacing=0.02)), [-5.0])


def test_degree_reference_points():
    assert degree(make_series([0.5, 0.4, 0.3, 0.2])) == 0.0
    assert degree(make_series([0.5, 0.3, 0.4, 0.2])) == pytest.approx(10.0, abs=1e-9)


def test_degree_ignores_noise_level_increases():
    values = [0.5, 0.4999999999999999, 0.5 - 1e-15, 0.4]
    assert degree(make_series(values)) == 0.0


def test_degree_curve_stationary_and_single_point():
    rho = np.diag([0.8, 0.2]).astype(complex)
    record = make_record([rho.copy() for _ in range(30)])
    assert np.allclose(degree_curve(record, 1, [0.1, 0.2, 0.3], "td"), 0.0)
    single = degree_curve(record, 1, [0.5], "tvd")
    assert len(single) == 1
    assert single[0] == 0.0


def test_markovian_semigroup_has_zero_degree_everywhere():
    record = depolarizing_record()
    grid = np.round(np.arange(0.1, 4.0 + 1e-9, 0.1), 10)
    assert np.max(degree_curve(record, 1, grid, "td")) == 0.0


def test_series_range_invariant_on_random_records():
    rng = np.random.default_rng(23)
    record = make_record([random_density_matrix(rng, 4) for _ in range(50)],
                         ell=2, sites=(0, 1))
    for measure in ("td", "tvd"):
        for delta in (0.1, 0.5, 1.0):
            series = distance_series(record, 2, delta, measure)
            assert np.min(series.values) >= -1e-12
            assert np.max(series.values) <= 1 + 1e-12
            assert degree(series) >= 0.0


def test_extrema_on_sine_wave():
    period = 2.0
    xs = np.arange(0, 10, 0.05)
    ys = np.sin(2 * np.pi * xs / period)
    report = extrema_gaps(xs, ys, "maxima")
    assert report.mean_gap == pytest.approx(period, abs=0.05)
    report = extrema_gaps(xs, ys, "minima")
    assert report.mean_gap == pytest.approx(period, abs=0.05)


def test_extrema_monotone_series_is_flagged():
    xs = np.arange(0, 1, 0.1)
    report = extrema_gaps(xs, xs**2, "maxima")
    assert report.n_extrema == 0
    assert report.mean_gap is None


def test_extrema_endpoints_never_counted():
    xs = np.arange(5.0)
    ys = np.array([3.0, 1.0, 2.0, 1.5, 4.0])  # ends are the global extrema
    report = extrema_gaps(xs, ys, "maxima")
    assert list(report.locations) == [2.0]


def test_extrema_smoothing_removes_jitter():
    xs = np.arange(0, 20, 0.1)
    rng = np.random.default_rng(29)
    ys = np.sin(2 * np.pi * xs / 4.0) + 0.02 * rng.normal(size=len(xs))
    noisy = extrema_gaps(xs, ys, "maxima", smoothing_window=1)
    smoothed = extrema_gaps(xs, ys, "maxima", smoothing_window=7)
    assert smoothed.n_extrema <= noisy.n_extrema
    assert smoothed.mean_gap == pytest.approx(4.0, abs=0.2)


def test_extrema_input_validation():
    xs = np.arange(4.0)
    with pytest.raises(ValueError):
        extrema_gaps(xs, xs, "peaks")
    with pytest.raises(ValueError):
        extrema_gaps(xs[:2], xs[:2], "maxima")
    with pytest.raises(ValueError):
        extrema_gaps(np.array([0, 1, 3.0, 4]), np.zeros(4), "maxima")
    with pytest.raises(ValueError):
        extrema_gaps(xs, xs, "maxima", smoothing_window=0)


def test_series_validation():
    with pytest.raises(ValueError):
        DistanceSeries(measure="td", ell=1, delta=0.1,
                       times=np.array([0.0, 0.1]), values=np.array([0.5]))
    with pytest.raises(ValueError):
        DistanceSeries(measure="td", ell=1, delta=0.1,
                       times=np.array([0.0, 0.1]), values=np.array([0.5, 1.5]))
