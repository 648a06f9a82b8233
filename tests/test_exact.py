"""Dense reference implementation: Hamiltonians, ground states, evolution, partial traces."""

import numpy as np
import pytest
import scipy.linalg as sla

from spinquench.model import SZ, HamiltonianParams, build_hamiltonian
from spinquench.exact import (
    DensePropagator,
    DenseState,
    ed_ground_state,
    ed_hamiltonian,
    ed_rdm,
)
from spinquench.mps import DensityMatrix

from helpers import partial_trace

# frozen at the first verified run of the dense solver (N=10, J=0.2, h_x=1, h_z=0)
PARAMAGNET_N10_ENERGY = -10.09017626179348


def basis_state(n_sites, index=0):
    amps = np.zeros(2**n_sites, dtype=complex)
    amps[index] = 1.0
    return DenseState(amplitudes=amps, n_sites=n_sites)


def test_hamiltonian_two_site_diagonals():
    ham = ed_hamiltonian(HamiltonianParams(1.0, 0.0, 0.0, 2))
    assert np.allclose(ham, np.diag([-1.0, 1.0, 1.0, -1.0]), atol=1e-12)
    ham = ed_hamiltonian(HamiltonianParams(0.0, 0.0, 1.0, 2))
    assert np.allclose(ham, np.diag([-2.0, 0.0, 0.0, 2.0]), atol=1e-12)


def test_hamiltonian_is_hermitian_and_capped():
    ham = ed_hamiltonian(HamiltonianParams(0.7, -0.4, 0.9, 6))
    assert np.max(np.abs(ham - ham.conj().T)) <= 1e-12
    with pytest.raises(ValueError):
        ed_hamiltonian(HamiltonianParams(1.0, 0.0, 0.0, 13))


def test_hamiltonian_matches_bond_embedding():
    rng = np.random.default_rng(21)
    params = HamiltonianParams(*rng.normal(size=3), 8)
    spec = build_hamiltonian(params)
    total = np.zeros((256, 256), dtype=complex)
    for b, term in enumerate(spec.bond_terms):
        total += np.kron(np.kron(np.eye(2**b), term), np.eye(2 ** (8 - b - 2)))
    assert np.max(np.abs(total - ed_hamiltonian(params))) <= 1e-12


@pytest.mark.parametrize("n_sites", range(1, 7))
def test_hamiltonian_matches_kron_build(n_sites):
    rng = np.random.default_rng(40 + n_sites)
    coupling, h_x, h_z = rng.normal(size=3)
    sx, sz = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])

    def on_site(op, j):
        return np.kron(np.kron(np.eye(2**j), op), np.eye(2 ** (n_sites - j - 1)))

    reference = np.zeros((2**n_sites, 2**n_sites))
    for j in range(n_sites - 1):
        reference -= coupling * on_site(sz, j) @ on_site(sz, j + 1)
    for j in range(n_sites):
        reference -= h_x * on_site(sx, j) + h_z * on_site(sz, j)
    ham = ed_hamiltonian(HamiltonianParams(coupling, h_x, h_z, n_sites))
    assert ham.dtype == np.float64
    assert np.array_equal(ham, ham.T)
    assert np.max(np.abs(ham - reference)) <= 1e-12


def test_ground_state_decoupled_transverse():
    state, energy = ed_ground_state(HamiltonianParams(0.0, 1.0, 0.0, 4))
    assert energy == pytest.approx(-4.0, abs=1e-10)
    assert np.allclose(state.amplitudes, np.full(16, 0.25), atol=1e-8)


def test_ground_state_classical_limit():
    state, energy = ed_ground_state(HamiltonianParams(1.0, 0.0, 0.5, 6))
    assert energy == pytest.approx(-8.0, abs=1e-10)
    assert abs(state.amplitudes[0]) == pytest.approx(1.0, abs=1e-8)


def test_ground_state_regression_value():
    _, energy = ed_ground_state(HamiltonianParams(0.2, 1.0, 0.0, 10))
    assert energy == pytest.approx(PARAMAGNET_N10_ENERGY, abs=1e-9)


def test_ground_state_phase_convention():
    state, _ = ed_ground_state(HamiltonianParams(0.2, 1.0, 0.0, 6))
    first = state.amplitudes[np.argmax(np.abs(state.amplitudes) > 1e-8)]
    assert first.real > 0
    assert abs(first.imag) <= 1e-10


def test_evolve_zero_time_and_norm():
    rng = np.random.default_rng(3)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    state = DenseState(amplitudes=amps, n_sites=4)
    out = DensePropagator(HamiltonianParams(1.0, 0.3, 0.1, 4)).evolve(state, 0.0)
    assert np.max(np.abs(out.amplitudes - amps)) <= 1e-12
    out = DensePropagator(HamiltonianParams(1.0, 0.3, 0.1, 4)).evolve(state, 2.7)
    assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_single_spin_rotation():
    params = HamiltonianParams(0.0, 1.0, 0.0, 1)
    state = basis_state(1)
    for t in (0.1, 0.5, 1.3):
        evolved = DensePropagator(params).evolve(state, t)
        sz = np.real(evolved.amplitudes.conj() @ (SZ @ evolved.amplitudes))
        assert sz == pytest.approx(np.cos(2 * t), abs=1e-12)


def test_evolve_matches_independent_exponential():
    params = HamiltonianParams(1.0, 0.3, 0.0, 2)
    rng = np.random.default_rng(4)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    state = DenseState(amplitudes=amps, n_sites=2)
    evolved = DensePropagator(params).evolve(state, 1.0)
    reference = sla.expm(-1j * ed_hamiltonian(params)) @ amps
    assert np.max(np.abs(evolved.amplitudes - reference)) <= 1e-10


def test_evolution_group_property_and_energy_conservation():
    params = HamiltonianParams(0.8, 0.6, 0.2, 5)
    propagator = DensePropagator(params)
    rng = np.random.default_rng(5)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    amps /= np.linalg.norm(amps)
    state = DenseState(amplitudes=amps, n_sites=5)
    one_shot = propagator.evolve(state, 1.7)
    two_step = propagator.evolve(propagator.evolve(state, 0.9), 0.8)
    assert np.max(np.abs(one_shot.amplitudes - two_step.amplitudes)) <= 1e-10
    ham = ed_hamiltonian(params)

    def energy(psi):
        return np.vdot(psi.amplitudes, ham @ psi.amplitudes).real

    assert energy(one_shot) == pytest.approx(energy(state), abs=1e-10)


def test_evolve_stacks_times_in_one_product():
    params = HamiltonianParams(1.0, 0.1, 0.5, 8)
    state, _ = ed_ground_state(HamiltonianParams(0.2, 1.0, 0.0, 8))
    propagator = DensePropagator(params)
    times = 0.37 * np.arange(11)
    stacked = propagator.evolve(state, times)
    assert stacked.amplitudes.shape == (11, 256)
    for k, t in enumerate(times):
        single = propagator.evolve(state, t).amplitudes
        assert np.max(np.abs(stacked.amplitudes[k] - single)) <= 1e-14
    with pytest.raises(ValueError, match="single state"):
        propagator.evolve(stacked, 1.0)
    with pytest.raises(ValueError, match="finite"):
        propagator.evolve(state, [0.0, np.inf])


def test_rdm_of_stacked_states_matches_each_state():
    rng = np.random.default_rng(7)
    amps = rng.normal(size=(6, 2**7)) + 1j * rng.normal(size=(6, 2**7))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    for sites in ((0,), (2, 3, 4), (5, 6)):
        stacked = ed_rdm(DenseState(amplitudes=amps, n_sites=7), sites)
        assert stacked.shape == (6, 2 ** len(sites), 2 ** len(sites))
        DensityMatrix(entries=stacked, sites=sites)  # a valid stack of states
        for k in range(6):
            single = ed_rdm(DenseState(amplitudes=amps[k], n_sites=7), sites)
            assert np.max(np.abs(stacked[k] - single)) <= 1e-14


def test_rdm_product_state_is_pure():
    state = basis_state(6, index=0b101010)
    dm = DensityMatrix(entries=ed_rdm(state, (1, 2, 3))[None], sites=(1, 2, 3))
    purity = np.real(np.trace(dm.entries[0] @ dm.entries[0]))
    assert purity == pytest.approx(1.0, abs=1e-12)


def test_rdm_ghz_inner_block():
    amps = np.zeros(16, dtype=complex)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    rho = ed_rdm(DenseState(amplitudes=amps, n_sites=4), (1, 2))
    assert np.max(np.abs(rho - np.diag([0.5, 0, 0, 0.5]))) <= 1e-12


def test_rdm_axioms_on_evolved_state():
    params = HamiltonianParams(1.0, 0.1, 0.5, 10)
    state, _ = ed_ground_state(HamiltonianParams(0.2, 1.0, 0.0, 10))
    evolved = DensePropagator(params).evolve(state, 3.0)
    dm = DensityMatrix(entries=ed_rdm(evolved, (3, 4, 5, 6))[None], sites=(3, 4, 5, 6))
    assert abs(np.trace(dm.entries[0]) - 1.0) <= 1e-12
    assert np.min(dm.spectrum()) >= -1e-12


def test_rdm_nested_consistency():
    rng = np.random.default_rng(6)
    amps = rng.normal(size=2**7) + 1j * rng.normal(size=2**7)
    amps /= np.linalg.norm(amps)
    state = DenseState(amplitudes=amps, n_sites=7)
    big = DensityMatrix(entries=ed_rdm(state, (2, 3, 4, 5))[None], sites=(2, 3, 4, 5))
    small = ed_rdm(state, (3, 4))
    assert np.max(np.abs(partial_trace(big, (3, 4)).entries[0] - small)) <= 1e-12


def test_rdm_invalid_ranges():
    state = basis_state(5)
    with pytest.raises(ValueError):
        ed_rdm(state, (3, 5))
    with pytest.raises(ValueError):
        ed_rdm(state, (4, 5))
    with pytest.raises(ValueError):
        ed_rdm(state, ())
