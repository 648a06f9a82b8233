"""Dense reference implementation: Hamiltonians, ground states, evolution, partial traces."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sla

from spinquench.model import SZ, HamiltonianParams, build_hamiltonian
from spinquench.exact import (
    DensePropagator,
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
    return amps


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
    assert np.allclose(state, np.full(16, 0.25), atol=1e-8)


def test_ground_state_classical_limit():
    state, energy = ed_ground_state(HamiltonianParams(1.0, 0.0, 0.5, 6))
    assert energy == pytest.approx(-8.0, abs=1e-10)
    assert abs(state[0]) == pytest.approx(1.0, abs=1e-8)


def test_ground_state_regression_value():
    _, energy = ed_ground_state(HamiltonianParams(0.2, 1.0, 0.0, 10))
    assert energy == pytest.approx(PARAMAGNET_N10_ENERGY, abs=1e-9)


def test_ground_state_phase_convention():
    state, _ = ed_ground_state(HamiltonianParams(0.2, 1.0, 0.0, 6))
    first = state[np.argmax(np.abs(state) > 1e-8)]
    assert first.real > 0
    assert abs(first.imag) <= 1e-10


def test_evolve_zero_time_and_norm():
    rng = np.random.default_rng(3)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    out = DensePropagator(HamiltonianParams(1.0, 0.3, 0.1, 4)).evolve(amps, 0.0)
    assert np.max(np.abs(out - amps)) <= 1e-12
    out = DensePropagator(HamiltonianParams(1.0, 0.3, 0.1, 4)).evolve(amps, 2.7)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_single_spin_rotation():
    params = HamiltonianParams(0.0, 1.0, 0.0, 1)
    state = basis_state(1)
    for t in (0.1, 0.5, 1.3):
        evolved = DensePropagator(params).evolve(state, t)
        sz = np.real(evolved.conj() @ (SZ @ evolved))
        assert sz == pytest.approx(np.cos(2 * t), abs=1e-12)


def test_evolve_matches_independent_exponential():
    params = HamiltonianParams(1.0, 0.3, 0.0, 2)
    rng = np.random.default_rng(4)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    evolved = DensePropagator(params).evolve(amps, 1.0)
    reference = sla.expm(-1j * ed_hamiltonian(params)) @ amps
    assert np.max(np.abs(evolved - reference)) <= 1e-10


def test_evolution_group_property_and_energy_conservation():
    params = HamiltonianParams(0.8, 0.6, 0.2, 5)
    propagator = DensePropagator(params)
    rng = np.random.default_rng(5)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    amps /= np.linalg.norm(amps)
    one_shot = propagator.evolve(amps, 1.7)
    two_step = propagator.evolve(propagator.evolve(amps, 0.9), 0.8)
    assert np.max(np.abs(one_shot - two_step)) <= 1e-10
    ham = ed_hamiltonian(params)

    def energy(psi):
        return np.vdot(psi, ham @ psi).real

    assert energy(one_shot) == pytest.approx(energy(amps), abs=1e-10)


def test_evolve_stacks_times_in_one_product():
    params = HamiltonianParams(1.0, 0.1, 0.5, 8)
    state, _ = ed_ground_state(HamiltonianParams(0.2, 1.0, 0.0, 8))
    propagator = DensePropagator(params)
    times = 0.37 * np.arange(11)
    stacked = propagator.evolve(state, times)
    assert stacked.shape == (11, 256)
    for k, t in enumerate(times):
        single = propagator.evolve(state, t)
        assert np.max(np.abs(stacked[k] - single)) <= 1e-14
    with pytest.raises(ValueError, match="single state"):
        propagator.evolve(stacked, 1.0)
    with pytest.raises(ValueError, match="finite"):
        propagator.evolve(state, [0.0, np.inf])


def test_rdm_of_stacked_states_matches_each_state():
    rng = np.random.default_rng(7)
    amps = rng.normal(size=(6, 2**7)) + 1j * rng.normal(size=(6, 2**7))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    for sites in ((0,), (2, 3, 4), (5, 6)):
        stacked = ed_rdm(amps, sites)
        assert stacked.shape == (6, 2 ** len(sites), 2 ** len(sites))
        DensityMatrix(entries=stacked, sites=sites)  # a valid stack of states
        for k in range(6):
            single = ed_rdm(amps[k], sites)
            assert np.max(np.abs(stacked[k] - single)) <= 1e-14


def test_rdm_product_state_is_pure():
    state = basis_state(6, index=0b101010)
    dm = DensityMatrix(entries=ed_rdm(state, (1, 2, 3))[None], sites=(1, 2, 3))
    purity = np.real(np.trace(dm.entries[0] @ dm.entries[0]))
    assert purity == pytest.approx(1.0, abs=1e-12)


def test_rdm_ghz_inner_block():
    amps = np.zeros(16, dtype=complex)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    rho = ed_rdm(amps, (1, 2))
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
    big = DensityMatrix(entries=ed_rdm(amps, (2, 3, 4, 5))[None], sites=(2, 3, 4, 5))
    small = ed_rdm(amps, (3, 4))
    assert np.max(np.abs(partial_trace(big, (3, 4)).entries[0] - small)) <= 1e-12


def test_rdm_invalid_ranges():
    state = basis_state(5)
    with pytest.raises(ValueError):
        ed_rdm(state, (3, 5))
    with pytest.raises(ValueError):
        ed_rdm(state, (4, 5))
    with pytest.raises(ValueError):
        ed_rdm(state, ())


# the couplings (J, h_x, h_z) on which the Lanczos ground state is checked against
# LAPACK: both limits, the critical point, both signs of h_x and of J
LAPACK_TRIPLES = ((0.2, 1.0, 0.0), (1.0, 0.1, 0.5), (1.0, 1.0, 0.0), (1.0, 0.0, 0.5),
                  (0.0, 1.0, 0.0), (0.3, -1.0, 0.0), (-0.7, 0.4, 0.2))


@pytest.mark.parametrize("triple", LAPACK_TRIPLES, ids=str)
def test_ground_state_matches_lapack(triple):
    for n_sites in range(1, 11):
        params = HamiltonianParams(*triple, n_sites)
        state, energy = ed_ground_state(params)
        evals, evecs = np.linalg.eigh(ed_hamiltonian(params))
        assert state.shape == (2**n_sites,) and state.dtype == np.float64
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-14)
        assert abs(energy - evals[0]) <= 1e-12
        if n_sites == 1 or evals[1] - evals[0] > 1e-6:
            assert 1 - abs(evecs[:, 0] @ state) <= 1e-12


def test_evolve_and_rdm_refuse_bad_vectors():
    propagator = DensePropagator(HamiltonianParams(1.0, 0.3, 0.1, 4))
    state = basis_state(4, index=5)
    bad = {
        "length of no power of two": np.full(12, 12**-0.5),
        "other chain": basis_state(3),
        "norm": 2 * state,
        "stack": np.stack([state, state]),
        "no axis": np.array(1.0),
    }
    for name, psi in bad.items():
        with pytest.raises(ValueError):
            propagator.evolve(psi, 0.5)
        if name not in ("other chain", "stack"):
            with pytest.raises(ValueError):
                ed_rdm(psi, (0,))
    with pytest.raises(ValueError, match="normalised"):
        ed_rdm(np.stack([state, 2 * state]), (1, 2))
    assert ed_rdm(basis_state(3), (0, 1)).shape == (4, 4)  # N = 3, read off the length


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_twelve_site_ground_state_stays_small():
    # the whole eigendecomposition of the 4096 x 4096 matrix peaked at 678 MB
    code = (
        "from spinquench.exact import ed_ground_state; "
        "from spinquench.model import HamiltonianParams; "
        "ed_ground_state(HamiltonianParams(1.0, 1.0, 0.0, 12)); "
        "print([line.split()[1] for line in open('/proc/self/status') "
        "if line.startswith('VmHWM')][0])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=300)
    assert int(proc.stdout.split()[-1]) < 400 * 1024  # kB
