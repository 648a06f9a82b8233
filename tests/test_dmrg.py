"""Ground-state search: analytic limits, dense cross-checks, variational properties."""

import numpy as np
import pytest

from spinquench.model import SX, SZ, HamiltonianParams, build_hamiltonian
from spinquench.dmrg import DmrgSettings, ground_state, _bond_factors, _mpo_from_bond_terms
from spinquench.dmrg import _lanczos
from spinquench.exact import ed_ground_state


def test_bond_factor_decomposition():
    rng = np.random.default_rng(31)
    herm = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    herm = herm + herm.conj().T
    rebuilt = sum(np.kron(a, b) for a, b in _bond_factors(herm))
    assert np.max(np.abs(rebuilt - herm)) <= 1e-12


def test_mpo_contracts_to_hamiltonian():
    params = HamiltonianParams(0.9, 0.4, -0.3, 5)
    spec = build_hamiltonian(params)
    mpo = _mpo_from_bond_terms(spec)
    # contract the MPO densely: accumulate over the virtual bond
    acc = mpo[0][0]  # (wr, d, d)
    for w in mpo[1:]:
        acc = np.einsum("aij,abkl->bikjl", acc, w, optimize=True)
        d_bra = acc.shape[1] * acc.shape[2]
        acc = acc.reshape(acc.shape[0], d_bra, d_bra)
    dense = acc[0]
    from spinquench.exact import ed_hamiltonian

    assert np.max(np.abs(dense - ed_hamiltonian(params))) <= 1e-12


def test_decoupled_transverse_chain():
    spec = build_hamiltonian(HamiltonianParams(0.0, 1.0, 0.0, 20))
    result = ground_state(spec, DmrgSettings(), seed=3)
    assert result.converged
    assert result.energy == pytest.approx(-20.0, abs=1e-10)
    for j in range(20):
        assert result.state.expectation_local(SX, j) == pytest.approx(1.0, abs=1e-8)


def test_classical_limit():
    spec = build_hamiltonian(HamiltonianParams(1.0, 0.0, 0.5, 10))
    result = ground_state(spec, DmrgSettings(), seed=3)
    assert result.energy == pytest.approx(-14.0, abs=1e-10)
    for j in range(10):
        assert result.state.expectation_local(SZ, j) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("n_sites", (8, 10, 12))
def test_matches_dense_diagonalisation(n_sites):
    params = HamiltonianParams(0.2, 1.0, 0.0, n_sites)
    result = ground_state(build_hamiltonian(params), DmrgSettings(), seed=3)
    _, reference = ed_ground_state(params)
    assert abs(result.energy - reference) <= 1e-8


def test_variational_bound_and_monotone_sweeps():
    rng = np.random.default_rng(41)
    for trial in range(3):
        params = HamiltonianParams(*rng.normal(size=3), int(rng.integers(4, 11)))
        result = ground_state(build_hamiltonian(params), DmrgSettings(), seed=trial)
        _, reference = ed_ground_state(params)
        assert result.energy >= reference - 1e-12
        diffs = np.diff(result.sweep_energies)
        assert np.all(diffs <= 1e-12)


def test_returned_energy_is_state_expectation():
    spec = build_hamiltonian(HamiltonianParams(1.0, 0.1, 0.5, 12))
    result = ground_state(spec, DmrgSettings(), seed=3)
    assert abs(result.energy - result.state.copy().energy(spec)) <= 1e-10
    assert result.state.norm() == pytest.approx(1.0, abs=1e-10)


def test_symmetric_ferromagnet_picks_up_branch():
    # h_z = 0 in the ordered phase: the tilt must select the spin-up branch
    spec = build_hamiltonian(HamiltonianParams(1.0, 0.1, 0.0, 12))
    result = ground_state(spec, DmrgSettings(), seed=5)
    assert result.state.expectation_local(SZ, 6) > 0.5


def test_non_convergence_is_flagged():
    spec = build_hamiltonian(HamiltonianParams(0.2, 1.0, 0.0, 12))
    settings = DmrgSettings(max_sweeps=1, energy_tol=1e-10)
    result = ground_state(spec, settings, seed=3)
    assert not result.converged
    assert result.sweeps == 1
    assert np.isfinite(result.energy)


def test_determinism_for_fixed_seed():
    spec = build_hamiltonian(HamiltonianParams(0.5, 0.8, 0.2, 10))
    a = ground_state(spec, DmrgSettings(), seed=11)
    b = ground_state(spec, DmrgSettings(), seed=11)
    assert a.energy == b.energy
    for ta, tb in zip(a.state.tensors, b.state.tensors):
        assert np.array_equal(ta, tb)


def test_settings_validation():
    with pytest.raises(ValueError):
        DmrgSettings(max_sweeps=0)
    with pytest.raises(ValueError):
        DmrgSettings(energy_tol=0.0)
    with pytest.raises(ValueError):
        DmrgSettings(local_solver_iters=0)


def _random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T, rng.normal(size=dim) + 1j * rng.normal(size=dim)


def test_lanczos_matches_dense_eigensolver():
    herm, v0 = _random_hermitian(300, 53)
    evals, evecs = np.linalg.eigh(herm)
    energy, vec = _lanczos(lambda v: herm @ v, v0, 1e-12, 300)
    assert abs(energy - evals[0]) <= 1e-10
    assert abs(np.vdot(evecs[:, 0], vec)) >= 1 - 1e-6
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_lanczos_out_of_iterations_returns_variational_pair():
    herm, v0 = _random_hermitian(300, 59)
    lowest = np.linalg.eigvalsh(herm)[0]
    energy, vec = _lanczos(lambda v: herm @ v, v0, 1e-12, 2)
    rayleigh = np.vdot(vec, herm @ vec).real
    assert np.isfinite(energy) and np.isfinite(rayleigh)
    assert rayleigh == pytest.approx(energy, abs=1e-10)
    assert rayleigh >= lowest
