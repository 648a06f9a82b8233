"""Ground-state search: analytic limits, dense cross-checks, variational properties."""

import numpy as np
import pytest

from spinquench import dmrg
from spinquench.model import SX, SZ, HamiltonianParams, HamiltonianSpec, build_hamiltonian
from spinquench.dmrg import DmrgSettings, ground_state, _bond_factors, _mpo_from_bond_terms
from spinquench.dmrg import _contract_left, _contract_right, _lanczos, _solve_block
from spinquench.exact import ed_ground_state, ed_hamiltonian
from spinquench.mps import TruncationPolicy

from helpers import local_expectation, to_statevector

SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def test_bond_factor_decomposition():
    rng = np.random.default_rng(31)
    herm = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    herm = herm + herm.conj().T
    rebuilt = sum(np.kron(a, b) for a, b in zip(*_bond_factors(herm)))
    assert np.max(np.abs(rebuilt - herm)) <= 1e-12


def mpo_dense(mpo):
    """Contract an MPO over its virtual bonds into a dense matrix."""
    acc = mpo[0][0]  # (wr, d, d)
    for w in mpo[1:]:
        acc = np.einsum("aij,abkl->bikjl", acc, w, optimize=True)
        d_bra = acc.shape[1] * acc.shape[2]
        acc = acc.reshape(acc.shape[0], d_bra, d_bra)
    return acc[0]


def test_mpo_contracts_to_hamiltonian():
    rng = np.random.default_rng(17)
    triples = [(0.9, 0.4, -0.3), (0.0, 0.7, 0.5), (0.0, -1.1, 0.0)] + [
        tuple(rng.normal(size=3)) for _ in range(3)
    ]
    for n_sites in range(2, 7):
        for triple in triples:
            params = HamiltonianParams(*triple, n_sites)
            mpo = _mpo_from_bond_terms(build_hamiltonian(params))
            assert np.max(np.abs(mpo_dense(mpo) - ed_hamiltonian(params))) <= 1e-12
            width = 3 if triple[0] != 0.0 else 2
            assert [w.shape[:2] for w in mpo] == (
                [(1, width)] + [(width, width)] * (n_sites - 2) + [(width, 1)]
            )


def random_spec(n_sites, rng):
    """A chain of random complex Hermitian bond terms with SY.SY and SX.SZ parts."""
    terms = []
    for _ in range(n_sites - 1):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        c = rng.normal(size=2)
        terms.append(m + m.conj().T + c[0] * np.kron(SY, SY) + c[1] * np.kron(SX, SZ))
    return HamiltonianSpec(HamiltonianParams(1.0, 0.0, 0.0, n_sites), tuple(terms))


def test_mpo_of_generic_bond_terms():
    rng = np.random.default_rng(19)
    for n_sites in range(2, 7):
        spec = random_spec(n_sites, rng)
        kron_sum = sum(
            np.kron(np.kron(np.eye(2**b), t), np.eye(2 ** (n_sites - b - 2)))
            for b, t in enumerate(spec.bond_terms)
        )
        mpo = _mpo_from_bond_terms(spec)
        assert np.max(np.abs(mpo_dense(mpo) - kron_sum)) <= 1e-12
        # the remainder has zero partial traces, so at most 3 Kronecker factors
        assert [w.shape[:2] for w in mpo] == [(1, 5)] + [(5, 5)] * (n_sites - 2) + [(5, 1)]


def test_decoupled_transverse_chain():
    spec = build_hamiltonian(HamiltonianParams(0.0, 1.0, 0.0, 20))
    result = ground_state(spec, DmrgSettings(), seed=3)
    assert result.converged
    assert result.energy == pytest.approx(-20.0, abs=1e-10)
    for j in range(20):
        assert local_expectation(result.state, SX, j) == pytest.approx(1.0, abs=1e-8)


def test_classical_limit():
    spec = build_hamiltonian(HamiltonianParams(1.0, 0.0, 0.5, 10))
    result = ground_state(spec, DmrgSettings(), seed=3)
    assert result.energy == pytest.approx(-14.0, abs=1e-10)
    for j in range(10):
        assert local_expectation(result.state, SZ, j) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("n_sites", (8, 10, 12))
def test_matches_dense_diagonalisation(n_sites):
    params = HamiltonianParams(0.2, 1.0, 0.0, n_sites)
    result = ground_state(build_hamiltonian(params), DmrgSettings(), seed=3)
    _, reference = ed_ground_state(params)
    assert abs(result.energy - reference) <= 1e-8


def free_fermion_energy(coupling, h_x, n_sites):
    """Exact ground energy of the open chain at h_z = 0 from its Majorana matrix.

    Jordan-Wigner maps sx_j to i a_2j a_2j+1 and sz_j sz_j+1 to i a_2j+1 a_2j+2,
    so H = (i/2) a^T M a with M real antisymmetric; the ground energy is
    -1/2 sum |eps| over the eigenvalues eps of i M (signs gauge away).
    """
    m = np.zeros((2 * n_sites, 2 * n_sites))
    m[np.arange(0, 2 * n_sites, 2), np.arange(1, 2 * n_sites, 2)] = -h_x
    m[np.arange(1, 2 * n_sites - 2, 2), np.arange(2, 2 * n_sites - 1, 2)] = -coupling
    return -0.5 * np.sum(np.abs(np.linalg.eigvalsh(1j * (m - m.T))))


@pytest.mark.parametrize("coupling, h_x", ((0.2, 1.0), (1.0, 1.0), (0.7, 0.3)))
def test_free_fermion_energy_matches_dense(coupling, h_x):
    _, reference = ed_ground_state(HamiltonianParams(coupling, h_x, 0.0, 8))
    assert abs(free_fermion_energy(coupling, h_x, 8) - reference) <= 1e-12


# paramagnet and critical point; in the ordered phase DMRG picks one
# symmetry-broken branch, half the tunnelling splitting above the ground state
@pytest.mark.parametrize("coupling, h_x, n_sites", ((0.2, 1.0, 60), (1.0, 1.0, 24)))
def test_matches_free_fermion_energy_beyond_dense_reach(coupling, h_x, n_sites):
    spec = build_hamiltonian(HamiltonianParams(coupling, h_x, 0.0, n_sites))
    result = ground_state(spec, DmrgSettings(), seed=3)
    assert result.converged
    assert abs(result.energy - free_fermion_energy(coupling, h_x, n_sites)) <= 1e-9


@pytest.mark.parametrize("n_sites", (8, 10))
def test_ground_state_overlaps_dense_one(n_sites):
    # the polish half-sweep solves every block to the final tolerance
    params = HamiltonianParams(0.2, 1.0, 0.0, n_sites)
    result = ground_state(build_hamiltonian(params), DmrgSettings(), seed=3)
    reference, _ = ed_ground_state(params)
    overlap = abs(np.vdot(reference.amplitudes, to_statevector(result.state)))
    assert overlap >= 1 - 1e-12


def test_real_chain_is_solved_in_real_arithmetic():
    spec = build_hamiltonian(HamiltonianParams(1.0, 1.0, 0.3, 10))
    assert all(w.dtype == np.float64 for w in _mpo_from_bond_terms(spec))
    result = ground_state(spec, DmrgSettings(), seed=3)
    assert all(t.dtype == np.float64 for t in result.state.tensors)
    assert abs(result.energy - ed_ground_state(spec.params)[1]) <= 1e-9


def test_complex_chain_stays_complex():
    spec = random_spec(6, np.random.default_rng(23))
    assert all(w.dtype == np.complex128 for w in _mpo_from_bond_terms(spec))
    result = ground_state(spec, DmrgSettings(), seed=3)
    assert result.converged
    assert all(t.dtype == np.complex128 for t in result.state.tensors)
    dense = sum(
        np.kron(np.kron(np.eye(2**b), t), np.eye(2 ** (6 - b - 2)))
        for b, t in enumerate(spec.bond_terms)
    )
    assert abs(result.energy - np.linalg.eigvalsh(dense)[0]) <= 1e-9


# the pre-quench states of the benchmark workloads: (J, h_x, h_z), sites,
# chi_max and the full sweeps they take; the loose sweeps add none
@pytest.mark.parametrize("triple, n_sites, chi_max, sweeps", (
    ((0.2, 1.0, 0.0), 60, 50, 2),
    ((0.2, 1.0, 0.0), 16, 50, 2),
    ((0.2, 1.0, 0.0), 8, 50, 2),
    ((1.0, 1.0, 0.0), 24, 25, 4),
))
def test_workload_ground_states_keep_their_sweeps(triple, n_sites, chi_max, sweeps):
    spec = build_hamiltonian(HamiltonianParams(*triple, n_sites))
    settings = DmrgSettings(policy=TruncationPolicy(cutoff=1e-9, chi_max=chi_max))
    for seed in (0, 3):
        result = ground_state(spec, settings, seed=seed)
        assert result.converged
        assert result.sweeps == sweeps
        assert result.matvecs > 0
        if n_sites == 24:  # 2,560 with every block solved to the final tolerance
            assert result.matvecs < 2000


def test_failed_polish_keeps_sweeping_at_final_tolerance(monkeypatch):
    # loose solves report energies 1e-6 too high, so the loose sweeps agree
    # with each other but not with the polish half-sweep
    def shifted(left_env, right_env, w1, w2, theta0, tol, maxiter):
        energy, theta, calls = _solve_block(left_env, right_env, w1, w2, theta0, tol, maxiter)
        return energy + (1e-6 if tol == dmrg._LOOSE_SOLVER_TOL else 0.0), theta, calls

    monkeypatch.setattr(dmrg, "_solve_block", shifted)
    params = HamiltonianParams(0.2, 1.0, 0.0, 10)
    result = ground_state(build_hamiltonian(params), DmrgSettings(), seed=3)
    assert result.converged
    assert result.sweeps == 4  # two loose, then two at the final tolerance
    assert result.sweep_energies[1] - result.sweep_energies[2] == pytest.approx(1e-6, abs=1e-9)
    assert abs(result.energy - ed_ground_state(params)[1]) <= 1e-10
    cut_short = ground_state(build_hamiltonian(params), DmrgSettings(max_sweeps=2), seed=3)
    assert not cut_short.converged and cut_short.sweeps == 2


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
    psi = to_statevector(result.state)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)
    # <psi|H|psi> on the dense vector, one bond term at a time
    dense = sum(
        np.vdot(psi, (term @ psi.reshape(2**b, 4, -1)).reshape(-1)).real
        for b, term in enumerate(spec.bond_terms)
    )
    assert abs(result.energy - dense) <= 1e-10


def test_symmetric_ferromagnet_picks_up_branch():
    # h_z = 0 in the ordered phase: the tilt must select the spin-up branch
    spec = build_hamiltonian(HamiltonianParams(1.0, 0.1, 0.0, 12))
    result = ground_state(spec, DmrgSettings(), seed=5)
    assert local_expectation(result.state, SZ, 6) > 0.5


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


def test_lanczos_residual_meets_tolerance_when_it_stops_early():
    # the residual is read only on scheduled steps; every early stop must
    # still meet the bound, and happen on a scheduled step
    early = 0
    for seed, dim in ((101, 300), (103, 120), (107, 64), (109, 40)):
        herm, v0 = _random_hermitian(dim, seed)
        scale = np.linalg.norm(herm, 2)
        for tol in (1e-6, 1e-12):
            calls = []
            energy, vec = _lanczos(lambda v: calls.append(1) or herm @ v, v0, tol, 200)
            if len(calls) == min(200, dim):
                continue  # out of iterations: no bound is promised
            early += 1
            assert len(calls) <= 8 or len(calls) % 4 == 0
            residual = np.linalg.norm(herm @ vec - energy * vec)
            assert residual <= tol * max(1.0, abs(energy)) + 1e-13 * scale
    assert early >= 6


def test_lanczos_stops_when_krylov_space_closes():
    # ten distinct eigenvalues: the Krylov space closes after step 10, which
    # is off the schedule, and beta alone then meets the bound
    rng = np.random.default_rng(113)
    q, _ = np.linalg.qr(rng.normal(size=(100, 100)) + 1j * rng.normal(size=(100, 100)))
    herm = (q * np.repeat(np.arange(10.0) - 4.5, 10)) @ q.conj().T
    v0 = rng.normal(size=100) + 1j * rng.normal(size=100)
    for tol in (1e-6, 1e-12):
        calls = []
        energy, vec = _lanczos(lambda v: calls.append(1) or herm @ v, v0, tol, 100)
        assert len(calls) == 10
        assert energy == pytest.approx(-4.5, abs=1e-12)
        assert np.linalg.norm(herm @ vec - energy * vec) <= 1e-12


def test_lanczos_keeps_real_arithmetic():
    rng = np.random.default_rng(137)
    m = rng.normal(size=(200, 200))
    sym = m + m.T
    seen = []

    def matvec(v):
        seen.append(v.dtype)
        return sym @ v

    energy, vec = _lanczos(matvec, rng.normal(size=200), 1e-12, 200)
    assert set(seen) == {np.dtype(np.float64)} and vec.dtype == np.float64
    assert abs(energy - np.linalg.eigvalsh(sym)[0]) <= 1e-12
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_lanczos_out_of_iterations_returns_variational_pair():
    herm, v0 = _random_hermitian(300, 59)
    lowest = np.linalg.eigvalsh(herm)[0]
    for maxiter in (2, 10):  # the residual test is off the schedule at step 10
        energy, vec = _lanczos(lambda v: herm @ v, v0, 1e-12, maxiter)
        rayleigh = np.vdot(vec, herm @ vec).real
        assert np.isfinite(energy) and np.isfinite(rayleigh)
        assert rayleigh == pytest.approx(energy, abs=1e-10)
        assert rayleigh >= lowest


def _random_block(a, b, seed):
    """Sites 2 and 3 of a random 6-site MPS under a random generic MPO.

    Returns the environments, the two MPO tensors, a start block and the
    dense effective Hamiltonian, which is Hermitian for any MPS tensors.
    """
    rng = np.random.default_rng(seed)
    mpo = _mpo_from_bond_terms(random_spec(6, rng))

    def site(dl, dr):
        return rng.normal(size=(dl, 2, dr)) + 1j * rng.normal(size=(dl, 2, dr))

    boundary = np.ones((1, 1, 1), dtype=complex)
    left = _contract_left(_contract_left(boundary, site(1, 3), mpo[0]), site(3, a), mpo[1])
    right = _contract_right(_contract_right(boundary, site(3, 1), mpo[5]), site(b, 3), mpo[4])
    left, right = left / np.max(np.abs(left)), right / np.max(np.abs(right))
    heff = np.einsum(
        "awA,wvpP,vuqQ,buB->apqbAPQB", left, mpo[2], mpo[3], right, optimize=True
    ).reshape(4 * a * b, 4 * a * b)
    theta = np.tensordot(site(a, 2), site(2, b), axes=(2, 0))
    return left, right, mpo[2], mpo[3], theta, heff


def test_block_matvec_equals_explicit_hamiltonian(monkeypatch):
    left, right, w1, w2, theta, heff = _random_block(8, 6, 61)
    assert heff.shape[0] > dmrg._DENSE_SOLVE_DIM
    seen = {}

    def capture(matvec, v0, tol, maxiter):
        seen["matvec"] = matvec
        return 0.0, v0

    monkeypatch.setattr(dmrg, "_lanczos", capture)
    _solve_block(left, right, w1, w2, theta, 1e-12, 50)
    rng = np.random.default_rng(67)
    for _ in range(3):
        v = rng.normal(size=heff.shape[0]) + 1j * rng.normal(size=heff.shape[0])
        assert np.max(np.abs(seen["matvec"](v) - heff @ v)) <= 1e-12


def test_dense_block_solve_returns_lowest_pair(monkeypatch):
    left, right, w1, w2, theta, heff = _random_block(8, 6, 71)
    monkeypatch.setattr(dmrg, "_DENSE_SOLVE_DIM", heff.shape[0])
    monkeypatch.setattr(dmrg, "_lanczos", None)  # the dense path must not reach it
    assert np.max(np.abs(heff - heff.conj().T)) <= 1e-12
    energy, vec, matvecs = _solve_block(left, right, w1, w2, theta, 1e-12, 50)
    assert matvecs == 0
    evals = np.linalg.eigvalsh(heff)
    assert abs(energy - evals[0]) <= 1e-12 * max(1.0, abs(evals[0]))
    vec = vec.reshape(-1)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(heff @ vec - energy * vec) <= 1e-10 * np.max(np.abs(evals))


def test_blocks_up_to_32_dims_are_solved_densely(monkeypatch):
    left, right, w1, w2, theta, heff = _random_block(2, 4, 127)
    assert heff.shape[0] == dmrg._DENSE_SOLVE_DIM == 32
    monkeypatch.setattr(dmrg, "_lanczos", None)  # the dense path must not reach it
    energy, _, matvecs = _solve_block(left, right, w1, w2, theta, 1e-12, 50)
    assert matvecs == 0
    assert abs(energy - np.linalg.eigvalsh(heff)[0]) <= 1e-12 * max(1.0, abs(energy))


def test_blocks_above_32_dims_go_to_lanczos(monkeypatch):
    left, right, w1, w2, theta, heff = _random_block(4, 4, 131)
    assert heff.shape[0] == 64
    calls = []

    def counted(*args):
        calls.append(1)
        return _lanczos(*args)

    monkeypatch.setattr(dmrg, "_lanczos", counted)
    energy, vec, matvecs = _solve_block(left, right, w1, w2, theta, 1e-12, 100)
    assert calls == [1]
    assert 0 < matvecs <= 64
    evals = np.linalg.eigvalsh(heff)
    assert abs(energy - evals[0]) <= 1e-12 * max(1.0, abs(evals[0]))
    vec = vec.reshape(-1)
    assert np.linalg.norm(heff @ vec - energy * vec) <= 1e-10 * np.max(np.abs(evals))


def reference_lanczos(matvec, v0, tol, maxiter):
    """The Lanczos loop that rebuilds its tridiagonal on each tested step, kept
    to check the in-place one; the residual test runs on the same schedule."""
    dim = v0.size
    basis = np.empty((min(maxiter, dim), dim), dtype=complex)
    basis[0] = v0 / np.linalg.norm(v0)
    alphas, betas = [], []
    for k in range(len(basis)):
        w = matvec(basis[k])
        alphas.append(np.vdot(basis[k], w).real)
        krylov = basis[: k + 1]
        for _ in range(2):
            w -= krylov.T @ np.conj(krylov @ w.conj())
        beta = np.linalg.norm(w)
        if k < 8 or k % 4 == 3 or k + 1 == len(basis) or beta <= tol:
            tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            evals, evecs = np.linalg.eigh(tri)
            energy, ritz = evals[0], evecs[:, 0]
            if beta * abs(ritz[-1]) <= tol * max(1.0, abs(energy)) or k + 1 == len(basis):
                break
        betas.append(beta)
        basis[k + 1] = w / beta
    vec = ritz @ krylov
    return float(energy), vec / np.linalg.norm(vec)


def test_lanczos_matches_rebuilt_tridiagonal_loop():
    for seed, dim, tol, maxiter in ((73, 300, 1e-12, 300), (79, 200, 1e-6, 100), (83, 300, 1e-12, 7)):
        herm, v0 = _random_hermitian(dim, seed)
        energy, vec = _lanczos(lambda v: herm @ v, v0, tol, maxiter)
        ref_energy, ref_vec = reference_lanczos(lambda v: herm @ v, v0, tol, maxiter)
        assert energy == ref_energy
        assert np.array_equal(vec, ref_vec)
