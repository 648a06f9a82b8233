"""Dense state-vector reference for small chains.

Exact Hamiltonians, ground states, time evolution and partial traces, used to
cross-check the MPS pipeline on up to 12 sites. Basis convention: site 0 is
the most significant bit of the computational-basis index, bit 0 meaning spin
up (sz = +1); ``np.kron`` ordering follows the site order. scipy is imported
inside the functions that need it, so importing this module (and the ``run``
command, which imports it) does not load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import HamiltonianParams, SX, SZ
from .mps import DensityMatrix

MAX_DENSE_SITES = 12


@dataclass(frozen=True, eq=False)
class DenseState:
    """Unit-norm amplitude vector over the full 2^N basis."""

    amplitudes: np.ndarray
    n_sites: int

    def __post_init__(self):
        if self.amplitudes.shape != (2**self.n_sites,):
            raise ValueError(
                f"amplitude vector of length {self.amplitudes.shape} does not match "
                f"{self.n_sites} sites"
            )
        if abs(np.linalg.norm(self.amplitudes) - 1.0) > 1e-12:
            raise ValueError("state is not normalised")


def _check_size(n_sites: int):
    if n_sites > MAX_DENSE_SITES:
        raise ValueError(f"dense reference is capped at {MAX_DENSE_SITES} sites, got {n_sites}")


def _site_operator_sparse(op, site: int, n_sites: int):
    import scipy.sparse as sparse

    left = sparse.identity(2**site, format="csr", dtype=complex)
    right = sparse.identity(2 ** (n_sites - site - 1), format="csr", dtype=complex)
    return sparse.kron(sparse.kron(left, op, format="csr"), right, format="csr")


def _sparse_hamiltonian(params: HamiltonianParams):
    import scipy.sparse as sparse

    n = params.n_sites
    dim = 2**n
    sx, sz = sparse.csr_matrix(SX), sparse.csr_matrix(SZ)
    ham = sparse.csr_matrix((dim, dim), dtype=complex)
    for j in range(n - 1):
        zj = _site_operator_sparse(sz, j, n)
        zj1 = _site_operator_sparse(sz, j + 1, n)
        ham = ham - params.coupling * (zj @ zj1)
    for j in range(n):
        ham = ham - params.h_x * _site_operator_sparse(sx, j, n)
        ham = ham - params.h_z * _site_operator_sparse(sz, j, n)
    return ham


def ed_hamiltonian(params: HamiltonianParams) -> np.ndarray:
    """Dense Hamiltonian matrix; Hermitian by construction."""
    _check_size(params.n_sites)
    return _sparse_hamiltonian(params).toarray()


def ed_ground_state(params: HamiltonianParams):
    """Smallest eigenpair, with the first non-negligible amplitude made real positive.

    Returns ``(DenseState, energy)``.
    """
    _check_size(params.n_sites)
    ham = _sparse_hamiltonian(params)
    dim = ham.shape[0]
    if dim <= 64:
        evals, evecs = np.linalg.eigh(ham.toarray())
        energy, vec = evals[0], evecs[:, 0]
    else:
        import scipy.sparse.linalg as sparse_linalg

        v0 = np.full(dim, 1.0 / np.sqrt(dim))
        evals, evecs = sparse_linalg.eigsh(ham, k=1, which="SA", v0=v0)
        energy, vec = evals[0], evecs[:, 0]
    vec = _fix_phase(vec)
    vec = vec / np.linalg.norm(vec)
    return DenseState(amplitudes=vec.astype(complex), n_sites=params.n_sites), float(energy)


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(vec) > 1e-8 * np.max(np.abs(vec)))
    phase = vec[idx] / abs(vec[idx])
    return vec / phase


class DensePropagator:
    """exp(-i H t) applied through a cached full eigendecomposition of H."""

    def __init__(self, params: HamiltonianParams):
        _check_size(params.n_sites)
        self.params = params
        self._evals, self._evecs = np.linalg.eigh(ed_hamiltonian(params))

    def evolve(self, state: DenseState, t: float) -> DenseState:
        if state.n_sites != self.params.n_sites:
            raise ValueError("state and Hamiltonian sizes differ")
        if not np.isfinite(t):
            raise ValueError(f"evolution time must be finite, got {t}")
        coeffs = self._evecs.conj().T @ state.amplitudes
        amps = self._evecs @ (np.exp(-1j * self._evals * t) * coeffs)
        amps = amps / np.linalg.norm(amps)
        return DenseState(amplitudes=amps, n_sites=state.n_sites)

    def energy(self, state: DenseState) -> float:
        coeffs = self._evecs.conj().T @ state.amplitudes
        return float(np.sum(self._evals * np.abs(coeffs) ** 2))


def ed_evolve(state: DenseState, params: HamiltonianParams, t: float) -> DenseState:
    """One-shot exp(-i H t)|psi>; use :class:`DensePropagator` for many times."""
    return DensePropagator(params).evolve(state, t)


def ed_rdm(state: DenseState, sites, time_stamp: float = 0.0) -> DensityMatrix:
    """Exact partial trace of |psi><psi| onto a contiguous block of sites."""
    sites = tuple(sites)
    if not sites or list(sites) != list(range(sites[0], sites[-1] + 1)):
        raise ValueError(f"sites {sites} must be a non-empty contiguous range")
    if sites[0] < 0 or sites[-1] >= state.n_sites:
        raise ValueError(f"sites {sites} outside chain of {state.n_sites} sites")
    n_left = sites[0]
    n_keep = len(sites)
    n_right = state.n_sites - n_left - n_keep
    psi = state.amplitudes.reshape(2**n_left, 2**n_keep, 2**n_right)
    m = psi.transpose(1, 0, 2).reshape(2**n_keep, -1)
    rho = m @ m.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(entries=rho, sites=sites, time_stamp=time_stamp)


def statevector_from_mps(mps_state) -> DenseState:
    """Densify an MPS for direct comparison against the reference pipeline."""
    vec = mps_state.to_statevector()
    vec = vec / np.linalg.norm(vec)
    return DenseState(amplitudes=vec, n_sites=mps_state.n_sites)
