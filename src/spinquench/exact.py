"""Dense state-vector reference for small chains.

Exact Hamiltonians, ground states, time evolution and partial traces of plain
unit-norm amplitude vectors (2^N,), used to cross-check the MPS pipeline on up
to 12 sites, with numpy alone. Basis convention: site 0 is the most
significant bit of the computational-basis index, bit 0 meaning spin up (sz =
+1); ``np.kron`` ordering follows the site order. In this basis the
Hamiltonian is a real symmetric matrix, built directly from the bits of the
basis index. Its ground state comes from DMRG's Lanczos; only the propagator,
which needs every eigenpair, diagonalises it by ``np.linalg.eigh``. Evolution
and partial traces also work on a stack (T, 2^N) of states: one propagator
product evolves a state to many times, and one stacked product reduces them
all to a stack of block matrices.
"""

from __future__ import annotations

import random

import numpy as np

from .dmrg import _lanczos
from .model import HamiltonianParams
from .mps import _block_sites

MAX_DENSE_SITES = 12
_LANCZOS_TOL = 1e-13  # relative Ritz residual of the ground state
_LANCZOS_STEPS = 200  # matvecs at most; 12-site chains took 13 to 92


def _n_sites(psi: np.ndarray) -> int:
    """N of a unit-norm vector (2^N,) or stack (T, 2^N) of them; refuses anything else."""
    length = psi.shape[-1] if psi.ndim in (1, 2) else 0
    if length < 1 or length & (length - 1):
        raise ValueError(f"amplitudes of shape {psi.shape} are not over a 2^N basis")
    if np.any(np.abs(np.linalg.norm(psi, axis=-1) - 1.0) > 1e-12):
        raise ValueError("state is not normalised")
    return length.bit_length() - 1


def ed_hamiltonian(params: HamiltonianParams) -> np.ndarray:
    """Dense real symmetric Hamiltonian matrix, built from the bits of the basis index.

    sz_j of basis state i is +1 or -1 as bit ``n-1-j`` of i is 0 or 1, so the
    sz.sz and h_z terms are diagonal; sx_j flips that bit, so the h_x term of
    site j sits at ``H[i, i ^ (1 << (n-1-j))]``.
    """
    n = params.n_sites
    if n > MAX_DENSE_SITES:
        raise ValueError(f"dense reference is capped at {MAX_DENSE_SITES} sites, got {n}")
    index = np.arange(2**n)
    masks = 1 << np.arange(n - 1, -1, -1)  # site j <-> bit n-1-j
    spins = np.where(index[:, None] & masks, -1.0, 1.0)
    diagonal = (-params.coupling * np.sum(spins[:, :-1] * spins[:, 1:], axis=1)
                - params.h_z * np.sum(spins, axis=1))
    ham = np.diag(diagonal)
    for mask in masks:
        ham[index, index ^ mask] = -params.h_x
    return ham


def ed_ground_state(params: HamiltonianParams):
    """Smallest eigenpair ``(vector, energy)`` by Lanczos, the real vector's first
    non-negligible amplitude made positive.

    The start is a fixed Gaussian vector from the stdlib generator, as DMRG's
    are: a symmetric one such as all-ones is orthogonal to the ground state
    when h_x < 0 at odd N.
    """
    ham = ed_hamiltonian(params)
    rng = random.Random(0)
    start = np.array([rng.gauss(0.0, 1.0) for _ in range(len(ham))])
    energy, vec = _lanczos(ham.__matmul__, start, _LANCZOS_TOL, _LANCZOS_STEPS)
    return _fix_phase(vec), energy


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(vec) > 1e-8 * np.max(np.abs(vec)))
    return vec / (vec[idx] / abs(vec[idx]))


class DensePropagator:
    """exp(-i H t) applied through a cached full eigendecomposition of H."""

    def __init__(self, params: HamiltonianParams):
        self.params = params
        self._evals, evecs = np.linalg.eigh(ed_hamiltonian(params))
        # The eigenvectors of the real H are real, so their adjoint is their
        # transpose; cast them once here, not on every product with a state.
        self._evecs = evecs.astype(complex)

    def evolve(self, psi: np.ndarray, t) -> np.ndarray:
        """exp(-i H t)|psi> for one time, or the stack (T, 2^N) of the states at an array
        of times, from a unit vector ``psi`` of the chain's 2^N amplitudes.

        A stack comes from one matrix product with the eigenvectors.
        """
        if psi.ndim != 1 or _n_sites(psi) != self.params.n_sites:
            raise ValueError(f"only a single state of {self.params.n_sites} sites can be "
                             f"evolved, got amplitudes of shape {psi.shape}")
        t = np.asarray(t, dtype=float)
        if t.ndim > 1 or not np.isfinite(t).all():
            raise ValueError(f"evolution times must be finite scalars or a 1-d array, got {t}")
        coeffs = self._evecs.T @ psi
        phases = np.exp(-1j * np.multiply.outer(t, self._evals))
        amps = (self._evecs @ (phases * coeffs).T).T
        return amps / np.linalg.norm(amps, axis=-1, keepdims=True)


def ed_rdm(psi: np.ndarray, sites) -> np.ndarray:
    """Exact partial trace of |psi><psi| onto a contiguous block of sites.

    ``psi`` is a unit vector (2^N,) or a stack (T, 2^N) of them; N is read
    from its last axis. Returns the Hermitian matrix unchecked, as
    ``MpsState.rdm`` does, and for a stack the stack (T, d, d) of matrices.
    """
    n_sites = _n_sites(psi)
    sites = _block_sites(sites, n_sites)
    lead, n_keep = psi.shape[:-1], len(sites)
    psi = psi.reshape(*lead, 2 ** sites[0], 2**n_keep, 2 ** (n_sites - sites[-1] - 1))
    m = psi.swapaxes(-3, -2).reshape(*lead, 2**n_keep, -1)
    rho = m @ m.conj().swapaxes(-1, -2)
    return 0.5 * (rho + rho.conj().swapaxes(-1, -2))
