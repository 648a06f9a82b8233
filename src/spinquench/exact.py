"""Dense state-vector reference for small chains.

Exact Hamiltonians, ground states, time evolution and partial traces, used to
cross-check the MPS pipeline on up to 12 sites, with numpy alone. Basis
convention: site 0 is the most significant bit of the computational-basis
index, bit 0 meaning spin up (sz = +1); ``np.kron`` ordering follows the site
order. In this basis the Hamiltonian is a real symmetric matrix, built
directly from the bits of the basis index and diagonalised by ``np.linalg.eigh``.
Evolution and partial traces also work on a stack of states: one propagator
product evolves a state to many times, and one stacked product reduces them
all to a stacked ``DensityMatrix``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import HamiltonianParams
from .mps import DensityMatrix

MAX_DENSE_SITES = 12


@dataclass(frozen=True, eq=False)
class DenseState:
    """Unit-norm amplitude vector over the full 2^N basis, or a stack (T, 2^N) of them."""

    amplitudes: np.ndarray
    n_sites: int

    def __post_init__(self):
        if self.amplitudes.ndim not in (1, 2) or self.amplitudes.shape[-1] != 2**self.n_sites:
            raise ValueError(
                f"amplitude vector of length {self.amplitudes.shape} does not match "
                f"{self.n_sites} sites"
            )
        if np.any(np.abs(np.linalg.norm(self.amplitudes, axis=-1) - 1.0) > 1e-12):
            raise ValueError("state is not normalised")


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
    """Smallest eigenpair, with the first non-negligible amplitude made real positive.

    Returns ``(DenseState, energy)``.
    """
    evals, evecs = np.linalg.eigh(ed_hamiltonian(params))
    vec = _fix_phase(evecs[:, 0])
    vec = vec / np.linalg.norm(vec)
    return DenseState(amplitudes=vec.astype(complex), n_sites=params.n_sites), float(evals[0])


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(vec) > 1e-8 * np.max(np.abs(vec)))
    phase = vec[idx] / abs(vec[idx])
    return vec / phase


class DensePropagator:
    """exp(-i H t) applied through a cached full eigendecomposition of H."""

    def __init__(self, params: HamiltonianParams):
        self.params = params
        self._evals, evecs = np.linalg.eigh(ed_hamiltonian(params))
        # The eigenvectors of the real H are real, so their adjoint is their
        # transpose; cast them once here, not on every product with a state.
        self._evecs = evecs.astype(complex)

    def evolve(self, state: DenseState, t) -> DenseState:
        """exp(-i H t)|psi> for one time, or the stack of the states at an array of times.

        A stack comes from one matrix product with the eigenvectors.
        """
        if state.n_sites != self.params.n_sites:
            raise ValueError("state and Hamiltonian sizes differ")
        if state.amplitudes.ndim != 1:
            raise ValueError("only a single state can be evolved")
        t = np.asarray(t, dtype=float)
        if t.ndim > 1 or not np.isfinite(t).all():
            raise ValueError(f"evolution times must be finite scalars or a 1-d array, got {t}")
        coeffs = self._evecs.T @ state.amplitudes
        phases = np.exp(-1j * np.multiply.outer(t, self._evals))
        amps = (self._evecs @ (phases * coeffs).T).T
        amps = amps / np.linalg.norm(amps, axis=-1, keepdims=True)
        return DenseState(amplitudes=amps, n_sites=state.n_sites)

    def energy(self, state: DenseState) -> float:
        return float(np.sum(self._evals * np.abs(self._evecs.T @ state.amplitudes) ** 2))


def ed_rdm(state: DenseState, sites, time_stamp=0.0) -> DensityMatrix:
    """Exact partial trace of |psi><psi| onto a contiguous block of sites.

    A stack of states gives a stacked ``DensityMatrix``, with ``time_stamp``
    one time or one per state.
    """
    sites = tuple(sites)
    if not sites or list(sites) != list(range(sites[0], sites[-1] + 1)):
        raise ValueError(f"sites {sites} must be a non-empty contiguous range")
    if sites[0] < 0 or sites[-1] >= state.n_sites:
        raise ValueError(f"sites {sites} outside chain of {state.n_sites} sites")
    n_left = sites[0]
    n_keep = len(sites)
    n_right = state.n_sites - n_left - n_keep
    lead = state.amplitudes.shape[:-1]
    psi = state.amplitudes.reshape(*lead, 2**n_left, 2**n_keep, 2**n_right)
    m = psi.swapaxes(-3, -2).reshape(*lead, 2**n_keep, -1)
    rho = m @ m.conj().swapaxes(-1, -2)
    rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    return DensityMatrix(entries=rho, sites=sites, time_stamp=time_stamp)
