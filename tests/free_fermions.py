"""Exact free-fermion reference for the open Ising chain at h_z = 0, numpy only.

Jordan-Wigner with site 0 first and bit 0 up gives Majorana operators
a_2j = (prod_{i<j} sx_i) sz_j and a_2j+1 = (prod_{i<j} sx_i) sy_j, so that
sx_j = i a_2j a_2j+1 and sz_j sz_j+1 = i a_2j+1 a_2j+2, and
H = (i/2) sum_kl M_kl a_k a_l with M real antisymmetric (Lieb, Schultz and
Mattis, Ann. Phys. 16, 407 (1961)). A Gaussian state is fixed by its
correlations G_kl = (i/2) <[a_k, a_l]>, real antisymmetric; they evolve as
R G R^T with R = exp(2 M t), and a block's state follows from the block of G
on its own Majoranas (Peschel, J. Phys. A 36, L205 (2003)). The block states
are those of spin blocks wherever the global state has even parity, as every
state here does: a paramagnetic ground state and its evolution.
"""

import numpy as np

from spinquench.model import SX, SZ

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def majorana_matrix(coupling: float, h_x: float, n_sites: int) -> np.ndarray:
    """The real antisymmetric M of H = (i/2) a^T M a for -J sz sz - h_x sx."""
    m = np.zeros((2 * n_sites, 2 * n_sites))
    m[np.arange(0, 2 * n_sites, 2), np.arange(1, 2 * n_sites, 2)] = -h_x
    m[np.arange(1, 2 * n_sites - 2, 2), np.arange(2, 2 * n_sites - 1, 2)] = -coupling
    return m - m.T


def ground_energy(coupling: float, h_x: float, n_sites: int) -> float:
    """-1/2 sum |eps| over the eigenvalues eps of i M."""
    eps = np.linalg.eigvalsh(1j * majorana_matrix(coupling, h_x, n_sites))
    return -0.5 * float(np.sum(np.abs(eps)))


def ground_correlations(m: np.ndarray) -> np.ndarray:
    """G = i sign(i M): every mode of i M empty, which minimises <H> = -Tr(M G)/2."""
    eps, w = np.linalg.eigh(1j * m)
    return (1j * (w * np.sign(eps)) @ w.conj().T).real


def evolve_correlations(gamma: np.ndarray, m: np.ndarray, times) -> np.ndarray:
    """The stack of R G R^T over ``times``, R = exp(2 M t) from ``eigh`` of i M."""
    eps, w = np.linalg.eigh(1j * m)
    out = []
    for t in times:
        r = ((w * np.exp(-2j * eps * t)) @ w.conj().T).real
        out.append(r @ gamma @ r.T)
    return np.array(out)


def _majoranas(n_sites: int):
    """The 2 n Majorana operators of a block as dense matrices, strings inside the block."""
    ops = []
    for j in range(n_sites):
        for local in (SZ, _SY):
            factors = [SX] * j + [local] + [np.eye(2)] * (n_sites - j - 1)
            op = factors[0]
            for f in factors[1:]:
                op = np.kron(op, f)
            ops.append(op)
    return ops


def block_state(gamma: np.ndarray, sites) -> np.ndarray:
    """The density matrix of a contiguous block of sites from the correlations G.

    The positive eigenvalues nu of i G_block with eigenvectors v give fermion
    modes c = sum_k v_k a_k / sqrt(2) with <c^dag c> = (1 - nu) / 2, and the
    block state is the product over modes of (1 + nu) / 2 - nu c^dag c.
    """
    sites = tuple(sites)
    idx = np.arange(2 * sites[0], 2 * sites[-1] + 2)
    nu, v = np.linalg.eigh(1j * gamma[np.ix_(idx, idx)])
    ops = _majoranas(len(sites))
    rho = np.eye(2 ** len(sites), dtype=complex)
    for value, vec in zip(nu[len(sites):], v[:, len(sites):].T):
        c = sum(x * op for x, op in zip(vec, ops)) / np.sqrt(2.0)
        rho = rho @ (0.5 * (1 + value) * np.eye(len(rho)) - value * c.conj().T @ c)
    return rho
