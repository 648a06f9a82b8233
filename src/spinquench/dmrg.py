"""Two-site DMRG ground-state search for nearest-neighbour bond Hamiltonians.

The bond terms are compiled into a matrix product operator via an operator
Schmidt decomposition of each 4x4 term, so the sweep machinery is the
standard one: cached left/right environments, a smallest-eigenpair solve on
each two-site block (dense for small blocks, otherwise a numpy Lanczos with
full reorthogonalisation), SVD split with truncation, and convergence on the
change of the block energy across sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import HamiltonianSpec
from .mps import MpsState, TruncationPolicy, product_state

_DENSE_SOLVE_DIM = 128
_FACTOR_RANK_TOL = 1e-14


@dataclass(frozen=True)
class DmrgSettings:
    max_sweeps: int = 30
    energy_tol: float = 1e-10
    policy: TruncationPolicy = field(default_factory=TruncationPolicy)
    local_solver_iters: int = 100

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be at least 1, got {self.max_sweeps}")
        if self.energy_tol <= 0:
            raise ValueError(f"energy_tol must be positive, got {self.energy_tol}")
        if self.local_solver_iters < 1:
            raise ValueError("local_solver_iters must be at least 1")


@dataclass(frozen=True, eq=False)
class GroundStateResult:
    state: MpsState
    energy: float
    converged: bool
    sweeps: int
    sweep_energies: tuple


def _bond_factors(term: np.ndarray):
    """Split a two-site operator into Kronecker factors, term = sum_k A_k (x) B_k."""
    resh = term.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, s, vh = np.linalg.svd(resh)
    factors = []
    for k in range(len(s)):
        if s[k] <= _FACTOR_RANK_TOL:
            break
        scale = np.sqrt(s[k])
        factors.append((scale * u[:, k].reshape(2, 2), scale * vh[k, :].reshape(2, 2)))
    return factors


def _mpo_from_bond_terms(hspec: HamiltonianSpec):
    """MPO tensors with legs (left, right, bra phys, ket phys).

    Internal states per bond: 0 = no operator placed yet, 1..r = first factor
    of the bond term placed, last = term completed.
    """
    n = hspec.n_sites
    factors = [_bond_factors(t) for t in hspec.bond_terms]
    eye = np.eye(2, dtype=complex)
    tensors = []
    for i in range(n):
        left_rank = 0 if i == 0 else len(factors[i - 1])
        right_rank = 0 if i == n - 1 else len(factors[i])
        wl = 1 if i == 0 else left_rank + 2
        wr = 1 if i == n - 1 else right_rank + 2
        w = np.zeros((wl, wr, 2, 2), dtype=complex)
        ready, done_l, done_r = 0, wl - 1, wr - 1
        if i == 0:
            for k, (a, _) in enumerate(factors[0]):
                w[ready, 1 + k] = a
            w[ready, ready] = eye
        elif i == n - 1:
            for k, (_, b) in enumerate(factors[i - 1]):
                w[1 + k, done_r] = b
            w[done_l, done_r] = eye
        else:
            w[ready, ready] = eye
            w[done_l, done_r] = eye
            for k, (a, _) in enumerate(factors[i]):
                w[ready, 1 + k] = a
            for k, (_, b) in enumerate(factors[i - 1]):
                w[1 + k, done_r] = b
        tensors.append(w)
    return tensors


def _contract_left(env, site, w):
    """Grow the left environment (bra, mpo, ket) by one site."""
    tmp = np.tensordot(env, site, axes=(2, 0))  # (bra, w, p, ket')
    tmp = np.tensordot(tmp, w, axes=((1, 2), (0, 3)))  # (bra, ket', wr, bra_p)
    tmp = np.tensordot(site.conj(), tmp, axes=((0, 1), (0, 3)))  # (bra', ket', wr)
    return tmp.transpose(0, 2, 1)


def _contract_right(env, site, w):
    """Grow the right environment (bra, mpo, ket) by one site."""
    tmp = np.tensordot(site, env, axes=(2, 2))  # (ket, p, bra', w)
    tmp = np.tensordot(w, tmp, axes=((1, 3), (3, 1)))  # (wl, bra_p, ket, bra')
    tmp = np.tensordot(tmp, site.conj(), axes=((1, 3), (1, 2)))  # (wl, ket, bra)
    return tmp.transpose(2, 0, 1)


def _lanczos(matvec, v0, tol, maxiter):
    """Smallest eigenpair of a Hermitian operator by Lanczos from ``v0``.

    Every new Krylov vector is orthogonalised against all earlier ones. Stops
    once the Ritz residual ``beta * |y_last|`` is at most ``tol * max(1, |E|)``
    or after ``maxiter`` matvecs, returning the best Ritz pair so far; its
    energy is the Rayleigh quotient of the returned unit vector.
    """
    dim = v0.size
    basis = np.empty((min(maxiter, dim), dim), dtype=complex)
    basis[0] = v0 / np.linalg.norm(v0)
    alphas, betas = [], []
    for k in range(len(basis)):
        w = matvec(basis[k])
        alphas.append(np.vdot(basis[k], w).real)
        krylov = basis[: k + 1]
        for _ in range(2):  # a second pass restores orthogonality lost to cancellation
            w -= krylov.T @ np.conj(krylov @ w.conj())
        beta = np.linalg.norm(w)
        tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        evals, evecs = np.linalg.eigh(tri)
        energy, ritz = evals[0], evecs[:, 0]
        if beta * abs(ritz[-1]) <= tol * max(1.0, abs(energy)) or k + 1 == len(basis):
            break
        betas.append(beta)
        basis[k + 1] = w / beta
    vec = ritz @ krylov
    return float(energy), vec / np.linalg.norm(vec)


def _solve_block(left_env, right_env, w1, w2, theta0, tol, maxiter):
    """Smallest eigenpair of the two-site effective Hamiltonian."""
    a, _, _, b = theta0.shape
    dim = a * 4 * b

    if dim <= _DENSE_SOLVE_DIM:
        heff = np.einsum(
            "awA,wvpP,vuqQ,buB->apqb APQB", left_env, w1, w2, right_env, optimize=True
        ).reshape(dim, dim)
        evals, evecs = np.linalg.eigh(heff)
        return float(evals[0]), evecs[:, 0].reshape(a, 2, 2, b)

    def matvec(vec):
        th = vec.reshape(a, 2, 2, b)
        t = np.tensordot(left_env, th, axes=(2, 0))  # (bra, w, p, q, ket_r)
        t = np.tensordot(t, w1, axes=((1, 2), (0, 3)))  # (bra, q, ket_r, v, p_out)
        t = np.tensordot(t, w2, axes=((3, 1), (0, 3)))  # (bra, ket_r, p_out, u, q_out)
        t = np.tensordot(t, right_env, axes=((1, 3), (2, 1)))  # (bra, p_out, q_out, bra_r)
        return t.reshape(dim)

    energy, vec = _lanczos(matvec, theta0.reshape(dim), tol, maxiter)
    return energy, vec.reshape(a, 2, 2, b)


def _initial_state(hspec: HamiltonianSpec, seed: int) -> MpsState:
    """Random product state; tilted towards spin-up in the symmetric ordered phase
    so the search lands on one symmetry-broken branch deterministically."""
    params = hspec.params
    rng = np.random.default_rng(seed)
    tilt = params.h_z == 0.0 and abs(params.coupling) > abs(params.h_x)
    local = []
    for _ in range(params.n_sites):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        if tilt:
            v = np.array([1.0, 0.2], dtype=complex) + 0.05 * v
        local.append(v / np.linalg.norm(v))
    return product_state(local)


def ground_state(
    hspec: HamiltonianSpec, settings: DmrgSettings | None = None, seed: int = 0
) -> GroundStateResult:
    """Variational ground-state search by two-site sweeps.

    Sweeps until the energy of the last block solved in a sweep changes by
    less than ``energy_tol``; if the budget runs out first, the best state
    found is returned with ``converged=False``. The returned energy is the
    expectation value of the returned state.
    """
    settings = settings or DmrgSettings()
    n = hspec.n_sites
    mpo = _mpo_from_bond_terms(hspec)
    state = _initial_state(hspec, seed)
    state.canonicalize(0)

    left_env = [None] * n
    right_env = [None] * n
    boundary = np.ones((1, 1, 1), dtype=complex)
    left_env[0] = boundary
    right_env[n - 1] = boundary
    for i in range(n - 1, 0, -1):
        right_env[i - 1] = _contract_right(right_env[i], state.tensors[i], mpo[i])

    solver_tol = settings.energy_tol / 10.0
    sweep_energies = []
    converged = False
    for sweep in range(settings.max_sweeps):
        for i in range(0, n - 2):
            theta = np.tensordot(state.tensors[i], state.tensors[i + 1], axes=(2, 0))
            _, theta = _solve_block(
                left_env[i], right_env[i + 1], mpo[i], mpo[i + 1],
                theta, solver_tol, settings.local_solver_iters,
            )
            state.split_pair(i, theta, settings.policy, "right")
            left_env[i + 1] = _contract_left(left_env[i], state.tensors[i], mpo[i])
        for i in range(n - 2, -1, -1):
            theta = np.tensordot(state.tensors[i], state.tensors[i + 1], axes=(2, 0))
            block_energy, theta = _solve_block(
                left_env[i], right_env[i + 1], mpo[i], mpo[i + 1],
                theta, solver_tol, settings.local_solver_iters,
            )
            state.split_pair(i, theta, settings.policy, "left")
            right_env[i] = _contract_right(right_env[i + 1], state.tensors[i + 1], mpo[i + 1])

        sweep_energies.append(block_energy)
        if len(sweep_energies) >= 2 and abs(sweep_energies[-1] - sweep_energies[-2]) < settings.energy_tol:
            converged = True
            break

    energy = state.energy(hspec)
    state.canonicalize(0)
    return GroundStateResult(
        state=state,
        energy=energy,
        converged=converged,
        sweeps=len(sweep_energies),
        sweep_energies=tuple(sweep_energies),
    )
