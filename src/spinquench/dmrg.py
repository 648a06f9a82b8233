"""Two-site DMRG ground-state search for the mixed-field Ising chain.

The MPO is the textbook one of the couplings (J, h_x, h_z), of width 3 (2
at J = 0). The chain is real in the sz basis, so the MPO, start state,
environments, block solves and splits are all float64. The sweeps are the
standard ones: cached left/right environments, a smallest-eigenpair solve on
each two-site block from the halves L.W and W.R (dense up to 32 dims, then a
numpy Lanczos with full reorthogonalisation and the residual test on a
schedule), SVD split with truncation, and convergence on the change of the
block energy across sweeps. Blocks are solved only as tightly as the sweep
needs: loosely until two sweep energies agree, then once more at the final
tolerance in one left-to-right polishing half-sweep, as TeNPy ties its Lanczos
tolerances to the sweeps' convergence (Hauschild and Pollmann, SciPost Phys.
Lect. Notes 5 (2018)). The sweeps work on a plain list of tensors in the
centre form (Schollwoeck, Ann. Phys. 326, 96 (2011)): each split leaves the
centre on the site the sweep moves to. The result is handed over as an
``MpsState``, which brings it to the Schmidt form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .model import SX, SZ, HamiltonianParams, HamiltonianSpec
from .mps import MpsState, TruncationPolicy, _svd, _truncation_rank

_DENSE_SOLVE_DIM = 32
# relative Ritz residual of the block solves in the sweeps before the polish
_LOOSE_SOLVER_TOL = 1e-7
_MAX_SWEEPS = 30  # full sweeps before the search gives up unconverged
_ENERGY_TOL = 1e-10  # agreement of sweep energies that ends the search
_LANCZOS_STEPS = 100  # matvecs per block solve


@dataclass(frozen=True, eq=False)
class GroundStateResult:
    state: MpsState
    energy: float
    converged: bool
    sweeps: int
    sweep_energies: tuple
    matvecs: int  # Lanczos matvecs over the whole search
    discarded_weight: float  # by the splits of the last half-sweep, which made ``state``


def _ising_mpo(params: HamiltonianParams):
    """MPO tensors of the chain, legs (left, right, bra phys, ket phys), float64.

    Internal states: 0 = ready, 1 = -J sz placed, last = done, so the bulk
    tensor is W = [[1, -J sz, -(h_x sx + h_z sz)], [0, 0, sz], [0, 0, 1]]
    (Schollwoeck, Ann. Phys. 326, 96 (2011)), and width 2 at J = 0. Every
    site carries its whole field, which is what the bond terms' field weights
    add up to. The first site keeps the first row, the last the last column.
    """
    sx, sz = SX.real, SZ.real
    width = 2 if params.coupling == 0.0 else 3
    w = np.zeros((width, width, 2, 2))
    w[0, 0] = w[-1, -1] = np.eye(2)
    w[0, -1] = -(params.h_x * sx + params.h_z * sz)
    if width == 3:
        w[0, 1] = -params.coupling * sz
        w[1, 2] = sz
    return [w[:1]] + [w] * (params.n_sites - 2) + [w[:, -1:]]


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

    Every new Krylov vector is orthogonalised against all earlier ones. The
    Ritz residual ``beta * |y_last|`` needs a solve of the whole tridiagonal,
    so it is read only after steps 1-8, after every 4th step, at the last
    allowed step and where ``beta <= tol``, which alone meets the bound.
    Stops at the first such step where it is at most ``tol * max(1, |E|)``,
    or after ``maxiter`` matvecs, returning the best Ritz pair so far; its
    energy is the Rayleigh quotient of the returned unit vector. The Krylov
    basis has the dtype of ``v0``, so a real ``v0`` and a real symmetric
    operator keep the whole solve in real arithmetic.
    """
    dim = v0.size
    size = min(maxiter, dim)
    basis = np.empty((size, dim), dtype=v0.dtype)
    tri = np.zeros((size, size))
    basis[0] = v0 / np.linalg.norm(v0)
    for k in range(size):
        w = matvec(basis[k])
        tri[k, k] = np.vdot(basis[k], w).real
        krylov = basis[: k + 1]
        for _ in range(2):  # a second pass restores orthogonality lost to cancellation
            w -= krylov.T @ np.conj(krylov @ w.conj())
        beta = np.linalg.norm(w)
        if k < 8 or k % 4 == 3 or k + 1 == size or beta <= tol:
            evals, evecs = np.linalg.eigh(tri[: k + 1, : k + 1])
            energy, ritz = evals[0], evecs[:, 0]
            if beta * abs(ritz[-1]) <= tol * max(1.0, abs(energy)) or k + 1 == size:
                break
        tri[k, k + 1] = tri[k + 1, k] = beta
        basis[k + 1] = w / beta
    vec = ritz @ krylov
    return float(energy), vec / np.linalg.norm(vec)


def _solve_block(left_env, right_env, w1, w2, theta0, tol, maxiter):
    """Smallest eigenpair of the two-site effective Hamiltonian, and the matvecs used.

    The halves L.W1 and W2.R are contracted once per block, laid out so that
    a matvec is two matrix products and a small block's dense matrix is one
    contraction of the halves over their shared MPO bond. ``theta0`` must
    have the dtype of the operator, which the solve keeps.
    """
    a, _, _, b = theta0.shape
    dim = a * 4 * b
    lw = np.tensordot(left_env, w1, axes=(1, 0)).transpose(0, 3, 2, 1, 4)  # (bra, p_out, v, ket, p)
    wr = np.tensordot(w2, right_env, axes=(1, 1)).transpose(0, 2, 4, 1, 3)  # (v, q, ket_r, q_out, bra_r)

    if dim <= _DENSE_SOLVE_DIM:
        heff = np.tensordot(lw, wr, axes=(2, 0)).transpose(0, 1, 6, 7, 2, 3, 4, 5)
        evals, evecs = np.linalg.eigh(heff.reshape(dim, dim))
        return float(evals[0]), evecs[:, 0].reshape(a, 2, 2, b), 0

    lw = lw.reshape(-1, 2 * a)
    wr = wr.reshape(-1, 2 * b)
    calls = 0

    def matvec(vec):
        nonlocal calls
        calls += 1
        return ((lw @ vec.reshape(2 * a, 2 * b)).reshape(2 * a, -1) @ wr).reshape(dim)

    energy, vec = _lanczos(matvec, theta0.reshape(dim), tol, maxiter)
    return energy, vec.reshape(a, 2, 2, b), calls


def _split_pair(tensors, i, theta, policy, center_side) -> float:
    """Replace sites (i, i+1) of ``tensors`` by the truncated SVD split of ``theta``.

    ``theta`` holds the pair with legs (l, 2, 2, r). The kept singular values,
    divided by their 2-norm, go to the site that ``center_side`` ("left" or
    "right") names, which becomes the orthogonality centre. Returns the
    discarded weight, the dropped squared weight before renormalisation.
    """
    dl, dr = theta.shape[0], theta.shape[-1]
    u, s, vh = _svd(theta.reshape(dl * 2, 2 * dr))
    keep, discarded = _truncation_rank(s, policy)
    s = s[:keep] / np.linalg.norm(s[:keep])
    if center_side == "right":
        tensors[i] = u[:, :keep].reshape(dl, 2, keep)
        tensors[i + 1] = (s[:, None] * vh[:keep]).reshape(keep, 2, dr)
    else:
        tensors[i] = (u[:, :keep] * s).reshape(dl, 2, keep)
        tensors[i + 1] = vh[:keep].reshape(keep, 2, dr)
    return discarded


def _initial_tensors(params: HamiltonianParams, seed: int) -> list:
    """Site tensors of a random real product state; tilted towards spin-up in the
    symmetric ordered phase so the search lands on one symmetry-broken branch
    deterministically."""
    rng = random.Random(seed)  # stdlib: 2 draws a site do not pay numpy's generator import
    tilt = params.h_z == 0.0 and abs(params.coupling) > abs(params.h_x)
    local = []
    for _ in range(params.n_sites):
        v = np.array([rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)])
        if tilt:
            v = np.array([1.0, 0.2]) + 0.05 * v
        local.append((v / np.linalg.norm(v)).reshape(1, 2, 1))
    return local


def ground_state(
    hspec: HamiltonianSpec, policy: TruncationPolicy = TruncationPolicy(), seed: int = 0
) -> GroundStateResult:
    """Variational ground-state search by two-site sweeps, each split truncated by ``policy``.

    Full sweeps solve each block to the relative residual
    ``_LOOSE_SOLVER_TOL`` until the energies of the last block solved in two
    sweeps agree within ``_ENERGY_TOL``; a Ritz energy's error is quadratic in
    the residual, so loose solves do not move the sweep energies. One
    left-to-right half-sweep over every block at the final tolerance
    (``_ENERGY_TOL / 10``) then polishes the state, and the search has
    converged if its energy also agrees; if not, full sweeps go on at the
    final tolerance. If the ``_MAX_SWEEPS`` full sweeps run out first, the best
    state found is returned with ``converged=False``. The returned energy is
    the expectation value of the returned ``MpsState``.
    """
    n = hspec.n_sites
    mpo = _ising_mpo(hspec.params)
    tensors = _initial_tensors(hspec.params, seed)

    left_env = [None] * n
    right_env = [None] * n
    boundary = np.ones((1, 1, 1))
    left_env[0] = boundary
    right_env[n - 1] = boundary
    for i in range(n - 1, 0, -1):
        right_env[i - 1] = _contract_right(right_env[i], tensors[i], mpo[i])

    matvecs = 0
    discarded = 0.0

    def half_sweep(blocks, center_side, tol):
        """Solve and split ``blocks`` in order; returns the last block's energy."""
        nonlocal matvecs, discarded
        block_energy, discarded = None, 0.0
        for i in blocks:
            theta = np.tensordot(tensors[i], tensors[i + 1], axes=(2, 0))
            block_energy, theta, calls = _solve_block(
                left_env[i], right_env[i + 1], mpo[i], mpo[i + 1], theta, tol, _LANCZOS_STEPS
            )
            matvecs += calls
            discarded += _split_pair(tensors, i, theta, policy, center_side)
            if center_side == "right":
                left_env[i + 1] = _contract_left(left_env[i], tensors[i], mpo[i])
            else:
                right_env[i] = _contract_right(right_env[i + 1], tensors[i + 1], mpo[i + 1])
        return block_energy

    final_tol = _ENERGY_TOL / 10.0
    tol = max(final_tol, _LOOSE_SOLVER_TOL)
    sweep_energies = []
    converged = right_done = False
    while len(sweep_energies) < _MAX_SWEEPS:
        if not right_done:
            half_sweep(range(n - 2), "right", tol)
        sweep_energies.append(half_sweep(range(n - 2, -1, -1), "left", tol))
        right_done = False
        if len(sweep_energies) < 2 or abs(sweep_energies[-1] - sweep_energies[-2]) >= _ENERGY_TOL:
            continue
        if tol == final_tol:
            converged = True
            break
        # a failed polish is the first half of the next sweep at the final tolerance
        tol, right_done = final_tol, True
        polished = half_sweep(range(n - 1), "right", tol)
        if abs(polished - sweep_energies[-1]) < _ENERGY_TOL:
            converged = True
            break

    state = MpsState(tensors)
    return GroundStateResult(
        state=state,
        energy=state.energy(hspec),
        converged=converged,
        sweeps=len(sweep_energies),
        sweep_energies=tuple(sweep_energies),
        matvecs=matvecs,
        discarded_weight=discarded,
    )
