"""Finite matrix product states in the Schmidt form, and their truncated gates.

Site tensors have legs ``(left bond, physical, right bond)``, physical
dimension 2, boundary bonds of dimension 1. Every ``MpsState`` is in the
Schmidt form from its construction on: every tensor is a right isometry and
the singular values of every cut are kept beside the tensors. A gate on any
bond (i, i+1) applies to Lambda_i B_i B_{i+1}, and its split needs only the
singular values and right vectors, so it keeps the form without touching
other sites (Hastings, J. Math. Phys. 50, 095207 (2009)); block density
matrices and bond energies are local contractions that need no re-gauging. A
tall block of 8 or more columns takes its split from ``eigh`` of its Gram
matrix, which skips the left vectors that an SVD would build; other blocks
are split by SVD. A layer of gates on bonds at least two apart applies at
once (``apply_gate_layer``): three or more bonds whose pairs have the same
shape share one stacked contraction and one batched decomposition, which
returns the same bits as one per pair, so only numpy's per-call overhead is
saved.

A split discards the smallest singular values within the truncation budget,
then renormalises. A decomposition that LAPACK fails on is redone (see
``_svd``); a block holding NaN splits into NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import HamiltonianSpec

RDM_SITE_CAP = 6

_HERM_TOL = 1e-10
_TRACE_TOL = 1e-10
_EIG_FLOOR = -1e-10
# smallest group of same-shape bonds that a gate layer stacks: at 8x8 pairs,
# two lone gates still cost less than one stack of two
_MIN_STACK = 3


@dataclass(frozen=True)
class TruncationPolicy:
    """SVD truncation budget: total discarded squared weight and max bond dimension."""

    cutoff: float = 1e-9
    chi_max: int = 50

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError(f"cutoff must be non-negative, got {self.cutoff}")
        if self.chi_max < 1:
            raise ValueError(f"chi_max must be at least 1, got {self.chi_max}")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """States of a contiguous block of sites at a run of times.

    ``entries`` is a stack (T, d, d), checked by one batched reduction and one
    batched ``eigvalsh`` to hold Hermitian, unit-trace, positive matrices;
    ``entries[k]`` is the state at the k-th time. ``sites`` records which chain
    sites the block covers. The spectra of the positivity check are kept (see
    ``spectrum``), so ``entries`` is stored read-only.
    """

    entries: np.ndarray
    sites: tuple
    _spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rho = self.entries
        if rho.ndim != 3 or rho.shape[-1] != rho.shape[-2]:
            raise ValueError(f"density matrices must be a stack (T, d, d), got shape {rho.shape}")
        if rho.shape[-1] != 2 ** len(self.sites):
            raise ValueError(
                f"dimension {rho.shape[-1]} does not match {len(self.sites)} sites"
            )
        if np.any(np.abs(rho - rho.conj().swapaxes(-1, -2)) > _HERM_TOL):
            raise ValueError("density matrix is not Hermitian")
        traces = np.trace(rho, axis1=-2, axis2=-1)
        off = np.abs(traces - 1.0) > _TRACE_TOL
        if np.any(off):
            raise ValueError(f"trace {traces[off][0]} is not 1")
        evals = np.linalg.eigvalsh(rho)
        if np.any(evals[..., 0] < _EIG_FLOOR):
            raise ValueError("density matrix has a significantly negative eigenvalue")
        rho = rho.view()
        rho.flags.writeable = evals.flags.writeable = False
        object.__setattr__(self, "entries", rho)
        object.__setattr__(self, "_spectrum", evals)

    def __len__(self) -> int:
        return len(self.entries)

    def spectrum(self) -> np.ndarray:
        """Eigenvalues in ascending order, one row per matrix of the stack, read-only.

        Computed once, when the stack is validated, and cached: distance
        series read every RDM's spectrum from here instead of
        re-diagonalising it for each pair.
        """
        return self._spectrum


class MpsState:
    """Mutable finite MPS in the Schmidt form; one instance per evolution worker.

    ``schmidt_values`` holds one array per cut j = 0..N: the unit-norm
    singular values across the cut left of site j (``[1]`` at both ends), and
    every tensor is a right isometry. The constructor gives the tensors one
    dtype: float64 when all are real, else complex128. A ground state of a
    real chain stays real; the first gate makes the tensors it writes complex.
    """

    def __init__(self, tensors):
        """Check ``tensors``, in any gauge, and bring them to the Schmidt form, normalised."""
        tensors = [np.asarray(t) for t in tensors]
        if not tensors:
            raise ValueError("an MPS needs at least one site")
        dtype = complex if any(np.iscomplexobj(t) for t in tensors) else float
        tensors = [t.astype(dtype, copy=False) for t in tensors]
        if tensors[0].shape[0] != 1 or tensors[-1].shape[2] != 1:
            raise ValueError("boundary bond dimensions must be 1")
        for i, t in enumerate(tensors):
            if t.ndim != 3 or t.shape[1] != 2:
                raise ValueError(f"site tensor {i} has shape {t.shape}, expected (l, 2, r)")
            if i + 1 < len(tensors) and t.shape[2] != tensors[i + 1].shape[0]:
                raise ValueError(f"bond mismatch between sites {i} and {i + 1}")
        self.tensors = tensors
        self.canonicalize()

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    @property
    def bond_dims(self):
        return [t.shape[2] for t in self.tensors[:-1]]

    def copy(self) -> "MpsState":
        """A twin with its own tensors and the same Schmidt values; nothing is swept."""
        twin = object.__new__(MpsState)
        twin.tensors = [t.copy() for t in self.tensors]
        twin.schmidt_values = list(self.schmidt_values)
        return twin

    def canonicalize(self) -> "MpsState":
        """Bring the tensors to the Schmidt form and normalise them.

        One QR sweep to the last site, then one SVD sweep back that leaves
        right isometries behind and records each cut's singular values.
        Nothing is truncated.
        """
        n = self.n_sites
        for i in range(n - 1):
            dl, d, dr = self.tensors[i].shape
            q, r = np.linalg.qr(self.tensors[i].reshape(dl * d, dr))
            self.tensors[i] = q.reshape(dl, d, q.shape[1])
            self.tensors[i + 1] = np.tensordot(r, self.tensors[i + 1], axes=(1, 0))
        values = [np.ones(1)] * (n + 1)
        for i in range(n - 1, 0, -1):
            dl, d, dr = self.tensors[i].shape
            u, s, vh = _svd(self.tensors[i].reshape(dl, d * dr))
            self.tensors[i] = vh.reshape(len(s), d, dr)
            self.tensors[i - 1] = np.tensordot(self.tensors[i - 1], u * s, axes=(2, 0))
            values[i] = s / np.linalg.norm(s)
        self.tensors[0] = self.tensors[0] / np.linalg.norm(self.tensors[0])
        self.schmidt_values = values
        return self

    # -- updates -------------------------------------------------------------

    def apply_two_site_gate(self, gate, left_site, policy):
        """Apply a 4x4 gate to sites (left_site, left_site+1), truncate and split.

        Returns the discarded weight (sum of dropped squared singular values);
        the state is renormalised afterwards. The gate keeps the Schmidt form:
        the new left tensor is the gated pair contracted with the new right
        isometry, so no singular value is ever inverted (Hastings, J. Math.
        Phys. 50, 095207 (2009)).
        This hot path does not check the gate: ``model.build_trotter_gates``
        makes every gate a complex128 4x4 unitary.
        """
        schmidt = self.schmidt_values
        i = left_site
        if not 0 <= i < self.n_sites - 1:
            raise ValueError(f"gate site {i} out of range")
        phi = gate @ _two_site(self.tensors[i], self.tensors[i + 1])  # (l, 4, r)
        dl, _, dr = phi.shape
        theta = (schmidt[i][:, None, None] * phi).reshape(dl * 2, 2 * dr)
        s, vh = _schmidt_split(theta, policy)
        keep, discarded = _truncation_rank(s, policy)
        s, vh = s[:keep], vh[:keep]
        norm = np.linalg.norm(s)
        self.tensors[i] = (phi.reshape(dl * 2, 2 * dr) @ vh.conj().T / norm).reshape(dl, 2, keep)
        self.tensors[i + 1] = vh.reshape(keep, 2, dr)
        schmidt[i + 1] = s / norm
        return discarded

    def apply_gate_layer(self, bonds, gates, policy) -> float:
        """Apply ``gates[k]`` to bond ``bonds[k]`` for every k.

        ``gates`` is a stacked (len(bonds), 4, 4) complex array, and the bonds
        must be at least two apart, so that no gate reads what another one
        writes. Groups of ``_MIN_STACK`` or more bonds whose pairs share a
        shape (dl, chi, dr) go through one stacked contraction, gate product
        and batched split (``_schmidt_split``); the other bonds go through
        ``apply_two_site_gate``, for which stacking costs more than it saves.
        Tensors, Schmidt values and the returned discarded weight (summed in
        the order of ``bonds``) are bit for bit those of
        ``apply_two_site_gate`` applied to each bond in turn.
        """
        n_bonds, last = self.n_sites - 1, -2
        for i in sorted(bonds):
            if i - last < 2 or i >= n_bonds:
                raise ValueError(f"gate bonds {tuple(bonds)} must be in range and two apart")
            last = i
        groups = {}
        for k, i in enumerate(bonds):
            shape = (*self.tensors[i].shape, self.tensors[i + 1].shape[2])
            groups.setdefault(shape, []).append(k)
        discarded = [0.0] * len(bonds)
        for rows in groups.values():
            if len(rows) < _MIN_STACK:
                for k in rows:
                    discarded[k] = self.apply_two_site_gate(gates[k], bonds[k], policy)
            else:
                weights = self._apply_gate_stack([bonds[k] for k in rows], gates[rows], policy)
                for k, weight in zip(rows, weights.tolist()):
                    discarded[k] = weight
        total = 0.0
        for weight in discarded:
            total += weight
        return total

    def _apply_gate_stack(self, sites, gates, policy) -> np.ndarray:
        """``apply_two_site_gate`` on bonds whose pairs share one shape, stacked.

        Returns the discarded weight of each bond. Rows that keep the same
        number of singular values are written back by one stacked product.
        """
        schmidt = self.schmidt_values
        n = len(sites)
        dl, _, chi = self.tensors[sites[0]].shape
        dr = self.tensors[sites[0] + 1].shape[2]
        # concatenating along the first leg and reshaping stacks the pairs
        lefts = np.concatenate([self.tensors[i] for i in sites]).reshape(n, dl * 2, chi)
        rights = np.concatenate([self.tensors[i + 1] for i in sites]).reshape(n, chi, 2 * dr)
        lam = np.concatenate([schmidt[i] for i in sites]).reshape(n, dl, 1, 1)
        phi = gates[:, None] @ (lefts @ rights).reshape(n, dl, 4, dr)
        s, vh = _schmidt_split((lam * phi).reshape(n, dl * 2, 2 * dr), policy)
        keep, discarded = _truncation_rank(s, policy)
        phi = phi.reshape(n, dl * 2, 2 * dr)
        keeps = keep.tolist()
        for kept in set(keeps):
            rows = [r for r, k in enumerate(keeps) if k == kept]
            values = s[rows, :kept]
            # row norms as one dot product per row: the bits of np.linalg.norm
            norm = np.sqrt(values[:, None, :] @ values[:, :, None])
            vh_kept = vh[rows, :kept]
            new_left = phi[rows] @ vh_kept.conj().transpose(0, 2, 1) / norm
            values = values / norm[:, 0]
            for r, row in enumerate(rows):
                i = sites[row]
                self.tensors[i] = new_left[r].reshape(dl, 2, kept)
                self.tensors[i + 1] = vh_kept[r].reshape(kept, 2, dr)
                schmidt[i + 1] = values[r]
        return discarded

    # -- read-outs -----------------------------------------------------------

    def rdm(self, sites) -> np.ndarray:
        """Hermitian matrix of a contiguous block of at most ``RDM_SITE_CAP`` sites,
        a local contraction. It comes back unchecked: ``evolve`` validates a run's
        matrices of one block as one stacked ``DensityMatrix``.
        """
        sites = tuple(sites)
        if not sites or list(sites) != list(range(sites[0], sites[-1] + 1)):
            raise ValueError(f"sites {sites} must be a non-empty contiguous range")
        if sites[0] < 0 or sites[-1] >= self.n_sites:
            raise ValueError(f"sites {sites} outside chain of {self.n_sites} sites")
        if len(sites) > RDM_SITE_CAP:
            raise ValueError(f"block of {len(sites)} sites exceeds the cap of {RDM_SITE_CAP}")

        block = self.schmidt_values[sites[0]][:, None, None] * self.tensors[sites[0]]
        for s in range(sites[0] + 1, sites[-1] + 1):
            block = np.tensordot(block, self.tensors[s], axes=(block.ndim - 1, 0))
        # rows: the block's physical index; columns: both bond indices
        dim = 2 ** len(sites)
        m = block.reshape(block.shape[0], dim, -1).transpose(1, 0, 2).reshape(dim, -1)
        rho = m @ m.conj().T
        return 0.5 * (rho + rho.conj().T)

    def energy(self, hspec: HamiltonianSpec) -> float:
        """Sum of bond-term expectations, one local contraction per bond."""
        if hspec.n_sites != self.n_sites:
            raise ValueError(
                f"Hamiltonian has {hspec.n_sites} sites, state has {self.n_sites}"
            )
        schmidt = self.schmidt_values
        total = 0.0 + 0.0j
        for b, term in enumerate(hspec.bond_terms):
            theta = _two_site(schmidt[b][:, None, None] * self.tensors[b], self.tensors[b + 1])
            total += np.vdot(theta, term @ theta)
        if abs(total.imag) > 1e-10:
            raise ValueError(f"energy has imaginary part {total.imag}")
        return float(total.real)


def _two_site(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Contract neighbouring site tensors into a pair tensor with legs (l, 4, r)."""
    dl, _, bond = left.shape
    dr = right.shape[2]
    return (left.reshape(dl * 2, bond) @ right.reshape(bond, 2 * dr)).reshape(dl, 4, dr)


TRUNCATION_MARGIN = 1e-3


def _truncation_rank(singular_values, policy: TruncationPolicy):
    """Number of values to keep so the dropped squared weight stays within budget.

    For one row of descending values, returns ``(keep, discarded)`` as numbers;
    for a 2-D stack of rows, one array of each, row by row the same rule.

    The per-cut budget is ``cutoff * TRUNCATION_MARGIN`` rather than the full
    cutoff, so the contractual bound, discarded weight <= cutoff per cut
    whenever ``chi_max`` is not binding, holds a fortiori. The margin bounds
    each cut, not a run: discards add up over the many cuts of a long
    evolution (the state error grows like the square root of their sum). At
    cutoff 1e-9 the para->ferro quench ends t = 20 with 4.0e-8 discarded in
    total at N = 60 and 1.43e-7 at N = 200.
    """
    sq = singular_values**2
    # tail[..., k] = sum of sq[..., k:], non-increasing in k
    tail = sq[..., ::-1].cumsum(axis=-1)[..., ::-1]
    budget = policy.cutoff * TRUNCATION_MARGIN
    # the first k with tail[k] <= budget; "not <=" counts a NaN as over budget,
    # so a failed decomposition keeps its NaN for the caller's finiteness checks
    over = ~(tail <= budget)
    if sq.ndim == 1:
        keep = max(1, min(int(np.count_nonzero(over)), policy.chi_max))
        discarded = float(tail[keep]) if keep < len(sq) else 0.0
        return keep, discarded
    keep = np.minimum(np.maximum(over.sum(axis=-1), 1), policy.chi_max)
    # a zero past the last column: a row that keeps every value drops nothing
    tail = np.concatenate((tail, np.zeros((len(tail), 1))), axis=1)
    return keep, tail[np.arange(len(keep)), keep]


def _svd(theta: np.ndarray):
    """Thin SVD ``(u, s, vh)`` of a matrix or a stack of matrices.

    Where LAPACK fails on a finite matrix, the SVD of its transpose stands in
    (in a stack, the rows are redone one by one). A matrix holding NaN or inf
    comes back as NaN, for the caller's finiteness checks.
    """
    try:
        return np.linalg.svd(theta, full_matrices=False)
    except np.linalg.LinAlgError:
        if theta.ndim == 3:
            return tuple(np.stack(parts) for parts in zip(*map(_svd, theta)))
        if not np.isfinite(theta).all():
            (m, n), k = theta.shape, min(theta.shape)
            return np.full((m, k), np.nan), np.full(k, np.nan), np.full((k, n), np.nan)
        vt, s, ut = np.linalg.svd(theta.T, full_matrices=False)
        return ut.T, s, vt.T


# a block (m, n) with m >= n >= _GRAM_MIN_COLS is split from its Gram matrix when
# the per-cut budget is at least _GRAM_FLOOR * n * eps, the Gram's rounding
# floor for a unit-norm block. Below 8 columns the SVD costs about the same,
# and a wide block's n x n Gram costs more than its SVD (3x at 8 x 32)
_GRAM_MIN_COLS = 8
_GRAM_FLOOR = 10


def _schmidt_split(theta: np.ndarray, policy: TruncationPolicy):
    """Singular values and right vectors ``(s, vh)`` of a unit-norm block or stack.

    Hastings' update reads only these, so tall blocks skip ``u``: ``eigh`` of
    theta^H theta gives s^2, to about n * eps, and vh. Other shapes, budgets
    near that floor (``cutoff`` 0) and blocks on which ``eigh`` fails take the
    SVD. The choice rests on shape and policy alone, so a stack and its rows
    split alike.
    """
    m, n = theta.shape[-2:]
    budget = policy.cutoff * TRUNCATION_MARGIN
    if m >= n >= _GRAM_MIN_COLS and budget >= _GRAM_FLOOR * n * np.finfo(float).eps:
        try:
            w, v = np.linalg.eigh(theta.conj().swapaxes(-1, -2) @ theta)
            return np.sqrt(np.maximum(w[..., ::-1], 0.0)), v[..., ::-1].conj().swapaxes(-1, -2)
        except np.linalg.LinAlgError:
            pass  # the SVD below
    _, s, vh = _svd(theta)
    return s, vh


def product_state(local_states) -> MpsState:
    """Bond-dimension-1 MPS from per-site amplitude pairs (each unit norm).

    The state is real (float64) when every pair is, else complex128.
    """
    tensors = []
    for j, amp in enumerate(local_states):
        amp = np.asarray(amp)
        if amp.shape != (2,):
            raise ValueError(f"site {j}: expected an amplitude pair, got shape {amp.shape}")
        if abs(np.linalg.norm(amp) - 1.0) > 1e-12:
            raise ValueError(f"site {j}: local state is not normalised")
        tensors.append(amp.reshape(1, 2, 1))
    return MpsState(tensors)
