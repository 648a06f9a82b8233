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

A mirror-symmetric state of an even chain can be held by its right half
alone (``mirror_half``): psi = sum_k lambda_k mirror(R_k) (x) R_k, where R_k
are the right half's Schmidt vectors and mirror reverses the site order.
``apply_gate_layer`` alone maps whole-chain layers onto it: the right half's
bonds take the gates above; the middle bond's gated block is complex
symmetric and is re-split by a truncated Takagi factorisation
(``_takagi_split``), so the form is kept and no Schmidt value is inverted.
It takes the block's values and right vectors from ``_schmidt_split``, by
the one Gram-or-SVD rule above, and one phase per column from one more
product. Only blocks whose phases miss the budget (degenerate kept values,
often at cutoff 0) and blocks holding NaN or inf fall back to one real
``eigh`` of the 2n x 2n form (``_takagi``), which ``mirror_half`` uses
alone. Both kinds of state are mixed-canonical about one cut, cut 0 or the
middle one, so one reader (``MpsState._block``) contracts any block of
either for the block states, bond energies and the middle gate.
``tebd.evolve`` takes this path for every mirror-symmetric start state of
an even chain.

Near the chain's end a cut holds at most 2**(sites right of it) values, so
the last sites can be held exactly (Schollwoeck, Ann. Phys. 326, 96 (2011)).
Once the last m held sites' space is full, they are one tensor, the *tail*,
of legs (chi, 2, 2**(m-1)): its first site's right isometry, whose right leg
is the exact space of the m-1 sites after it (``MpsState._grow_tail``, which
``tebd.evolve`` calls; the first held site stays its own tensor). A gate inside the tail is one product on it and
discards nothing; the bond at its left cut splits like any other, the tail
acting as a site tensor with a wide right leg, and the reader folds the
tail's sites outside a block into its bond legs.
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
# largest squared distance between a start state and its mirror-symmetrised
# form that ``mirror_half`` takes: one cut's budget at the default cutoff. DMRG
# ground states of the configs read 1e-16 to 5e-13 (the truncation of a
# critical state at N = 60)
_MIRROR_TOL = 1e-12


@dataclass(frozen=True)
class TruncationPolicy:
    """SVD truncation budget: total discarded squared weight and max bond dimension."""

    cutoff: float = 1e-9
    chi_max: int = 50

    def __post_init__(self):
        if not 0 <= self.cutoff < np.inf:
            raise ValueError(f"cutoff must be finite and non-negative, got {self.cutoff}")
        if isinstance(self.chi_max, bool) or not isinstance(self.chi_max, int) or self.chi_max < 1:
            raise ValueError(f"chi_max must be an integer of at least 1, got {self.chi_max!r}")


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

    def __setstate__(self, state):
        """Unpickled arrays come back writeable: make them read-only again."""
        state["entries"].flags.writeable = state["_spectrum"].flags.writeable = False
        self.__dict__.update(state)

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
    dtype: float64 when all are real, else complex128. A DMRG ground state is
    real; the first gate makes the tensors it writes complex.

    A ``mirrored`` state (made by ``mirror_half``) stands for a mirror-symmetric
    chain of ``n_sites`` = 2 h sites and holds only its right half: ``tensors``
    are sites h .. 2h-1, and ``schmidt_values[j]`` the values of cut h + j,
    which are those of cut h - j too. ``apply_two_site_gate`` numbers the
    tensors it holds, every other method the sites and bonds of the whole
    chain.

    A *tailed* state (grown by ``_grow_tail``) holds its last m sites as one
    tensor of legs (chi, 2, 2**(m-1)), and ``schmidt_values`` has no entries
    for the cuts inside it. It stays in the Schmidt form, so ``copy`` keeps
    the tail and ``canonicalize`` and ``mirror_half`` refuse it.
    """

    mirrored = False

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
        held = len(self.tensors) + self._tail_sites - 1
        return 2 * held if self.mirrored else held

    @property
    def _tail_sites(self) -> int:
        """Sites the last tensor holds: 1, or m for a tail of legs (chi, 2, 2**(m-1))."""
        return self.tensors[-1].shape[2].bit_length()

    @property
    def bond_dims(self):
        # a cut inside the tail reports 2**(sites right of it), full when the tail took it
        width = self.tensors[-1].shape[2]
        dims = [t.shape[2] for t in self.tensors[:-1]]
        dims += [width >> j for j in range(self._tail_sites - 1)]
        return [*dims[::-1], self.tensors[0].shape[0], *dims] if self.mirrored else dims

    def copy(self) -> "MpsState":
        """A twin with its own tensors and the same Schmidt values; nothing is swept."""
        twin = object.__new__(MpsState)
        twin.tensors = [t.copy() for t in self.tensors]
        twin.schmidt_values = list(self.schmidt_values)
        twin.mirrored = self.mirrored
        return twin

    def mirror_half(self) -> "MpsState | None":
        """The right half of this state as a ``mirrored`` state, or None.

        None when the chain is odd or the state is not mirror-symmetric; a
        ``mirrored`` state gives a copy of itself, and a tailed one raises
        ``ValueError``. The test reads the overlaps
        C[k, k'] = <mirror(R_k) | L_k'> of the mirrored right Schmidt vectors
        R_k with the left half's weighted Schmidt vectors L_k', contracted
        pairwise from both ends in. For a mirror-symmetric state C is complex
        symmetric and holds the whole norm; the state is taken when the
        squared distance to its symmetrised form, 1 - |C|^2 + |(C - C^T)/2|^2,
        is at most ``_MIRROR_TOL``. Then the Takagi factors of
        (C + C^T)/2 = U diag(s) U^T fold into the middle tensor (U^T B), and s,
        renormalised, become the middle Schmidt values.
        """
        if self._tail_sites > 1:
            raise ValueError("a tailed state cannot be mirrored")
        if self.mirrored:
            return self.copy()
        n = self.n_sites
        if n % 2:
            return None
        half = n // 2
        env = np.ones((1, 1))
        for j in range(half):
            env = np.tensordot(env, self.tensors[j], axes=(0, 0))
            env = np.tensordot(env, self.tensors[n - 1 - j].conj(), axes=([0, 1], [2, 1]))
        overlap = env.T
        skew = 0.5 * (overlap - overlap.T)
        defect = 1.0 - np.vdot(overlap, overlap).real + np.vdot(skew, skew).real
        if not defect <= _MIRROR_TOL:
            return None
        u, s = _takagi(overlap - skew)
        mirrored = object.__new__(MpsState)
        mirrored.mirrored = True
        mirrored.tensors = [np.tensordot(u.T, self.tensors[half], axes=(1, 0)),
                            *(t.copy() for t in self.tensors[half + 1:])]
        mirrored.schmidt_values = [s / np.linalg.norm(s), *self.schmidt_values[half + 1:]]
        return mirrored

    def canonicalize(self) -> "MpsState":
        """Bring the tensors to the Schmidt form and normalise them.

        One QR sweep to the last site, then one SVD sweep back that leaves
        right isometries behind and records each cut's singular values.
        Nothing is truncated. A ``mirrored`` or tailed state is refused: its
        gates keep it in the Schmidt form.
        """
        if self.mirrored or self._tail_sites > 1:
            kind = "mirrored" if self.mirrored else "tailed"
            raise ValueError(f"a {kind} state is kept in the Schmidt form by its gates")
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

    def _grow_tail(self, chi_max: int) -> None:
        """Let the tail absorb the tensor to its left while its m sites' space is
        full (its left cut has dimension 2**m) and 2**(m+1) <= ``chi_max``, so no
        cut inside it could ever be truncated. The tail never shrinks, and never
        takes the first held tensor: every layer that holds the bond right of
        it splits that bond by ``apply_two_site_gate``, whose calls the
        benchmark's traced runs count on every workload."""
        while len(self.tensors) > 2:
            m = self._tail_sites
            if self.tensors[-1].shape[0] != 2**m or 2 ** (m + 1) > chi_max:
                return
            pair = _contract(self.tensors[-2:])
            self.tensors[-2:] = [pair.reshape(pair.shape[0], 2, -1)]
            del self.schmidt_values[-2]

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
        if not 0 <= i < len(self.tensors) - 1:
            raise ValueError(f"gate site {i} out of range")
        phi = gate @ _contract(self.tensors[i:i + 2])  # (l, 4, r)
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
        """Apply ``gates[k]``, one of a stacked (len(bonds), 4, 4) complex array,
        to chain bond ``bonds[k]``; return the discarded weight.

        The bonds must be at least two apart, so that no gate reads what
        another one writes. Groups of ``_MIN_STACK`` or more bonds whose pairs
        share a shape (dl, chi, dr) go through one stacked contraction, gate
        product and batched split (``_schmidt_split``), the others through
        ``apply_two_site_gate``, for which stacking costs more than it saves.
        On an untailed state, tensors, Schmidt values and the weight (summed
        in the order of ``bonds``) are bit for bit those of
        ``apply_two_site_gate`` on each bond in turn. A gate on a bond inside
        the tail is one product on the tail reshaped to (chi 2**j, 4,
        2**(m-j-2)), j the bond's place in it; it discards nothing.

        A ``mirrored`` state takes the whole chain's layer too, mapped onto
        the half here alone. The layer must be its own mirror image (gate b is
        gate N-2-b with its sites swapped); this goes unchecked because every
        layer that ``evolve`` passes is one, ``build_hamiltonian`` making a
        uniform chain. A gate on the middle bond h-1 (h = N/2) goes through
        ``apply_middle_gate``, the bonds from h on as above, numbered from h,
        and the weight is twice the right half's plus the middle bond's.
        """
        n_bonds, last = self.n_sites - 1, -2
        for i in sorted(bonds):
            if i - last < 2 or i >= n_bonds:
                raise ValueError(f"gate bonds {tuple(bonds)} must be in range and two apart")
            last = i
        # a mirrored state holds the chain's sites from h on as tensors 0 on: its
        # middle bond is -1, and the mirror images left of it are skipped
        offset = self.n_sites // 2 if self.mirrored else 0
        sites = [i - offset for i in bonds]
        tail = len(self.tensors) - 1
        groups, middle = {}, 0.0
        for k, i in enumerate(sites):
            if i >= tail:  # inside the tail: one exact product, nothing to split
                t = self.tensors[-1]
                pairs = t.reshape(t.shape[0] << (i - tail), 4, -1)
                self.tensors[-1] = (gates[k] @ pairs).reshape(t.shape)
            elif i >= 0:
                shape = (*self.tensors[i].shape, self.tensors[i + 1].shape[2])
                groups.setdefault(shape, []).append(k)
            elif i == -1:
                middle += self.apply_middle_gate(gates[k], policy)
        discarded = [0.0] * len(bonds)
        for rows in groups.values():
            if len(rows) < _MIN_STACK:
                for k in rows:
                    discarded[k] = self.apply_two_site_gate(gates[k], sites[k], policy)
            else:
                weights = self._apply_gate_stack([sites[k] for k in rows], gates[rows], policy)
                for k, weight in zip(rows, weights.tolist()):
                    discarded[k] = weight
        total = 0.0
        for weight in discarded:
            total += weight
        return (2 * total if self.mirrored else total) + middle

    def apply_middle_gate(self, gate, policy) -> float:
        """Apply a swap-symmetric 4x4 gate to the middle bond of a ``mirrored`` state.

        The middle pair, ``_block`` of sites h-1 and h, is Theta[(s, a),
        (t, b)] = sum_k B[k, s, a] lambda_k B[k, t, b], B the first tensor;
        gated, it stays complex symmetric, and its truncated Takagi factors
        M ~ U diag(s) U^T (``_takagi_split``) re-split it: U^T is the new
        first tensor (a right isometry) and s, cut by ``_truncation_rank``,
        the middle Schmidt values. Returns the discarded weight of this one cut; the state is
        renormalised afterwards.
        """
        if not self.mirrored:
            raise ValueError("the middle-bond gate needs a mirrored state")
        half = self.n_sites // 2
        phi = gate @ self._block(half - 1, half)  # (r, 4, r)
        dr = phi.shape[0]
        # rows: site h-1 and its bond; columns: site h and its bond
        block = phi.reshape(dr, 2, 2, dr).transpose(1, 0, 2, 3).reshape(2 * dr, 2 * dr)
        u, s, discarded = _takagi_split(0.5 * (block + block.T), policy)
        self.tensors[0] = u.T.reshape(len(s), 2, dr)
        self.schmidt_values[0] = s / np.linalg.norm(s)
        return discarded

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
        m m^H of the block's contraction (``_block``). It comes back unchecked:
        ``evolve`` validates a run's matrices of one block as one stacked
        ``DensityMatrix``.
        """
        sites = _block_sites(sites, self.n_sites)
        if len(sites) > RDM_SITE_CAP:
            raise ValueError(f"block of {len(sites)} sites exceeds the cap of {RDM_SITE_CAP}")
        block = self._block(sites[0], sites[-1])
        # rows: the block's physical index; columns: both bond indices
        m = block.transpose(1, 0, 2).reshape(block.shape[1], -1)
        rho = m @ m.conj().T
        return 0.5 * (rho + rho.conj().T)

    def energy(self, hspec: HamiltonianSpec) -> float:
        """Sum of bond-term expectations, one ``_block`` of two sites per bond.

        A ``mirrored`` state reads the middle bond's term plus twice each
        right-half bond's: the chain is uniform, so a bond's mirror image
        holds the same energy.
        """
        if hspec.n_sites != self.n_sites:
            raise ValueError(
                f"Hamiltonian has {hspec.n_sites} sites, state has {self.n_sites}"
            )
        terms = hspec.bond_terms
        half = self.n_sites // 2 if self.mirrored else 0
        total = 0.0 + 0.0j
        for b in range(max(half - 1, 0), self.n_sites - 1):
            theta = self._block(b, b + 1)
            weight = 2.0 if 0 < half <= b else 1.0
            total += weight * np.vdot(theta, terms[b] @ theta)
        # the imaginary part is rounding, which grows with the terms' scale
        if abs(total.imag) > 1e-10 * max(1.0, abs(total)):
            raise ValueError(f"energy has imaginary part {total.imag}")
        return float(total.real)

    def _block(self, first, last) -> np.ndarray:
        """Sites first..last of the chain contracted into legs (l, 2**len, r).

        Both kinds of state are mixed-canonical about a centre cut h: left
        isometries, that cut's Schmidt values, then right isometries
        (Schollwoeck, Ann. Phys. 326, 96 (2011)). The Schmidt form has h = 0; a
        ``mirrored`` state has the middle cut, and its site g < h is the held
        site h-1-g read from its other end (``_mirror``). So the block is its
        sites' tensors (``_run``) with the values of its cut nearest the centre
        scaled in, and m m^H of it, m its physical index against both bonds, is
        the block's state.
        """
        half = self.n_sites // 2 if self.mirrored else 0
        run = []
        if first < half:  # the mirror images of held sites half-1-last .. half-1-first
            held = self._run(max(half - 1 - last, 0), half - first, last < half)
            run = [_mirror(t) for t in reversed(held)]
        if last >= half:
            run += self._run(max(first - half, 0), last + 1 - half, True)
        return _contract(run)

    def _run(self, start, stop, scaled) -> list:
        """The tensors of held sites start..stop-1, counted from the centre cut,
        with legs (l, 2**s, r): the tail, reshaped, holds its sites in the range
        on its physical leg and its others in its bond legs. ``scaled`` scales
        the values of the cut left of ``start`` into the first tensor."""
        tail = len(self.tensors) - 1
        run = self.tensors[min(start, tail):min(stop, tail + 1)]
        if scaled:
            run[0] = self.schmidt_values[min(start, tail)][:, None, None] * run[0]
        if stop > tail:
            before = max(start - tail, 0)
            run[-1] = run[-1].reshape(run[-1].shape[0] << before, 2 ** (stop - tail - before), -1)
        return run


def _mirror(t) -> np.ndarray:
    """A run tensor (l, 2**s, r) read from its other end: legs (r, 2**s, l), sites reversed."""
    l, d, r = t.shape
    return t.reshape(l, *[2] * (d.bit_length() - 1), r).T.reshape(r, d, l)


def _block_sites(sites, n_sites: int) -> tuple:
    """``sites`` as a tuple, checked to be a non-empty contiguous range of a chain."""
    sites = tuple(sites)
    if not sites or sites != tuple(range(max(sites[0], 0), min(sites[-1] + 1, n_sites))):
        raise ValueError(f"sites {sites} are not a contiguous range of the {n_sites} sites")
    return sites


def _contract(tensors) -> np.ndarray:
    """A run of site tensors contracted into legs (l, 2**len, r), one matmul per bond."""
    block = tensors[0]
    for t in tensors[1:]:
        block = block.reshape(-1, t.shape[0]) @ t.reshape(t.shape[0], -1)
    return block.reshape(tensors[0].shape[0], -1, tensors[-1].shape[2])


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


def _takagi(m: np.ndarray):
    """Takagi factors ``(u, s)`` of a complex symmetric n x n matrix: m = u diag(s) u^T.

    The real form: one real ``eigh`` of [[Re m, Im m], [Im m, -Re m]], whose
    spectrum is +-s: the eigenvectors (x; y) of its n largest eigenvalues give
    the columns x + iy of u, degenerate values included (Horn and Johnson,
    Matrix Analysis, 2nd ed. (2013), section 4.4). ``s`` is descending, and
    ``u`` is unitary where s > 0. A matrix holding NaN or inf gives NaN, for
    the caller's finiteness checks. ``mirror_half`` splits by this alone, and
    ``_takagi_split`` falls back to it where its phases fail.
    """
    n = len(m)
    if not np.isfinite(m).all():
        return np.full((n, n), np.nan + 0j), np.full(n, np.nan)
    re, im = m.real, m.imag
    w, v = np.linalg.eigh(np.block([[re, im], [im, -re]]))
    w, v = w[n:][::-1], v[:, n:][:, ::-1]
    return v[:n] + 1j * v[n:], np.maximum(w, 0.0)


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
# the per-cut budget is at least _GRAM_FLOOR times n * eps, the rounding floor
# of squared values read from the n x n Gram matrix of a unit-norm block. Below 8
# columns the SVD costs about the same, and a wide block's n x n Gram costs
# more than its SVD (3x at 8 x 32)
_GRAM_MIN_COLS = 8
_GRAM_FLOOR = 10
_EPS = np.finfo(float).eps


def _schmidt_split(theta: np.ndarray, policy: TruncationPolicy):
    """Singular values and right vectors ``(s, vh)`` of a unit-norm block or stack.

    Hastings' update reads only these, so tall blocks skip ``u``: ``eigh`` of
    theta^H theta gives s^2, to about n * eps, and vh. Other shapes, budgets
    near that floor (``cutoff`` 0) and blocks on which ``eigh`` fails take the
    SVD. The choice rests on shape and policy alone, so a stack and its rows
    split alike. This is the one place that makes it: the middle bond's
    Takagi split (``_takagi_split``) reads its values and vectors from here.
    """
    m, n = theta.shape[-2:]
    if m >= n >= _GRAM_MIN_COLS and policy.cutoff * TRUNCATION_MARGIN >= _GRAM_FLOOR * n * _EPS:
        try:
            w, v = np.linalg.eigh(theta.conj().swapaxes(-1, -2) @ theta)
            return np.sqrt(np.maximum(w[..., ::-1], 0.0)), v[..., ::-1].conj().swapaxes(-1, -2)
        except np.linalg.LinAlgError:
            pass  # the SVD below
    _, s, vh = _svd(theta)
    return s, vh


def _takagi_split(m: np.ndarray, policy: TruncationPolicy):
    """Truncated Takagi factors ``(u, s, discarded)`` of a unit-norm complex symmetric block.

    m ~ u diag(s) u^T, with ``u`` the n x keep kept columns (orthonormal),
    ``s`` the kept values, cut by ``_truncation_rank``, and ``discarded`` the
    dropped weight. The values and right vectors come from ``_schmidt_split``:
    since m^H m = conj(u) diag(s^2) u^T, any right singular vectors are
    columns v_k = conj(u_k) e^{i phi_k}, one phase per column (Horn and
    Johnson, Matrix Analysis, 2nd ed. (2013), section 4.4). The phases are
    read from c_k = (v^T m v)_kk = s_k e^{2 i phi_k}: u_k = conj(v_k)
    sqrt(c_k / |c_k|), with phase 1 where c_k = 0. The kept column's residual
    |m conj(u_k) - s_k u_k|^2 = 2 s_k (s_k - |c_k|) is the weight the split
    adds to the block's error beside the dropped values, so ``u`` is kept
    only when these sum to at most the per-cut budget. Blocks that fail this
    test (degenerate kept values, whose vectors the split may mix; at cutoff
    0 any residual above rounding; blocks holding NaN or inf) take the real
    form (``_takagi``), a NaN block splitting into NaN.
    """
    s, vh = _schmidt_split(m, policy)
    keep, discarded = _truncation_rank(s, policy)
    s, v = s[:keep], vh[:keep].conj().T
    c = np.sum(v * (m @ v), axis=0)
    if 2.0 * np.dot(s, s - np.abs(c)) <= policy.cutoff * TRUNCATION_MARGIN:
        return v.conj() * np.exp(0.5j * np.angle(c)), s, discarded
    u, s = _takagi(m)
    keep, discarded = _truncation_rank(s, policy)
    return u[:, :keep], s[:keep], discarded


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
