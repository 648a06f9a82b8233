"""Mixed-field Ising chain on open boundaries, compiled into two-site bond terms.

The Hamiltonian is

    H = -J sum_j sz_j sz_{j+1}  -  h_x sum_j sx_j  -  h_z sum_j sz_j

on N sites (0-based in code). Single-site fields are absorbed into the
nearest-neighbour bond terms: an interior site contributes half of its field
to each adjacent bond, a boundary site contributes its full field to its only
bond, so the bond terms sum back to H exactly.

A ``HamiltonianSpec`` holds the couplings and derives the bond terms from
them, so the two cannot disagree: DMRG builds its MPO from the couplings,
the gates and ``MpsState.energy`` read the bond terms. Trotter gates are
exact matrix exponentials of the bond terms (eigendecomposition of a 4x4
Hermitian), stacked per layer in the form the MPS gate path applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
import numbers

import numpy as np

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class HamiltonianParams:
    """Couplings of the mixed-field Ising chain.

    ``n_sites >= 1`` is accepted here so the dense single-spin limit stays
    expressible; bond-term construction additionally requires two sites.
    """

    coupling: float
    h_x: float
    h_z: float
    n_sites: int

    def __post_init__(self):
        n = self.n_sites
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"n_sites must be an integer >= 1, got {n!r}")
        for name in ("coupling", "h_x", "h_z"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True, eq=False)
class HamiltonianSpec:
    """The chain's couplings and the two-site bond terms derived from them.

    ``bond_terms[b]`` acts on sites (b, b+1). Field weights: 1/2 per adjacent
    bond for interior sites, full weight for the two boundary sites, so the
    embedded sum of bond terms equals H.
    """

    params: HamiltonianParams
    bond_terms: tuple = field(init=False, repr=False)

    def __post_init__(self):
        params, n = self.params, self.params.n_sites
        if n < 2:
            raise ValueError(f"bond terms need at least two sites, got n_sites={n}")
        terms = []
        for b in range(n - 1):
            w_left = 1.0 if b == 0 else 0.5
            w_right = 1.0 if b + 1 == n - 1 else 0.5
            left_field = w_left * (params.h_x * SX + params.h_z * SZ)
            right_field = w_right * (params.h_x * SX + params.h_z * SZ)
            term = (
                -params.coupling * np.kron(SZ, SZ)
                - np.kron(left_field, ID2)
                - np.kron(ID2, right_field)
            )
            terms.append(term)
        object.__setattr__(self, "bond_terms", tuple(terms))

    @property
    def n_sites(self) -> int:
        return self.params.n_sites


def build_hamiltonian(params: HamiltonianParams) -> HamiltonianSpec:
    """The mixed-field Ising chain of ``params`` with its per-bond 4x4 Hermitian terms."""
    return HamiltonianSpec(params)


def _bond_exponential(term: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i * term * dt) for a Hermitian 4x4, via eigendecomposition."""
    evals, evecs = np.linalg.eigh(term)
    return (evecs * np.exp(-1j * dt * evals)) @ evecs.conj().T


def build_trotter_gates(hspec: HamiltonianSpec, tau: float):
    """Second-order symmetric splitting of exp(-i H tau) into three gate layers.

    Each layer is a pair ``(bonds, gates)``, as ``MpsState.apply_gate_layer``
    takes it: ``bonds`` a tuple of bonds two apart, ``gates`` the (len(bonds),
    4, 4) complex128 stack of their unitaries. The order is odd-even-odd,
    where the "odd" layer holds bonds 0, 2, 4, ... (first, third, ... bond of
    the chain) at tau/2 and the "even" layer bonds 1, 3, 5, ... at tau; the
    two odd layers are one shared pair.
    """
    if tau <= 0:
        raise ValueError(f"time step must be positive, got {tau}")

    def layer(first, dt):
        bonds = tuple(range(first, len(hspec.bond_terms), 2))
        gates = [_bond_exponential(hspec.bond_terms[b], dt) for b in bonds]
        return bonds, np.array(gates, dtype=complex).reshape(len(bonds), 4, 4)

    half = layer(0, tau / 2.0)
    return half, layer(1, tau), half
