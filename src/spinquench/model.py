"""Mixed-field Ising chain on open boundaries, compiled into two-site bond terms.

The Hamiltonian is

    H = -J sum_j sz_j sz_{j+1}  -  h_x sum_j sx_j  -  h_z sum_j sz_j

on N sites (0-based in code). Single-site fields are absorbed into the
nearest-neighbour bond terms: an interior site contributes half of its field
to each adjacent bond, a boundary site contributes its full field to its only
bond, so the bond terms sum back to H exactly.

Bond terms are generic 4x4 Hermitian matrices; the Ising case is just the
instance built by :func:`build_hamiltonian`. Trotter gates are exact matrix
exponentials of the bond terms (eigendecomposition of a 4x4 Hermitian).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-12


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
        if self.n_sites < 1:
            raise ValueError(f"need at least one site, got n_sites={self.n_sites}")
        for name in ("coupling", "h_x", "h_z"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True, eq=False)
class HamiltonianSpec:
    """A chain Hamiltonian as an ordered list of two-site bond terms.

    ``bond_terms[b]`` acts on sites (b, b+1); each term is Hermitian.
    """

    params: HamiltonianParams
    bond_terms: tuple = field(repr=False)

    def __post_init__(self):
        if len(self.bond_terms) != self.params.n_sites - 1:
            raise ValueError(
                f"expected {self.params.n_sites - 1} bond terms, got {len(self.bond_terms)}"
            )
        for b, term in enumerate(self.bond_terms):
            if term.shape != (4, 4):
                raise ValueError(f"bond term {b} has shape {term.shape}, expected (4, 4)")
            if np.max(np.abs(term - term.conj().T)) > HERMITICITY_TOL:
                raise ValueError(f"bond term {b} is not Hermitian")

    @property
    def n_sites(self) -> int:
        return self.params.n_sites


@dataclass(frozen=True, eq=False)
class TrotterScheme:
    """One second-order step: odd bonds at tau/2, even bonds at tau, odd at tau/2.

    ``gate_layers`` is an ordered sequence of layers, each a tuple of
    ``(bond, gate)`` pairs with ``gate`` a complex 4x4 unitary acting on sites
    (bond, bond+1). Bonds within a layer are disjoint, so gates in a layer
    commute and may be applied in any order.
    """

    tau: float
    gate_layers: tuple

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"time step must be positive, got {self.tau}")
        eye = np.eye(4)
        for layer in self.gate_layers:
            for bond, gate in layer:
                # the MPS gate path relies on this and checks neither itself
                if gate.shape != (4, 4) or gate.dtype != np.complex128:
                    raise ValueError(
                        f"gate on bond {bond} must be a complex128 4x4 array, "
                        f"got {gate.dtype} {gate.shape}"
                    )
                if np.max(np.abs(gate.conj().T @ gate - eye)) > UNITARITY_TOL:
                    raise ValueError(f"gate on bond {bond} is not unitary")


def build_hamiltonian(params: HamiltonianParams) -> HamiltonianSpec:
    """Compile the mixed-field Ising chain into per-bond 4x4 Hermitian terms.

    Field weights: 1/2 per adjacent bond for interior sites, full weight for
    the two boundary sites, so the embedded sum of bond terms equals H.
    """
    n = params.n_sites
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
    return HamiltonianSpec(params=params, bond_terms=tuple(terms))


def _bond_exponential(term: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i * term * dt) for a Hermitian 4x4, via eigendecomposition."""
    evals, evecs = np.linalg.eigh(term)
    return (evecs * np.exp(-1j * dt * evals)) @ evecs.conj().T


def build_trotter_gates(hspec: HamiltonianSpec, tau: float) -> TrotterScheme:
    """Second-order symmetric splitting of exp(-i H tau) into bond gates.

    Layer ordering is odd-even-odd, where the "odd" layer holds bonds
    0, 2, 4, ... (first, third, ... bond of the chain) and the "even" layer
    bonds 1, 3, 5, ...; the outer layers carry tau/2, the inner layer tau.
    """
    if tau <= 0:
        raise ValueError(f"time step must be positive, got {tau}")
    n_bonds = len(hspec.bond_terms)
    half = tuple(
        (b, _bond_exponential(hspec.bond_terms[b], tau / 2.0)) for b in range(0, n_bonds, 2)
    )
    full = tuple(
        (b, _bond_exponential(hspec.bond_terms[b], tau)) for b in range(1, n_bonds, 2)
    )
    return TrotterScheme(tau=tau, gate_layers=(half, full, half))
