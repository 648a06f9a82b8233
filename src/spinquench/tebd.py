"""Quench evolution: second-order Trotter stepping with on-grid recording.

A run evolves a state under the post-quench Hamiltonian, snapshotting the
centered block density matrices, the energy, the largest bond dimension and
the accumulated discarded weight every ``record_stride`` steps (the t = 0
snapshot always included). The state is a copy of the initial ``MpsState``
and, like every ``MpsState``, in the Schmidt form: every gate updates its own
bond in place, so the gates of a layer may run in any order, and each snapshot
reads local contractions without re-gauging the chain. The three layers of a
step come from ``build_trotter_gates`` once per run, each a stack of gates, and
a layer is applied by one ``MpsState.apply_gate_layer`` call, which batches the
bonds that share a shape.
A snapshot keeps each block's Hermitian matrix unchecked; when the run ends,
each block size's matrices become one stacked ``DensityMatrix``, validated by
one batched check and eigensolve.

Before the first step and after each one, the copy's last sites join its
exact tail while their cuts are full and ``chi_max`` could not bind inside it
(``MpsState._grow_tail``); gates inside the tail need no split.

The post-quench chain is uniform (``build_hamiltonian``), so every layer is
its own mirror image. When the start state of an even chain is
mirror-symmetric too (``MpsState.mirror_half``), the same loop evolves the
right half alone: ``MpsState.apply_gate_layer`` maps each layer onto it.
Odd chains and asymmetric start states take the full path;
``EvolutionRecord.evolution_path`` says which ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .model import HamiltonianParams, build_hamiltonian, build_trotter_gates
from .mps import RDM_SITE_CAP, DensityMatrix, MpsState, TruncationPolicy

_GRID_SLACK = 1e-9
_STALL_STEPS = 10
_STALL_FACTOR = 100.0


@dataclass(frozen=True)
class QuenchProtocol:
    """Sudden quench: an initial state evolved under ``post``."""

    post: HamiltonianParams
    t_max: float = 20.0
    tau: float = 0.01
    record_stride: int = 10
    subsystem_sizes: tuple = (1, 2, 3, 4)
    policy: TruncationPolicy = field(default_factory=TruncationPolicy)

    def __post_init__(self):
        if self.t_max <= 0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.record_stride < 1:
            raise ValueError(f"record_stride must be at least 1, got {self.record_stride}")
        for ell in self.subsystem_sizes:
            if not 1 <= ell <= RDM_SITE_CAP:
                raise ValueError(f"subsystem size {ell} outside 1..{RDM_SITE_CAP}")

    @property
    def record_spacing(self) -> float:
        return self.record_stride * self.tau


@dataclass(eq=False)
class EvolutionRecord:
    """Time-indexed archive of one quench run.

    ``rdms[ell].entries[k]`` is the block density matrix of size ``ell`` at
    ``times[k]``; ``energies``, ``max_bond`` and ``cumulative_discarded`` are
    parallel to ``times``. Each ``rdms[ell]`` is one stacked ``DensityMatrix``
    with entries (n_times, d, d), and its ``sites`` name the block.
    ``evolution_path`` is ``"mirror-half"`` when the run evolved the right
    half of a mirror-symmetric chain, else ``"full"``.
    """

    times: np.ndarray
    spacing: float
    rdms: dict
    energies: np.ndarray
    max_bond: list
    cumulative_discarded: np.ndarray
    aborted: bool = False
    abort_reason: str | None = None
    evolution_path: str = "full"

    def __post_init__(self):
        if len(self.times) == 0 or abs(self.times[0]) > 1e-15:
            raise ValueError("recorded times must start at 0")
        if len(self.times) > 1:
            gaps = np.diff(self.times)
            if np.max(np.abs(gaps - self.spacing)) > _GRID_SLACK:
                raise ValueError("recorded times are not uniformly spaced")

    @property
    def n_times(self) -> int:
        return len(self.times)


def grid_offset(delta: float, spacing: float) -> int:
    """Index offset of a separation ``delta`` on a record grid of ``spacing``.

    ``delta / spacing`` must be a non-negative integer within 1e-6; anything
    else raises ``ValueError``. A config's delta grid and a distance series'
    separation are both checked by this rule.
    """
    ratio = delta / spacing
    offset = round(ratio) if math.isfinite(ratio) else -1
    if offset < 0 or abs(ratio - offset) > 1e-6:
        raise ValueError(f"separation {delta:g} is not a multiple of the record spacing "
                         f"{spacing:g}")
    return offset


def centered_block(n_sites: int, ell: int):
    """Contiguous block of ``ell`` sites centered in the chain (0-based)."""
    if not 1 <= ell <= n_sites:
        raise ValueError(f"block size {ell} outside chain of {n_sites} sites")
    start = (n_sites - ell) // 2
    return tuple(range(start, start + ell))


def evolve(initial: MpsState, protocol: QuenchProtocol) -> EvolutionRecord:
    """Run the quench and return the recorded archive.

    The input state is left untouched; evolution happens on a copy: of its
    right half when the chain is even and the state mirror-symmetric
    (``MpsState.mirror_half``), else of the whole state. Aborts with a
    partial (flagged) record when values go non-finite or when the bond
    dimension saturates while the per-step discarded weight stays above 100x
    the cutoff for ten consecutive steps. The block states are validated
    when the record is made, so a block matrix that is not a density matrix
    raises ``ValueError`` when ``evolve`` returns, not at its snapshot.
    """
    n = protocol.post.n_sites
    if initial.n_sites != n:
        raise ValueError(f"state has {initial.n_sites} sites, protocol expects {n}")
    hspec = build_hamiltonian(protocol.post)
    layers = build_trotter_gates(hspec, protocol.tau)
    policy = protocol.policy
    blocks = {ell: centered_block(n, ell) for ell in protocol.subsystem_sizes}
    state = initial.mirror_half() or initial.copy()

    n_steps = math.ceil(protocol.t_max / protocol.tau - _GRID_SLACK)
    times, energies, max_bonds, cum_discarded = [], [], [], []
    rdms = {ell: [] for ell in protocol.subsystem_sizes}

    total_discarded = 0.0
    stalled_steps = 0
    aborted = False
    abort_reason = None

    def snapshot(step_index: int) -> bool:
        t = (step_index // protocol.record_stride) * protocol.record_spacing
        energy = state.energy(hspec)
        if not math.isfinite(energy) or not math.isfinite(total_discarded):
            return False
        times.append(t)
        energies.append(energy)
        max_bonds.append(max(state.bond_dims))
        cum_discarded.append(total_discarded)
        for ell, sites in blocks.items():
            rdms[ell].append(state.rdm(sites))
        return True

    if not snapshot(0):
        raise ValueError("initial state has non-finite values")
    state._grow_tail(policy.chi_max)

    for step in range(1, n_steps + 1):
        step_discarded = 0.0
        for bonds, gates in layers:
            step_discarded += state.apply_gate_layer(bonds, gates, policy)
        total_discarded += step_discarded
        state._grow_tail(policy.chi_max)

        if max(state.bond_dims) >= policy.chi_max and step_discarded > _STALL_FACTOR * policy.cutoff:
            stalled_steps += 1
        else:
            stalled_steps = 0
        if stalled_steps >= _STALL_STEPS:
            aborted = True
            abort_reason = (
                f"truncation budget exceeded: bond dimension at {policy.chi_max} with "
                f"per-step discarded weight > {_STALL_FACTOR:g}x cutoff for {_STALL_STEPS} steps"
            )
            break
        if step % protocol.record_stride == 0 and step * protocol.tau <= protocol.t_max + _GRID_SLACK:
            if not snapshot(step):
                aborted = True
                abort_reason = "non-finite values during evolution"
                break

    return EvolutionRecord(
        times=np.array(times),
        spacing=protocol.record_spacing,
        rdms={ell: DensityMatrix(entries=np.array(rows), sites=blocks[ell])
              for ell, rows in rdms.items()},
        energies=np.array(energies),
        max_bond=max_bonds,
        cumulative_discarded=np.array(cum_discarded),
        aborted=aborted,
        abort_reason=abort_reason,
        evolution_path="mirror-half" if state.mirrored else "full",
    )
