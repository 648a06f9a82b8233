"""Quench evolution loop: recording grid, diagnostics, oracle agreement, aborts."""

import pickle

import numpy as np
import pytest

from spinquench.model import (
    SZ, HamiltonianParams, build_hamiltonian, build_trotter_gates,
)
from spinquench.mps import MpsState, TruncationPolicy
from spinquench.dmrg import ground_state
from spinquench.tebd import EvolutionRecord, QuenchProtocol, centered_block, evolve, grid_offset
from spinquench.exact import DensePropagator, ed_rdm

from helpers import all_plus_state, all_up_state, random_state, to_statevector

PARA = HamiltonianParams(0.2, 1.0, 0.0, 10)
FERRO = HamiltonianParams(1.0, 0.1, 0.5, 10)


def short_protocol(**overrides):
    defaults = dict(
        post=FERRO, t_max=2.0, tau=0.01, record_stride=10,
        subsystem_sizes=(1, 2, 3), policy=TruncationPolicy(1e-9, 50),
    )
    defaults.update(overrides)
    return QuenchProtocol(**defaults)


@pytest.fixture(scope="module")
def para_ground():
    return ground_state(build_hamiltonian(PARA), seed=3)


def test_centered_block_placement():
    assert centered_block(10, 4) == (3, 4, 5, 6)
    assert centered_block(10, 3) == (3, 4, 5)
    assert centered_block(10, 1) == (4,)
    assert centered_block(60, 4) == (28, 29, 30, 31)
    # blocks of successive sizes nest, which contractivity checks rely on
    for n in (10, 11, 60, 61):
        for ell in range(1, 4):
            inner = set(centered_block(n, ell))
            outer = set(centered_block(n, ell + 1))
            assert inner < outer
    with pytest.raises(ValueError):
        centered_block(4, 5)


def test_record_only_t0_when_horizon_below_step(para_ground):
    record = evolve(para_ground.state, short_protocol(t_max=0.005))
    assert record.n_times == 1
    assert record.times[0] == 0.0
    assert len(record.rdms[2]) == 1
    assert record.rdms[2].entries.shape == (1, 4, 4)


def test_recording_grid_and_diagnostics(para_ground):
    record = evolve(para_ground.state, short_protocol())
    assert record.n_times == 21
    assert np.allclose(np.diff(record.times), 0.1, atol=1e-12)
    assert record.spacing == pytest.approx(0.1)
    assert not record.aborted
    assert all(np.isfinite(record.energies))
    assert np.all(np.diff(record.cumulative_discarded) >= 0)
    assert max(record.max_bond) <= 50
    for ell in (1, 2, 3):
        assert len(record.rdms[ell]) == 21
        assert record.rdms[ell].sites == centered_block(10, ell)


def test_initial_state_is_not_mutated(para_ground):
    state = para_ground.state.copy()
    before = [t.copy() for t in state.tensors]
    evolve(state, short_protocol(t_max=0.5))
    for old, new in zip(before, state.tensors):
        assert np.array_equal(old, new)


def test_real_ground_state_evolves_like_its_complex_copy(para_ground):
    assert all(t.dtype == np.float64 for t in para_ground.state.tensors)
    twin = MpsState([t.astype(complex) for t in para_ground.state.tensors])
    protocol = short_protocol(t_max=0.5)
    real_record, complex_record = evolve(para_ground.state, protocol), evolve(twin, protocol)
    assert np.max(np.abs(real_record.energies - complex_record.energies)) <= 1e-11
    for ell in protocol.subsystem_sizes:
        assert real_record.rdms[ell].entries.dtype == np.complex128
        deviation = np.abs(real_record.rdms[ell].entries - complex_record.rdms[ell].entries)
        assert np.max(deviation) <= 1e-11  # rounding, amplified by the Gram splits


def test_decoupled_spins_precess_analytically():
    params = HamiltonianParams(0.0, 1.0, 0.0, 6)
    protocol = QuenchProtocol(
        post=params, t_max=2.0, tau=0.01, record_stride=5,
        subsystem_sizes=(1,), policy=TruncationPolicy(1e-9, 50),
    )
    record = evolve(all_up_state(6), protocol)
    assert max(record.max_bond) == 1
    for k, t in enumerate(record.times):
        sz = float(np.real(np.trace(record.rdms[1].entries[k] @ SZ)))
        assert sz == pytest.approx(np.cos(2 * t), abs=1e-10)


def test_norm_and_energy_drift(para_ground):
    record = evolve(para_ground.state, short_protocol(t_max=3.0))
    drift = np.max(np.abs(record.energies - record.energies[0])) / abs(record.energies[0])
    assert drift <= 1e-3
    for ell in (1, 2, 3):
        for rho in record.rdms[ell].entries:
            assert abs(np.trace(rho) - 1.0) <= 1e-8


def test_energy_of_large_couplings_reads_within_its_relative_rounding():
    # |E| ~ 1e6 here, so its rounding leaves an imaginary part above 1e-10
    post = HamiltonianParams(1.1e5, 3.7e4, 6.1e4, 8)
    protocol = QuenchProtocol(post=post, t_max=0.05, tau=0.01, record_stride=1,
                              subsystem_sizes=(1, 2))
    record = evolve(all_up_state(8), protocol)
    assert not record.aborted and record.evolution_path == "mirror-half"
    assert record.n_times == 6


def test_matches_dense_oracle(para_ground):
    record = evolve(para_ground.state, short_protocol(t_max=2.0))
    reference = to_statevector(para_ground.state)
    propagator = DensePropagator(FERRO)
    for k, t in enumerate(record.times):
        psi = propagator.evolve(reference, float(t))
        for ell in (1, 2, 3):
            ref = ed_rdm(psi, record.rdms[ell].sites)
            assert np.max(np.abs(ref - record.rdms[ell].entries[k])) <= 1e-4


def test_record_stacks_are_validated_once_and_read_only(para_ground):
    record = evolve(para_ground.state, short_protocol(t_max=1.0))
    # a record sent back by a worker process stays read-only, its spectra intact
    twin = pickle.loads(pickle.dumps(record))
    for ell in (1, 2, 3):
        stack = record.rdms[ell]
        assert stack.entries.shape == (record.n_times, 2**ell, 2**ell)
        for k in range(record.n_times):
            assert np.array_equal(stack.spectrum()[k], np.linalg.eigvalsh(stack.entries[k]))
        with pytest.raises(ValueError, match="read-only"):
            stack.entries[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            stack.entries[0][0, 0] = 1.0
        copy = twin.rdms[ell]
        assert not copy.entries.flags.writeable and not copy.spectrum().flags.writeable
        assert np.array_equal(copy.entries, stack.entries) and copy.sites == stack.sites
        assert np.array_equal(copy.spectrum(), stack.spectrum())


def test_invalid_block_state_raises_when_the_record_is_made(para_ground, monkeypatch):
    original = MpsState.rdm
    calls = []

    def skewed(self, sites, *args, **kwargs):
        rho = original(self, sites, *args, **kwargs)
        calls.append(sites)
        return 1.5 * rho if len(calls) == 5 else rho

    monkeypatch.setattr(MpsState, "rdm", skewed)
    with pytest.raises(ValueError, match="is not 1"):
        evolve(para_ground.state, short_protocol(t_max=0.5))
    assert len(calls) == 3 * 6  # every snapshot ran before the check


def test_determinism(para_ground):
    a = evolve(para_ground.state, short_protocol(t_max=1.0))
    b = evolve(para_ground.state, short_protocol(t_max=1.0))
    assert np.array_equal(a.energies, b.energies)
    for ell in (1, 2, 3):
        assert np.array_equal(a.rdms[ell].entries, b.rdms[ell].entries)


def test_abort_on_saturated_bond_with_large_discards():
    pre = HamiltonianParams(1.0, 0.1, 0.5, 12)
    post = HamiltonianParams(0.2, 1.0, 0.0, 12)
    gs = ground_state(build_hamiltonian(pre), seed=3)
    protocol = QuenchProtocol(
        post=post, t_max=5.0, tau=0.01, record_stride=10,
        subsystem_sizes=(1, 2), policy=TruncationPolicy(1e-9, 2),
    )
    record = evolve(gs.state, protocol)
    assert record.aborted
    assert "truncation budget" in record.abort_reason
    assert record.n_times >= 1  # partial record retained
    assert record.times[-1] < 5.0


def test_grid_offset_validation(para_ground):
    record = evolve(para_ground.state, short_protocol(t_max=1.0))
    assert grid_offset(0.3, record.spacing) == 3
    for off_grid in (0.35, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="not a multiple of the record spacing"):
            grid_offset(off_grid, record.spacing)


def test_protocol_validation():
    with pytest.raises(ValueError):
        short_protocol(t_max=0.0)
    with pytest.raises(ValueError):
        short_protocol(tau=-0.01)
    with pytest.raises(ValueError):
        short_protocol(record_stride=0)
    with pytest.raises(ValueError):
        short_protocol(subsystem_sizes=(7,))


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        evolve(all_up_state(8), short_protocol())


def test_record_validation():
    with pytest.raises(ValueError):
        EvolutionRecord(
            times=np.array([0.5, 1.0]), spacing=0.5, rdms={},
            energies=np.zeros(2), max_bond=[1, 1], cumulative_discarded=np.zeros(2),
        )
    with pytest.raises(ValueError):
        EvolutionRecord(
            times=np.array([0.0, 0.5, 1.5]), spacing=0.5, rdms={},
            energies=np.zeros(3), max_bond=[1, 1, 1], cumulative_discarded=np.zeros(3),
        )


def test_evolve_regauges_at_most_once(monkeypatch):
    n = 20
    protocol = QuenchProtocol(
        post=HamiltonianParams(1.0, 0.1, 0.5, n),
        t_max=0.5, tau=0.01, record_stride=10, subsystem_sizes=(1, 2, 3, 4),
        policy=TruncationPolicy(1e-9, 50),
    )
    calls = []
    original = MpsState.canonicalize

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(MpsState, "canonicalize", counting)
    record = evolve(all_plus_state(n), protocol)
    assert record.n_times == 6
    assert max(record.max_bond) > 1
    assert len(calls) == 1  # when the product state was made


def test_ground_state_is_handed_over_in_schmidt_form(para_ground, monkeypatch):
    state = para_ground.state
    for t in state.tensors:  # right isometries, as the Schmidt form has them
        mat = t.reshape(t.shape[0], -1)
        assert np.max(np.abs(mat @ mat.conj().T - np.eye(t.shape[0]))) <= 1e-10
    assert para_ground.energy == state.energy(build_hamiltonian(PARA))
    calls = []
    original = MpsState.canonicalize

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(MpsState, "canonicalize", counting)
    record = evolve(state, short_protocol(t_max=0.2))
    assert record.n_times == 3 and not record.aborted
    assert calls == []


def test_evolve_stacks_gates_and_matches_per_gate_record(monkeypatch):
    n = 20
    protocol = QuenchProtocol(
        post=HamiltonianParams(1.0, 0.1, 0.5, n),
        t_max=0.5, tau=0.01, record_stride=10, subsystem_sizes=(1, 2, 3, 4),
        policy=TruncationPolicy(1e-9, 50),
    )
    calls = []
    original = MpsState.apply_two_site_gate

    def counting(self, gate, left_site, policy):
        calls.append(left_site)
        return original(self, gate, left_site, policy)

    def one_by_one(self, sites, gates, policy):
        return np.array([self.apply_two_site_gate(gate, i, policy) for i, gate in zip(sites, gates)])

    monkeypatch.setattr(MpsState, "apply_two_site_gate", counting)
    stacked = evolve(all_plus_state(n), protocol)
    stacked_calls = len(calls)
    calls.clear()
    # below the whole-chain mapping: every stack of a layer gate by gate
    monkeypatch.setattr(MpsState, "_apply_gate_stack", one_by_one)
    reference = evolve(all_plus_state(n), protocol)
    gates_applied = len(calls)

    # the product state is mirror-symmetric: the right half's bonds 10..18 go
    # through the layers, the middle bond 9 through its own split. The tail
    # holds sites 18, 19 in steps 2-36 and sites 17-19 in steps 37-50, and the
    # bonds inside it take no split: bond 18 in the two odd layers, bond 17 in
    # the even one
    assert stacked.evolution_path == "mirror-half"
    assert gates_applied == 50 * (5 + 4 + 5) - 35 * 2 - 14 * 3
    assert stacked_calls < gates_applied
    assert max(stacked.max_bond) > 1
    assert stacked.max_bond == reference.max_bond
    for field in ("times", "energies", "cumulative_discarded"):
        assert np.array_equal(getattr(stacked, field), getattr(reference, field))
    for ell in protocol.subsystem_sizes:
        assert np.array_equal(stacked.rdms[ell].entries, reference.rdms[ell].entries)


# the NaN block's normalisations divide by NaN norms, twice, on purpose
@pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
def test_non_finite_state_ends_in_a_flagged_record(monkeypatch):
    """A NaN that reaches a gate block ends the run with a flagged record, not LinAlgError."""
    n = 20
    protocol = QuenchProtocol(
        post=HamiltonianParams(1.0, 0.1, 0.5, n),
        t_max=0.5, tau=0.01, record_stride=10, subsystem_sizes=(1, 2),
        policy=TruncationPolicy(1e-9, 50),
    )
    layers_applied = []
    original = MpsState.apply_gate_layer

    def poisoning(self, bonds, gates, policy):
        layers_applied.append(bonds)
        if len(layers_applied) == 45:  # in step 15, after the snapshot at t = 0.1
            self.tensors[-1] = np.full_like(self.tensors[-1], np.nan)
        return original(self, bonds, gates, policy)

    monkeypatch.setattr(MpsState, "apply_gate_layer", poisoning)
    record = evolve(all_plus_state(n), protocol)
    assert record.aborted
    assert record.abort_reason == "non-finite values during evolution"
    assert list(record.times) == pytest.approx([0.0, 0.1])
    assert len(layers_applied) == 3 * 20  # it ran on to the next snapshot


def ground_and_protocol(n_sites, t_max, seed=3):
    gs = ground_state(build_hamiltonian(HamiltonianParams(0.2, 1.0, 0.0, n_sites)), seed=seed)
    sizes = tuple(ell for ell in (1, 2, 3, 4) if ell <= n_sites)
    return gs.state, short_protocol(post=HamiltonianParams(1.0, 0.1, 0.5, n_sites),
                                    t_max=t_max, subsystem_sizes=sizes)


def block_deviation(record, reference):
    return max(np.max(np.abs(record.rdms[ell].entries - reference.rdms[ell].entries))
               for ell in record.rdms)


# measured: 6.3e-10 (N = 8) and 6.9e-11 (N = 10) at t <= 5, 4.1e-12 (N = 60) at
# t <= 1.5; at most 8.3e-10 on any quench tried (para->critical, N = 16), and
# 5.0e-11 on para->ferro at N = 60 to t = 20. The small-chain bound adds 20% to
# 8.3e-10, the N = 60 one 140% to 4.1e-12
@pytest.mark.parametrize("n_sites, t_max, seed, bound", (
    (8, 5.0, 3, 1e-9), (10, 5.0, 3, 1e-9), (60, 1.5, 0, 1e-11),
))
def test_half_path_matches_full_path(n_sites, t_max, seed, bound, monkeypatch):
    state, protocol = ground_and_protocol(n_sites, t_max, seed)
    half = evolve(state, protocol)
    monkeypatch.setattr(MpsState, "mirror_half", lambda self: None)
    full = evolve(state, protocol)
    assert (half.evolution_path, full.evolution_path) == ("mirror-half", "full")
    assert block_deviation(half, full) <= bound
    assert np.max(np.abs(half.energies - full.energies)) <= 1e-9
    assert half.max_bond == full.max_bond
    # right-half discards count twice: the totals agree to a few parts in 1e4
    assert half.cumulative_discarded[-1] == pytest.approx(full.cumulative_discarded[-1], rel=1e-3)


# against dense at t <= 5 both paths deviate alike: 2.8e-13 (N = 2, the middle
# bond alone), 4.0e-6 (N = 8) and 7.8e-6 (N = 10, ell = 4); the bounds add 25-80%
@pytest.mark.parametrize("n_sites, bound", ((2, 5e-13), (8, 5e-6), (10, 1e-5)))
def test_half_path_matches_dense_reference(n_sites, bound):
    state, protocol = ground_and_protocol(n_sites, 5.0)
    record = evolve(state, protocol)
    assert record.evolution_path == "mirror-half"
    reference = to_statevector(state)
    propagator = DensePropagator(protocol.post)
    for k, t in enumerate(record.times):
        psi = propagator.evolve(reference, float(t))
        for stack in record.rdms.values():
            assert np.max(np.abs(ed_rdm(psi, stack.sites) - stack.entries[k])) <= bound


def full_path_reference(initial, protocol, hspec):
    """The record as the chain-wide loop makes it: every layer on a copy of the
    whole state, its tail grown before the first step and after each one,
    snapshots of energy, bonds, discards and blocks."""
    state = initial.copy()
    layers = build_trotter_gates(hspec, protocol.tau)
    energies, bonds, discarded, blocks = [], [], [], {ell: [] for ell in protocol.subsystem_sizes}
    total = 0.0

    def snapshot():
        energies.append(state.energy(hspec))
        bonds.append(max(state.bond_dims))
        discarded.append(total)
        for ell in blocks:
            blocks[ell].append(state.rdm(centered_block(state.n_sites, ell)))

    snapshot()
    state._grow_tail(protocol.policy.chi_max)
    for step in range(1, round(protocol.t_max / protocol.tau) + 1):
        step_discarded = 0.0
        for layer_bonds, gates in layers:
            step_discarded += state.apply_gate_layer(layer_bonds, gates, policy=protocol.policy)
        total += step_discarded
        state._grow_tail(protocol.policy.chi_max)
        if step % protocol.record_stride == 0:
            snapshot()
    return energies, bonds, discarded, blocks


@pytest.mark.parametrize("case", ("odd chain", "asymmetric state"))
def test_full_path_keeps_the_chain_wide_bits(case):
    n = 9 if case == "odd chain" else 8
    protocol = short_protocol(post=HamiltonianParams(1.0, 0.1, 0.5, n), t_max=1.0)
    if case == "asymmetric state":
        initial = random_state(n, 4, np.random.default_rng(53))
    else:
        initial = ground_state(build_hamiltonian(HamiltonianParams(0.2, 1.0, 0.0, n)), seed=3).state
    hspec = build_hamiltonian(protocol.post)
    record = evolve(initial, protocol)
    assert record.evolution_path == "full" and not record.aborted
    energies, bonds, discarded, blocks = full_path_reference(initial, protocol, hspec)
    assert np.array_equal(record.energies, energies)
    assert record.max_bond == bonds
    assert np.array_equal(record.cumulative_discarded, discarded)
    for ell, rows in blocks.items():
        assert np.array_equal(record.rdms[ell].entries, rows)
