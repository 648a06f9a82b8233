"""The MPS Schmidt form, gate application with truncation, and block density matrices."""

import functools
import math

import numpy as np
import pytest

from spinquench.model import SX, SZ, HamiltonianParams, build_hamiltonian
from spinquench.mps import (
    TRUNCATION_MARGIN,
    DensityMatrix,
    MpsState,
    TruncationPolicy,
    _schmidt_split,
    _svd,
    _truncation_rank,
    product_state,
)
from spinquench.dmrg import _split_pair
from spinquench.exact import DenseState, ed_hamiltonian, ed_rdm

from helpers import (
    all_plus_state,
    all_up_state,
    local_expectation,
    partial_trace,
    random_state,
    to_statevector,
)

UP = (1.0, 0.0)
DOWN = (0.0, 1.0)
SWAP = np.eye(4)[[0, 2, 1, 3]].astype(complex)
# maps |up,up> to the Bell pair (|up,up> + |down,down>)/sqrt(2)
BELL_GATE = (np.eye(4)[[0, 1, 3, 2]] @ np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(2))).astype(complex)


def fidelity(state_a, state_b):
    return abs(np.vdot(to_statevector(state_a), to_statevector(state_b)))


def ghz_state(n_sites):
    amps = np.zeros(2**n_sites, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return amps


def mps_from_dense(amps, n_sites):
    """Exact MPS of a dense vector by repeated splitting; test helper."""
    tensors = []
    rest = amps.reshape(1, -1)
    for _ in range(n_sites - 1):
        dl = rest.shape[0]
        mat = rest.reshape(dl * 2, -1)
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        keep = int(np.sum(s > 1e-14))
        tensors.append(u[:, :keep].reshape(dl, 2, keep))
        rest = (s[:keep, None] * vh[:keep]).reshape(keep, -1)
    tensors.append(rest.reshape(rest.shape[0], 2, 1))
    return MpsState(tensors)


def test_product_state_expectations():
    state = all_up_state(6)
    for j in range(6):
        assert local_expectation(state, SZ, j) == pytest.approx(1.0, abs=1e-12)
    state = all_plus_state(6)
    for j in range(6):
        assert local_expectation(state, SX, j) == pytest.approx(1.0, abs=1e-12)
    state = product_state([UP, DOWN] * 3)
    signs = [local_expectation(state, SZ, j) for j in range(6)]
    assert np.allclose(signs, [1, -1, 1, -1, 1, -1], atol=1e-12)


def test_product_state_rejects_unnormalised():
    with pytest.raises(ValueError):
        product_state([(1.0, 1.0)])


def test_state_dtype_follows_its_amplitudes():
    real = product_state([UP, DOWN, UP])
    assert all(t.dtype == np.float64 for t in real.tensors)
    assert all(t.dtype == np.float64 for t in real.copy().tensors)
    mixed = product_state([UP, (0.0, 1.0j), UP])
    assert all(t.dtype == np.complex128 for t in mixed.tensors)
    # a gate makes the tensors it writes complex
    real.apply_two_site_gate(BELL_GATE, 0, TruncationPolicy())
    assert [t.dtype for t in real.tensors] == [np.complex128, np.complex128, np.float64]
    assert [t.dtype for t in real.copy().tensors] == [t.dtype for t in real.tensors]


def test_canonicalize_product_state_keeps_bonds():
    state = product_state([UP, DOWN, UP, DOWN])
    for _ in range(2):
        assert state.bond_dims == [1, 1, 1]
        assert all(np.array_equal(values, [1.0]) for values in state.schmidt_values)
        state.canonicalize()


def assert_schmidt_form(state, dense):
    """Every tensor a right isometry, the cached values those of every cut of ``dense``."""
    for t in state.tensors:
        mat = t.reshape(t.shape[0], -1)
        assert np.max(np.abs(mat @ mat.conj().T - np.eye(t.shape[0]))) <= 1e-10
    for cut in range(1, state.n_sites):
        exact = np.linalg.svd(dense.reshape(2**cut, -1), compute_uv=False)
        cached = state.schmidt_values[cut]
        assert np.max(np.abs(cached - exact[: len(cached)])) <= 1e-10
        assert np.linalg.norm(exact[len(cached):]) <= 1e-10


def test_canonicalize_round_trip_preserves_state():
    rng = np.random.default_rng(2)
    state = random_state(10, 8, rng)
    reference = state.copy()
    state.canonicalize()
    assert_schmidt_form(state, to_statevector(reference))
    assert fidelity(state, reference) >= 1 - 1e-10
    assert np.linalg.norm(to_statevector(state)) == pytest.approx(1.0, abs=1e-10)


def random_tensors(rng, dims):
    """Complex site tensors of bond dimensions ``dims``, in no gauge and of no set norm."""
    return [rng.normal(size=(dims[j], 2, dims[j + 1]))
            + 1j * rng.normal(size=(dims[j], 2, dims[j + 1])) for j in range(len(dims) - 1)]


def test_states_in_any_gauge_read_and_gate_like_the_dense_reference():
    """A state made straight from tensors in no gauge, or from amplitude pairs, needs
    no conversion call: its read-outs and a gate layer match its dense vector."""
    rng = np.random.default_rng(22)
    n = 8
    params = HamiltonianParams(1.0, 0.7, 0.3, n)
    raw = random_tensors(rng, [1, 2, 4, 6, 6, 6, 4, 2, 1])
    pairs = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    pairs /= np.linalg.norm(pairs, axis=1, keepdims=True)
    bonds = (0, 2, 4, 6)
    for tensors, state in ((raw, MpsState(raw)),
                           ([pair.reshape(1, 2, 1) for pair in pairs], product_state(pairs))):
        psi = to_statevector(tensors)
        psi = psi / np.linalg.norm(psi)
        assert np.max(np.abs(to_statevector(state) - psi)) <= 1e-12
        assert_schmidt_form(state, psi)
        assert state.energy(build_hamiltonian(params)) == pytest.approx(
            np.vdot(psi, ed_hamiltonian(params) @ psi).real, abs=1e-12
        )
        dense = DenseState(amplitudes=psi, n_sites=n)
        for sites in [(0,), (3, 4), (5, 6, 7)]:
            assert np.max(np.abs(state.rdm(sites) - ed_rdm(dense, sites))) <= 1e-12
        gates = np.array([random_gate(rng) for _ in bonds])
        state.apply_gate_layer(bonds, gates, TruncationPolicy(cutoff=0.0, chi_max=4096))
        assert np.max(np.abs(to_statevector(state) - functools.reduce(np.kron, gates) @ psi)) <= 1e-12


def test_identity_gate_is_a_no_op(monkeypatch):
    # bonds of 2 give the gate a 4x4 block, split by SVD; bonds of 4 an 8x8
    # block, split by eigh
    for chi, split in ((2, "svd"), (4, "eigh")):
        rng = np.random.default_rng(3)
        state = random_state(8, chi, rng)
        reference = state.copy()
        with monkeypatch.context() as m:
            calls = counting_linalg(m)
            weight = state.apply_two_site_gate(np.eye(4, dtype=complex), 3, TruncationPolicy())
        assert calls[split] == [(2 * chi, 2 * chi)]
        # only numerical-zero singular values are dropped: squares of ~eps from
        # an SVD, values at the Gram matrix's rounding floor (n * eps) from eigh
        assert weight <= (1e-30 if split == "svd" else 2 * chi * np.finfo(float).eps)
        assert state.bond_dims == reference.bond_dims
        assert fidelity(state, reference) >= 1 - 1e-12


def test_swap_gate_on_product_state():
    state = product_state([UP, DOWN])
    weight = state.apply_two_site_gate(SWAP, 0, TruncationPolicy())
    assert weight == 0.0
    assert state.bond_dims == [1]
    assert local_expectation(state, SZ, 0) == pytest.approx(-1.0, abs=1e-12)
    assert local_expectation(state, SZ, 1) == pytest.approx(1.0, abs=1e-12)


def test_bell_gate_creates_maximal_entanglement():
    state = product_state([UP, UP])
    state.apply_two_site_gate(BELL_GATE, 0, TruncationPolicy())
    assert state.bond_dims == [2]
    assert np.allclose(state.schmidt_values[1], [np.sqrt(0.5)] * 2, atol=1e-12)
    dm = DensityMatrix(entries=state.rdm((0,))[None], sites=(0,))
    assert np.allclose(np.sort(dm.spectrum()[0]), [0.5, 0.5], atol=1e-12)


def test_discarded_weight_within_cutoff_when_chi_unbounded():
    rng = np.random.default_rng(8)
    state = random_state(8, 16, rng)
    policy = TruncationPolicy(cutoff=1e-6, chi_max=4096)
    for bond in range(7):
        herm = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        herm = herm + herm.conj().T
        evals, evecs = np.linalg.eigh(herm)
        gate = (evecs * np.exp(-0.5j * evals)) @ evecs.conj().T
        weight = state.apply_two_site_gate(gate, bond, policy)
        assert 0.0 <= weight <= policy.cutoff
        assert np.linalg.norm(to_statevector(state)) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(state.schmidt_values[bond + 1]) == pytest.approx(1.0, abs=1e-12)


def test_chi_max_is_enforced():
    rng = np.random.default_rng(9)
    state = random_state(8, 16, rng)
    policy = TruncationPolicy(cutoff=0.0, chi_max=3)
    state.apply_two_site_gate(np.eye(4, dtype=complex) + 0j, 3, policy)
    assert state.bond_dims[3] <= 3
    assert len(state.schmidt_values[4]) == state.bond_dims[3]


def test_rdm_product_state_is_projector():
    state = product_state([UP, DOWN, UP, DOWN])
    rho = state.rdm((1,))
    assert np.allclose(rho, [[0, 0], [0, 1]], atol=1e-12)
    DensityMatrix(entries=rho[None], sites=(1,))  # a valid density matrix


def test_rdm_ghz_two_sites():
    state = mps_from_dense(ghz_state(6), 6)
    expected = np.diag([0.5, 0.0, 0.0, 0.5])
    assert np.max(np.abs(state.rdm((2, 3)) - expected)) <= 1e-12


def test_rdm_matches_dense_partial_trace():
    rng = np.random.default_rng(12)
    state = random_state(10, 8, rng)
    dense = DenseState(amplitudes=to_statevector(state), n_sites=10)
    for sites in [(3, 4, 5), (0, 1), (7, 8, 9), (4,)]:
        ref = ed_rdm(dense, sites)
        assert np.max(np.abs(state.rdm(sites) - ref)) <= 1e-6


def test_rdm_nesting_consistency():
    rng = np.random.default_rng(13)
    state = random_state(9, 8, rng)
    big = DensityMatrix(entries=state.rdm((2, 3, 4, 5))[None], sites=(2, 3, 4, 5))
    reduced = partial_trace(big, (3, 4))
    assert np.max(np.abs(reduced.entries[0] - state.rdm((3, 4)))) <= 1e-10


def test_rdm_bounds():
    state = all_up_state(10)
    with pytest.raises(ValueError):
        state.rdm((8, 9, 10))
    with pytest.raises(ValueError, match="cap of 6"):
        state.rdm(tuple(range(7)))
    with pytest.raises(ValueError):
        state.rdm((2, 4))  # not contiguous


def test_energy_trivial_cases():
    state = all_up_state(10)
    spec = build_hamiltonian(HamiltonianParams(1.0, 0.0, 0.0, 10))
    assert state.energy(spec) == pytest.approx(-9.0, abs=1e-10)
    spec = build_hamiltonian(HamiltonianParams(1.0, 0.0, 0.5, 10))
    assert state.energy(spec) == pytest.approx(-14.0, abs=1e-10)


def test_energy_size_mismatch():
    spec = build_hamiltonian(HamiltonianParams(1.0, 0.0, 0.0, 5))
    with pytest.raises(ValueError, match="5 sites, state has 6"):
        all_up_state(6).energy(spec)


def test_density_matrix_validation():
    good = np.diag([0.5, 0.5]).astype(complex)
    DensityMatrix(entries=good[None], sites=(0,))
    with pytest.raises(ValueError, match=r"stack \(T, d, d\)"):
        DensityMatrix(entries=good, sites=(0,))  # a single matrix is a stack of one
    with pytest.raises(ValueError, match="does not match 2 sites"):
        DensityMatrix(entries=good[None], sites=(0, 1))
    with pytest.raises(ValueError):
        DensityMatrix(entries=np.diag([0.7, 0.7]).astype(complex)[None], sites=(0,))
    with pytest.raises(ValueError):
        DensityMatrix(entries=np.array([[[0.5, 1.0], [0.0, 0.5]]], dtype=complex), sites=(0,))
    with pytest.raises(ValueError):
        DensityMatrix(entries=np.diag([1.5, -0.5]).astype(complex)[None], sites=(0,))


def random_density_stack(rng, count, dim):
    mats = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    rho = mats @ mats.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]


@pytest.mark.parametrize("bad, message", (
    (np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex), "not Hermitian"),
    (np.diag([0.7, 0.7]).astype(complex), r"trace \(1.4\+0j\) is not 1"),
    (np.diag([1.5, -0.5]).astype(complex), "significantly negative eigenvalue"),
))
def test_density_stack_rejects_one_bad_matrix_with_the_single_message(bad, message):
    stack = random_density_stack(np.random.default_rng(40), 7, 2)
    DensityMatrix(entries=stack, sites=(0,))
    with pytest.raises(ValueError, match=message):
        DensityMatrix(entries=bad[None], sites=(0,))
    stack[3] = bad
    with pytest.raises(ValueError, match=message):
        DensityMatrix(entries=stack, sites=(0,))


def test_density_stack_rows_are_read_only_views_with_their_spectra():
    stack = random_density_stack(np.random.default_rng(41), 5, 4)
    dm = DensityMatrix(entries=stack, sites=(2, 3))
    assert len(dm) == 5 and dm.sites == (2, 3)
    assert dm.spectrum().shape == (5, 4)
    for k in range(5):
        assert np.array_equal(dm.entries[k], stack[k])
        assert np.array_equal(dm.spectrum()[k], np.linalg.eigvalsh(stack[k]))
    assert np.shares_memory(dm.entries, stack)  # a view, not a copy
    for array in (dm.entries, dm.spectrum(), dm.entries[1], dm.spectrum()[1]):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    stack[0, 0, 0] += 0.0  # the caller's own array stays writable
    with pytest.raises(TypeError):
        dm[0]  # the states are rows of ``entries``; the stack is not indexed itself


def test_truncation_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy(cutoff=-1e-9)
    with pytest.raises(ValueError):
        TruncationPolicy(chi_max=0)


def random_gate(rng, strength=0.3):
    herm = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    herm = herm + herm.conj().T
    evals, evecs = np.linalg.eigh(herm)
    return (evecs * np.exp(-1j * strength * evals)) @ evecs.conj().T


def test_schmidt_form_gates_match_dense_application():
    rng = np.random.default_rng(7)
    n = 8
    state = random_state(n, 6, rng)
    policy = TruncationPolicy(cutoff=0.0, chi_max=4096)
    dense = to_statevector(state)
    for bond in (0, 3, 6, 2, 5):
        gate = random_gate(rng)
        weight = state.apply_two_site_gate(gate, bond, policy)
        assert weight == 0.0
        op = np.kron(np.kron(np.eye(2**bond), gate), np.eye(2 ** (n - bond - 2)))
        dense = op @ dense
        dense /= np.linalg.norm(dense)
        overlap = abs(np.vdot(dense, to_statevector(state)))
        assert overlap >= 1 - 1e-10
    assert_schmidt_form(state, dense)


def test_gate_matches_dense_application_without_cutoff():
    # a full-rank state (bonds up to 2**(n/2)) and a gate on every bond, swept
    # both ways: with cutoff 0 nothing may be discarded at any bond dimension
    rng = np.random.default_rng(17)
    n = 8
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    dense = amps / np.linalg.norm(amps)
    state = mps_from_dense(dense, n)
    assert max(state.bond_dims) == 2 ** (n // 2)
    policy = TruncationPolicy(cutoff=0.0, chi_max=4096)
    for bond in list(range(n - 1)) + list(range(n - 2, -1, -1)):
        gate = random_gate(rng, strength=0.8)
        assert state.apply_two_site_gate(gate, bond, policy) == 0.0
        op = np.kron(np.kron(np.eye(2**bond), gate), np.eye(2 ** (n - bond - 2)))
        dense = op @ dense
        assert abs(np.vdot(dense, to_statevector(state))) >= 1 - 1e-10
    for cut in range(1, n):
        assert np.sum(state.schmidt_values[cut] ** 2) == pytest.approx(1.0, abs=1e-10)


def test_schmidt_form_read_path_matches_dense_reference():
    rng = np.random.default_rng(21)
    n = 10
    params = HamiltonianParams(1.0, 0.7, 0.3, n)
    state = random_state(n, 8, rng)
    for bond in (4, 1, 7, 0, 8, 5):
        state.apply_two_site_gate(random_gate(rng), bond, TruncationPolicy(1e-9, 50))
    before = [t.copy() for t in state.tensors]
    psi = to_statevector(state)
    assert state.energy(build_hamiltonian(params)) == pytest.approx(
        np.vdot(psi, ed_hamiltonian(params) @ psi).real, abs=1e-12
    )
    dense = DenseState(amplitudes=psi, n_sites=n)
    for sites in [(0,), (4, 5), (2, 3, 4), (6, 7, 8, 9)]:
        mine = state.rdm(sites)
        assert np.max(np.abs(mine - ed_rdm(dense, sites))) <= 1e-12
    assert local_expectation(state, SX, 3) == pytest.approx(
        np.trace(ed_rdm(dense, (3,)) @ SX).real, abs=1e-12
    )
    # the read path re-gauged nothing
    assert all(np.array_equal(old, new) for old, new in zip(before, state.tensors))


def reference_truncation_rank(singular_values, policy):
    """The loop form of the truncation rule, kept to check the vectorised one."""
    sq = singular_values**2
    tail = np.cumsum(sq[::-1])[::-1]
    budget = policy.cutoff * TRUNCATION_MARGIN
    keep = len(sq)
    for k in range(len(sq) - 1, 0, -1):
        if tail[k] <= budget:
            keep = k
        else:
            break
    keep = max(1, min(keep, policy.chi_max))
    discarded = float(tail[keep]) if keep < len(sq) else 0.0
    return keep, discarded


def test_truncation_rank_matches_loop():
    rng = np.random.default_rng(4)
    spectra = [
        np.array([0.8]),  # a single value
        np.array([0.7, 0.5, 0.4, 0.3]),  # all kept
        np.array([0.9, 0.3, 1e-7, 1e-9, 0.0]),  # exact zero in the tail
        np.sort(rng.random(40))[::-1] ** 8,
        np.array([0.9, np.nan, 1e-3, 1e-9]),  # a failed decomposition
    ]
    policies = [
        TruncationPolicy(cutoff=0.0, chi_max=4096),
        TruncationPolicy(cutoff=1e-9, chi_max=50),
        TruncationPolicy(cutoff=1e-3, chi_max=50),
        TruncationPolicy(cutoff=0.0, chi_max=2),  # chi_max binding
        TruncationPolicy(cutoff=1.0, chi_max=3),
    ]
    for s in spectra:
        for policy in policies:
            keep, discarded = _truncation_rank(s, policy)
            ref_keep, ref_discarded = reference_truncation_rank(s, policy)
            assert keep == ref_keep
            assert discarded == ref_discarded or (
                math.isnan(discarded) and math.isnan(ref_discarded)
            )


def test_truncation_rank_rows_match_loop():
    rng = np.random.default_rng(5)
    rows = np.array([
        [0.7, 0.5, 0.4, 0.3, 0.2, 0.1],  # all kept at a small cutoff
        [0.9, 0.3, 1e-7, 1e-9, 0.0, 0.0],  # exact zeros in the tail
        np.sort(rng.random(6))[::-1] ** 8,
        [0.9, np.nan, 1e-3, 1e-9, 0.0, 0.0],  # a failed decomposition
        [0.0] * 6,
    ])
    policies = [
        TruncationPolicy(cutoff=0.0, chi_max=4096),
        TruncationPolicy(cutoff=1e-9, chi_max=50),
        TruncationPolicy(cutoff=1e-3, chi_max=50),
        TruncationPolicy(cutoff=0.0, chi_max=2),  # chi_max binding
        TruncationPolicy(cutoff=1.0, chi_max=3),
    ]
    for policy in policies:
        keep, discarded = _truncation_rank(rows, policy)
        assert keep.shape == discarded.shape == (len(rows),)
        for row, k, d in zip(rows, keep, discarded):
            ref_keep, ref_discarded = reference_truncation_rank(row, policy)
            assert k == ref_keep
            assert d == ref_discarded or (math.isnan(d) and math.isnan(ref_discarded))


def uneven_schmidt_state(rng):
    """12 sites, bonds of dimension 2 at the ends and 4 inside, in the Schmidt form."""
    return MpsState(random_tensors(rng, [1, 2, 4, 4, 4, 4, 4, 4, 4, 4, 4, 2, 1]))


@pytest.mark.parametrize("policy", [
    TruncationPolicy(cutoff=1e-9, chi_max=50),
    TruncationPolicy(cutoff=1e-2, chi_max=50),  # rows of one shape keep different counts
    TruncationPolicy(cutoff=1e-9, chi_max=3),  # chi_max binds
])
def test_gate_layer_matches_gates_one_by_one(policy, monkeypatch):
    rng = np.random.default_rng(17)
    layered = uneven_schmidt_state(rng)
    single = layered.copy()
    paths = {"stacked": 0, "lone": 0}
    stack_keeps = []
    stack, lone, rank = MpsState._apply_gate_stack, MpsState.apply_two_site_gate, _truncation_rank

    def counting_stack(self, *args):
        paths["stacked"] += 1
        return stack(self, *args)

    def counting_lone(self, *args):
        paths["lone"] += 1
        return lone(self, *args)

    def recording_rank(values, policy):
        keep, discarded = rank(values, policy)
        if values.ndim == 2:
            stack_keeps.append(set(keep.tolist()))
        return keep, discarded

    for layer in [(0, 2, 4, 6, 8, 10), (1, 3, 5, 7, 9)] * 3:
        gates = np.array([random_gate(rng) for _ in layer])
        with monkeypatch.context() as m:
            m.setattr(MpsState, "_apply_gate_stack", counting_stack)
            m.setattr(MpsState, "apply_two_site_gate", counting_lone)
            m.setattr("spinquench.mps._truncation_rank", recording_rank)
            weight = layered.apply_gate_layer(layer, gates, policy)
        expected = 0.0
        for bond, gate in zip(layer, gates):
            expected += single.apply_two_site_gate(gate, bond, policy)
        assert weight == expected
        for mine, theirs in zip(layered.tensors, single.tensors):
            assert np.array_equal(mine, theirs)
        for mine, theirs in zip(layered.schmidt_values, single.schmidt_values):
            assert np.array_equal(mine, theirs)
    # the first layers mix a stacked group with lone bonds
    assert paths["stacked"] > 0 and paths["lone"] > 0
    if policy.chi_max == 3:
        assert max(layered.bond_dims) == 3
    if policy.cutoff == 1e-2:
        assert any(len(keeps) > 1 for keeps in stack_keeps)


def test_gate_layer_rejects_overlapping_bonds():
    state = all_plus_state(6)
    gates = np.array([np.eye(4, dtype=complex)] * 2)
    for bonds in [(0, 1), (2, 2), (3, 5), (-1, 2)]:
        with pytest.raises(ValueError, match="two apart"):
            state.apply_gate_layer(bonds, gates, TruncationPolicy())


def block_with_spectrum(rng, m, n, values):
    """A complex (m, n) block of unit norm with the given singular values."""
    u, _ = np.linalg.qr(rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (u * (values / np.linalg.norm(values))) @ v.conj().T


def counting_linalg(monkeypatch):
    """Record the matrix shapes passed to np.linalg.svd and np.linalg.eigh."""
    calls = {"svd": [], "eigh": []}
    for name in calls:
        original = getattr(np.linalg, name)

        def counting(a, *args, _name=name, _original=original, **kwargs):
            calls[_name].append(a.shape)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.mark.parametrize("shape", [(8, 8), (16, 8), (40, 20), (64, 64), (100, 50), (100, 100)])
def test_gram_split_matches_svd(shape, monkeypatch):
    rng = np.random.default_rng(31)
    m, n = shape
    theta = block_with_spectrum(rng, m, n, np.logspace(0, -10, n))
    policy = TruncationPolicy(cutoff=1e-9, chi_max=50)
    calls = counting_linalg(monkeypatch)
    s, vh = _schmidt_split(theta, policy)
    assert calls == {"svd": [], "eigh": [(n, n)]}
    _, s_ref, vh_ref = np.linalg.svd(theta, full_matrices=False)
    keep, _ = _truncation_rank(s, policy)
    assert keep == _truncation_rank(s_ref, policy)[0]
    s, vh, vh_ref = s[:keep], vh[:keep], vh_ref[:keep]
    assert np.max(np.abs(vh @ vh.conj().T - np.eye(keep))) <= 1e-13
    assert np.max(np.abs(s - s_ref[:keep])) <= 1e-10
    # the split block: theta projected on the kept right vectors, renormalised
    mine = theta @ vh.conj().T
    theirs = theta @ vh_ref.conj().T
    mine = mine @ vh / np.linalg.norm(mine)
    theirs = theirs @ vh_ref / np.linalg.norm(theirs)
    assert np.max(np.abs(mine - theirs)) <= 1e-10


@pytest.mark.parametrize("shape, policy", [
    ((40, 20), TruncationPolicy(cutoff=0.0, chi_max=50)),  # no budget above the Gram's floor
    ((8, 32), TruncationPolicy(cutoff=1e-9, chi_max=50)),  # wide
    ((16, 4), TruncationPolicy(cutoff=1e-9, chi_max=50)),  # fewer than 8 columns
])
def test_split_keeps_svd_off_the_gram_path(shape, policy, monkeypatch):
    rng = np.random.default_rng(32)
    tall = block_with_spectrum(rng, max(shape), min(shape), np.logspace(0, -10, min(shape)))
    theta = tall if tall.shape == shape else tall.T
    calls = counting_linalg(monkeypatch)
    s, vh = _schmidt_split(theta, policy)
    _schmidt_split(np.stack([theta] * 3), policy)
    assert calls == {"svd": [shape, (3, *shape)], "eigh": []}
    _, s_ref, vh_ref = np.linalg.svd(theta, full_matrices=False)
    assert np.array_equal(s, s_ref) and np.array_equal(vh, vh_ref)


def test_failed_eigh_falls_back_to_svd(monkeypatch):
    rng = np.random.default_rng(33)
    theta = block_with_spectrum(rng, 24, 16, np.logspace(0, -6, 16))
    stack = np.stack([theta, theta[::-1]])

    def failing(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    policy = TruncationPolicy(cutoff=1e-9, chi_max=50)
    for block in (theta, stack):
        s, vh = _schmidt_split(block, policy)
        _, s_ref, vh_ref = np.linalg.svd(block, full_matrices=False)
        assert np.array_equal(s, s_ref) and np.array_equal(vh, vh_ref)


def test_failed_svd_of_a_finite_block_uses_its_transpose(monkeypatch):
    rng = np.random.default_rng(34)
    stack = np.stack([block_with_spectrum(rng, 12, 6, np.logspace(0, -4, 6)) for _ in range(3)])
    bad = stack[1]
    original = np.linalg.svd
    calls = []

    def failing(a, *args, **kwargs):
        """LAPACK fails on ``bad`` and on any stack holding it."""
        calls.append(a.shape)
        if any(np.array_equal(a_row, bad) for a_row in a.reshape(-1, *a.shape[-2:])):
            raise np.linalg.LinAlgError("SVD did not converge")
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing)
    u, s, vh = _svd(stack)
    # the stack, then each row alone, then the transpose of the failing row only
    assert calls == [(3, 12, 6), (12, 6), (12, 6), (6, 12), (12, 6)]
    assert u.shape == (3, 12, 6) and s.shape == (3, 6) and vh.shape == (3, 6, 6)
    for row in (0, 2):
        for mine, theirs in zip((u[row], s[row], vh[row]), original(stack[row], full_matrices=False)):
            assert np.array_equal(mine, theirs)
    assert np.max(np.abs((u[1] * s[1]) @ vh[1] - bad)) <= 1e-13
    assert np.max(np.abs(s[1] - original(bad, compute_uv=False))) <= 1e-13
    assert np.max(np.abs(vh[1] @ vh[1].conj().T - np.eye(6))) <= 1e-13
    # DMRG's split and the gate path's SVD branch go through the same fallback
    pair = [None, None]
    discarded = _split_pair(pair, 0, bad.reshape(6, 2, 2, 3), TruncationPolicy(0.0, 4), "right")
    assert pair[0].shape == (6, 2, 4) and pair[1].shape == (4, 2, 3) and discarded > 0
    s, vh = _schmidt_split(bad, TruncationPolicy(cutoff=0.0, chi_max=50))
    assert np.max(np.abs(s - original(bad, compute_uv=False))) <= 1e-13


def test_non_finite_block_splits_to_nan():
    rng = np.random.default_rng(35)
    theta = block_with_spectrum(rng, 16, 16, np.logspace(0, -4, 16))
    poisoned = theta.copy()
    poisoned[3, 5] = np.nan
    policy = TruncationPolicy(cutoff=1e-9, chi_max=50)
    s, vh = _schmidt_split(poisoned, policy)  # eigh fails, then the SVD
    assert np.isnan(s).all() and np.isnan(vh).all()
    u, s, vh = _svd(np.stack([theta, poisoned]))
    assert np.isnan(s[1]).all() and np.isnan(u[1]).all() and np.isnan(vh[1]).all()
    assert np.isfinite(s[0]).all()
    pair = [None, None]
    _split_pair(pair, 0, poisoned[:, :6].reshape(8, 2, 2, 3), policy, "left")
    assert np.isnan(pair[0]).all() and np.isnan(pair[1]).all()


def test_gate_layer_with_gram_splits_matches_gates_one_by_one(monkeypatch):
    """Bonds of 8 and 16 in a 16-site state: stacked and lone Gram splits agree."""
    rng = np.random.default_rng(18)
    layered = MpsState(random_tensors(rng, [1, 2, 4, 8] + [16] * 9 + [8, 4, 2, 1]))
    single = layered.copy()
    policy = TruncationPolicy(cutoff=1e-9, chi_max=24)
    gram_ranks = set()
    for layer in [tuple(range(0, 15, 2)), tuple(range(1, 15, 2))] * 2:
        gates = np.array([random_gate(rng) for _ in layer])
        with monkeypatch.context() as m:
            calls = counting_linalg(m)
            weight = layered.apply_gate_layer(layer, gates, policy)
        gram_ranks |= {len(shape) for shape in calls["eigh"]}
        expected = 0.0
        for bond, gate in zip(layer, gates):
            expected += single.apply_two_site_gate(gate, bond, policy)
        assert weight == expected
        for mine, theirs in zip(layered.tensors, single.tensors):
            assert np.array_equal(mine, theirs)
        for mine, theirs in zip(layered.schmidt_values, single.schmidt_values):
            assert np.array_equal(mine, theirs)
    # stacked and lone blocks of 8 or more columns took the Gram path
    assert gram_ranks == {2, 3}
    assert max(layered.bond_dims) == 24
