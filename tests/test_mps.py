"""The MPS Schmidt form, gate application with truncation, and block density matrices."""

import functools
import math

import numpy as np
import pytest

from spinquench.model import SX, SZ, HamiltonianParams, build_hamiltonian
from spinquench.mps import (
    RDM_SITE_CAP,
    TRUNCATION_MARGIN,
    DensityMatrix,
    MpsState,
    TruncationPolicy,
    _EPS,
    _GRAM_FLOOR,
    _schmidt_split,
    _svd,
    _takagi,
    _takagi_split,
    _truncation_rank,
    product_state,
)
from spinquench.dmrg import _split_pair
from spinquench.exact import ed_hamiltonian, ed_rdm

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
        for sites in [(0,), (3, 4), (5, 6, 7)]:
            assert np.max(np.abs(state.rdm(sites) - ed_rdm(psi, sites))) <= 1e-12
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
    dense = to_statevector(state)
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
    # a NaN cutoff would keep every value, a chi_max of 2.5 fail in the rank rule
    for cutoff in (math.nan, math.inf):
        with pytest.raises(ValueError, match="cutoff"):
            TruncationPolicy(cutoff=cutoff)
    for chi_max in (2.5, True, np.float64(3.0)):
        with pytest.raises(ValueError, match="chi_max"):
            TruncationPolicy(chi_max=chi_max)
    # a numpy integer is taken, as ``HamiltonianParams`` takes one for n_sites
    assert TruncationPolicy(chi_max=np.int64(50)).chi_max == 50


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
    for sites in [(0,), (4, 5), (2, 3, 4), (6, 7, 8, 9)]:
        mine = state.rdm(sites)
        assert np.max(np.abs(mine - ed_rdm(psi, sites))) <= 1e-12
    assert local_expectation(state, SX, 3) == pytest.approx(
        np.trace(ed_rdm(psi, (3,)) @ SX).real, abs=1e-12
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


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("values", (
    "random",
    (3.0, 3.0, 2.0, 2.0, 2.0, 1.0, 0.5, 0.5),  # degenerate
    (1.0, 1.0, 1.0, 1.0),  # one value
))
def test_takagi_rebuilds_symmetric_matrices(values):
    rng = np.random.default_rng(41)
    if values == "random":
        m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        m = m + m.T
    else:
        u = random_unitary(rng, len(values))
        m = (u * np.array(values)) @ u.T
    u, s = _takagi(m)
    assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
    assert np.max(np.abs((u * s) @ u.T - m)) <= 1e-13
    assert np.max(np.abs(u.conj().T @ u - np.eye(len(m)))) <= 1e-13
    if values != "random":
        assert s == pytest.approx(sorted(values, reverse=True), abs=1e-13)


def test_takagi_of_a_non_finite_matrix_is_nan():
    m = np.eye(4, dtype=complex)
    m[1, 2] = m[2, 1] = np.nan
    u, s = _takagi(m)
    assert np.isnan(u).all() and np.isnan(s).all()
    m = np.eye(16, dtype=complex)
    m[1, 2] = m[2, 1] = np.nan
    u, s, _ = _takagi_split(m, TruncationPolicy(cutoff=1e-9, chi_max=50))
    assert np.isnan(u).all() and np.isnan(s).all()


def symmetric_block(rng, values):
    """A complex symmetric block of unit norm with the given Takagi values."""
    u = random_unitary(rng, len(values))
    return (u * (values / np.linalg.norm(values))) @ u.T


def real_form_split(m, policy):
    """Truncated Takagi factors from the real 2n x 2n form, as the fallback makes them."""
    u, s = _takagi(m)
    keep, discarded = _truncation_rank(s, policy)
    return u[:, :keep], s[:keep], discarded


def check_takagi_split(m, policy, split):
    """``split`` = (u, s, discarded) keeps the real form's values and misses m
    by the dropped weight alone."""
    u, s, discarded = split
    n, keep = len(m), len(s)
    _, s_ref, discarded_ref = real_form_split(m, policy)
    assert u.shape == (n, keep) and keep == len(s_ref) and 0 < keep < n
    assert np.max(np.abs(s - s_ref)) <= 1e-10
    assert discarded == pytest.approx(discarded_ref, rel=1e-3)
    # on the kept columns m = u s u^T, and u has orthonormal columns
    assert np.max(np.abs(u.conj().T @ u - np.eye(keep))) <= 1e-12
    assert np.max(np.abs(u.conj().T @ m @ u.conj() - np.diag(s))) <= 1e-10
    # the factors miss m by the dropped weight alone, to within the budget or,
    # below it, the rounding floor of the split
    error = np.linalg.norm((u * s) @ u.T - m) ** 2
    assert abs(error - discarded) <= max(policy.cutoff * TRUNCATION_MARGIN, _GRAM_FLOOR * n * _EPS)


@pytest.mark.parametrize("n", (6, 8, 12, 40))
def test_takagi_split_reads_the_gram_matrix(n, monkeypatch):
    """Blocks of 8 or more columns take the Gram route, smaller ones the SVD:
    the one rule of ``_schmidt_split``, whose values the split keeps."""
    m = symmetric_block(np.random.default_rng(53), np.logspace(0, -10, n))
    policy = TruncationPolicy(cutoff=1e-9, chi_max=50)
    with monkeypatch.context() as patch:
        calls = counting_linalg(patch)
        split = _takagi_split(m, policy)
    route = "svd" if n < 8 else "eigh"
    assert calls == {"svd": [], "eigh": [], route: [(n, n)]}
    check_takagi_split(m, policy, split)
    s = split[1]
    assert np.array_equal(s, _schmidt_split(m, policy)[0][:len(s)])


def test_takagi_split_takes_the_svd_where_eigh_fails(monkeypatch):
    m = symmetric_block(np.random.default_rng(55), np.logspace(0, -10, 16))
    policy = TruncationPolicy(cutoff=1e-9, chi_max=50)
    original = np.linalg.eigh

    def failing_on_complex(a, *args, **kwargs):
        if np.iscomplexobj(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original(a, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", failing_on_complex)
        calls = counting_linalg(patch)
        split = _takagi_split(m, policy)
    # the Gram matrix's eigh fails, the SVD stands in, and no 2n x 2n eigh follows
    assert calls == {"svd": [(16, 16)], "eigh": [(16, 16)]}
    check_takagi_split(m, policy, split)


def test_takagi_split_keeps_the_svd_phases_at_cutoff_0(monkeypatch):
    """At cutoff 0 the block takes the SVD, whose phases miss it by rounding
    alone: within the floor that ``_schmidt_split`` honours, so they are kept
    and no 2n x 2n eigh follows."""
    m = symmetric_block(np.random.default_rng(55), np.logspace(0, -10, 16))
    policy = TruncationPolicy(cutoff=0.0, chi_max=12)  # chi_max binds, so values drop
    with monkeypatch.context() as patch:
        calls = counting_linalg(patch)
        split = _takagi_split(m, policy)
    assert calls == {"svd": [(16, 16)], "eigh": []}
    check_takagi_split(m, policy, split)


@pytest.mark.parametrize("case", ("degenerate", "cutoff 0"))
def test_takagi_split_falls_back_to_the_real_form(case, monkeypatch):
    """Degenerate kept values, whose vectors the split may mix, take the real
    form: after the Gram matrix's eigh at cutoff 1e-9, after the SVD at 0."""
    rng = np.random.default_rng(55)
    cutoff = 1e-9 if case == "degenerate" else 0.0
    policy = TruncationPolicy(cutoff=cutoff, chi_max=50)
    values = np.logspace(0, -10, 16)
    values[[1, 4, 5]] = values[[0, 3, 3]]
    m = symmetric_block(rng, values)
    n = len(m)
    expected = real_form_split(m, policy)
    with monkeypatch.context() as patch:
        calls = counting_linalg(patch)
        got = _takagi_split(m, policy)
    route = {"svd": [], "eigh": []}
    route["eigh" if cutoff else "svd"].append((n, n))
    route["eigh"].append((2 * n, 2 * n))
    assert calls == route
    for mine, theirs in zip(got, expected):
        assert np.array_equal(mine, theirs)


def test_takagi_split_of_a_rank_deficient_block_is_finite(monkeypatch):
    rng = np.random.default_rng(57)
    policy = TruncationPolicy(cutoff=1e-9, chi_max=50)
    m = np.zeros((12, 12), dtype=complex)
    m[:4, :4] = symmetric_block(rng, [1.0, 0.5, 0.25, 0.125])
    for block, rank in ((m, 4), (np.zeros_like(m), 1)):
        with monkeypatch.context() as patch:
            calls = counting_linalg(patch)
            u, s, discarded = _takagi_split(block, policy)
        assert calls["eigh"] == [(12, 12)]
        assert np.isfinite(u).all() and u.shape == (12, rank) and discarded <= 1e-15
        assert np.max(np.abs(u.conj().T @ u - np.eye(rank))) <= 1e-12
        assert np.max(np.abs((u * s) @ u.T - block)) <= 1e-12


def mirrored_dense(amps, n_sites):
    """A dense state with its site order reversed."""
    return amps.reshape((2,) * n_sites).transpose(range(n_sites - 1, -1, -1)).reshape(-1)


def symmetric_state(rng, n_sites):
    """A random mirror-symmetric state of full bond dimension, and its dense vector."""
    amps = rng.normal(size=2**n_sites) + 1j * rng.normal(size=2**n_sites)
    amps = amps + mirrored_dense(amps, n_sites)
    amps /= np.linalg.norm(amps)
    return mps_from_dense(amps, n_sites), amps


def swap_symmetric_gate(rng, strength=0.8):
    herm = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    herm = herm + herm.conj().T
    herm = herm + SWAP @ herm @ SWAP
    evals, evecs = np.linalg.eigh(herm)
    return (evecs * np.exp(-1j * strength * evals)) @ evecs.conj().T


def assert_reads_like(half, full, tol):
    """Every block of up to ``RDM_SITE_CAP`` sites, the bond dimensions and the
    energy of random Ising couplings read alike on both states."""
    n = full.n_sites
    assert half.n_sites == n and half.bond_dims == full.bond_dims
    for ell in range(1, RDM_SITE_CAP + 1):
        for first in range(n - ell + 1):
            sites = tuple(range(first, first + ell))
            assert np.max(np.abs(half.rdm(sites) - full.rdm(sites))) <= tol
    for triple in ((0.9, 0.4, -0.3), (-1.3, 0.7, 0.5)):
        spec = build_hamiltonian(HamiltonianParams(*triple, n))
        assert half.energy(spec) == pytest.approx(full.energy(spec), abs=tol)


@pytest.mark.parametrize("n_sites", (2, 4, 8))
def test_mirror_half_reads_like_the_whole_state(n_sites):
    full, _ = symmetric_state(np.random.default_rng(45), n_sites)
    half = full.mirror_half()
    assert half.mirrored and len(half.tensors) == n_sites // 2
    assert_reads_like(half, full, 1e-12)
    for t in half.tensors:  # right isometries
        mat = t.reshape(t.shape[0], -1)
        assert np.max(np.abs(mat @ mat.conj().T - np.eye(t.shape[0]))) <= 1e-12
    assert half.copy().mirrored and half.mirror_half().mirrored
    with pytest.raises(ValueError, match="mirrored state is kept in the Schmidt form"):
        half.canonicalize()


def test_mirror_half_refuses_odd_and_asymmetric_states():
    rng = np.random.default_rng(47)
    assert random_state(8, 16, rng).mirror_half() is None
    assert symmetric_state(rng, 8)[0].copy().mirror_half() is not None
    odd = mps_from_dense(mirrored_dense(ghz_state(7), 7), 7)
    assert odd.mirror_half() is None
    # the symmetric-looking |up, down>: C = 0 holds none of the state's weight
    assert product_state([UP, DOWN]).mirror_half() is None
    assert product_state([UP, UP]).mirror_half() is not None


def test_mirrored_gates_match_the_whole_chain():
    rng = np.random.default_rng(49)
    n = 8
    full, dense = symmetric_state(rng, n)
    half = full.mirror_half()
    policy = TruncationPolicy(cutoff=0.0, chi_max=4096)
    for _ in range(2):
        gate = swap_symmetric_gate(rng)
        assert half.apply_middle_gate(gate, policy) == 0.0
        assert full.apply_two_site_gate(gate, n // 2 - 1, policy) == 0.0
        # one whole-chain layer on both: a right-half bond and its mirror bond,
        # the gate with its sites swapped
        gate = random_gate(rng, strength=0.8)
        layer, gates = (1, n // 2 + 1), np.stack([SWAP @ gate @ SWAP, gate])
        assert half.apply_gate_layer(layer, gates, policy) == 0.0
        assert full.apply_gate_layer(layer, gates, policy) == 0.0
    assert_reads_like(half, full, 1e-12)
    with pytest.raises(ValueError, match="mirrored"):
        full.apply_middle_gate(gate, policy)


def check_middle_gate_truncation(n_sites, monkeypatch):
    """A chi_max-bound middle gate on a random symmetric state takes the Gram
    path and matches the whole chain's gate; then so does a chi_max-bound
    whole-chain layer that holds the middle bond."""
    rng = np.random.default_rng(51)
    full, _ = symmetric_state(rng, n_sites)
    half = full.mirror_half()
    policy = TruncationPolicy(cutoff=1e-9, chi_max=5)
    gate = swap_symmetric_gate(rng)
    n_cols = 2 * half.tensors[0].shape[2]
    with monkeypatch.context() as patch:
        calls = counting_linalg(patch)
        weight = half.apply_middle_gate(gate, policy)
    assert calls == {"svd": [], "eigh": [(n_cols, n_cols)]}  # the Gram path alone
    middle = n_sites // 2
    reference = full.apply_two_site_gate(gate, middle - 1, policy)
    assert weight == pytest.approx(reference, rel=1e-10) and weight > 0
    assert half.bond_dims[middle - 1] == full.bond_dims[middle - 1] == 5
    assert np.sum(half.schmidt_values[0] ** 2) == pytest.approx(1.0, abs=1e-14)
    assert half.schmidt_values[0] == pytest.approx(full.schmidt_values[middle], abs=1e-12)
    assert_reads_like(half, full, 1e-12)
    # the middle bond, a right-half bond and its mirror bond in one layer
    right_gate, gate = random_gate(rng, strength=0.8), swap_symmetric_gate(rng)
    layer = (middle - 3, middle - 1, middle + 1)
    gates = np.stack([SWAP @ right_gate @ SWAP, gate, right_gate])
    right_weight = half.copy().apply_two_site_gate(right_gate, 1, policy)
    middle_weight = half.copy().apply_middle_gate(gate, policy)
    weight = half.apply_gate_layer(layer, gates, policy)
    assert weight == 2 * right_weight + middle_weight and middle_weight > 0
    # a right-half bond of 8 sites holds at most 4 values, so chi_max binds it only at 16
    assert (right_weight > 0) == (n_sites > 8)
    assert weight == pytest.approx(full.apply_gate_layer(layer, gates, policy), rel=1e-10)
    assert_reads_like(half, full, 1e-12)


def test_middle_gate_truncates_by_the_rank_rule(monkeypatch):
    check_middle_gate_truncation(8, monkeypatch)


def test_middle_gate_truncates_by_the_rank_rule_at_16_sites(monkeypatch):
    check_middle_gate_truncation(16, monkeypatch)


def tailed(state, chi_max):
    """A copy of ``state`` with its tail grown under ``chi_max``."""
    twin = state.copy()
    twin._grow_tail(chi_max)
    return twin


# a random state of full bond dimension: the cut left of site c has 2**min(c, N - c)
# values, so a tail of m sites takes the site to its left while m <= N/2 and
# 2**m <= chi_max
@pytest.mark.parametrize("n_sites, chi_max, tail", (
    (4, 4, 3), (4, 4096, 3), (8, 8, 4), (8, 4096, 5), (9, 8, 4), (9, 4096, 5),
    (8, 4, 3),  # 2**2 = chi_max: the 2-site tail takes the site to its left
    (8, 7, 3),  # the 3-site tail's full left cut of 8 is above chi_max: it stays
))
def test_tail_reads_like_the_untailed_state(n_sites, chi_max, tail):
    full = random_state(n_sites, 2**n_sites, np.random.default_rng(55))
    twin = tailed(full, chi_max)
    assert twin._tail_sites == tail and len(twin.tensors) == n_sites - tail + 1
    assert twin.tensors[-1].shape[1:] == (2, 2 ** (tail - 1))
    assert_reads_like(twin, full, 1e-12)


# on a symmetric state of full bond dimension the tail grows up to the site
# next to the middle, which it never takes
@pytest.mark.parametrize("n_sites, chi_max, tail", (
    (4, 4096, 1), (8, 4, 3), (8, 4096, 3), (10, 8, 4), (10, 4096, 4),
))
def test_mirrored_tail_reads_like_the_whole_state(n_sites, chi_max, tail):
    full, _ = symmetric_state(np.random.default_rng(57), n_sites)
    half = tailed(full.mirror_half(), chi_max)
    assert half.mirrored and half._tail_sites == tail
    assert len(half.tensors) == n_sites // 2 - tail + 1
    assert_reads_like(half, full, 1e-12)


def test_tail_grows_over_full_cuts_within_chi_max():
    rng = np.random.default_rng(59)
    full = random_state(8, 256, rng)
    # the tail of m sites grows while its left cut is full and 2**m <= chi_max,
    # up to 5 sites: the cut left of site 3 holds 8 values, not 32
    cases = ((1, 1), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4), (16, 5), (32, 5), (4096, 5))
    for chi_max, tail in cases:
        assert tailed(full, chi_max)._tail_sites == tail
    # bonds capped at 2: the last site's cut is full, the one left of the pair is not
    assert tailed(random_state(8, 2, rng), 4096)._tail_sites == 2
    assert tailed(all_plus_state(8), 4096)._tail_sites == 1
    # the first held tensor is never taken, though its right cut is full
    assert tailed(random_state(2, 2, rng), 4096)._tail_sites == 1
    # the tail never shrinks
    twin = tailed(full, 4096)
    twin._grow_tail(2)
    assert twin._tail_sites == 5


def test_tail_gates_match_the_untailed_layer():
    rng = np.random.default_rng(61)
    policy = TruncationPolicy(cutoff=0.0, chi_max=4096)
    full = random_state(9, 512, rng)
    twin = tailed(full, policy.chi_max)  # sites 4..8
    # bond 3 splits the tail's left cut, bonds 5 and 7 lie inside it
    for bonds in ((0, 2, 4, 6), (1, 3, 5, 7), (3, 5, 7)):
        gates = np.stack([random_gate(rng, strength=0.8) for _ in bonds])
        assert twin.apply_gate_layer(bonds, gates, policy) == 0.0
        assert full.apply_gate_layer(bonds, gates, policy) == 0.0
    assert twin._tail_sites == 5
    assert_reads_like(twin, full, 1e-12)
    # a mirrored state: the tail holds sites 5..7, bond 4 splits its left cut,
    # bonds 5 and 6 lie inside it, and bonds 1..3 are their mirror images
    whole, _ = symmetric_state(rng, 8)
    half = tailed(whole.mirror_half(), policy.chi_max)
    assert half._tail_sites == 3
    for _ in range(2):
        left, inner = random_gate(rng, strength=0.8), random_gate(rng, strength=0.8)
        layer = (0, 2, 4, 6)
        gates = np.stack([SWAP @ inner @ SWAP, SWAP @ left @ SWAP, left, inner])
        assert half.apply_gate_layer(layer, gates, policy) == 0.0
        assert whole.apply_gate_layer(layer, gates, policy) == 0.0
        layer, gates = (1, 3, 5), np.stack([SWAP @ inner @ SWAP, swap_symmetric_gate(rng), inner])
        assert half.apply_gate_layer(layer, gates, policy) == 0.0
        assert whole.apply_gate_layer(layer, gates, policy) == 0.0
    assert half._tail_sites == 3
    assert_reads_like(half, whole, 1e-12)


def test_tail_is_copied_and_refuses_regauging():
    rng = np.random.default_rng(63)
    full = random_state(8, 256, rng)
    twin = tailed(full, 4096)
    copy = twin.copy()
    assert copy._tail_sites == 5 and copy.bond_dims == full.bond_dims
    assert all(a is not b and np.array_equal(a, b) for a, b in zip(copy.tensors, twin.tensors))
    half = tailed(symmetric_state(rng, 8)[0].mirror_half(), 4096)
    assert half.copy()._tail_sites == 3 and half.copy().mirrored
    for state in (twin, half):
        with pytest.raises(ValueError, match="tailed state cannot be mirrored"):
            state.mirror_half()
    with pytest.raises(ValueError, match="tailed state is kept in the Schmidt form"):
        twin.canonicalize()
