"""Bond-term construction and Trotter gate compilation."""

import numpy as np
import pytest
import scipy.linalg as sla

from spinquench.model import (
    HamiltonianParams,
    HamiltonianSpec,
    SX,
    SZ,
    build_hamiltonian,
    build_trotter_gates,
)
from spinquench.exact import ed_hamiltonian


def embed_two_site(op, bond, n_sites):
    return np.kron(np.kron(np.eye(2**bond), op), np.eye(2 ** (n_sites - bond - 2)))


def embedded_sum(hspec):
    n = hspec.n_sites
    total = np.zeros((2**n, 2**n), dtype=complex)
    for b, term in enumerate(hspec.bond_terms):
        total += embed_two_site(term, b, n)
    return total


def test_params_validation():
    with pytest.raises(ValueError):
        HamiltonianParams(1.0, 0.0, 0.0, 0)
    with pytest.raises(ValueError):
        HamiltonianParams(float("nan"), 0.0, 0.0, 4)
    with pytest.raises(ValueError):
        HamiltonianParams(1.0, float("inf"), 0.0, 4)
    for n_sites in (2.5, True):
        with pytest.raises(ValueError, match="n_sites must be an integer"):
            HamiltonianParams(1.0, 0.0, 0.0, n_sites)


def test_build_rejects_single_site():
    with pytest.raises(ValueError):
        build_hamiltonian(HamiltonianParams(1.0, 0.0, 0.0, 1))


def test_spec_derives_its_terms_from_its_params():
    params = HamiltonianParams(-0.7, 0.4, 0.9, 6)
    spec, built = HamiltonianSpec(params), build_hamiltonian(params)
    assert spec.params == built.params and spec.n_sites == 6
    assert len(spec.bond_terms) == len(built.bond_terms) == 5
    for term, reference in zip(spec.bond_terms, built.bond_terms):
        assert np.array_equal(term, reference)
    with pytest.raises(TypeError):
        HamiltonianSpec(params, spec.bond_terms)  # terms cannot be passed in


def test_two_site_spectra():
    spec = build_hamiltonian(HamiltonianParams(1.0, 0.0, 0.0, 2))
    evals = np.linalg.eigvalsh(spec.bond_terms[0])
    assert np.allclose(evals, [-1.0, -1.0, 1.0, 1.0], atol=1e-12)

    spec = build_hamiltonian(HamiltonianParams(0.0, 1.0, 0.0, 2))
    evals = np.linalg.eigvalsh(spec.bond_terms[0])
    assert np.allclose(evals, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_bond_terms_hermitian():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5, 8):
        params = HamiltonianParams(*rng.normal(size=3), n)
        spec = build_hamiltonian(params)
        assert len(spec.bond_terms) == n - 1
        for term in spec.bond_terms:
            assert np.max(np.abs(term - term.conj().T)) <= 1e-12


def test_boundary_field_weights():
    # N=2: both sites are boundaries, so fields enter the single bond fully
    spec = build_hamiltonian(HamiltonianParams(0.0, 1.0, 0.5, 2))
    expected = -np.kron(SX + 0.5 * SZ, np.eye(2)) - np.kron(np.eye(2), SX + 0.5 * SZ)
    assert np.max(np.abs(spec.bond_terms[0] - expected)) <= 1e-12


def test_embedding_matches_dense_reference():
    spec = build_hamiltonian(HamiltonianParams(1.0, 0.1, 0.5, 10))
    dense = ed_hamiltonian(spec.params)
    assert np.max(np.abs(embedded_sum(spec) - dense)) <= 1e-12


@pytest.mark.parametrize("n_sites", range(2, 11))
def test_embedding_identity_random_params(n_sites):
    rng = np.random.default_rng(100 + n_sites)
    for _ in range(3):
        params = HamiltonianParams(*rng.normal(size=3), n_sites)
        spec = build_hamiltonian(params)
        dense = ed_hamiltonian(params)
        assert np.max(np.abs(embedded_sum(spec) - dense)) <= 1e-12


def test_gates_identity_for_zero_hamiltonian():
    spec = build_hamiltonian(HamiltonianParams(0.0, 0.0, 0.0, 5))
    for _, gates in build_trotter_gates(spec, 0.3):
        assert np.max(np.abs(gates - np.eye(4))) <= 1e-12


def test_gate_unitarity_random_params():
    rng = np.random.default_rng(5)
    for n_sites in (2, 3, 6, 7):
        params = HamiltonianParams(*rng.normal(size=3), n_sites)
        for bonds, gates in build_trotter_gates(build_hamiltonian(params), 0.05):
            # the MPS gate path relies on this and checks none of it itself
            assert gates.dtype == np.complex128
            assert gates.shape == (len(bonds), 4, 4)
            for gate in gates:
                assert np.max(np.abs(gate.conj().T @ gate - np.eye(4))) <= 1e-12


def test_layer_structure():
    spec = build_hamiltonian(HamiltonianParams(1.0, 0.3, 0.2, 7))
    layers = build_trotter_gates(spec, 0.02)
    assert len(layers) == 3
    assert [bonds for bonds, _ in layers] == [(0, 2, 4), (1, 3, 5), (0, 2, 4)]
    assert layers[2] is layers[0]  # the two half layers are one pair
    # outer layers carry half steps: same bond appears with the square root gate
    full_bond0 = sla.expm(-1j * spec.bond_terms[0] * 0.02)
    half = layers[0][1][0]
    assert np.max(np.abs(half @ half - full_bond0)) <= 1e-12
    for b, gate in zip(layers[1][0], layers[1][1]):
        assert np.max(np.abs(gate - sla.expm(-1j * spec.bond_terms[b] * 0.02))) <= 1e-12


def test_single_bond_step_is_exact():
    spec = build_hamiltonian(HamiltonianParams(1.0, 0.4, 0.3, 2))
    layers = build_trotter_gates(spec, 0.1)
    assert layers[1][0] == () and layers[1][1].shape == (0, 4, 4)
    step = np.eye(4, dtype=complex)
    for _, gates in layers:
        for gate in gates:
            step = gate @ step
    exact = sla.expm(-1j * spec.bond_terms[0] * 0.1)
    assert np.max(np.abs(step - exact)) <= 1e-12


def test_full_step_error_is_third_order():
    tau = 0.01
    params = HamiltonianParams(1.0, 0.5, 0.2, 4)
    spec = build_hamiltonian(params)
    step = np.eye(16, dtype=complex)
    for bonds, gates in build_trotter_gates(spec, tau):
        layer_op = np.eye(16, dtype=complex)
        for bond, gate in zip(bonds, gates):
            layer_op = embed_two_site(gate, bond, 4) @ layer_op
        step = layer_op @ step
    exact = sla.expm(-1j * ed_hamiltonian(params) * tau)
    assert np.linalg.norm(step - exact, 2) <= 5 * tau**3


def test_rejects_non_positive_tau():
    spec = build_hamiltonian(HamiltonianParams(1.0, 0.0, 0.0, 3))
    with pytest.raises(ValueError):
        build_trotter_gates(spec, 0.0)
    with pytest.raises(ValueError):
        build_trotter_gates(spec, -0.1)
