"""The free-fermion reference against the dense one, and the MPS quench against it at N = 60."""

import numpy as np
import pytest

from spinquench.dmrg import ground_state
from spinquench.exact import DensePropagator, ed_ground_state, ed_rdm
from spinquench.model import HamiltonianParams, build_hamiltonian
from spinquench.mps import TruncationPolicy
from spinquench.tebd import QuenchProtocol, centered_block, evolve

from free_fermions import block_state, evolve_correlations, ground_correlations, majorana_matrix

PRE, POST = (0.2, 1.0), (1.0, 0.1)


@pytest.mark.parametrize("n_sites", (8, 10))
def test_block_states_match_dense(n_sites):
    pre = HamiltonianParams(*PRE, 0.0, n_sites)
    psi, _ = ed_ground_state(pre)
    propagator = DensePropagator(HamiltonianParams(*POST, 0.0, n_sites))
    times = [0.0, 0.3, 1.0, 2.7]
    gammas = evolve_correlations(ground_correlations(majorana_matrix(*PRE, n_sites)),
                                 majorana_matrix(*POST, n_sites), times)
    for gamma, t in zip(gammas, times):
        state = propagator.evolve(psi, t)
        for ell in (1, 2, 3, 4):
            for sites in (centered_block(n_sites, ell), range(ell), range(n_sites - ell, n_sites)):
                deviation = np.abs(block_state(gamma, sites) - ed_rdm(state, tuple(sites)))
                assert np.max(deviation) <= 1e-12


def test_mirror_half_quench_matches_free_fermions_at_60_sites():
    n = 60
    policy = TruncationPolicy(1e-9, 50)
    gs = ground_state(build_hamiltonian(HamiltonianParams(*PRE, 0.0, n)), policy, seed=3)
    protocol = QuenchProtocol(post=HamiltonianParams(*POST, 0.0, n), t_max=1.0, policy=policy)
    record = evolve(gs.state, protocol)
    assert record.evolution_path == "mirror-half" and not record.aborted
    gammas = evolve_correlations(ground_correlations(majorana_matrix(*PRE, n)),
                                 majorana_matrix(*POST, n), record.times)
    deviation = max(np.max(np.abs(block_state(gamma, stack.sites) - stack.entries[k]))
                    for stack in record.rdms.values() for k, gamma in enumerate(gammas))
    # 8.0e-7 on the full path and on the half path alike, the Trotter error of
    # tau = 0.01 (the discards stay near 1.6e-11); the bound adds 25%
    assert deviation <= 1.0e-6
