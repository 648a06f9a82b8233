"""States and reductions that several test modules build."""

import math

import numpy as np

from spinquench.analysis import degree, distance_series
from spinquench.exact import DenseState
from spinquench.mps import DensityMatrix, MpsState, product_state


def all_up_state(n_sites: int) -> MpsState:
    return product_state([(1.0, 0.0)] * n_sites)


def all_plus_state(n_sites: int) -> MpsState:
    amp = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    return product_state([amp] * n_sites)


def random_state(n_sites: int, chi: int, rng) -> MpsState:
    """Random normalised MPS with bonds capped at ``chi``, centre at site 0."""
    tensors = []
    dl = 1
    for j in range(n_sites):
        dr = 1 if j == n_sites - 1 else min(chi, 2 ** (j + 1), 2 ** (n_sites - 1 - j))
        t = rng.normal(size=(dl, 2, dr)) + 1j * rng.normal(size=(dl, 2, dr))
        tensors.append(t)
        dl = dr
    state = MpsState(tensors, n_sites - 1)
    state.canonicalize(0)
    state.tensors[0] /= np.linalg.norm(state.tensors[0])
    return state


def local_expectation(state: MpsState, op, site: int) -> float:
    """<op> on one site of a Schmidt-form state, read from that site's RDM."""
    return float(np.real(np.trace(state.rdm((site,)) @ op)))


def partial_trace(dm: DensityMatrix, keep) -> DensityMatrix:
    """Trace a block density matrix down to the contiguous sub-block ``keep``."""
    keep = tuple(keep)
    n_left = dm.sites.index(keep[0])
    n_right = len(dm.sites) - n_left - len(keep)
    shaped = dm.entries.reshape(
        2**n_left, 2 ** len(keep), 2**n_right, 2**n_left, 2 ** len(keep), 2**n_right
    )
    rho = np.einsum("aibajb->ij", shaped)
    return DensityMatrix(entries=rho, sites=keep, time_stamp=dm.time_stamp)


def statevector_from_mps(mps_state) -> DenseState:
    """Densify an MPS for direct comparison against the dense reference."""
    vec = mps_state.to_statevector()
    return DenseState(amplitudes=vec / np.linalg.norm(vec), n_sites=mps_state.n_sites)


def degree_curve(record, ell, grid, measure) -> np.ndarray:
    """The revival degree at each separation of ``grid``, by the two calls that
    ``cli._analyse_record`` makes for ``degrees.csv``."""
    return np.array([degree(distance_series(record, ell, d, measure)) for d in grid])
