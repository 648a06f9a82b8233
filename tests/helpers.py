"""States and reductions that several test modules build."""

import math

import numpy as np

from spinquench.analysis import degree, distance_series
from spinquench.mps import DensityMatrix, MpsState, product_state


def all_up_state(n_sites: int) -> MpsState:
    return product_state([(1.0, 0.0)] * n_sites)


def all_plus_state(n_sites: int) -> MpsState:
    amp = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    return product_state([amp] * n_sites)


def random_state(n_sites: int, chi: int, rng) -> MpsState:
    """Random normalised MPS with bonds capped at ``chi``."""
    tensors = []
    dl = 1
    for j in range(n_sites):
        dr = 1 if j == n_sites - 1 else min(chi, 2 ** (j + 1), 2 ** (n_sites - 1 - j))
        t = rng.normal(size=(dl, 2, dr)) + 1j * rng.normal(size=(dl, 2, dr))
        tensors.append(t)
        dl = dr
    return MpsState(tensors)


def local_expectation(state: MpsState, op, site: int) -> float:
    """<op> on one site of a state, read from that site's RDM."""
    return float(np.real(np.trace(state.rdm((site,)) @ op)))


def partial_trace(dm: DensityMatrix, keep) -> DensityMatrix:
    """Trace a stack of block density matrices down to the contiguous sub-block ``keep``."""
    keep = tuple(keep)
    n_left = dm.sites.index(keep[0])
    n_right = len(dm.sites) - n_left - len(keep)
    shaped = dm.entries.reshape(
        len(dm), 2**n_left, 2 ** len(keep), 2**n_right, 2**n_left, 2 ** len(keep), 2**n_right
    )
    rho = np.einsum("taibajb->tij", shaped)
    return DensityMatrix(entries=rho, sites=keep)


def to_statevector(state) -> np.ndarray:
    """Dense amplitude vector of an ``MpsState`` or a list of site tensors in any
    gauge; for small chains only. An ``MpsState`` gives a unit vector, which the
    dense reference takes as it is."""
    tensors = getattr(state, "tensors", state)
    if len(tensors) > 16:
        raise ValueError("refusing to densify more than 16 sites")
    acc = tensors[0]
    for t in tensors[1:]:
        acc = np.tensordot(acc, t, axes=(acc.ndim - 1, 0))
    return acc.reshape(-1)


def degree_curve(record, ell, grid, measure) -> np.ndarray:
    """The revival degree at each separation of ``grid``, by the two calls that
    ``cli._analyse_record`` makes for ``degrees.csv``."""
    return np.array([degree(distance_series(record, ell, d, measure)) for d in grid])
