"""Quench dynamics of spin-1/2 chains with MPS evolution and distance-revival analysis."""

__version__ = "0.1.0"

from .model import (
    HamiltonianParams,
    HamiltonianSpec,
    TrotterScheme,
    build_hamiltonian,
    build_trotter_gates,
)
from .mps import (
    DensityMatrix,
    MpsState,
    TruncationPolicy,
    product_state,
)
from .dmrg import GroundStateResult, ground_state
from .tebd import EvolutionRecord, QuenchProtocol, evolve
from .analysis import (
    DistanceSeries,
    degree,
    distance_series,
    extrema_gaps,
    slope_series,
    total_variation_distance,
    trace_distance,
)

__all__ = [
    "HamiltonianParams",
    "HamiltonianSpec",
    "TrotterScheme",
    "build_hamiltonian",
    "build_trotter_gates",
    "DensityMatrix",
    "MpsState",
    "TruncationPolicy",
    "product_state",
    "GroundStateResult",
    "ground_state",
    "EvolutionRecord",
    "QuenchProtocol",
    "evolve",
    "DistanceSeries",
    "degree",
    "distance_series",
    "extrema_gaps",
    "slope_series",
    "total_variation_distance",
    "trace_distance",
    "__version__",
]
