"""Distance measures between temporally separated block states, and revival statistics.

Two distances: the trace distance (half the absolute-eigenvalue sum of the
difference) and, as its spectrum-only counterpart, the total variation
distance between descendingly sorted eigenvalue vectors. A run's distance
series at a fixed temporal separation feeds a discrete slope; the sum of the
positive slopes is the revival degree, and ``cli._analyse_record`` scans it
over separations to give a degree curve. Extremum spacing on either kind of
series yields the characteristic timescales.

Each measure has one definition, written over stacks of states, that serves
both a pair of plain matrices and a whole series. A series is computed in one
batch from slices of a record's stacked block states (``EvolutionRecord.rdms``):
the total variation distance reads the spectra the stack cached when it was
validated, so it needs no eigensolve at all, and the trace distance makes one
batched eigensolve of all the differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tebd import EvolutionRecord, grid_offset

_REVIVAL_FLOOR = 1e-12
_RANGE_SLACK = 1e-12
_SPACING_TOL = 1e-9


def _sorted_spectra(evals: np.ndarray) -> np.ndarray:
    """Ascending spectra (last axis) clipped at zero, renormalised to unit sum
    and sorted descending. Reversing sorts them, since ``eigvalsh`` returns
    eigenvalues in ascending order and neither step reorders them."""
    evals = np.clip(evals, 0.0, None)
    total = evals.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("spectrum has no positive weight")
    return (evals / total)[..., ::-1]


def _trace_distances(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Trace distances between stacked density matrices, pair by pair."""
    return 0.5 * np.abs(np.linalg.eigvalsh(later - earlier)).sum(-1)


def _total_variation_distances(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Total variation distances between stacked ascending spectra, pair by pair."""
    return 0.5 * np.abs(_sorted_spectra(later) - _sorted_spectra(earlier)).sum(-1)


# per measure, its formula over stacks: of matrices for "td", of their spectra for "tvd"
_MEASURES = {"td": _trace_distances, "tvd": _total_variation_distances}


def _matrix_pair(rho, sigma):
    rho, sigma = np.asarray(rho), np.asarray(sigma)
    if rho.ndim != 2 or rho.shape != sigma.shape:
        raise ValueError(f"need two matrices of one shape, got {rho.shape} and {sigma.shape}")
    return rho, sigma


def trace_distance(rho, sigma) -> float:
    """Half the sum of absolute eigenvalues of (rho - sigma), for two Hermitian matrices."""
    rho, sigma = _matrix_pair(rho, sigma)
    return float(_trace_distances(rho, sigma))


def total_variation_distance(rho, sigma) -> float:
    """Half the l1 distance between the descendingly sorted spectra of two Hermitian matrices."""
    rho, sigma = _matrix_pair(rho, sigma)
    return float(_total_variation_distances(np.linalg.eigvalsh(rho), np.linalg.eigvalsh(sigma)))


@dataclass(frozen=True, eq=False)
class DistanceSeries:
    """Distance between states separated by ``delta``, against the earlier time."""

    measure: str
    ell: int
    delta: float
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if len(self.times) > 1:
            gaps = np.diff(self.times)
            if np.max(np.abs(gaps - gaps[0])) > _SPACING_TOL:
                raise ValueError("series times are not uniformly spaced")
        if len(self.values) and (
            np.min(self.values) < -_RANGE_SLACK or np.max(self.values) > 1.0 + _RANGE_SLACK
        ):
            raise ValueError("distance values outside [0, 1]")

    @property
    def spacing(self) -> float:
        if len(self.times) < 2:
            raise ValueError("series too short to define a spacing")
        return float(self.times[1] - self.times[0])

    def __len__(self) -> int:
        return len(self.values)


def distance_series(
    record: EvolutionRecord, ell: int, delta: float, measure: str
) -> DistanceSeries:
    """Series value at t_k: distance between the block states at t_k + delta and t_k.

    All values come from one batched evaluation over slices of the record's
    stacked block states.
    """
    key = measure.lower()
    if key not in _MEASURES:
        raise ValueError(f"measure must be one of {tuple(_MEASURES)}, got {measure!r}")
    if ell not in record.rdms:
        raise ValueError(f"subsystem size {ell} was not recorded")
    offset = grid_offset(delta, record.spacing)
    rdms = record.rdms[ell]
    n_pairs = max(len(rdms) - offset, 0)
    values = np.zeros(0)
    if n_pairs:
        stack = rdms.entries if key == "td" else rdms.spectrum()
        values = _MEASURES[key](stack[offset:], stack[:n_pairs])
    return DistanceSeries(
        measure=key,
        ell=ell,
        delta=offset * record.spacing,
        times=np.asarray(record.times[:n_pairs], dtype=float),
        values=values,
    )


def slope_series(series: DistanceSeries) -> np.ndarray:
    """Discrete forward-difference slope of the series, over its own spacing."""
    if len(series) < 2:
        raise ValueError("series must contain at least two values")
    return np.diff(series.values) / series.spacing


def degree(series: DistanceSeries) -> float:
    """Cumulative magnitude of revivals: the sum of strictly positive slopes."""
    slopes = slope_series(series)
    positive = slopes[slopes > _REVIVAL_FLOOR]
    return float(positive.sum())


@dataclass(frozen=True, eq=False)
class ExtremaReport:
    """Locations of interior extrema and their mean spacing."""

    kind: str
    locations: np.ndarray
    mean_gap: float | None

    @property
    def n_extrema(self) -> int:
        return len(self.locations)


def extrema_gaps(xs, ys, kind: str, smoothing_window: int = 1) -> ExtremaReport:
    """Consecutive spacing of local extrema of a uniformly sampled series.

    An optional centered moving average (``smoothing_window`` samples) is
    applied first; extrema are strict neighbour comparisons and endpoints are
    never counted. With fewer than two extrema the mean gap is undefined
    (``mean_gap = None``).
    """
    if kind not in ("minima", "maxima"):
        raise ValueError(f"kind must be 'minima' or 'maxima', got {kind!r}")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be equal-length 1d arrays")
    if len(xs) < 3:
        raise ValueError("need at least three samples to detect extrema")
    gaps_x = np.diff(xs)
    if np.max(np.abs(gaps_x - gaps_x[0])) > _SPACING_TOL * max(1.0, abs(gaps_x[0])):
        raise ValueError("xs must be uniformly spaced")
    if smoothing_window < 1:
        raise ValueError("smoothing_window must be at least 1")
    if smoothing_window > 1:
        kernel = np.full(smoothing_window, 1.0 / smoothing_window)
        ys = np.convolve(ys, kernel, mode="valid")
        xs = np.convolve(xs, kernel, mode="valid")

    interior = np.arange(1, len(ys) - 1)
    if kind == "maxima":
        hits = interior[(ys[interior] > ys[interior - 1]) & (ys[interior] > ys[interior + 1])]
    else:
        hits = interior[(ys[interior] < ys[interior - 1]) & (ys[interior] < ys[interior + 1])]
    locations = xs[hits]
    gaps = np.diff(locations)
    mean_gap = float(gaps.mean()) if len(gaps) else None
    return ExtremaReport(kind=kind, locations=locations, mean_gap=mean_gap)
