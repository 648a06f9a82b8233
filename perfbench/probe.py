"""Machine-speed probe: a fixed kernel timed on the iterations' CPUs between iterations.

The host shares its cores with other tenants, and the speed of a CPU drifts by
tens of percent over minutes, so a raw wall time says as much about the
neighbours as about the program. The probe runs the same kind of work as the
pipeline (small and medium complex SVD/QR, Hermitian eigenvalues, tensor
contractions and interpreter-bound Python) for a fixed amount of work, on the
same CPUs the iterations run on, right before and after each iteration; its
time measures how fast those CPUs ran meanwhile.

``run.py`` reports times scaled to ``NOMINAL_S``: a time ``t`` measured while
the probe took ``p`` seconds is reported as ``t * NOMINAL_S / p``. The code of
this module and ``NOMINAL_S`` are part of the unit of every time the benchmark
reports: results from before and after a change to either may not be compared.
The probe imports nothing from the program, so a change to the program cannot
move it.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

NOMINAL_S = 0.25  # probe time of one CPU of the reference host, running unhindered

_RNG = np.random.default_rng(12345)


def _complex(n: int) -> np.ndarray:
    return _RNG.normal(size=(n, n)) + 1j * _RNG.normal(size=(n, n))


_SQUARE = [_complex(n) for n in (8, 24, 48, 84)]
_HERMITIAN = [(lambda m: m @ m.conj().T)(_complex(n)) for n in (4, 8, 8, 16)]
_DENSE = (lambda m: m @ m.conj().T)(_complex(96))
_ENV = _RNG.normal(size=(18, 5, 18)) + 0j
_BLOCK = _RNG.normal(size=(18, 2, 2, 18)) + 0j


def _python_work(n: int) -> int:
    table = {k: (k, k * k) for k in range(64)}
    acc = 0
    for i in range(n):
        pair = table[i & 63]
        acc += pair[1] % 7 if pair[0] & 1 else len(pair)
    return acc


def _burst() -> float:
    start = time.perf_counter()
    for _ in range(3):
        for m in _SQUARE:
            u, s, vh = np.linalg.svd(m, full_matrices=False)
            q, _ = np.linalg.qr(m)
            np.tensordot(q, u * s, axes=(1, 0))
        for _ in range(8):
            for h in _HERMITIAN:
                np.linalg.eigvalsh(h)
            np.tensordot(_ENV, _BLOCK, axes=(2, 0))
        np.linalg.eigh(_DENSE)
        _python_work(3000)
    return time.perf_counter() - start


def measure(cpus, bursts: int = 15) -> float:
    """Probe time of the slowest of ``cpus`` (the process is pinned to each in turn).

    A parallel iteration waits for its slowest worker, so with several CPUs
    the slowest one sets the pace. Per CPU the time is the median of several
    short bursts, times their number, so that a single interruption does not
    count as a slow CPU. The caller's CPU affinity is restored afterwards.
    """
    allowed = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(bursts * statistics.median(_burst() for _ in range(bursts)))
    finally:
        os.sched_setaffinity(0, allowed)
    return max(per_cpu)
