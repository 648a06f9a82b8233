"""The benchmark's workloads: one spinquench config per workload, made from a seed.

Each workload stresses a different layer of the pipeline (see README.md for
the reasons). ``make_config`` returns the YAML document the program reads; the
benchmark's ``--seed`` becomes the config ``seed``, which drives the DMRG start
state, so the same seed always gives the same inputs. ``tiny=True`` shrinks
every workload to a few seconds in total for the self-test.
"""

from __future__ import annotations

from dataclasses import dataclass

PARA = (0.2, 1.0, 0.0)        # paramagnetic pre-quench couplings (J, h_x, h_z)
FERRO = (1.0, 0.1, 0.5)       # ferromagnetic post-quench side, the paper's headline
CRITICAL = (1.0, 1.0, 0.0)    # transverse-field Ising critical point
SWEEP_POST = (1.0, 0.1, 0.1)  # h_z is swept over SWEEP_HZ
SWEEP_HZ = [0.1, 0.3, 0.5, 0.7]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str          # "run" or "oracle-check", as in spinquench.cli
    workers: int
    n_sites: int
    pre: tuple
    post: tuple
    t_max: float
    record_stride: int
    subsystem_sizes: tuple
    delta_stop: float
    chi_max: int = 50
    sweep_values: tuple = ()

    @property
    def n_points(self) -> int:
        """Quench points (or oracle checks) one iteration attempts."""
        return len(self.sweep_values) or 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="para-to-ferro",
            why="headline quench cut short; bond dimension stays <= 10, so time goes to "
                "per-gate overhead and QR re-gauging in the mps layer",
            command="run", workers=1, n_sites=60, pre=PARA, post=FERRO, t_max=1.5,
            record_stride=10, subsystem_sizes=(1, 2, 3, 4), delta_stop=1.0,
        ),
        Workload(
            name="para-to-critical",
            why="same code path as para-to-ferro but bond dimension climbs to 42, so SVD "
                "and QR kernels dominate; separates overhead cuts from kernel cuts",
            command="run", workers=1, n_sites=16, pre=PARA, post=CRITICAL, t_max=2.8,
            record_stride=10, subsystem_sizes=(1, 2, 3, 4), delta_stop=1.0,
        ),
        Workload(
            name="gs-sweep",
            why="four h_z points on two pool workers from one critical ground state: DMRG is "
                "the largest layer and is repeated per point; the only user of the cli pool",
            command="run", workers=2, n_sites=24, pre=CRITICAL, post=SWEEP_POST, t_max=0.5,
            record_stride=10, subsystem_sizes=(1, 2, 3, 4), delta_stop=0.3, chi_max=25,
            sweep_values=tuple(SWEEP_HZ),
        ),
        Workload(
            name="oracle-dense",
            why="oracle-check recording every step: RDM reads and distance series dominate; "
                "the only user of the exact layer and the dense-reference accuracy",
            command="oracle-check", workers=1, n_sites=8, pre=PARA, post=FERRO, t_max=2.0,
            record_stride=1, subsystem_sizes=(1, 2, 3), delta_stop=1.5,
        ),
    )
}


def _couplings(values) -> dict:
    return dict(zip(("J", "h_x", "h_z"), values))


def make_config(workload: Workload, seed: int, tiny: bool = False) -> dict:
    """The config document for one workload and seed."""
    n_sites, t_max, delta_stop = workload.n_sites, workload.t_max, workload.delta_stop
    if tiny:
        n_sites, t_max, delta_stop = 8, 0.2, 0.1
    doc = {
        "name": workload.name,
        "seed": int(seed),
        "system": {"sites": n_sites},
        "quench": {
            "pre": _couplings(workload.pre),
            "post": _couplings(workload.post),
            "t_max": t_max,
            "tau": 0.01,
            "record_stride": 1 if tiny else workload.record_stride,
        },
        "truncation": {"cutoff": 1.0e-9, "chi_max": workload.chi_max},
        "analysis": {
            "subsystem_sizes": list(workload.subsystem_sizes),
            "delta_grid": {"start": 0.1, "stop": delta_stop, "step": 0.1},
            "measures": ["td", "tvd"],
        },
    }
    if workload.sweep_values:
        doc["sweep"] = {"axis": "post.h_z", "values": list(workload.sweep_values)}
    return doc
