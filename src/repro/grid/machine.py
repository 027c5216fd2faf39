"""Machines (grid resources) in the dynamic simulation.

A machine has a computing capacity in MIPS and, to model the *inconsistent*
grid scenarios of the benchmark, an optional per-machine affinity profile
that makes some job/machine combinations relatively faster or slower than
the pure MIPS ratio predicts.  Machines can join and leave the grid while
the simulation runs (the paper's "resources could dynamically be
added/dropped from the Grid").

Execution times come in bulk only: :func:`execution_times_matrix` builds
one activation's ETC matrix from a :class:`~repro.grid.job.JobTable` batch.
Whether a machine is up at a given instant is tracked by the
:class:`~repro.grid.park.Park` it belongs to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.grid.job import JobTable
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["GridMachine", "execution_times_matrix", "affinity_factors"]


# --------------------------------------------------------------------------- #
# Deterministic per-(job, machine) affinity noise
# --------------------------------------------------------------------------- #
# The *inconsistent* grid scenarios need execution-time noise that is a pure
# function of the (job_id, machine_id) pair: any batch holding the pair must
# see the same factor, whatever else the batch holds.  A counter-based
# construction — SplitMix64 finalizer on a pair key, Box-Muller to a standard
# normal — gives exactly that with whole-matrix numpy expressions.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MACHINE_SALT = np.uint64(0xD1342543DE82EF95)
_STREAM_SALT = np.uint64(0x2545F4914F6CDD1D)


def _splitmix64(keys: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer, elementwise on a uint64 array."""
    z = (keys + _GOLDEN).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _uniform01(keys: np.ndarray) -> np.ndarray:
    """Map hashed uint64 keys to uniforms in the open interval (0, 1)."""
    return ((keys >> np.uint64(11)).astype(float) + 0.5) * 2.0**-53


def affinity_factors(
    job_ids: np.ndarray, machine_ids: np.ndarray, spreads: np.ndarray
) -> np.ndarray:
    """``(jobs, machines)`` log-normal affinity factors, fully vectorized.

    ``factors[i, j] = exp(spreads[j] * z(job_ids[i], machine_ids[j]))`` where
    *z* is a deterministic standard normal of the id pair (SplitMix64 keys
    pushed through Box-Muller).  Machines with ``spreads == 0`` get exact
    ``1.0`` factors.
    """
    job_ids = np.asarray(job_ids, dtype=np.uint64)
    machine_ids = np.asarray(machine_ids, dtype=np.uint64)
    keys = job_ids[:, None] * _GOLDEN + machine_ids[None, :] * _MACHINE_SALT
    u1 = _uniform01(_splitmix64(keys))
    u2 = _uniform01(_splitmix64(keys ^ _STREAM_SALT))
    normals = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return np.exp(np.asarray(spreads, dtype=float)[None, :] * normals)


def execution_times_matrix(
    jobs: JobTable, machines: Sequence["GridMachine"]
) -> np.ndarray:
    """``(jobs, machines)`` expected execution times in one array expression.

    The base matrix is the ``workload / mips`` outer quotient of the batch
    table's workloads, and machines with a positive ``affinity_spread`` are
    multiplied by their deterministic per-pair log-normal factors.  This is
    the ETC constructor of every activation, in both clock domains.
    """
    mips = np.array([machine.mips for machine in machines], dtype=float)
    etc = jobs.workloads[:, None] / mips[None, :]
    spreads = np.array([machine.affinity_spread for machine in machines], dtype=float)
    if np.any(spreads > 0):
        machine_ids = np.array(
            [machine.machine_id for machine in machines], dtype=np.uint64
        )
        etc *= affinity_factors(jobs.ids, machine_ids, spreads)
    return etc


@dataclass(frozen=True)
class GridMachine:
    """A grid resource.

    Attributes
    ----------
    machine_id:
        Unique identifier within a simulation.
    mips:
        Computing capacity in millions of instructions per second.
    join_time:
        Simulated time at which the machine becomes available.
    leave_time:
        Simulated time at which the machine drops from the grid (``None`` if
        it stays for the whole simulation).
    affinity_spread:
        Standard deviation (in log space) of the per-job execution-time
        noise; 0 gives perfectly consistent behaviour, larger values model
        inconsistent grids where a nominally fast machine can be slow for
        particular jobs.
    breakdowns:
        Ordered, non-overlapping ``(breakdown_time, repair_time)`` windows
        during which the machine is broken: it stays in the park but cannot
        run work, and anything in flight at the breakdown instant is revoked.
        Empty by default (the machine never fails).
    """

    machine_id: int
    mips: float
    join_time: float = 0.0
    leave_time: float | None = None
    affinity_spread: float = 0.0
    breakdowns: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        check_positive("mips", self.mips)
        check_non_negative("join_time", self.join_time)
        if self.leave_time is not None and self.leave_time <= self.join_time:
            raise ValueError("leave_time must be after join_time")
        check_non_negative("affinity_spread", self.affinity_spread)
        object.__setattr__(
            self,
            "breakdowns",
            tuple((float(down), float(up)) for down, up in self.breakdowns),
        )
        previous_up = self.join_time
        for down, up in self.breakdowns:
            if down < previous_up:
                raise ValueError(
                    f"breakdown windows must be ordered, non-overlapping and "
                    f"after join_time, got breakdown at {down} before {previous_up}"
                )
            if up <= down:
                raise ValueError(
                    f"repair_time must be after breakdown_time, got {up} <= {down}"
                )
            previous_up = up
