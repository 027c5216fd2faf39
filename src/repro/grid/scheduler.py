"""Batch scheduling policies for the dynamic grid simulator.

The paper's central usage claim (Sections 1 and 6) is that the cMA can serve
as a *dynamic* scheduler by being run "in batch mode for a very short time to
schedule jobs arriving to the system since the last activation".  The
event-driven simulator therefore delegates every ``SCHEDULER_TICK`` — placed
periodically or adaptively by its
:class:`~repro.core.config.ActivationPolicy` — to a
:class:`BatchSchedulingPolicy`, which receives a static ETC instance built
from the currently pending jobs and the currently available machines and
returns an assignment.  A policy never sees *when* or *why* it was
activated, only the batch; the same policy object works unchanged under
either activation driver.

Two families of policies are provided:

* :class:`HeuristicBatchPolicy` — wraps any constructive heuristic from
  :mod:`repro.heuristics` (Min-Min, MCT, ...), the conventional choice of
  existing grid schedulers;
* :class:`~repro.grid.service.WarmCMAPolicy` (in :mod:`repro.grid.service`)
  — the paper's cellular memetic algorithm with a small per-activation
  budget.  By default one engine-resident cMA stays alive across the whole
  simulation and each activation's population is warm-started from the
  previous plan, which is what makes the paper's "very short time" budget
  cheap to meet in steady state; ``warm=False`` cold-starts a fresh engine
  and population at every activation (the literal "run in batch mode"
  reading).

Degenerate batches are handled uniformly through
:func:`degenerate_assignment`: one machine needs no decision at all, and a
batch with fewer jobs than the recombination operator needs parents falls
back to Min-Min instead of spinning up a metaheuristic.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.config import CMAConfig
from repro.heuristics.base import build_schedule
from repro.model.instance import SchedulingInstance
from repro.utils.rng import RNGLike

__all__ = [
    "BatchSchedulingPolicy",
    "HeuristicBatchPolicy",
    "degenerate_assignment",
]


def degenerate_assignment(
    instance: SchedulingInstance, config: CMAConfig, rng: RNGLike = None
) -> np.ndarray | None:
    """Assignment for batches too small for the configured cMA, else ``None``.

    A single available machine needs no metaheuristic (everything runs
    there), and a batch with fewer jobs than the crossover folds parents
    (``nb_solutions_to_recombine``, or fewer than the two jobs one-point
    recombination needs a cut for) is solved with Min-Min directly — the
    quality gap a metaheuristic could close on such batches is nil, and the
    cMA's fixed per-activation overhead is not.
    """
    if instance.nb_machines == 1:
        return np.zeros(instance.nb_jobs, dtype=np.int64)
    if instance.nb_jobs < max(2, config.nb_solutions_to_recombine):
        schedule = build_schedule("min_min", instance, rng)
        return np.array(schedule.assignment, dtype=np.int64)
    return None


class BatchSchedulingPolicy(abc.ABC):
    """Maps a static batch instance to an assignment of jobs to machines."""

    #: Human-readable policy name (reported in the simulation metrics).
    name: str = "policy"

    @abc.abstractmethod
    def schedule(self, instance: SchedulingInstance, rng: RNGLike = None) -> np.ndarray:
        """Return an assignment vector for *instance* (length ``nb_jobs``)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class HeuristicBatchPolicy(BatchSchedulingPolicy):
    """Use a constructive heuristic (Min-Min, MCT, ...) at every activation."""

    def __init__(self, heuristic: str = "min_min") -> None:
        self.heuristic = heuristic
        self.name = heuristic

    def schedule(self, instance: SchedulingInstance, rng: RNGLike = None) -> np.ndarray:
        schedule = build_schedule(self.heuristic, instance, rng)
        return np.array(schedule.assignment, dtype=np.int64)
