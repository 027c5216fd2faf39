"""Mutation operators.

The paper's mutation is a **load-rebalancing** move (Section 3.2): a job is
transferred from an *overloaded* machine (one whose completion time equals
the current makespan, i.e. load factor 1) to a *less loaded* machine (one of
the 25 % machines with the smallest completion times).  Simple move and swap
mutations are also provided — the paper's Local Move local search is "similar
to the mutation operator", and the baseline GAs use the plain move mutation.

All operators mutate the given schedule **in place**; the caller passes a
private copy (offspring), never a population member.
"""

from __future__ import annotations

import abc
from typing import Callable, Iterator

import numpy as np

from repro.model.schedule import Schedule
from repro.utils.rng import RNGLike, as_generator

__all__ = [
    "MutationOperator",
    "RebalanceMutation",
    "MoveMutation",
    "SwapMutation",
    "RebalanceSwapMutation",
    "get_mutation",
    "list_mutations",
]


class MutationOperator(abc.ABC):
    """Perturb a schedule in place."""

    #: Registry key; subclasses must override it.
    name: str = ""

    @abc.abstractmethod
    def mutate(self, schedule: Schedule, rng: RNGLike = None) -> None:
        """Apply one mutation to *schedule* (in place)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class RebalanceMutation(MutationOperator):
    """Transfer one job from an overloaded machine to an underloaded one.

    Parameters
    ----------
    underloaded_fraction:
        Fraction of machines (smallest completion times first) considered
        "less loaded" and eligible to receive the transferred job.  The
        paper fixes this to 25 %.

    The source machine, the job and the target are each picked by indexing
    with one ``Generator.integers`` draw, the draw ``Generator.choice`` of
    an array makes at several times the cost.
    """

    name = "rebalance"

    def __init__(self, underloaded_fraction: float = 0.25) -> None:
        if not 0.0 < underloaded_fraction <= 1.0:
            raise ValueError(
                f"underloaded_fraction must be in (0, 1], got {underloaded_fraction}"
            )
        self.underloaded_fraction = float(underloaded_fraction)

    def mutate(self, schedule: Schedule, rng: RNGLike = None) -> None:
        gen = as_generator(rng)
        completion = schedule.completion_times
        nb_machines = completion.shape[0]
        if nb_machines < 2:
            return

        # Overloaded machines: completion time equal to the makespan.
        makespan = schedule.makespan
        overloaded = np.nonzero(completion >= makespan)[0]
        # Underloaded machines: the first ceil(fraction * M) machines in
        # increasing completion-time order, excluding overloaded ones.
        count = max(1, int(np.ceil(self.underloaded_fraction * nb_machines)))
        by_load = np.argsort(completion, kind="stable")[:count]
        underloaded = by_load[completion[by_load] < makespan]
        if underloaded.size == 0:
            # Degenerate case: every machine is equally loaded; fall back to a
            # random move so the mutation still perturbs the solution.
            MoveMutation().mutate(schedule, gen)
            return

        source = int(overloaded[gen.integers(overloaded.size)])
        jobs = schedule.machine_jobs(source)
        if jobs.size == 0:  # an overloaded machine always has jobs unless ready>0
            MoveMutation().mutate(schedule, gen)
            return
        job = int(jobs[gen.integers(jobs.size)])
        target = int(underloaded[gen.integers(underloaded.size)])
        schedule.move_job(job, target)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RebalanceMutation(underloaded_fraction={self.underloaded_fraction})"


class MoveMutation(MutationOperator):
    """Move one uniformly random job to a uniformly random machine."""

    name = "move"

    def mutate(self, schedule: Schedule, rng: RNGLike = None) -> None:
        gen = as_generator(rng)
        nb_jobs = schedule.instance.nb_jobs
        nb_machines = schedule.instance.nb_machines
        job = int(gen.integers(0, nb_jobs))
        machine = int(gen.integers(0, nb_machines))
        schedule.move_job(job, machine)


class SwapMutation(MutationOperator):
    """Swap the machines of two random jobs assigned to different machines."""

    name = "swap"

    #: Number of attempts to find a pair on different machines before giving up.
    max_attempts = 8

    def mutate(self, schedule: Schedule, rng: RNGLike = None) -> None:
        gen = as_generator(rng)
        nb_jobs = schedule.instance.nb_jobs
        if nb_jobs < 2:
            return
        assignment = schedule.assignment
        for _ in range(self.max_attempts):
            job_a, job_b = gen.choice(nb_jobs, 2, replace=False)
            if assignment[job_a] != assignment[job_b]:
                schedule.swap_jobs(int(job_a), int(job_b))
                return
        # All sampled pairs shared a machine (tiny instances); fall back to move.
        MoveMutation().mutate(schedule, gen)


class RebalanceSwapMutation(MutationOperator):
    """Rebalance followed by a swap — a stronger perturbation (extension).

    Not used by the paper's tuned configuration; provided for the operator
    ablation benchmarks.
    """

    name = "rebalance_swap"

    def __init__(self, underloaded_fraction: float = 0.25) -> None:
        self._rebalance = RebalanceMutation(underloaded_fraction)
        self._swap = SwapMutation()

    def mutate(self, schedule: Schedule, rng: RNGLike = None) -> None:
        gen = as_generator(rng)
        self._rebalance.mutate(schedule, gen)
        self._swap.mutate(schedule, gen)


_REGISTRY: dict[str, Callable[..., MutationOperator]] = {
    RebalanceMutation.name: RebalanceMutation,
    MoveMutation.name: MoveMutation,
    SwapMutation.name: SwapMutation,
    RebalanceSwapMutation.name: RebalanceSwapMutation,
}


def get_mutation(name: str, **kwargs) -> MutationOperator:
    """Instantiate the mutation operator registered under *name*."""
    key = name.lower()
    try:
        factory = _REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown mutation operator {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)


def list_mutations() -> Iterator[str]:
    """Names of all registered mutation operators, sorted."""
    return iter(sorted(_REGISTRY))
