"""Mutation operators.

The paper's mutation is a **load-rebalancing** move (Section 3.2): a job is
transferred from an *overloaded* machine (one whose completion time equals
the current makespan, i.e. load factor 1) to a *less loaded* machine (one of
the 25 % machines with the smallest completion times).  Simple move and swap
mutations are also provided — the paper's Local Move local search is "similar
to the mutation operator", and the baseline GAs use the plain move mutation.

All operators mutate the given schedule **in place**; the caller passes a
private copy (offspring), never a population member.  A whole phase of
staged offspring rows of a :class:`~repro.engine.batch.BatchEvaluator`
mutates through :meth:`MutationOperator.mutate_batch`: the rebalance
mutation chooses every row's move at once and applies them with one
batched move, bit for bit what :meth:`~MutationOperator.mutate` of each row
would do; the other operators mutate the rows one by one through engine
views.
"""

from __future__ import annotations

import abc
import math
from typing import Callable, Iterator

import numpy as np

from repro.engine.batch import BatchEvaluator
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

    def mutate_batch(
        self, batch: BatchEvaluator, rows: np.ndarray, rng: RNGLike = None
    ) -> None:
        """Apply one mutation to each of *rows* of *batch* (in place), in row order.

        The default walks the rows with :meth:`mutate` through zero-copy
        engine views, so any operator mutates resident populations;
        :class:`RebalanceMutation` overrides it with one choice over all the
        rows and one batched move.
        """
        gen = as_generator(rng)
        for row in rows:
            self.mutate(batch.view(int(row)), gen)

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

    :meth:`choose` picks the moves of a whole stack of rows at once.
    :meth:`mutate` runs it on the schedule's single row and applies the
    move through ``Schedule.move_job``; :meth:`mutate_batch` runs it on a
    phase of engine rows and applies every move through
    :meth:`~repro.engine.batch.BatchEvaluator.move_jobs`, which keeps
    ``move_job``'s bits.  Both draw what one row after another draws.
    """

    name = "rebalance"

    def __init__(self, underloaded_fraction: float = 0.25) -> None:
        if not 0.0 < underloaded_fraction <= 1.0:
            raise ValueError(
                f"underloaded_fraction must be in (0, 1], got {underloaded_fraction}"
            )
        self.underloaded_fraction = float(underloaded_fraction)

    def choose(
        self, completion: np.ndarray, assignments: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """The job and target machine of each row's move, drawn in row order.

        *completion* holds ``(rows, machines)`` completion times (two
        machines at least) and *assignments* the ``(rows, jobs)`` machine
        indices.  Overloaded machines are those whose completion time is
        the makespan; underloaded ones are those of the first
        ``ceil(fraction · M)`` machines in increasing completion-time order
        that are not overloaded.  Each row draws a source among its
        overloaded machines, a job of the source and a target among its
        underloaded machines, each by indexing with one bounded-integer
        draw.  With no underloaded machine (every load equal), or a source
        that holds no job (its ready time alone sets the makespan), the row
        draws the job and the machine of a random :class:`MoveMutation`
        instead.

        The draws of all rows come from one ``Generator.integers`` call
        over their bounds, which returns what one call per draw returns; a
        bound of 1 draws nothing.  A row whose makespan several machines
        share needs its source before its job bound is known, so the call
        splits after that row's source draw.
        """
        nb_rows, nb_machines = completion.shape
        nb_jobs = assignments.shape[1]
        overloaded = completion >= completion.max(axis=1, keepdims=True)
        over = overloaded.sum(axis=1)
        # The underloaded machines lead the stable load order, ahead of the
        # overloaded ones: they are its first min(count, M - over) entries.
        count = max(1, math.ceil(self.underloaded_fraction * nb_machines))
        under = np.minimum(count, nb_machines - over)
        source = overloaded.argmax(axis=1)  # the source, while only one is overloaded
        on_source = assignments == source[:, None]
        held = on_source.sum(axis=1)
        balanced = under == 0
        random_move = balanced | (held == 0)
        # Bounds of each row's source, job and target draws; a random
        # move's job and machine take the last two, behind a source bound
        # of 1 (no draw) when no machine is less loaded.
        bounds = np.empty((nb_rows, 3), dtype=np.int64)
        bounds[:, 0], bounds[:, 1], bounds[:, 2] = over, held, under
        bounds[balanced, 0] = 1
        bounds[random_move, 1:] = nb_jobs, nb_machines
        flat_bounds = bounds.reshape(-1)
        draws = np.zeros(flat_bounds.size, dtype=np.int64)
        start = 0
        for row in np.flatnonzero((under > 0) & (over > 1)).tolist():
            stop = 3 * row + 1  # through this row's source draw
            draws[start:stop] = rng.integers(0, flat_bounds[start:stop])
            source[row] = np.flatnonzero(overloaded[row])[draws[stop - 1]]
            on_source[row] = assignments[row] == source[row]
            held_row = int(on_source[row].sum())
            random_move[row] = held_row == 0
            if held_row:
                flat_bounds[stop : stop + 2] = held_row, under[row]
            else:
                flat_bounds[stop : stop + 2] = nb_jobs, nb_machines
            start = stop
        if start < flat_bounds.size:
            draws[start:] = rng.integers(0, flat_bounds[start:])
        draws = draws.reshape(nb_rows, 3)
        by_load = np.argsort(completion, axis=1, kind="stable")
        # The drawn job of the source: the first column where the count of
        # the source's jobs so far passes the draw.
        picked = (np.cumsum(on_source, axis=1) > draws[:, 1:2]).argmax(axis=1)
        jobs = np.where(random_move, draws[:, 1], picked)
        targets = np.where(
            random_move, draws[:, 2], by_load[np.arange(nb_rows), draws[:, 2]]
        )
        return jobs, targets

    def mutate(self, schedule: Schedule, rng: RNGLike = None) -> None:
        if schedule.instance.nb_machines < 2:
            return
        jobs, targets = self.choose(
            schedule.completion_times[None, :], schedule.assignment[None, :], as_generator(rng)
        )
        schedule.move_job(int(jobs[0]), int(targets[0]))

    def mutate_batch(
        self, batch: BatchEvaluator, rows: np.ndarray, rng: RNGLike = None
    ) -> None:
        """Mutate each of *rows* (distinct) of *batch* in place, bit for bit as :meth:`mutate`."""
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        if batch.nb_machines < 2 or rows.size == 0:
            return
        jobs, targets = self.choose(
            batch.completion_times[rows], batch.assignments[rows], as_generator(rng)
        )
        batch.move_jobs(rows, jobs, targets)

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
