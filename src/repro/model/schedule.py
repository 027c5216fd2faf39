"""Schedules: job-to-machine assignments with cached objective values.

A schedule is the direct (permutation-free) encoding used by the paper:
``assignment[j] = m`` means job *j* runs on machine *m*.  Both optimization
criteria are derived from the machine **completion times**

``completion[m] = ready[m] + Σ_{j assigned to m} ETC[j, m]``            (eq. 1)

* **makespan** is the maximum completion time (eq. 2), independent of the
  order in which each machine executes its jobs;
* **flowtime** is the sum of job finishing times, which *does* depend on the
  per-machine execution order.  Following the convention used in Xhafa's
  grid-scheduling work, each machine executes its assigned jobs in ascending
  ETC order (shortest processing time first), which is the order minimizing
  per-machine flowtime for a fixed assignment.

Both values are cached and maintained incrementally under the two elementary
moves used by the mutation and local-search operators — moving one job to a
different machine and swapping the machines of two jobs — so that the inner
loops of the memetic algorithm never pay the full ``O(jobs × machines)``
evaluation cost.  Construction computes the completion times only; the
per-machine flowtimes are filled on their first read, so a caller that only
wants the assignment (a constructive heuristic feeding a dynamic scheduler)
never pays for them.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.model.instance import SchedulingInstance
from repro.utils.arrays import top_completions
from repro.utils.rng import RNGLike, as_generator

__all__ = ["Schedule", "spt_flowtime"]


def spt_flowtime(
    instance: SchedulingInstance, assignment: np.ndarray, machine: int
) -> float:
    """Flowtime contribution of one machine under SPT ordering.

    The scalar kernel behind the :class:`Schedule` cache: the machine's jobs
    are selected by masking the instance's precomputed SPT column — no
    re-sorting — their finishing times come from one cumulative sum, and
    numpy's ``sum`` adds them up.  The batch engine's
    :meth:`~repro.engine.batch.BatchEvaluator.move_jobs` reproduces these
    bits for a whole stack of rows; this function is the reference its
    differential test compares against.
    """
    order = instance.spt_order[:, machine]
    jobs = order[assignment[order] == machine]
    if jobs.size == 0:
        return 0.0
    times = instance.etc[jobs, machine]
    finish = instance.ready_times[machine] + np.cumsum(times)
    return float(finish.sum())


class Schedule:
    """A complete assignment of jobs to machines with cached objectives.

    Parameters
    ----------
    instance:
        The problem instance the schedule refers to.
    assignment:
        Optional initial assignment vector of length ``nb_jobs`` with values
        in ``[0, nb_machines)``.  When omitted, every job is assigned to
        machine ``0`` (a valid, if terrible, schedule).
    """

    __slots__ = ("instance", "_assignment", "_completion", "_machine_flowtime", "_top3")

    def __init__(
        self,
        instance: SchedulingInstance,
        assignment: np.ndarray | Iterable[int] | None = None,
    ) -> None:
        self.instance = instance
        if assignment is None:
            self._assignment = np.zeros(instance.nb_jobs, dtype=np.int64)
        else:
            self._assignment = self._validate_assignment(instance, assignment)
        self._completion = np.empty(instance.nb_machines, dtype=float)
        self._machine_flowtime: np.ndarray | None = None  # filled on first read
        self._recompute_completion()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _validate_assignment(
        instance: SchedulingInstance, assignment: np.ndarray | Iterable[int]
    ) -> np.ndarray:
        arr = np.asarray(assignment, dtype=np.int64).copy()
        if arr.shape != (instance.nb_jobs,):
            raise ValueError(
                f"assignment must have shape ({instance.nb_jobs},), got {arr.shape}"
            )
        if arr.size and (arr.min() < 0 or arr.max() >= instance.nb_machines):
            raise ValueError(
                "assignment values must be machine indices in "
                f"[0, {instance.nb_machines})"
            )
        return arr

    @classmethod
    def random(cls, instance: SchedulingInstance, rng: RNGLike = None) -> "Schedule":
        """Build a uniformly random schedule."""
        gen = as_generator(rng)
        assignment = gen.integers(0, instance.nb_machines, size=instance.nb_jobs)
        return cls(instance, assignment)

    @classmethod
    def view_over(
        cls,
        instance: SchedulingInstance,
        assignment: np.ndarray,
        completion: np.ndarray,
        machine_flowtime: np.ndarray,
    ) -> "Schedule":
        """Zero-copy schedule over externally owned buffers.

        Used by :class:`repro.engine.BatchEvaluator` to expose one population
        row through the full ``Schedule`` API without materializing copies:
        the caller passes row views of its structure-of-arrays state, which
        must already be mutually consistent.  Mutating the schedule mutates
        the engine row and vice versa; a view created *before* a direct batch
        mutation of the same row must be discarded (its what-if cache may be
        stale), so create views on demand.
        """
        schedule = object.__new__(cls)
        schedule.instance = instance
        schedule._assignment = assignment
        schedule._completion = completion
        schedule._machine_flowtime = machine_flowtime
        schedule._top3 = None
        return schedule

    def copy(self) -> "Schedule":
        """Deep copy (caches included, no re-evaluation needed)."""
        clone = object.__new__(Schedule)
        clone.instance = self.instance
        clone._assignment = self._assignment.copy()
        clone._completion = self._completion.copy()
        flowtime = self._machine_flowtime
        clone._machine_flowtime = None if flowtime is None else flowtime.copy()
        clone._top3 = self._top3
        return clone

    # ------------------------------------------------------------------ #
    # Cached evaluation
    # ------------------------------------------------------------------ #
    def recompute(self) -> None:
        """Recompute every cached quantity from scratch, flowtimes included.

        Eager on purpose: a :meth:`view_over` schedule writes through to the
        engine row it wraps, which must stay coherent.
        """
        self._recompute_completion()
        self._fill_flowtimes()

    def _recompute_completion(self) -> None:
        """Machine completion times from scratch (vectorized)."""
        etc = self.instance.etc
        nb_machines = self.instance.nb_machines
        chosen = etc[np.arange(self.instance.nb_jobs), self._assignment]
        totals = np.bincount(self._assignment, weights=chosen, minlength=nb_machines)
        self._completion[:] = self.instance.ready_times + totals
        self._top3 = None

    def _fill_flowtimes(self) -> np.ndarray:
        """Every machine's SPT flowtime from the current assignment."""
        if self._machine_flowtime is None:
            self._machine_flowtime = np.empty(self.instance.nb_machines, dtype=float)
        for machine in range(self.instance.nb_machines):
            self._machine_flowtime[machine] = self._flowtime_of(machine)
        return self._machine_flowtime

    def _flowtimes(self) -> np.ndarray:
        """The per-machine flowtime cache, filled on first read."""
        if self._machine_flowtime is None:
            return self._fill_flowtimes()
        return self._machine_flowtime

    def _flowtime_of(self, machine: int) -> float:
        """Flowtime contribution of one machine (see :func:`spt_flowtime`)."""
        return spt_flowtime(self.instance, self._assignment, machine)

    # ------------------------------------------------------------------ #
    # Read access
    # ------------------------------------------------------------------ #
    @property
    def assignment(self) -> np.ndarray:
        """Read-only view of the assignment vector."""
        view = self._assignment.view()
        view.setflags(write=False)
        return view

    @property
    def completion_times(self) -> np.ndarray:
        """Read-only view of the machine completion times."""
        view = self._completion.view()
        view.setflags(write=False)
        return view

    @property
    def machine_flowtimes(self) -> np.ndarray:
        """Read-only view of the per-machine flowtime contributions."""
        view = self._flowtimes().view()
        view.setflags(write=False)
        return view

    @property
    def makespan(self) -> float:
        """The finishing time of the latest machine (eq. 2 of the paper)."""
        return float(self._completion.max())

    @property
    def flowtime(self) -> float:
        """The sum of job finishing times under per-machine SPT ordering."""
        return float(self._flowtimes().sum())

    @property
    def mean_flowtime(self) -> float:
        """Flowtime divided by the number of machines (used in the fitness)."""
        return self.flowtime / self.instance.nb_machines

    def machine_jobs(self, machine: int) -> np.ndarray:
        """Indices of the jobs currently assigned to *machine*."""
        self._check_machine(machine)
        return np.nonzero(self._assignment == machine)[0]

    def machine_job_counts(self) -> np.ndarray:
        """Number of jobs assigned to each machine."""
        return np.bincount(self._assignment, minlength=self.instance.nb_machines)

    def load_factors(self) -> np.ndarray:
        """``completion[m] / makespan`` for every machine (in ``(0, 1]``).

        The rebalance mutation of the paper uses these factors to decide
        which machines are overloaded (factor 1.0, i.e. they define the
        makespan) and which are underloaded.
        """
        makespan = self.makespan
        if makespan == 0:
            return np.ones_like(self._completion)
        return self._completion / makespan

    def most_loaded_machine(self) -> int:
        """Index of the machine defining the makespan."""
        return int(self._completion.argmax())

    # ------------------------------------------------------------------ #
    # Incremental modification
    # ------------------------------------------------------------------ #
    def move_job(self, job: int, machine: int) -> None:
        """Reassign *job* to *machine*, updating caches incrementally."""
        self._check_job(job)
        self._check_machine(machine)
        old = int(self._assignment[job])
        if old == machine:
            return
        etc = self.instance.etc
        self._completion[old] -= etc[job, old]
        self._completion[machine] += etc[job, machine]
        self._top3 = None
        self._assignment[job] = machine
        if self._machine_flowtime is not None:
            self._machine_flowtime[old] = self._flowtime_of(old)
            self._machine_flowtime[machine] = self._flowtime_of(machine)

    def swap_jobs(self, job_a: int, job_b: int) -> None:
        """Exchange the machines of *job_a* and *job_b*, updating caches."""
        self._check_job(job_a)
        self._check_job(job_b)
        machine_a = int(self._assignment[job_a])
        machine_b = int(self._assignment[job_b])
        if machine_a == machine_b:
            return  # same machine: completion times and flowtime are unchanged
        etc = self.instance.etc
        self._completion[machine_a] += etc[job_b, machine_a] - etc[job_a, machine_a]
        self._completion[machine_b] += etc[job_a, machine_b] - etc[job_b, machine_b]
        self._top3 = None
        self._assignment[job_a] = machine_b
        self._assignment[job_b] = machine_a
        if self._machine_flowtime is not None:
            self._machine_flowtime[machine_a] = self._flowtime_of(machine_a)
            self._machine_flowtime[machine_b] = self._flowtime_of(machine_b)

    def set_assignment(self, assignment: np.ndarray | Iterable[int]) -> None:
        """Replace the whole assignment (full cache recomputation).

        The write happens in place so that engine-row views stay coherent:
        replacing the assignment of a :meth:`view_over` schedule updates the
        batch row it wraps, exactly like :meth:`move_job` does.
        """
        self._assignment[:] = self._validate_assignment(self.instance, assignment)
        self.recompute()

    # ------------------------------------------------------------------ #
    # What-if helpers (no mutation)
    # ------------------------------------------------------------------ #
    def _completion_top3(self) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """Indices and values of the three largest completion times.

        Computed lazily after each mutation and then reused, so a scan of
        many what-if queries against the same state pays the partial sort
        once instead of allocating a reduced copy per candidate.  Padded
        with ``(-1, -inf)`` when there are fewer than three machines.
        """
        if self._top3 is None:
            indices, values = top_completions(self._completion, 3)
            self._top3 = (
                tuple(int(i) for i in indices),
                tuple(float(v) for v in values),
            )
        return self._top3

    def _max_completion_excluding(self, first: int, second: int) -> float:
        """Largest completion time over all machines except *first*/*second*.

        At most two machines are excluded, so the answer is always among the
        cached top three completion times — an O(1) lookup.
        """
        indices, values = self._completion_top3()
        for index, value in zip(indices, values):
            if index != first and index != second:
                return value
        return -math.inf

    def makespan_if_moved(self, job: int, machine: int) -> float:
        """Makespan that would result from moving *job* to *machine*."""
        self._check_job(job)
        self._check_machine(machine)
        old = int(self._assignment[job])
        if old == machine:
            return self.makespan
        etc = self.instance.etc
        new_old = self._completion[old] - etc[job, old]
        new_dst = self._completion[machine] + etc[job, machine]
        others = self._max_completion_excluding(old, machine)
        return float(max(new_old, new_dst, others))

    def makespan_if_swapped(self, job_a: int, job_b: int) -> float:
        """Makespan that would result from swapping the machines of two jobs."""
        self._check_job(job_a)
        self._check_job(job_b)
        machine_a = int(self._assignment[job_a])
        machine_b = int(self._assignment[job_b])
        if machine_a == machine_b:
            return self.makespan
        etc = self.instance.etc
        new_a = self._completion[machine_a] + etc[job_b, machine_a] - etc[job_a, machine_a]
        new_b = self._completion[machine_b] + etc[job_a, machine_b] - etc[job_b, machine_b]
        others = self._max_completion_excluding(machine_a, machine_b)
        return float(max(new_a, new_b, others))

    # ------------------------------------------------------------------ #
    # Validation / debugging
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check internal cache consistency (used by tests, not hot paths).

        Raises
        ------
        AssertionError
            If the cached completion times or flowtime contributions differ
            from a from-scratch recomputation.
        """
        reference = Schedule(self.instance, self._assignment)
        if not np.allclose(reference._completion, self._completion):
            raise AssertionError("cached completion times are stale")
        if not np.allclose(reference._flowtimes(), self._flowtimes()):
            raise AssertionError("cached flowtime contributions are stale")

    def _check_job(self, job: int) -> None:
        if not 0 <= job < self.instance.nb_jobs:
            raise IndexError(f"job index {job} out of range [0, {self.instance.nb_jobs})")

    def _check_machine(self, machine: int) -> None:
        if not 0 <= machine < self.instance.nb_machines:
            raise IndexError(
                f"machine index {machine} out of range [0, {self.instance.nb_machines})"
            )

    # ------------------------------------------------------------------ #
    # Python niceties
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.instance is other.instance and bool(
            np.array_equal(self._assignment, other._assignment)
        )

    def __hash__(self) -> int:
        return hash((id(self.instance), self._assignment.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schedule(instance={self.instance.name!r}, makespan={self.makespan:.3f}, "
            f"flowtime={self.flowtime:.3f})"
        )

    def distance(self, other: "Schedule") -> int:
        """Hamming distance between two schedules (number of differing genes).

        Used by the Struggle GA replacement policy and by diversity metrics.
        """
        if self.instance is not other.instance and self.instance != other.instance:
            raise ValueError("cannot compare schedules of different instances")
        return int(np.count_nonzero(self._assignment != other._assignment))
