"""Jobs flowing through the simulated grid.

In the dynamic scenario the paper motivates (Sections 1 and 6), independent
jobs are submitted to the grid over time by many users; the batch scheduler
is activated periodically and plans every job that arrived since its last
activation.  :class:`JobTable` holds a whole job stream as columns (ids,
workloads, arrivals, due dates, cancel times): it is the one bulk job format
from the trace layer down, and it owns the per-job rules.  :class:`GridJob`
is one job, submitted on its own to the live service or read as a row view
of a table; :class:`JobRecord` is a snapshot of where its lifecycle stands.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.utils.validation import check_non_negative, check_positive

__all__ = ["JobState", "GridJob", "JobTable", "JobRecord"]


class JobState(enum.Enum):
    """Lifecycle states of a job inside the simulator."""

    PENDING = "pending"        # arrived, waiting for the next scheduler activation
    SCHEDULED = "scheduled"    # assigned to a machine queue, not yet finished
    COMPLETED = "completed"    # finished successfully
    RESUBMITTED = "resubmitted"  # its machine left or broke down; back to pending
    CANCELLED = "cancelled"    # withdrawn by its user before it finished
    FAILED = "failed"          # revoked more times than the retry cap allows


@dataclass(frozen=True)
class GridJob:
    """An independent job submitted to the grid.

    Attributes
    ----------
    job_id:
        Unique identifier within a simulation.
    workload:
        Size of the job in millions of instructions (MI).
    arrival_time:
        Simulated time at which the job enters the system.
    due_date:
        Optional SLA deadline; a completion after it counts as a missed
        deadline and accrues tardiness.  ``None`` means no deadline.
    cancel_time:
        Optional simulated time at which the submitting user withdraws the
        job; must be strictly after the arrival.  ``None`` means the job is
        never cancelled.
    """

    job_id: int
    workload: float
    arrival_time: float
    due_date: float | None = None
    cancel_time: float | None = None

    def __post_init__(self) -> None:
        check_positive("workload", self.workload)
        check_non_negative("arrival_time", self.arrival_time)
        if self.due_date is not None and self.due_date < self.arrival_time:
            raise ValueError(
                f"due_date must be >= arrival_time, got {self.due_date} < "
                f"{self.arrival_time}"
            )
        if self.cancel_time is not None and self.cancel_time <= self.arrival_time:
            raise ValueError(
                f"cancel_time must be > arrival_time, got {self.cancel_time} <= "
                f"{self.arrival_time}"
            )


#: The columns of a :class:`JobTable`, in order (name -> dtype).
_COLUMNS = {
    "ids": np.int64,
    "workloads": np.float64,
    "arrivals": np.float64,
    "due_dates": np.float64,
    "cancel_times": np.float64,
}


@dataclass(frozen=True, eq=False)
class JobTable(Sequence):
    """A job stream as columns, one row per job.

    Due dates and cancel times of ``inf`` mean none.  Construction checks
    every per-job rule of :class:`GridJob` at once, plus unique ids; the
    rows read as :class:`GridJob` views, built on demand.  Row order is the
    caller's: :meth:`in_arrival_order` gives the one order the simulator
    consumes.
    """

    ids: np.ndarray
    workloads: np.ndarray
    arrivals: np.ndarray
    due_dates: np.ndarray | None = None
    cancel_times: np.ndarray | None = None

    def __post_init__(self) -> None:
        size = np.asarray(self.ids).size
        for name, dtype in _COLUMNS.items():
            column = getattr(self, name)
            if column is None:
                column = np.full(size, math.inf)
            column = np.ascontiguousarray(column, dtype=dtype)
            if column.ndim != 1 or column.size != size:
                raise ValueError(f"{name} must hold one entry per job")
            object.__setattr__(self, name, column)
        # A sort, not np.unique: numpy 2's hash-based unique takes tens of
        # times longer on large id arrays.
        ids = np.sort(self.ids)
        if (ids[1:] == ids[:-1]).any():
            raise ValueError("job ids must be unique")
        if not (np.isfinite(self.workloads) & (self.workloads > 0)).all():
            raise ValueError("job workloads must be positive and finite")
        if not (np.isfinite(self.arrivals) & (self.arrivals >= 0)).all():
            raise ValueError("job arrivals must be non-negative and finite")
        if not (self.due_dates >= self.arrivals).all():
            raise ValueError("due dates must be at or after the job's arrival")
        if not (self.cancel_times > self.arrivals).all():
            raise ValueError("cancel times must be strictly after the job's arrival")

    @classmethod
    def of(cls, jobs: "JobTable | Sequence[GridJob]") -> "JobTable":
        """*jobs* as a table, in their order (a table is returned as is)."""
        if isinstance(jobs, JobTable):
            return jobs
        return cls(
            [job.job_id for job in jobs],
            [job.workload for job in jobs],
            [job.arrival_time for job in jobs],
            [math.inf if job.due_date is None else job.due_date for job in jobs],
            [math.inf if job.cancel_time is None else job.cancel_time for job in jobs],
        )

    def take(self, positions: Sequence[int] | np.ndarray) -> "JobTable":
        """The rows at *positions* (distinct), as a table in that order."""
        table = object.__new__(JobTable)
        for name in _COLUMNS:
            object.__setattr__(table, name, getattr(self, name)[positions])
        return table

    def in_arrival_order(self) -> "JobTable":
        """The rows by arrival time, ties in row order (one stable sort).

        Returns the table itself when it is in that order already.
        """
        arrivals = self.arrivals
        if (arrivals[1:] >= arrivals[:-1]).all():
            return self
        return self.take(np.argsort(arrivals, kind="stable"))

    def position(self, job_id: int) -> int:
        """The row of job *job_id*; ``KeyError`` when it has none."""
        order = self._id_order
        slot = int(np.searchsorted(self.ids, job_id, sorter=order))
        if slot == order.size or self.ids[order[slot]] != job_id:
            raise KeyError(job_id)
        return int(order[slot])

    @cached_property
    def _id_order(self) -> np.ndarray:
        """Rows by job id: the id index, built on the first lookup."""
        return np.argsort(self.ids, kind="stable")

    def __len__(self) -> int:
        return self.ids.size

    def __getitem__(self, position: int) -> GridJob:
        return _view(*(getattr(self, name)[position].item() for name in _COLUMNS))

    def __iter__(self) -> Iterator[GridJob]:
        return map(_view, *(getattr(self, name).tolist() for name in _COLUMNS))


def _view(job_id: int, workload: float, arrival: float, due: float, cancel: float) -> GridJob:
    """One table row as a :class:`GridJob` (``inf`` -> ``None``)."""
    due_date = None if due == math.inf else due
    return GridJob(job_id, workload, arrival, due_date, None if cancel == math.inf else cancel)


@dataclass
class JobRecord:
    """A job's execution record: state, placement and reschedule count.

    The simulator keeps this state in per-job arrays and builds a fresh
    record on each lookup of :attr:`~repro.grid.simulator.GridSimulator.
    records`; the trace log holds the full lifecycle.
    """

    job: GridJob
    state: JobState = JobState.PENDING
    machine_id: int | None = None
    start_time: float | None = None
    completion_time: float | None = None
    reschedules: int = 0

    @property
    def response_time(self) -> float:
        """Completion minus arrival (the per-job flowtime contribution).

        Raises
        ------
        ValueError
            If the job has not completed yet.
        """
        if self.completion_time is None:
            raise ValueError(f"job {self.job.job_id} has not completed")
        return self.completion_time - self.job.arrival_time

    @property
    def tardiness(self) -> float:
        """How late the job finished past its due date (0.0 when on time).

        Raises
        ------
        ValueError
            If the job has no due date or has not completed yet.
        """
        if self.job.due_date is None:
            raise ValueError(f"job {self.job.job_id} has no due date")
        if self.completion_time is None:
            raise ValueError(f"job {self.job.job_id} has not completed")
        return max(0.0, self.completion_time - self.job.due_date)

    @property
    def waiting_time(self) -> float:
        """Time spent between arrival and the start of execution."""
        if self.start_time is None:
            raise ValueError(f"job {self.job.job_id} has not started")
        return self.start_time - self.job.arrival_time
