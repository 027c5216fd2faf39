"""Jobs flowing through the simulated grid.

In the dynamic scenario the paper motivates (Sections 1 and 6), independent
jobs are submitted to the grid over time by many users; the batch scheduler
is activated periodically and plans every job that arrived since its last
activation.  :class:`GridJob` is the unit of work of that simulation;
:class:`JobRecord` is a snapshot of where its lifecycle stands.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.utils.validation import check_non_negative, check_positive

__all__ = ["JobState", "GridJob", "JobRecord"]


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
