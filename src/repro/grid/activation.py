"""One scheduler activation, shared by both clock domains.

The simulator (simulated time) and the live :class:`~repro.service.state.
SchedulerCore` (wall time) run every activation through the same steps:
**build** the batch instance (stable ``job_ids``/``machine_ids`` metadata
for warm remapping), **solve** it (``job_batched`` lines, a timed scheduler
call, the assignment check), **plan** the shortest-processing-time commit,
and **finish** (``job_assigned`` lines, scheduler-seconds and phase
histograms).  Each driver keeps arrival sourcing, time, locking, the live
shed/degrade/stall modes, and applying the :class:`CommitPlan` to its own
state.  Plans are made from the busy track as it stands at commit time, so
the live core can solve outside its lock and commit under it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.grid.job import GridJob
from repro.grid.machine import GridMachine
from repro.model.instance import SchedulingInstance
from repro.obs.phases import PhaseTimer
from repro.utils.timer import Stopwatch

__all__ = ["Activator", "Activation", "CommitPlan"]


@dataclass(frozen=True)
class CommitPlan:
    """The placements one activation commits, by (column, duration, row).

    Per-placement arrays (``rows`` to ``finishes``) hold only placements
    inside the commit horizon; per-column ``ends`` is the queue base where
    nothing was committed.
    """

    time: float
    rows: np.ndarray
    columns: np.ndarray
    starts: np.ndarray
    finishes: np.ndarray
    busy: np.ndarray
    jobs: np.ndarray
    ends: np.ndarray


class Activator:
    """A driver's trace source, activation sequence and histogram families.

    Phase children are made lazily: names partly come from ``last_phases``.
    """

    def __init__(
        self,
        source: str,
        prefix: str,
        registry: Any,
        trace_log: Any = None,
        buckets: Sequence[float] | None = None,
    ) -> None:
        self.source = source
        self.trace_log = trace_log
        self.seq = 0
        #: Seconds per phase, summed over every activation so far.
        self.phase_seconds: dict[str, float] = {}
        self._m_scheduler_seconds = registry.histogram(
            f"{prefix}_scheduler_seconds",
            "Wall-clock seconds one scheduler activation took.",
            buckets=buckets,
        )
        self._m_phases = registry.histogram(
            f"{prefix}_activation_phase_seconds",
            "Wall-clock seconds one activation spent in each named phase.",
            labels=("phase",),
            buckets=buckets,
        )
        self._m_phase_children: dict[str, Any] = {}

    def build(
        self,
        now: float,
        jobs: Sequence[GridJob],
        machines: Sequence[GridMachine],
        busy_until: np.ndarray,
        etc_of: Callable[[Sequence[GridJob], Sequence[GridMachine]], np.ndarray],
        attempts: Sequence[int] | None = None,
    ) -> "Activation":
        """Open the next activation on a non-empty batch.

        ``etc_of`` is the driver's :func:`~repro.grid.machine.
        execution_times_matrix`; ``attempts`` the traced attempts (default 1).
        """
        timer = PhaseTimer()
        with timer.phase("instance_build"):
            instance = SchedulingInstance(
                etc=etc_of(jobs, machines),
                ready_times=np.maximum(0.0, busy_until - now),
                name=f"batch@t={now:.2f}",
                metadata={
                    "job_ids": np.array([job.job_id for job in jobs], dtype=np.int64),
                    "machine_ids": np.array(
                        [machine.machine_id for machine in machines], dtype=np.int64
                    ),
                },
            )
        self.seq += 1
        attempts = [1] * len(jobs) if attempts is None else attempts
        return Activation(self, self.seq, now, jobs, machines, instance, timer, attempts)

    def observe(self, seq: int, timer: PhaseTimer, scheduler_seconds: float) -> None:
        """Charge one activation's phase split and solve time."""
        for name, seconds in timer:
            self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds
            child = self._m_phase_children.get(name)
            if child is None:
                child = self._m_phase_children[name] = self._m_phases.labels(phase=name)
            child.observe(seconds, exemplar=seq)
        self._m_scheduler_seconds.observe(scheduler_seconds)


@dataclass
class Activation:
    """One activation in flight, made by :meth:`Activator.build`."""

    activator: Activator
    seq: int
    now: float
    jobs: Sequence[GridJob]
    machines: Sequence[GridMachine]
    instance: SchedulingInstance
    timer: PhaseTimer
    attempts: Sequence[int]
    assignment: np.ndarray | None = None
    scheduler: Any = None
    scheduler_seconds: float = 0.0
    _commit_watch: Stopwatch | None = None

    def solve(self, scheduler: Any, rng: Any, degraded: bool = False) -> None:
        """Trace the batch, run the scheduler once, check its assignment.

        *degraded* calls ``degraded_schedule``; a malformed assignment raises
        :class:`ValueError`.
        """
        log = self.activator.trace_log
        if log is not None:
            source, now, seq = self.activator.source, self.now, self.seq
            log.emit_many(
                "job_batched",
                [
                    dict(source=source, time=now, job_id=job.job_id, seq=seq, attempt=attempt)
                    for job, attempt in zip(self.jobs, self.attempts)
                ],
            )
        schedule = scheduler.degraded_schedule if degraded else scheduler.schedule
        stopwatch = Stopwatch()
        assignment = np.asarray(schedule(self.instance, rng), dtype=np.int64)
        self.scheduler_seconds = stopwatch.elapsed
        self.timer.add("solve", self.scheduler_seconds)
        if assignment.shape != (len(self.jobs),):
            raise ValueError(
                f"scheduler returned an assignment of shape {assignment.shape}, "
                f"expected ({len(self.jobs)},)"
            )
        if assignment.size and (
            assignment.min() < 0 or assignment.max() >= len(self.machines)
        ):
            raise ValueError("scheduler returned machine indices outside the batch")
        self.assignment = assignment
        self.scheduler = scheduler

    def plan(
        self, busy_until: np.ndarray, time: float, horizon: float | None = None
    ) -> CommitPlan:
        """The SPT commit plan of the solved assignment; opens the commit phase.

        A machine's queue starts at its ``busy_until``, never before *time*.
        One stable ``(machine, duration)`` sort gives every machine's SPT
        queue (ties in batch order) and one cumulative sum with per-machine
        segment resets its starts.  Under a *horizon* only placements
        starting before ``time + horizon`` commit — a prefix of each queue.
        """
        self._commit_watch = Stopwatch()
        assignment = self.assignment
        count = assignment.size
        durations = self.instance.etc[np.arange(count), assignment]
        order = np.lexsort((durations, assignment))
        columns = assignment[order]
        lengths = durations[order]
        base = np.maximum(busy_until, time)
        before = np.cumsum(lengths) - lengths
        new_segment = np.empty(count, dtype=bool)
        new_segment[0] = True
        new_segment[1:] = columns[1:] != columns[:-1]
        segment_start = np.maximum.accumulate(np.where(new_segment, np.arange(count), 0))
        starts = base[columns] + (before - before[segment_start])
        finishes = starts + lengths
        if horizon is not None:
            keep = starts < time + horizon
            order, columns, lengths = order[keep], columns[keep], lengths[keep]
            starts, finishes = starts[keep], finishes[keep]
        ends = base.copy()
        np.maximum.at(ends, columns, finishes)
        busy = np.bincount(columns, weights=lengths, minlength=base.size)
        jobs = np.bincount(columns, minlength=base.size)
        return CommitPlan(time, order, columns, starts, finishes, busy, jobs, ends)

    def finish(self, plan: CommitPlan) -> dict[str, float]:
        """End the commit phase, trace the assignment, charge the histograms.

        Returns the phase split, with the scheduler's ``last_phases`` in it.
        """
        self.timer.add("commit", self._commit_watch.elapsed)
        self.trace("job_assigned", plan)
        scheduler_phases = getattr(self.scheduler, "last_phases", None)
        if scheduler_phases:
            self.timer.merge(scheduler_phases)
        self.activator.observe(self.seq, self.timer, self.scheduler_seconds)
        return self.timer.as_dict()

    def trace(self, event: str, plan: CommitPlan, times: np.ndarray | None = None) -> None:
        """Write one *event* line per committed placement.

        Lines are stamped with *times*, or else with the commit instant and
        the activation's sequence number.
        """
        log = self.activator.trace_log
        if log is None:
            return
        source, seq = self.activator.source, self.seq
        stamps = [plan.time] * len(plan.rows) if times is None else times.tolist()
        records = []
        for row, column, time in zip(plan.rows.tolist(), plan.columns.tolist(), stamps):
            record = {"source": source, "time": time, "job_id": self.jobs[row].job_id}
            if times is None:
                record["seq"] = seq
            record["machine_id"] = self.machines[column].machine_id
            record["attempt"] = self.attempts[row]
            records.append(record)
        log.emit_many(event, records)
