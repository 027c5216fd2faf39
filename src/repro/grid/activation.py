"""One scheduler activation, shared by both clock domains.

The simulator (simulated time) and the live :class:`~repro.service.state.
SchedulerCore` (wall time) run every activation through the same steps:
**build** the batch instance (stable ``job_ids``/``machine_ids`` metadata
for warm remapping), **solve** it (``job_batched`` lines, a timed scheduler
call, the assignment check), **plan** the shortest-processing-time commit,
**finish** (``job_assigned`` lines, histograms, the outcome tally) and
**report** (the ``activation`` trace line).
Both apply the :class:`CommitPlan` to a :class:`~repro.grid.park.Park` and
trace revocations with :meth:`Activator.trace_revocation`; each keeps its
own arrival sourcing, time, locking and (the live core) shed/degrade/stall
modes.  Plans are made from the busy track as it stands at commit time, so
the live core can solve outside its lock and commit under it.

Every metric family carries a ``domain`` label, ``simulator`` or
``service``: the ``source`` field of the domain's trace lines.
``repro_activations_total`` reads the outcome tally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.grid.job import JobTable
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

    @property
    def batch_makespan(self) -> float:
        """Seconds from the commit instant to the last committed finish."""
        return float(self.ends[self.jobs > 0].max(initial=self.time)) - self.time


#: What an activation did: solved its batch (``normal``, ``degraded``), found
#: nothing to plan (``idle``), or found work but no machine up (``stalled``).
OUTCOMES = ("normal", "degraded", "idle", "stalled")


class Activator:
    """A driver's activation sequence, outcome tally, trace and metric families.

    *domain* (``simulator`` or ``service``) is the trace lines' ``source``
    and the families' ``domain`` label.  Phase histogram children are made
    lazily: names partly come from ``last_phases``.
    """

    def __init__(
        self,
        domain: str,
        registry: Any,
        trace_log: Any = None,
        buckets: Sequence[float] | None = None,
    ) -> None:
        self.domain = domain
        self.trace_log = trace_log
        self.seq = 0
        #: Seconds per phase, summed over every activation so far.
        self.phase_seconds: dict[str, float] = {}
        #: Activations so far, by outcome; a solved batch counts once its
        #: plan is committed (:meth:`Activation.finish`).
        self.outcomes: dict[str, int] = dict.fromkeys(OUTCOMES, 0)
        registry.counter(
            "repro_activations_total",
            "Scheduler activations, by clock domain and outcome.",
            lambda: {(domain, outcome): n for outcome, n in self.outcomes.items()},
            labels=("domain", "outcome"),
        )
        self._m_scheduler_seconds = registry.histogram(
            "repro_activation_scheduler_seconds",
            "Wall-clock seconds one activation's scheduler call took.",
            labels=("domain",),
            buckets=buckets,
        ).labels(domain=domain)
        self._m_phases = registry.histogram(
            "repro_activation_phase_seconds",
            "Wall-clock seconds one activation spent in each named phase.",
            labels=("domain", "phase"),
            buckets=buckets,
        )
        self._m_phase_children: dict[str, Any] = {}

    def skip(self, now: float, backlog: int) -> None:
        """Count an activation that planned nothing.

        With no pending job it is ``idle``; with *backlog* pending jobs but
        no machine up it is ``stalled`` and writes a ``stalled`` line.
        """
        self.outcomes["stalled" if backlog else "idle"] += 1
        if backlog and self.trace_log is not None:
            self.trace_log.emit("stalled", source=self.domain, time=now, backlog=backlog)

    def build(
        self,
        now: float,
        jobs: JobTable,
        machines: Sequence[GridMachine],
        busy_until: np.ndarray,
        etc_of: Callable[[JobTable, Sequence[GridMachine]], np.ndarray],
        attempts: Sequence[int] | None = None,
    ) -> "Activation":
        """Open the next activation on a non-empty batch, *jobs* in batch order.

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
                    "job_ids": jobs.ids,
                    "machine_ids": np.array(
                        [machine.machine_id for machine in machines], dtype=np.int64
                    ),
                },
            )
        self.seq += 1
        attempts = [1] * len(jobs) if attempts is None else attempts
        return Activation(self, self.seq, now, jobs, machines, instance, timer, attempts)

    def trace_revocation(
        self, time: float, job_id: int, attempt: int, cause: str, retry_at: float | None
    ) -> None:
        """Trace a revoked *attempt*: retried at *retry_at*, dropped if ``None``.

        The revocation line supersedes the attempt's planned lines; timeline
        readers process events in file (causal) order.
        """
        log, source = self.trace_log, self.domain
        if log is None:
            return
        log.emit(
            "job_revoked", source=source, time=time, job_id=job_id, attempt=attempt, cause=cause
        )
        if retry_at is None:
            log.emit("job_dropped", source=source, time=time, job_id=job_id, attempts=attempt)
        else:
            log.emit(
                "job_retried",
                source=source,
                time=time,
                job_id=job_id,
                attempt=attempt + 1,
                retry_at=retry_at,
            )

    def observe(self, activation: "Activation") -> None:
        """Charge a committed activation's phase split, solve time and outcome."""
        for name, seconds in activation.timer:
            self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds
            child = self._m_phase_children.get(name)
            if child is None:
                child = self._m_phase_children[name] = self._m_phases.labels(
                    domain=self.domain, phase=name
                )
            child.observe(seconds, exemplar=activation.seq)
        self._m_scheduler_seconds.observe(activation.scheduler_seconds)
        self.outcomes[activation.mode] += 1


#: The scheduler ``stats`` counters an activation reports as carried,
#: filled and evaluations (zero for a scheduler without stats).
_REUSE = ("carried_jobs", "filled_jobs", "evaluations")


@dataclass
class Activation:
    """One activation in flight, made by :meth:`Activator.build`."""

    activator: Activator
    seq: int
    now: float
    jobs: JobTable
    machines: Sequence[GridMachine]
    instance: SchedulingInstance
    timer: PhaseTimer
    attempts: Sequence[int]
    mode: str = "normal"
    assignment: np.ndarray | None = None
    scheduler: Any = None
    scheduler_seconds: float = 0.0
    #: The scheduler's ``(carried, filled, evaluations)`` change over the
    #: solve, read only while tracing.
    reuse: tuple[int, int, int] = (0, 0, 0)
    _solve_watch: Stopwatch | None = None
    _commit_watch: Stopwatch | None = None

    def solve(self, scheduler: Any, rng: Any, mode: str = "normal") -> None:
        """Trace the batch, run the scheduler once, check its assignment.

        A ``degraded`` *mode* calls ``degraded_schedule`` where the scheduler
        has one; a malformed assignment raises :class:`ValueError`.
        """
        self._solve_watch = Stopwatch()
        log = self.activator.trace_log
        if log is not None:
            source, now, seq = self.activator.domain, self.now, self.seq
            log.emit_many(
                "job_batched",
                [
                    dict(source=source, time=now, job_id=job_id, seq=seq, attempt=attempt)
                    for job_id, attempt in zip(self.jobs.ids.tolist(), self.attempts)
                ],
            )
            stats = getattr(scheduler, "stats", None)
            before = [getattr(stats, name, 0) for name in _REUSE]
        schedule = (
            scheduler.degraded_schedule
            if mode == "degraded" and hasattr(scheduler, "degraded_schedule")
            else scheduler.schedule
        )
        stopwatch = Stopwatch()
        assignment = np.asarray(schedule(self.instance, rng), dtype=np.int64)
        self.scheduler_seconds = stopwatch.elapsed
        self.timer.add("solve", self.scheduler_seconds)
        if log is not None:
            self.reuse = tuple(getattr(stats, name, 0) - was for name, was in zip(_REUSE, before))
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
        self.mode = mode

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

    def finish(self, plan: CommitPlan) -> None:
        """End the commit phase, trace the assignment, charge the histograms.

        Merges the scheduler's ``last_phases`` into the phase split and
        counts the activation under its mode in the outcome tally.
        """
        self.timer.add("commit", self._commit_watch.elapsed)
        self.trace("job_assigned", plan)
        scheduler_phases = getattr(self.scheduler, "last_phases", None)
        if scheduler_phases:
            self.timer.merge(scheduler_phases)
        self.activator.observe(self)

    def report(self, plan: CommitPlan) -> None:
        """Write the activation's one ``activation`` trace line, in both domains.

        ``duration_seconds`` runs from the start of the solve to this write.
        """
        activator = self.activator
        if activator.trace_log is None:
            return
        carried, filled, evaluations = self.reuse
        activator.trace_log.emit(
            "activation",
            source=activator.domain,
            time=self.now,
            seq=self.seq,
            backlog=len(self.jobs),
            batch_size=len(self.jobs),
            machines=len(self.machines),
            mode=self.mode,
            scheduler_seconds=self.scheduler_seconds,
            scheduled=len(plan.rows),
            batch_makespan=plan.batch_makespan,
            phases=self.timer.as_dict(),
            carried=carried,
            filled=filled,
            evaluations=evaluations,
            duration_seconds=self._solve_watch.elapsed,
        )

    def trace(self, event: str, plan: CommitPlan, times: np.ndarray | None = None) -> None:
        """Write one *event* line per committed placement.

        Lines are stamped with *times*, or else with the commit instant and
        the activation's sequence number.
        """
        log = self.activator.trace_log
        if log is None:
            return
        source, seq = self.activator.domain, self.seq
        stamps = [plan.time] * len(plan.rows) if times is None else times.tolist()
        job_ids = self.jobs.ids.tolist()
        records = []
        for row, column, time in zip(plan.rows.tolist(), plan.columns.tolist(), stamps):
            record = {"source": source, "time": time, "job_id": job_ids[row]}
            if times is None:
                record["seq"] = seq
            record["machine_id"] = self.machines[column].machine_id
            record["attempt"] = self.attempts[row]
            records.append(record)
        log.emit_many(event, records)
