"""Event-driven simulation of a dynamic grid driven by a batch scheduler.

The simulation reproduces the operating mode the paper proposes for real
grids: jobs arrive over time, machines may join or leave, and the batch
scheduler is activated on the jobs that are currently pending, treating the
busy time already committed on every machine as its *ready time* (exactly
the role ``ready_m`` plays in the static ETC model).

Simulated time advances event to event over one typed
:class:`~repro.grid.events.EventQueue` (see that module for the event
vocabulary and the deterministic tie-breaking rules):

* ``TASK_SUBMIT`` — one job's arrival admits it to the pending pool;
  arrivals are popped exactly once, never rescanned.
* ``MACHINE_JOIN`` / ``MACHINE_LEAVE`` — membership changes are popped
  exactly once at their own simulated times (the event log is timestamped
  accordingly).  A leave revokes the placements still outstanding on the
  departed machine: those jobs return to the pending pool with their
  reschedule counter incremented — the "unless it drops from the Grid"
  clause of the problem description — and the machine is credited only for
  the work it actually ran.
* ``MACHINE_BREAKDOWN`` / ``MACHINE_REPAIR`` — the failure model's
  membership events: a breakdown revokes the machine's in-flight work under
  the *same* exactly-once credit discipline as a leave but keeps the
  machine in the park, unavailable until its repair pops.  Revoked jobs are
  re-admitted immediately (legacy behaviour) or through the configured
  :class:`~repro.core.config.RetryPolicy` — bounded attempts, exponential
  backoff with deterministic jitter, drop-after-cap counted as *failed*.
* ``TASK_CANCEL`` — a user withdraws a job: it is removed from wherever it
  sits (pending pool, retry backoff, or an in-flight machine queue, with
  the machine credited only for the work it actually ran) unless it
  already finished.
* ``TASK_END`` — a committed placement reaches its planned finish;
  popping it garbage-collects the machine's outstanding-work queue, so
  departure processing scans only genuinely in-flight placements.
* ``SCHEDULER_TICK`` — one scheduler activation, through the steps the
  live service shares (:mod:`repro.grid.activation`): pending jobs that
  have arrived are assembled into a static
  :class:`~repro.model.instance.SchedulingInstance` (one vectorized
  :func:`~repro.grid.machine.execution_times_matrix` call; the metadata
  carries stable job/machine ids for stateful policies), the configured
  :class:`~repro.grid.scheduler.BatchSchedulingPolicy` produces an
  assignment, and the jobs are committed to their machines' queues in
  shortest-processing-time order.

Who places the ticks is the :class:`~repro.core.config.ActivationPolicy` of
the :class:`SimulationConfig`.  The default **periodic** driver chains
ticks at ``activation_interval`` exactly like the classic fixed-cadence
loop — same activation timestamps, same batches, same RNG stream — so
recorded-trace replay stays bit-exact across the event-queue refactor.
The **adaptive** driver schedules ticks on demand (pending-backlog
threshold, membership changes, a max-interval fallback, all under a
min-interval guard), which is what lets a calm 10^5-job trace run in a few
hundred activations instead of thousands of empty ticks.

Simulated time is completely decoupled from wall-clock time; the wall-clock
cost of each scheduler activation is measured separately and reported in the
metrics (the paper's argument is precisely that a 90-second — here sub-second
— activation budget is compatible with periodic rescheduling).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.config import ActivationPolicy, RetryPolicy
from repro.grid.activation import Activation, Activator, CommitPlan
from repro.grid.events import EventQueue, EventType
from repro.grid.job import GridJob, JobRecord, JobState
from repro.grid.machine import GridMachine, MachineState, execution_times_matrix
from repro.grid.metrics import ActivationRecord, MachineEvent, SimulationMetrics
from repro.grid.scheduler import BatchSchedulingPolicy
from repro.obs.metrics import NULL_REGISTRY
from repro.utils.rng import RNGLike, as_generator
from repro.utils.validation import check_integer, check_positive

__all__ = ["SimulationConfig", "GridSimulator"]


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of the dynamic simulation loop.

    Attributes
    ----------
    activation_interval:
        Simulated seconds between scheduler activations under the periodic
        driver (and the adaptive driver's default ``max_interval``).
    max_activations:
        Hard cap on the number of activations (a runaway guard).
    commit_horizon:
        ``None`` (default) commits every scheduled job's start/finish at the
        activation that planned it — the classic batch mode, where
        consecutive batches never overlap.  A positive value enables
        *rolling-horizon* scheduling: only placements that start before
        ``now + commit_horizon`` are locked in; the rest of the plan stays
        pending and is re-optimized at the next activation (which is what
        lets a warm scheduling policy carry its plan forward, and lets any
        policy revise queued-but-not-started decisions as new jobs arrive).
    activation:
        The :class:`~repro.core.config.ActivationPolicy` placing the
        scheduler ticks; ``None`` means the periodic driver.
    retry:
        How revoked jobs (machine left or broke down) are re-admitted.
        ``None`` (default) keeps the legacy behaviour — immediate
        resubmission, unlimited attempts; a
        :class:`~repro.core.config.RetryPolicy` bounds the attempts,
        delays re-admission by jittered exponential backoff, and drops
        jobs past the cap as *failed*.
    """

    activation_interval: float = 10.0
    max_activations: int = 10_000
    commit_horizon: float | None = None
    activation: ActivationPolicy | None = None
    retry: RetryPolicy | None = None

    def __post_init__(self) -> None:
        check_positive("activation_interval", self.activation_interval)
        check_integer("max_activations", self.max_activations, minimum=1)
        if self.commit_horizon is not None:
            check_positive("commit_horizon", self.commit_horizon)
        if self.activation is not None and not isinstance(
            self.activation, ActivationPolicy
        ):
            raise TypeError("activation must be an ActivationPolicy or None")
        if self.retry is not None and not isinstance(self.retry, RetryPolicy):
            raise TypeError("retry must be a RetryPolicy or None")


@dataclass
class _QueueEntry:
    """A job committed to a machine: its planned start and finish times."""

    job_id: int
    start: float
    finish: float


class GridSimulator:
    """Simulates a grid whose batch scheduler is driven by typed events."""

    def __init__(
        self,
        jobs: list[GridJob],
        machines: list[GridMachine],
        policy: BatchSchedulingPolicy,
        config: SimulationConfig | None = None,
        rng: RNGLike = None,
        recorder: object | None = None,
        registry: object | None = None,
        trace_log: object | None = None,
    ) -> None:
        if not machines:
            raise ValueError("the grid needs at least one machine")
        self.jobs = sorted(jobs, key=lambda job: job.arrival_time)
        self.machines = list(machines)
        self.policy = policy
        self.config = config if config is not None else SimulationConfig()
        self.rng = as_generator(rng)
        # Duck-typed capture hook (the TraceRecorder of repro.traces — the
        # grid layer never imports upward): it sees the workload and machine
        # park on entry and the finished metrics (with the machine event
        # log) on exit, which is everything a replayable trace needs.
        self.recorder = recorder

        self.records: dict[int, JobRecord] = {
            job.job_id: JobRecord(job=job) for job in self.jobs
        }
        if len(self.records) != len(self.jobs):
            raise ValueError("job ids must be unique")
        self.machine_states: dict[int, MachineState] = {
            machine.machine_id: MachineState(machine=machine) for machine in self.machines
        }
        if len(self.machine_states) != len(self.machines):
            raise ValueError("machine ids must be unique")
        # Outstanding committed work per machine, in nondecreasing
        # start/finish order (per-machine queue bases never move backwards
        # except at departure, where the queue is rebuilt anyway), so
        # TASK_END events garbage-collect from the front in O(1) and a
        # departure scans only genuinely in-flight placements.
        self._queues: dict[int, deque[_QueueEntry]] = {
            machine.machine_id: deque() for machine in self.machines
        }
        self._departed: set[int] = set()
        self.activations: list[ActivationRecord] = []
        # Pending-job index: TASK_SUBMIT events admit arrivals exactly once;
        # the pending set is maintained incrementally (resubmissions re-add,
        # commits remove) — no rescan of the job stream, ever.
        self._job_position: dict[int, int] = {
            job.job_id: position for position, job in enumerate(self.jobs)
        }
        self._pending_positions: set[int] = set()
        # Positions whose revoked job awaits a RetryPolicy backoff: their
        # delayed TASK_SUBMIT re-admission must not recount as an arrival.
        self._retry_positions: set[int] = set()
        self._submitted = 0
        # Incremental stopping-rule state: jobs not yet COMPLETED, machines
        # that ever received a commit (the departed-machine log must stay
        # faithful: a leave on a machine that did work is always processed,
        # one that never did may fall after the stream drains), and the
        # not-yet-departed machines with a finite leave time.
        self._unfinished = len(self.jobs)
        self._has_commits: set[int] = set()
        self._pending_leaves: set[int] = {
            machine.machine_id
            for machine in self.machines
            if machine.leave_time is not None
        }
        # Unprocessed breakdown events per machine: like a pending leave,
        # a future breakdown on a machine holding commits can still revoke
        # them, so the stream is not done until those events drain.
        self._pending_breakdowns: dict[int, int] = {
            machine.machine_id: len(machine.breakdowns)
            for machine in self.machines
            if machine.breakdowns
        }
        # Unprocessed cancel events by job position: a cancel landing
        # before its job's committed finish can still withdraw it, so the
        # stream is not done until those events drain or are provably moot.
        self._pending_cancels: dict[int, float] = {
            position: job.cancel_time
            for position, job in enumerate(self.jobs)
            if job.cancel_time is not None
        }
        # Park-position availability flags (joined and not departed),
        # preserving the park order of ``self.machines`` in every batch.
        self._active = [False] * len(self.machines)
        # Explicit machine join/leave event log (chronological in the final
        # metrics): each membership event is popped — and logged — exactly
        # once, at its own simulated time.
        self.machine_events: list[MachineEvent] = []
        # Adaptive-driver state: the time of the one live SCHEDULER_TICK
        # (stale ticks are skipped by timestamp), the last fired activation,
        # and whether membership changed under pending work since then.
        self._next_tick: float | None = None
        self._last_activation = -math.inf
        self._membership_dirty = False
        self._ticks_fired = 0
        self._nb_idle_activations = 0
        self._events: EventQueue | None = None
        # Observability: per-kind event counters and per-driver activation
        # counters are resolved once here, so the event loop only touches
        # pre-bound children (no-ops under the null registry).
        reg = registry if registry is not None else NULL_REGISTRY
        self._trace_log = trace_log
        events_total = reg.counter(
            "repro_sim_events_total",
            "Simulation events drained from the event queue, by kind.",
            labels=("kind",),
        )
        self._m_events = {
            kind: events_total.labels(kind=kind.name.lower()) for kind in EventType
        }
        driver = (
            "adaptive"
            if self.config.activation is not None and self.config.activation.is_adaptive
            else "periodic"
        )
        activations = reg.counter(
            "repro_sim_activations_total",
            "Scheduler activations fired by the simulation driver.",
            labels=("driver", "outcome"),
        )
        self._m_activation_scheduled = activations.labels(
            driver=driver, outcome="scheduled"
        )
        self._m_activation_idle = activations.labels(driver=driver, outcome="idle")
        # The activation steps both clock domains share: batch build, timed
        # solve, SPT commit plan, scheduler/phase histograms.
        self._activator = Activator("simulator", "repro_sim", reg, trace_log)
        # Failure-model counters: revocations by cause, retry outcomes,
        # user cancellations and SLA misses.
        revocations = reg.counter(
            "repro_sim_revocations_total",
            "In-flight placements revoked, by cause.",
            labels=("cause",),
        )
        self._m_revoked = {
            cause: revocations.labels(cause=cause) for cause in ("leave", "breakdown")
        }
        retries = reg.counter(
            "repro_sim_retries_total",
            "Retry decisions for revoked jobs, by outcome.",
            labels=("outcome",),
        )
        self._m_retry_requeued = retries.labels(outcome="requeued")
        self._m_retry_dropped = retries.labels(outcome="dropped")
        self._m_cancelled = reg.counter(
            "repro_sim_cancellations_total",
            "Jobs withdrawn by their user before finishing.",
        )
        self._m_deadline_misses = reg.counter(
            "repro_sim_deadline_misses_total",
            "Jobs that finished past their due date or failed with one set.",
        )
        if self.recorder is not None:
            self.recorder.on_simulation_start(self.jobs, self.machines, self.config)

    # ------------------------------------------------------------------ #
    # Trace-driven construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_trace(
        cls,
        trace,
        policy: BatchSchedulingPolicy,
        config: SimulationConfig | None = None,
        rng: RNGLike = None,
        recorder: object | None = None,
        registry: object | None = None,
        trace_log: object | None = None,
    ) -> "GridSimulator":
        """A simulator whose arrival source is a recorded or synthetic trace.

        *trace* is any object exposing ``to_jobs()`` / ``to_machines()``
        (the :class:`~repro.traces.format.Trace` artifact).  Replaying a
        recorded trace with the same policy and seed reproduces the live
        simulation's stream makespan and flowtime bit-exactly.
        """
        return cls(
            trace.to_jobs(),
            trace.to_machines(),
            policy,
            config=config,
            rng=rng,
            recorder=recorder,
            registry=registry,
            trace_log=trace_log,
        )

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self) -> SimulationMetrics:
        """Run the simulation to completion and return its metrics."""
        queue = EventQueue()
        self._events = queue
        for position, job in enumerate(self.jobs):
            queue.push(job.arrival_time, EventType.TASK_SUBMIT, position)
            if job.cancel_time is not None:
                queue.push(job.cancel_time, EventType.TASK_CANCEL, position)
        for position, machine in enumerate(self.machines):
            queue.push(machine.join_time, EventType.MACHINE_JOIN, position)
            if machine.leave_time is not None:
                queue.push(machine.leave_time, EventType.MACHINE_LEAVE, position)
            for down, up in machine.breakdowns:
                queue.push(down, EventType.MACHINE_BREAKDOWN, position)
                queue.push(up, EventType.MACHINE_REPAIR, position)

        activation = self.config.activation
        adaptive = activation is not None and activation.is_adaptive
        if not adaptive:
            # The periodic driver seeds tick 0 at t=0 and chains the next
            # tick after each one fires — identical activation timestamps
            # (k * activation_interval, capped at max_activations) to the
            # classic loop, hence identical batches and RNG stream.
            queue.push(0.0, EventType.SCHEDULER_TICK, 0)

        interval = self.config.activation_interval
        while queue:
            event = queue.pop()
            now = event.time
            kind = event.kind
            self._m_events[kind].inc()
            if kind is EventType.TASK_END:
                self._handle_task_end(event.payload, now, adaptive)
            elif kind is EventType.TASK_SUBMIT:
                self._handle_submit(event.payload, now, adaptive)
            elif kind is EventType.MACHINE_JOIN:
                self._handle_join(event.payload, now, adaptive)
            elif kind is EventType.MACHINE_LEAVE:
                self._handle_leave(event.payload, now, adaptive)
            elif kind is EventType.MACHINE_BREAKDOWN:
                self._handle_breakdown(event.payload, now, adaptive)
            elif kind is EventType.MACHINE_REPAIR:
                self._handle_repair(event.payload, now, adaptive)
            elif kind is EventType.TASK_CANCEL:
                self._handle_cancel(event.payload, now, adaptive)
            elif not adaptive:
                tick = event.payload
                self._fire_scheduler(now)
                if self._finished(now):
                    break
                if tick + 1 >= self.config.max_activations:
                    break  # runaway guard, like the classic loop's cap
                queue.push((tick + 1) * interval, EventType.SCHEDULER_TICK, tick + 1)
            else:
                if self._next_tick is None or now != self._next_tick:
                    continue  # superseded by an earlier wakeup
                self._next_tick = None
                self._fire_scheduler(now)
                self._last_activation = now
                self._membership_dirty = False
                self._ticks_fired += 1
                if self._finished(now):
                    break
                if self._ticks_fired >= self.config.max_activations:
                    break  # runaway guard
                self._ensure_wakeup(now)

        metrics = self._collect_metrics()
        if self.recorder is not None:
            self.recorder.on_simulation_end(metrics)
        return metrics

    # ------------------------------------------------------------------ #
    # Event handlers
    # ------------------------------------------------------------------ #
    def _handle_submit(self, position: int, now: float, adaptive: bool) -> None:
        """One job's arrival: admit it to the pending pool, exactly once.

        Also the delayed re-admission path of the retry policy: a revoked
        job coming off its backoff re-enters the pending pool here without
        recounting as an arrival (and without resurrecting a job that was
        cancelled while it waited).
        """
        if position in self._retry_positions:
            self._retry_positions.discard(position)
            self._pending_positions.add(position)
        elif self.records[self.jobs[position].job_id].state is JobState.CANCELLED:
            return
        else:
            self._pending_positions.add(position)
            self._submitted += 1
            if self._trace_log is not None:
                self._trace_log.emit(
                    "job_submitted",
                    source="simulator",
                    time=now,
                    job_id=self.jobs[position].job_id,
                    attempt=1,
                )
        if adaptive:
            self._ensure_wakeup(now)

    def _handle_join(self, position: int, now: float, adaptive: bool) -> None:
        """One machine's join: activate it and log the event, exactly once."""
        machine = self.machines[position]
        self._active[position] = True
        self.machine_events.append(
            MachineEvent(time=now, machine_id=machine.machine_id, event="join")
        )
        if self._trace_log is not None:
            self._trace_log.emit(
                "machine_join",
                source="simulator",
                time=now,
                machine_id=machine.machine_id,
            )
        if adaptive:
            if self._pending_positions:
                self._membership_dirty = True
            self._ensure_wakeup(now)

    def _handle_leave(self, position: int, now: float, adaptive: bool) -> None:
        """One machine's departure: revoke its in-flight work, exactly once."""
        machine = self.machines[position]
        machine_id = machine.machine_id
        self._active[position] = False
        self._departed.add(machine_id)
        self._pending_leaves.discard(machine_id)
        # Breakdown windows after departure are moot; don't hold the
        # stopping rule open for them.
        self._pending_breakdowns.pop(machine_id, None)
        self.machine_events.append(
            MachineEvent(time=now, machine_id=machine_id, event="leave")
        )
        if self._trace_log is not None:
            self._trace_log.emit(
                "machine_leave", source="simulator", time=now, machine_id=machine_id
            )
        self._revoke_in_flight(machine_id, now, cause="leave")
        if adaptive:
            if self._pending_positions:
                self._membership_dirty = True
            self._ensure_wakeup(now)

    def _handle_breakdown(self, position: int, now: float, adaptive: bool) -> None:
        """One machine's breakdown: revoke its in-flight work; it stays parked."""
        machine = self.machines[position]
        machine_id = machine.machine_id
        remaining = self._pending_breakdowns.get(machine_id, 0) - 1
        if remaining > 0:
            self._pending_breakdowns[machine_id] = remaining
        else:
            self._pending_breakdowns.pop(machine_id, None)
        if machine_id in self._departed:
            return  # left the grid before this window started
        self._active[position] = False
        self.machine_events.append(
            MachineEvent(time=now, machine_id=machine_id, event="breakdown")
        )
        if self._trace_log is not None:
            self._trace_log.emit(
                "machine_breakdown", source="simulator", time=now, machine_id=machine_id
            )
        self._revoke_in_flight(machine_id, now, cause="breakdown")
        if adaptive:
            if self._pending_positions:
                self._membership_dirty = True
            self._ensure_wakeup(now)

    def _handle_repair(self, position: int, now: float, adaptive: bool) -> None:
        """One machine's repair: make it schedulable again."""
        machine = self.machines[position]
        machine_id = machine.machine_id
        if machine_id in self._departed:
            return  # departed mid-breakdown; the repair is moot
        self._active[position] = True
        self.machine_events.append(
            MachineEvent(time=now, machine_id=machine_id, event="repair")
        )
        if self._trace_log is not None:
            self._trace_log.emit(
                "machine_repair", source="simulator", time=now, machine_id=machine_id
            )
        if adaptive:
            if self._pending_positions:
                self._membership_dirty = True
            self._ensure_wakeup(now)

    def _handle_cancel(self, position: int, now: float, adaptive: bool) -> None:
        """A user withdraws a job, wherever it currently sits."""
        self._pending_cancels.pop(position, None)
        job = self.jobs[position]
        record = self.records[job.job_id]
        if record.state in (JobState.CANCELLED, JobState.FAILED):
            return
        if (
            record.state is JobState.COMPLETED
            and record.completion_time is not None
            and record.completion_time <= now
        ):
            return  # finished before the user got to it
        if position in self._pending_positions:
            self._pending_positions.discard(position)
            self._unfinished -= 1
        elif position in self._retry_positions:
            self._retry_positions.discard(position)
            self._unfinished -= 1
        elif record.state is JobState.COMPLETED and record.machine_id is not None:
            # In flight: remove the committed placement and credit the
            # machine only for the work it actually ran (the commit already
            # settled the exactly-once `_unfinished` bookkeeping).  The
            # committed start/finish instants of the other placements stay
            # immutable.
            state = self.machine_states[record.machine_id]
            queue = self._queues[record.machine_id]
            for entry in queue:
                if entry.job_id == job.job_id:
                    processed = max(0.0, min(entry.finish, now) - entry.start)
                    state.busy_time -= (entry.finish - entry.start) - processed
                    state.completed_jobs -= 1
                    queue.remove(entry)
                    break
        else:
            return  # not admitted yet — nothing to withdraw
        record.state = JobState.CANCELLED
        record.machine_id = None
        record.start_time = None
        record.completion_time = None
        record.note(f"cancelled at t={now:.2f}")
        self._m_cancelled.inc()
        if self._trace_log is not None:
            self._trace_log.emit(
                "task_cancel", source="simulator", time=now, job_id=job.job_id
            )

    def _revoke_in_flight(self, machine_id: int, now: float, cause: str) -> None:
        """Revoke every placement still outstanding on *machine_id*.

        The exactly-once credit discipline shared by leaves and breakdowns:
        the commit credited the full duration and one completion; the
        machine only processed each job up to *now* (if it started at all),
        so give back the un-run remainder and the completion credit — once
        per revocation, never twice.  Re-admission goes through the
        configured :class:`~repro.core.config.RetryPolicy` when there is
        one; the legacy default resubmits immediately, forever.
        """
        state = self.machine_states[machine_id]
        queue = self._queues[machine_id]
        retry = self.config.retry
        reason = "machine departed" if cause == "leave" else "machine broke down"
        surviving = [entry for entry in queue if entry.finish <= now]
        for entry in queue:
            if entry.finish <= now:
                continue
            # The job did not finish before the machine dropped: revoke it.
            record = self.records[entry.job_id]
            record.machine_id = None
            record.start_time = None
            record.completion_time = None
            record.reschedules += 1
            self._m_revoked[cause].inc()
            if self._trace_log is not None:
                # The revocation line supersedes the attempt's eagerly
                # emitted planned job_started/job_completed lines: timeline
                # readers process events in file (causal) order.
                self._trace_log.emit(
                    "job_revoked",
                    source="simulator",
                    time=now,
                    job_id=entry.job_id,
                    attempt=record.reschedules,
                    cause=cause,
                )
            if retry is None:
                record.state = JobState.RESUBMITTED
                record.note(f"resubmitted at t={now:.2f} ({reason})")
                self._pending_positions.add(self._job_position[entry.job_id])
                self._unfinished += 1
                if self._trace_log is not None:
                    self._trace_log.emit(
                        "job_retried",
                        source="simulator",
                        time=now,
                        job_id=entry.job_id,
                        attempt=record.reschedules + 1,
                        retry_at=now,
                    )
            elif record.reschedules > retry.max_attempts:
                record.state = JobState.FAILED
                record.note(
                    f"dropped at t={now:.2f} ({reason}; "
                    f"retry cap {retry.max_attempts} exhausted)"
                )
                self._m_retry_dropped.inc()
                if self._trace_log is not None:
                    self._trace_log.emit(
                        "job_dropped",
                        source="simulator",
                        time=now,
                        job_id=entry.job_id,
                        attempts=record.reschedules,
                    )
            else:
                record.state = JobState.RESUBMITTED
                self._unfinished += 1
                self._m_retry_requeued.inc()
                delay = retry.delay(entry.job_id, record.reschedules)
                position = self._job_position[entry.job_id]
                if delay <= 0.0:
                    record.note(f"resubmitted at t={now:.2f} ({reason})")
                    self._pending_positions.add(position)
                else:
                    record.note(
                        f"resubmitted at t={now:.2f} ({reason}; "
                        f"backoff until t={now + delay:.2f})"
                    )
                    self._retry_positions.add(position)
                    self._events.push(now + delay, EventType.TASK_SUBMIT, position)
                if self._trace_log is not None:
                    self._trace_log.emit(
                        "job_retried",
                        source="simulator",
                        time=now,
                        job_id=entry.job_id,
                        attempt=record.reschedules + 1,
                        retry_at=now + max(0.0, delay),
                    )
            processed = max(0.0, min(entry.finish, now) - entry.start)
            state.busy_time -= (entry.finish - entry.start) - processed
            state.completed_jobs -= 1
        queue.clear()
        queue.extend(surviving)
        state.busy_until = min(state.busy_until, now)

    def _handle_task_end(self, machine_id: int, now: float, adaptive: bool) -> None:
        """A planned finish time passed: drop settled work from the queue."""
        queue = self._queues[machine_id]
        while queue and queue[0].finish <= now:
            queue.popleft()
        if adaptive:
            self._ensure_wakeup(now)

    def _ensure_wakeup(self, now: float) -> None:
        """Adaptive driver: keep one live tick scheduled while work pends.

        The wakeup fires :meth:`~repro.core.config.ActivationPolicy.gap`
        after the last activation (``min_interval`` when the backlog or a
        membership change triggers it, ``max_interval`` otherwise).  Only a
        strictly earlier target replaces the live tick — the superseded tick
        is skipped by timestamp when it pops.
        """
        if not self._pending_positions:
            return
        gap = self.config.activation.gap(
            len(self._pending_positions),
            self.config.activation_interval,
            self._membership_dirty,
        )
        target = max(now, self._last_activation + gap)
        if self._next_tick is None or target < self._next_tick:
            self._next_tick = target
            self._events.push(target, EventType.SCHEDULER_TICK, None)

    # ------------------------------------------------------------------ #
    # Scheduler activation
    # ------------------------------------------------------------------ #
    def _fire_scheduler(self, now: float) -> None:
        """One activation: build the batch instance, schedule it, commit it.

        The batch is the pending jobs in arrival order, on the machines in
        the park in park order.
        """
        pending = [self.jobs[position] for position in sorted(self._pending_positions)]
        available = (
            [machine for machine, active in zip(self.machines, self._active) if active]
            if pending
            else []
        )
        if not pending or not available:
            self._nb_idle_activations += 1
            self._m_activation_idle.inc()
            return

        busy_until = np.array(
            [self.machine_states[machine.machine_id].busy_until for machine in available]
        )
        attempts = (
            [self.records[job.job_id].reschedules + 1 for job in pending]
            if self._trace_log is not None
            else None
        )
        activation = self._activator.build(
            now, pending, available, busy_until, execution_times_matrix, attempts
        )
        activation.solve(self.policy, self.rng)
        plan = activation.plan(busy_until, now, self.config.commit_horizon)
        batch_makespan = self._commit(activation, plan)
        phases = activation.finish(plan)
        # The plan is committed at this instant, so the lifecycle lines go
        # out eagerly with the *planned* timestamps; a later job_revoked line
        # supersedes them in causal file order.
        activation.trace("job_started", plan, plan.starts)
        activation.trace("job_completed", plan, plan.finishes)
        committed = len(plan.rows)
        self.activations.append(
            ActivationRecord(
                time=now,
                pending_jobs=len(pending),
                available_machines=len(available),
                scheduled_jobs=committed,
                batch_makespan=batch_makespan,
                scheduler_wall_seconds=activation.scheduler_seconds,
            )
        )
        self._m_activation_scheduled.inc()
        if self._trace_log is not None:
            self._trace_log.emit(
                "activation",
                source="simulator",
                time=now,
                seq=activation.seq,
                backlog=len(pending),
                batch_size=len(pending),
                machines=len(available),
                mode="normal",
                scheduler_seconds=activation.scheduler_seconds,
                scheduled=committed,
                batch_makespan=batch_makespan,
                phases=phases,
            )

    def _commit(self, activation: Activation, plan: CommitPlan) -> float:
        """Apply a commit plan: job records, machine queues, ``TASK_END`` events.

        Returns the batch makespan of the committed work.
        """
        now = activation.now
        pending = activation.jobs
        available = activation.machines
        for row, column, start, finish in zip(
            plan.rows.tolist(),
            plan.columns.tolist(),
            plan.starts.tolist(),
            plan.finishes.tolist(),
        ):
            job = pending[row]
            machine_id = available[column].machine_id
            record = self.records[job.job_id]
            record.state = JobState.COMPLETED
            record.machine_id = machine_id
            record.start_time = start
            record.completion_time = finish
            record.note(
                f"scheduled at t={now:.2f} on machine {machine_id} "
                f"(start={start:.2f}, finish={finish:.2f})"
            )
            self._queues[machine_id].append(
                _QueueEntry(job_id=job.job_id, start=start, finish=finish)
            )
            self._pending_positions.discard(self._job_position[job.job_id])
            self._unfinished -= 1
            self._has_commits.add(machine_id)
            self._events.push(finish, EventType.TASK_END, machine_id)
        batch_finish = now
        for column in np.flatnonzero(plan.jobs).tolist():
            state = self.machine_states[available[column].machine_id]
            state.busy_time += float(plan.busy[column])
            state.completed_jobs += int(plan.jobs[column])
            state.busy_until = float(plan.ends[column])
            batch_finish = max(batch_finish, state.busy_until)
        return batch_finish - now

    def _finished(self, now: float) -> bool:
        """All jobs settled, no arrivals pending, no revocations to come.

        O(1 + upcoming leaves/breakdowns) per check, against incremental
        counters: a machine with a future leave or breakdown keeps the
        simulation alive only if it ever received a commit (the event could
        still revoke committed work, and must be processed and logged).
        """
        if self._unfinished:
            return False
        if self._submitted < len(self.jobs):
            return False
        if any(
            machine_id in self._has_commits
            for machine_id in (*self._pending_leaves, *self._pending_breakdowns)
        ):
            return False
        # A pending cancel matters only if its job would otherwise outlive
        # it: a job already settled (finished, failed or cancelled) by its
        # cancel instant makes the event moot.
        for position, cancel_time in self._pending_cancels.items():
            record = self.records[self.jobs[position].job_id]
            if record.state is JobState.COMPLETED and (
                record.completion_time is None or record.completion_time > cancel_time
            ):
                return False
        return True

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def _collect_metrics(self) -> SimulationMetrics:
        completed = [
            record
            for record in self.records.values()
            if record.state is JobState.COMPLETED and record.completion_time is not None
        ]
        response_times = np.array([record.response_time for record in completed])
        waiting_times = np.array([record.waiting_time for record in completed])
        completion_times = np.array([record.completion_time for record in completed])
        horizon = float(completion_times.max()) if completed else 0.0
        utilizations = np.array(
            [state.utilization(horizon) for state in self.machine_states.values()]
        )
        rescheduled = sum(1 for record in self.records.values() if record.reschedules > 0)
        cancelled = sum(
            1 for record in self.records.values() if record.state is JobState.CANCELLED
        )
        failed = sum(
            1 for record in self.records.values() if record.state is JobState.FAILED
        )
        # SLA outcome over the jobs that carried a due date: a completion
        # past its deadline accrues tardiness; a failed job with a deadline
        # is a miss outright; a cancellation is the user's choice and is
        # neither.
        jobs_with_deadlines = 0
        missed = 0
        total_tardiness = 0.0
        max_tardiness = 0.0
        for record in self.records.values():
            if record.job.due_date is None:
                continue
            jobs_with_deadlines += 1
            if record.state is JobState.FAILED:
                missed += 1
                if self._trace_log is not None:
                    self._trace_log.emit(
                        "job_deadline_missed",
                        source="simulator",
                        time=record.job.due_date,
                        job_id=record.job.job_id,
                        tardiness=0.0,
                    )
            elif record.state is JobState.COMPLETED and record.completion_time is not None:
                late = record.completion_time - record.job.due_date
                if late > 0.0:
                    missed += 1
                    total_tardiness += late
                    max_tardiness = max(max_tardiness, late)
                    if self._trace_log is not None:
                        self._trace_log.emit(
                            "job_deadline_missed",
                            source="simulator",
                            time=record.completion_time,
                            job_id=record.job.job_id,
                            tardiness=late,
                        )
        if missed:
            self._m_deadline_misses.inc(missed)
        return SimulationMetrics.from_records(
            policy=self.policy.name,
            response_times=response_times,
            waiting_times=waiting_times,
            completion_times=completion_times,
            utilizations=utilizations,
            nb_jobs=len(self.jobs),
            nb_machines=len(self.machines),
            rescheduled_jobs=rescheduled,
            activations=self.activations,
            machine_events=self.machine_events,
            nb_idle_activations=self._nb_idle_activations,
            cancelled_jobs=cancelled,
            failed_jobs=failed,
            missed_deadlines=missed,
            total_tardiness=total_tardiness,
            max_tardiness=max_tardiness,
            jobs_with_deadlines=jobs_with_deadlines,
            phase_seconds=self._activator.phase_seconds,
        )
