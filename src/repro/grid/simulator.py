"""Event-driven simulation of a dynamic grid driven by a batch scheduler.

The simulation reproduces the operating mode the paper proposes for real
grids: jobs arrive over time, machines may join or leave, and the batch
scheduler is activated on the jobs that are currently pending, treating the
busy time already committed on every machine as its *ready time* (exactly
the role ``ready_m`` plays in the static ETC model).

The simulator holds its jobs as one :class:`~repro.grid.job.JobTable` in
arrival order (ties keep the caller's order): a trace's job arrays as they
are, or a ``GridJob`` list converted once.  A job's *position* is its row
in that table.  Simulated time advances event to event over one typed
:class:`~repro.grid.events.EventQueue` (see that module for the event
vocabulary and the deterministic tie-breaking rules), merged with the
table's arrival column:

* **arrivals** — a cursor walks the arrival column and admits each job to
  the pending pool exactly once, popping where its ``TASK_SUBMIT`` would:
  after the membership events of its instant, before everything else
  there.  Only a revoked job's delayed re-admission is a heap
  ``TASK_SUBMIT``.
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
* ``SCHEDULER_TICK`` — one scheduler activation, through the steps the
  live service shares (:mod:`repro.grid.activation`): the table rows of
  the pending jobs are assembled into a static
  :class:`~repro.model.instance.SchedulingInstance` (one vectorized
  :func:`~repro.grid.machine.execution_times_matrix` call; the metadata
  carries stable job/machine ids for stateful policies), the configured
  :class:`~repro.grid.scheduler.BatchSchedulingPolicy` produces an
  assignment, and the jobs are committed to their machines' queues in
  shortest-processing-time order.

Per-job state lives in arrays indexed by position (state code, machine,
start, finish, reschedules), so a commit is a handful of fancy writes; no
per-job object exists until :attr:`GridSimulator.records` builds a
:class:`~repro.grid.job.JobRecord` snapshot on lookup.  Per-machine state —
membership, busy tracks, credit and the queues of in-flight placements,
keyed by position — lives in :attr:`GridSimulator.park`, the
:class:`~repro.grid.park.Park` the live service commits to as well.

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
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.config import ActivationPolicy, RetryPolicy
from repro.grid.activation import Activation, Activator, CommitPlan
from repro.grid.events import EventQueue, EventType
from repro.grid.job import GridJob, JobRecord, JobState, JobTable
from repro.grid.machine import GridMachine, execution_times_matrix
from repro.grid.metrics import ActivationRecord, MachineEvent, SimulationMetrics
from repro.grid.park import Park
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


# Job lifecycle codes of the per-position state array, in JobState order.
_STATES = tuple(JobState)
_COMPLETED = _STATES.index(JobState.COMPLETED)
_RESUBMITTED = _STATES.index(JobState.RESUBMITTED)
_CANCELLED = _STATES.index(JobState.CANCELLED)
_FAILED = _STATES.index(JobState.FAILED)

# Machine membership events, by the name their log and trace lines carry.
_MEMBERSHIP = {
    EventType.MACHINE_JOIN: "join",
    EventType.MACHINE_REPAIR: "repair",
    EventType.MACHINE_LEAVE: "leave",
    EventType.MACHINE_BREAKDOWN: "breakdown",
}


class _JobRecords(Mapping):
    """Read-only ``job_id -> JobRecord`` view of a simulator's job arrays.

    Each lookup finds the job's position through the table's id index and
    builds a fresh snapshot; iteration follows arrival order.
    """

    def __init__(self, simulator: "GridSimulator") -> None:
        self._simulator = simulator

    def __getitem__(self, job_id: int) -> JobRecord:
        sim = self._simulator
        position = sim.jobs.position(job_id)
        machine = int(sim._machine[position])
        start = float(sim._start[position])
        finish = float(sim._finish[position])
        return JobRecord(
            job=sim.jobs[position],
            state=_STATES[sim._state[position]],
            machine_id=None if machine < 0 else machine,
            start_time=None if math.isnan(start) else start,
            completion_time=None if math.isnan(finish) else finish,
            reschedules=int(sim._reschedules[position]),
        )

    def __iter__(self) -> Iterator[int]:
        return iter(self._simulator.jobs.ids.tolist())

    def __len__(self) -> int:
        return len(self._simulator.jobs)


class GridSimulator:
    """Simulates a grid whose batch scheduler is driven by typed events."""

    def __init__(
        self,
        jobs: JobTable | Sequence[GridJob],
        machines: list[GridMachine],
        policy: BatchSchedulingPolicy,
        config: SimulationConfig | None = None,
        rng: RNGLike = None,
        registry: object | None = None,
        trace_log: object | None = None,
    ) -> None:
        if not machines:
            raise ValueError("the grid needs at least one machine")
        #: The jobs in arrival order, as a table whose rows read as
        #: ``GridJob`` views; a job's row is its position.
        self.jobs: JobTable = JobTable.of(jobs).in_arrival_order()
        self.machines = list(machines)
        self.policy = policy
        self.config = config if config is not None else SimulationConfig()
        self.rng = as_generator(rng)

        # Per-job state by position: lifecycle code, machine id (-1: none),
        # planned start and finish (NaN: none), reschedules.
        nb_jobs = len(self.jobs)
        self._state = np.zeros(nb_jobs, dtype=np.int8)
        self._machine = np.full(nb_jobs, -1, dtype=np.int64)
        self._start = np.full(nb_jobs, math.nan)
        self._finish = np.full(nb_jobs, math.nan)
        self._reschedules = np.zeros(nb_jobs, dtype=np.int64)
        #: ``job_id -> JobRecord`` snapshots, built on each lookup.
        self.records: Mapping[int, JobRecord] = _JobRecords(self)
        self._machine_position: dict[int, int] = {
            machine.machine_id: position for position, machine in enumerate(self.machines)
        }
        if len(self._machine_position) != len(self.machines):
            raise ValueError("machine ids must be unique")
        #: Committed work by park position; a machine is up from its join
        #: to its leave, except while broken down.
        self.park = Park(len(self.machines), up=False)
        self._departed: set[int] = set()
        self.activations: list[ActivationRecord] = []
        # Pending-job index: the arrival cursor admits each job exactly once;
        # the pending set is maintained incrementally (resubmissions re-add,
        # commits remove) — no rescan of the job stream, ever.
        self._pending_positions: set[int] = set()
        # Positions whose revoked job awaits a RetryPolicy backoff: their
        # delayed TASK_SUBMIT re-admission must not recount as an arrival.
        self._retry_positions: set[int] = set()
        # Incremental stopping-rule state: jobs not yet COMPLETED, and the
        # park positions of not-yet-departed machines with a finite leave
        # time (``park.committed`` says which machines ever received a
        # commit: the departed-machine log must stay faithful, so a leave on
        # a machine that did work is always processed, one that never did
        # may fall after the stream drains).
        self._unfinished = nb_jobs
        self._pending_leaves: set[int] = {
            position
            for position, machine in enumerate(self.machines)
            if machine.leave_time is not None
        }
        # Unprocessed breakdown events per park position: like a pending
        # leave, a future breakdown on a machine holding commits can still
        # revoke them, so the stream is not done until those events drain.
        self._pending_breakdowns: dict[int, int] = {
            position: len(machine.breakdowns)
            for position, machine in enumerate(self.machines)
            if machine.breakdowns
        }
        # Unprocessed cancel events by job position: a cancel landing
        # before its job's committed finish can still withdraw it, so the
        # stream is not done until those events drain or are provably moot.
        cancels = self.jobs.cancel_times
        cancelled = np.flatnonzero(cancels < math.inf)
        self._pending_cancels: dict[int, float] = dict(
            zip(cancelled.tolist(), cancels[cancelled].tolist())
        )
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
        self._events: EventQueue | None = None
        self._trace_log = trace_log
        # Tallies the families read: events by kind (first arrivals added at
        # the end of run()), revocations by cause, retry re-admissions, and
        # deadline misses (settled when run() ends: planned finishes can
        # still be revoked or cancelled before).
        self._event_counts = [0] * len(EventType)
        self._revoked = {"leave": 0, "breakdown": 0}
        self._requeued = 0
        self._missed_deadlines = 0
        reg = registry if registry is not None else NULL_REGISTRY
        reg.counter(
            "repro_sim_events_total",
            "Simulation events drained from the event queue, by kind.",
            lambda: {(kind.name.lower(),): self._event_counts[kind] for kind in EventType},
            labels=("kind",),
        )
        # The activation steps and report both clock domains share: batch
        # build, timed solve, SPT commit plan, outcome tally, activation
        # families and trace line.
        self._activator = Activator("simulator", reg, trace_log)
        reg.counter(
            "repro_sim_revocations_total",
            "In-flight placements revoked, by cause.",
            lambda: {(cause,): count for cause, count in self._revoked.items()},
            labels=("cause",),
        )
        reg.counter(
            "repro_sim_retries_total",
            "Retry decisions for revoked jobs, by outcome.",
            lambda: {("requeued",): self._requeued, ("dropped",): self._count(_FAILED)},
            labels=("outcome",),
        )
        reg.counter(
            "repro_sim_cancellations_total",
            "Jobs withdrawn by their user before finishing.",
            lambda: self._count(_CANCELLED),
        )
        reg.counter(
            "repro_sim_deadline_misses_total",
            "Jobs that finished past their due date or failed with one set.",
            lambda: self._missed_deadlines,
        )

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
        registry: object | None = None,
        trace_log: object | None = None,
    ) -> "GridSimulator":
        """A simulator whose arrival source is a recorded or synthetic trace.

        *trace* is any object exposing a ``jobs`` table and
        ``to_machines()`` (the :class:`~repro.traces.format.Trace`
        artifact); its job arrays become the simulator's jobs as they are.
        Replaying a recorded trace with the same policy and seed reproduces
        the live simulation bit-exactly.
        """
        return cls(
            trace.jobs,
            trace.to_machines(),
            policy,
            config=config,
            rng=rng,
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
        for position, cancel_time in self._pending_cancels.items():
            queue.push(cancel_time, EventType.TASK_CANCEL, position)
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
        # Python floats: the cursor compares one per event.
        arrivals = self.jobs.arrivals.tolist()
        counts = self._event_counts
        cursor = 0
        while True:
            # The next arrival pops where its TASK_SUBMIT would have, with a
            # seq below every pushed event's: after the membership kinds of
            # its instant, before everything else there (retries included).
            if cursor < len(arrivals) and (
                not queue or (arrivals[cursor], EventType.TASK_SUBMIT, -1) < queue.peek()
            ):
                self._handle_submit(cursor, arrivals[cursor], adaptive)
                cursor += 1
                continue
            if not queue:
                break
            event = queue.pop()
            now = event.time
            kind = event.kind
            counts[kind] += 1
            if kind is EventType.TASK_SUBMIT:
                self._handle_submit(event.payload, now, adaptive)
            elif kind is EventType.TASK_CANCEL:
                self._handle_cancel(event.payload, now, adaptive)
            elif kind in _MEMBERSHIP:
                self._handle_membership(event.payload, now, adaptive, kind)
            elif not adaptive:
                tick = event.payload
                self._fire_scheduler(now)
                if self._finished(now, cursor):
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
                if self._finished(now, cursor):
                    break
                if self._ticks_fired >= self.config.max_activations:
                    break  # runaway guard
                self._ensure_wakeup(now)
        # First arrivals count once, in bulk; retries counted as they popped.
        counts[EventType.TASK_SUBMIT] += cursor

        return self._collect_metrics()

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
        elif self._state[position] == _CANCELLED:
            return
        else:
            self._pending_positions.add(position)
            if self._trace_log is not None:
                self._trace_log.emit(
                    "job_submitted",
                    source="simulator",
                    time=now,
                    job_id=int(self.jobs.ids[position]),
                    attempt=1,
                )
        if adaptive:
            self._ensure_wakeup(now)

    def _handle_membership(
        self, position: int, now: float, adaptive: bool, event: EventType
    ) -> None:
        """One machine's join, leave, breakdown or repair, exactly once.

        A leave or breakdown revokes the machine's in-flight work; a broken
        machine stays in the park until its repair.  Breakdowns and repairs
        of a machine that already left are moot.
        """
        kind = _MEMBERSHIP[event]
        if event is EventType.MACHINE_BREAKDOWN:
            remaining = self._pending_breakdowns.get(position, 0) - 1
            if remaining > 0:
                self._pending_breakdowns[position] = remaining
            else:
                self._pending_breakdowns.pop(position, None)
        if position in self._departed:
            return
        if event is EventType.MACHINE_LEAVE:
            self._departed.add(position)
            self._pending_leaves.discard(position)
            # Breakdown windows after departure are moot; don't hold the
            # stopping rule open for them.
            self._pending_breakdowns.pop(position, None)
        up = event is EventType.MACHINE_JOIN or event is EventType.MACHINE_REPAIR
        self.park.up[position] = up
        machine_id = self.machines[position].machine_id
        self.machine_events.append(MachineEvent(time=now, machine_id=machine_id, event=kind))
        if self._trace_log is not None:
            self._trace_log.emit(
                f"machine_{kind}", source="simulator", time=now, machine_id=machine_id
            )
        if not up:
            self._revoke_in_flight(position, now, cause=kind)
        if adaptive:
            if self._pending_positions:
                self._membership_dirty = True
            self._ensure_wakeup(now)

    def _handle_cancel(self, position: int, now: float, adaptive: bool) -> None:
        """A user withdraws a job, wherever it currently sits."""
        self._pending_cancels.pop(position, None)
        code = self._state[position]
        if code == _CANCELLED or code == _FAILED:
            return
        if code == _COMPLETED and self._finish[position] <= now:
            return  # finished before the user got to it
        if position in self._pending_positions:
            self._pending_positions.discard(position)
            self._unfinished -= 1
        elif position in self._retry_positions:
            self._retry_positions.discard(position)
            self._unfinished -= 1
        elif code == _COMPLETED:
            # In flight: the park takes the placement back and credits the
            # machine only for the work it actually ran (the commit already
            # settled the exactly-once `_unfinished` bookkeeping).
            machine = self._machine_position[int(self._machine[position])]
            self.park.release(machine, position, now)
        else:
            return  # not admitted yet — nothing to withdraw
        self._state[position] = _CANCELLED
        self._drop_placement(position)
        if self._trace_log is not None:
            job_id = int(self.jobs.ids[position])
            self._trace_log.emit("task_cancel", source="simulator", time=now, job_id=job_id)

    def _drop_placement(self, position: int) -> None:
        """Forget a job's machine and planned start/finish."""
        self._machine[position] = -1
        self._start[position] = self._finish[position] = math.nan

    def _revoke_in_flight(self, machine: int, now: float, cause: str) -> None:
        """Revoke every placement park position *machine* has not finished.

        The park takes back the un-run remainder and the completion credit
        of each (see :meth:`~repro.grid.park.Park.revoke`); here each job
        counts the reschedule and is re-admitted through the configured
        :class:`~repro.core.config.RetryPolicy` when there is one — the
        legacy default resubmits immediately, forever.
        """
        retry = self.config.retry
        for placement in self.park.revoke(machine, now):
            position = placement.key
            job_id = int(self.jobs.ids[position])
            self._drop_placement(position)
            reschedules = int(self._reschedules[position]) + 1
            self._reschedules[position] = reschedules
            self._revoked[cause] += 1
            if retry is None:
                self._state[position] = _RESUBMITTED
                self._pending_positions.add(position)
                self._unfinished += 1
                retry_at = now
            elif reschedules > retry.max_attempts:
                self._state[position] = _FAILED
                retry_at = None
            else:
                self._state[position] = _RESUBMITTED
                self._unfinished += 1
                self._requeued += 1
                delay = retry.delay(job_id, reschedules)
                if delay <= 0.0:
                    self._pending_positions.add(position)
                else:
                    self._retry_positions.add(position)
                    self._events.push(now + delay, EventType.TASK_SUBMIT, position)
                retry_at = now + max(0.0, delay)
            self._activator.trace_revocation(now, job_id, reschedules, cause, retry_at)

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

        The batch is the pending jobs' table rows in arrival order, on the
        machines in the park in park order.
        """
        positions = np.array(sorted(self._pending_positions), dtype=np.int64)
        up = np.flatnonzero(self.park.up)
        if not positions.size or not up.size:
            self._activator.skip(now, positions.size)
            return

        pending = self.jobs.take(positions)
        available = [self.machines[machine] for machine in up.tolist()]
        busy_until = self.park.busy_until[up]
        attempts = (
            (self._reschedules[positions] + 1).tolist()
            if self._trace_log is not None
            else None
        )
        activation = self._activator.build(
            now, pending, available, busy_until, execution_times_matrix, attempts
        )
        activation.solve(self.policy, self.rng)
        plan = activation.plan(busy_until, now, self.config.commit_horizon)
        self._commit(activation, plan, positions, up)
        activation.finish(plan)
        # The plan is committed at this instant, so the lifecycle lines go
        # out eagerly with the *planned* timestamps; a later job_revoked line
        # supersedes them in causal file order.
        activation.trace("job_started", plan, plan.starts)
        activation.trace("job_completed", plan, plan.finishes)
        self.activations.append(
            ActivationRecord(
                time=now,
                pending_jobs=len(pending),
                available_machines=len(available),
                scheduled_jobs=len(plan.rows),
                batch_makespan=plan.batch_makespan,
                scheduler_wall_seconds=activation.scheduler_seconds,
            )
        )
        activation.report(plan)

    def _commit(
        self, activation: Activation, plan: CommitPlan, positions: np.ndarray, up: np.ndarray
    ) -> None:
        """Apply a commit plan: job state arrays, then the park.

        *positions* holds the job position of each batch row, the key of
        its placement, and *up* the park position of each column.
        """
        placed = positions[plan.rows]
        self._state[placed] = _COMPLETED
        self._machine[placed] = activation.instance.metadata["machine_ids"][plan.columns]
        self._start[placed] = plan.starts
        self._finish[placed] = plan.finishes
        self._pending_positions.difference_update(placed.tolist())
        self._unfinished -= placed.size
        self.park.apply(up, plan, positions.tolist())

    def _finished(self, now: float, arrived: int) -> bool:
        """All jobs settled, all *arrived*, no revocations to come.

        O(1 + upcoming leaves/breakdowns) per check, against incremental
        counters: a machine with a future leave or breakdown keeps the
        simulation alive only if it ever received a commit (the event could
        still revoke committed work, and must be processed and logged).
        """
        if self._unfinished:
            return False
        if arrived < len(self.jobs):
            return False
        committed = self.park.committed
        if any(
            committed[machine]
            for machine in (*self._pending_leaves, *self._pending_breakdowns)
        ):
            return False
        # A pending cancel matters only if its job would otherwise outlive
        # it: a job already settled (finished, failed or cancelled) by its
        # cancel instant makes the event moot.
        for position, cancel_time in self._pending_cancels.items():
            if self._state[position] == _COMPLETED and not (
                self._finish[position] <= cancel_time
            ):
                return False
        return True

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def _count(self, code: int) -> int:
        """How many jobs are in lifecycle state *code*."""
        return int(np.count_nonzero(self._state == code))

    def _collect_metrics(self) -> SimulationMetrics:
        arrivals = self.jobs.arrivals
        done = self._state == _COMPLETED
        completion_times = self._finish[done]
        response_times = completion_times - arrivals[done]
        waiting_times = self._start[done] - arrivals[done]
        horizon = float(completion_times.max()) if completion_times.size else 0.0
        utilizations = self.park.utilization(horizon)
        # SLA outcome over the jobs that carried a due date: a completion
        # past its deadline accrues tardiness; a failed job with a deadline
        # is a miss outright; a cancellation is the user's choice and is
        # neither.
        due = self.jobs.due_dates
        has_due = due < math.inf
        lateness = self._finish - due
        late = done & (lateness > 0.0)
        missed_due = (has_due & (self._state == _FAILED)) | late
        missed = self._missed_deadlines = int(np.count_nonzero(missed_due))
        # Summed sequentially in arrival order, not pairwise.
        total_tardiness = float(np.cumsum(lateness[late])[-1]) if late.any() else 0.0
        max_tardiness = float(lateness[late].max()) if late.any() else 0.0
        if self._trace_log is not None:
            for position in np.flatnonzero(missed_due).tolist():
                dropped = not late[position]
                self._trace_log.emit(
                    "job_deadline_missed",
                    source="simulator",
                    time=float(due[position] if dropped else self._finish[position]),
                    job_id=int(self.jobs.ids[position]),
                    tardiness=0.0 if dropped else float(lateness[position]),
                )
        return SimulationMetrics.from_records(
            policy=self.policy.name,
            response_times=response_times,
            waiting_times=waiting_times,
            completion_times=completion_times,
            utilizations=utilizations,
            nb_jobs=len(self.jobs),
            nb_machines=len(self.machines),
            rescheduled_jobs=int(np.count_nonzero(self._reschedules)),
            activations=self.activations,
            machine_events=self.machine_events,
            nb_idle_activations=(
                self._activator.outcomes["idle"] + self._activator.outcomes["stalled"]
            ),
            cancelled_jobs=self._count(_CANCELLED),
            failed_jobs=self._count(_FAILED),
            missed_deadlines=missed,
            total_tardiness=total_tardiness,
            max_tardiness=max_tardiness,
            jobs_with_deadlines=int(np.count_nonzero(has_due)),
            phase_seconds=self._activator.phase_seconds,
        )
