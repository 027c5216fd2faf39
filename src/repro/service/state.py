"""The live scheduler's synchronous core: queue, overload machine, metrics.

:class:`SchedulerCore` is the whole service minus the event loop — a plain,
thread-safe state machine that accepts submissions into a bounded queue,
turns the backlog into batch :class:`~repro.model.instance.
SchedulingInstance`\\ s against a static machine park, runs the configured
batch scheduler (normally the warm
:class:`~repro.grid.service.DynamicSchedulerService`), commits the plan to
its machine park, and keeps the one set of operational counts that the
snapshot and ``/metrics`` both read; build, solve, check and the SPT commit
plan are the activation steps the simulator runs too
(:mod:`repro.grid.activation`).
Keeping it synchronous and clock-injected is what makes the overload
behaviour *testable*: the unit tests drive every interleaving of
submissions and activations with a :class:`~repro.service.clock.
FakeClock`, no sleeps, no flakiness — the asyncio
:class:`~repro.service.server.SchedulerServer` is a thin shell on top.

Overload is handled in two explicit stages, mirroring how production
queueing systems degrade:

1. **shed** — the submission queue is bounded (``ServiceConfig.
   queue_capacity``); a submission arriving at a full queue is rejected and
   counted, so under sustained overload the *shed counter* grows while the
   queue does not (the backpressure signal an open-loop load test can
   measure);
2. **degrade** — when one activation's batch reaches
   ``degrade_threshold``, the core switches to the scheduler's Min-Min
   fallback (:meth:`~repro.grid.service.DynamicSchedulerService.
   degraded_schedule`) whose cost is bounded per batch, and switches back
   only when a batch falls to ``recover_threshold`` (hysteresis, so one
   borderline batch cannot flap the mode).

Every accepted submission is **exactly-once** accounted by its *last*
fate: it was last planned by an activation (it is in that activation's
``scheduled_ids``), withdrawn through :meth:`SchedulerCore.cancel`, or
returned by :meth:`SchedulerCore.abort` as shed — exactly one of the three.
A job id appears in two activations only if a breakdown revoked the job in
between.  The property test in ``tests/service/test_exactly_once.py`` pins
this under arbitrary interleavings.  A failed solve (the scheduler raises,
or returns a malformed assignment) puts its batch back at the front of the
queue before the error propagates, so it loses no job either.

The failure model reaches the live service through two additions: the
``cancel`` verb (a queued submission is withdrawn before it is planned —
at-most-once, a job already handed to the scheduler cannot be recalled),
and per-machine availability (:meth:`SchedulerCore.break_machine` /
:meth:`SchedulerCore.repair_machine`, driven by the
:class:`~repro.service.chaos.FaultInjector`).  Committed work lives in a
:class:`~repro.grid.park.Park`, the simulator's too, so a breakdown means
the same in both clock domains: the park revokes the machine's unfinished
placements and their jobs go back to the front of the queue.  A broken
machine stays in the park but receives no new work, and an activation that
finds *no* machine up re-queues its batch untouched instead of losing it.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import asdict, dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.config import ServiceConfig
from repro.grid.activation import Activator
from repro.grid.job import GridJob, JobTable
from repro.grid.machine import GridMachine, execution_times_matrix
from repro.grid.metrics import latency_percentiles
from repro.grid.park import Park
from repro.obs.metrics import NULL_REGISTRY
from repro.utils.rng import RNGLike, as_generator

__all__ = ["ActivationOutcome", "ServiceSnapshot", "SchedulerCore"]


@dataclass(frozen=True)
class ActivationOutcome:
    """What one activation of the live scheduler did."""

    time: float
    batch_size: int
    #: Stable job ids planned by this activation (empty when idle).
    scheduled_ids: tuple[int, ...]
    #: Overload mode the batch was solved under (``"normal"``/``"degraded"``).
    mode: str
    scheduler_seconds: float

    @property
    def idle(self) -> bool:
        """Whether the activation planned nothing (empty queue or dark park)."""
        return self.batch_size == 0


@dataclass(frozen=True)
class ServiceSnapshot:
    """One metrics snapshot of the live service (the ``metrics`` endpoint).

    Latency quantiles are per-job *scheduling latency* — accepted to
    planned, over the rolling ``latency_window`` — computed by the same
    :func:`~repro.grid.metrics.latency_percentiles` machinery the
    simulation metrics use for per-activation scheduler cost.
    """

    uptime_seconds: float
    backlog: int
    queue_capacity: int
    mode: str
    accepted: int
    shed: int
    scheduled: int
    #: Activations by outcome: a solved batch counts once its plan commits.
    activations: int
    idle_activations: int
    degraded_batches: int
    degraded_jobs: int
    peak_backlog: int
    throughput_per_min: float
    utilization: float
    p50_latency: float
    p95_latency: float
    p99_latency: float
    cancelled: int
    machines_up: int
    machines_total: int
    breakdowns: int
    repairs: int
    #: Activations that found work but no machine up: the batch was
    #: re-queued untouched (no job is ever lost to a broken park).
    stalled_activations: int
    #: Planned jobs a breakdown took back and re-queued.
    revoked: int

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly form (what the TCP ``metrics`` op returns).

        Gated percentiles (``NaN`` on the snapshot — too few samples, see
        :func:`~repro.grid.metrics.latency_percentiles`) become ``None``
        here: ``NaN`` is not valid strict JSON, and ``null`` is what the
        table renderers print as ``n/a``.
        """
        return {
            name: None if value != value else value
            for name, value in asdict(self).items()
        }


class SchedulerCore:
    """Thread-safe submission queue + overload state machine + metrics.

    Parameters
    ----------
    machines:
        The static machine park the service schedules onto (joins and
        leaves stay a simulator concern; breakdowns reach it through
        :meth:`break_machine`).
    scheduler:
        Any object with ``schedule(instance, rng)``; if it also exposes
        ``degraded_schedule(instance, rng)`` (the warm
        :class:`~repro.grid.service.DynamicSchedulerService` does), that is
        used while the overload mode is degraded, otherwise the normal path
        is used throughout and only shed protects the service.
    config:
        The :class:`~repro.core.config.ServiceConfig` (queue bound,
        thresholds, activation cadence, latency window).
    clock:
        A :class:`~repro.service.clock.Clock`; defaults to the monotonic
        wall clock.  Tests inject a fake.
    rng:
        Seed/generator for the scheduler's stochastic parts.
    registry:
        A :class:`~repro.obs.metrics.MetricsRegistry` that reads the core's
        own counts when scraped (submissions by outcome, machine faults,
        machines up, queue depth, mode transitions) and holds the job-latency
        histogram; defaults to the no-op null registry.  Exposed as
        :attr:`registry` — the server's ``GET /metrics`` renders it.
    trace_log:
        A :class:`~repro.obs.tracelog.TraceLog` receiving one ``activation``
        line per solved batch and one point event per shed episode and
        degrade/recover transition; ``None`` disables tracing.
    """

    def __init__(
        self,
        machines: Sequence[GridMachine],
        scheduler: Any,
        config: ServiceConfig | None = None,
        *,
        clock: Any = None,
        rng: RNGLike = None,
        registry: Any = None,
        trace_log: Any = None,
    ) -> None:
        if not machines:
            raise ValueError("the live service needs at least one machine")
        from repro.service.clock import WallClock  # local import: no cycle

        self.machines = list(machines)
        self.scheduler = scheduler
        self.config = config if config is not None else ServiceConfig()
        self.clock = clock if clock is not None else WallClock()
        self.rng = as_generator(rng)
        self._policy = self.config.effective_activation

        self._lock = threading.Lock()
        self._epoch = self.clock.now()
        self._queue: list[GridJob] = []
        self._ids = itertools.count()
        #: Committed work and availability, by park position.
        self.park = Park(len(self.machines))
        #: Attempt number of each job revoked at least once, kept only
        #: while tracing: the trace lines are its one reader.
        self._attempts: dict[int, int] = {}
        self._latencies: list[float] = []
        self._last_activation = -float("inf")

        self.mode = "normal"
        self.accepted = 0
        #: Submissions refused at a full queue, and queued ones shed by
        #: :meth:`abort`; :attr:`shed` is their sum.
        self.shed_on_submit = 0
        self.aborted = 0
        self.scheduled = 0
        self.cancelled = 0
        self.peak_backlog = 0
        self.breakdowns = 0
        self.repairs = 0
        #: Planned jobs a breakdown took back and re-queued.
        self.revoked = 0
        #: Overload mode transitions, by name.
        self.transitions = {"degrade": 0, "recover": 0}

        self.registry = registry if registry is not None else NULL_REGISTRY
        self.trace_log = trace_log
        #: True while a shed episode is running (first shed emits a trace
        #: event; the episode ends at the next accepted submission), so an
        #: overload burst traces as one event, not thousands.
        self._shedding = False
        # The families read the counts above when scraped, without the lock.
        self.registry.counter(
            "repro_service_submissions_total",
            "Submissions by outcome (aborted = shed at shutdown).",
            lambda: {
                ("accepted",): self.accepted,
                ("shed",): self.shed_on_submit,
                ("aborted",): self.aborted,
                ("cancelled",): self.cancelled,
            },
            labels=("outcome",),
        )
        self.registry.counter(
            "repro_service_machine_faults_total",
            "Chaos-injected machine availability flips, by kind.",
            lambda: {("breakdown",): self.breakdowns, ("repair",): self.repairs},
            labels=("kind",),
        )
        self.registry.gauge(
            "repro_service_machines_up",
            "Machines currently accepting work.",
            lambda: int(self.park.up.sum()),
        )
        self.registry.gauge(
            "repro_service_queue_depth",
            "Current submission-queue depth.",
            lambda: len(self._queue),
        )
        self.registry.counter(
            "repro_service_mode_transitions_total",
            "Overload mode transitions of the degrade/recover hysteresis.",
            lambda: {(name,): count for name, count in self.transitions.items()},
            labels=("transition",),
        )
        buckets = self.config.latency_buckets
        self._m_job_latency = self.registry.histogram(
            "repro_service_job_latency_seconds",
            "Per-job scheduling latency: accepted to planned.",
            buckets=buckets,
        )
        # The activation steps and report both clock domains share: batch
        # build, timed solve, SPT commit plan, outcome tally (the snapshot's
        # activation counts), activation families and trace line.
        self._activator = Activator("service", self.registry, trace_log, buckets)

    # ------------------------------------------------------------------ #
    # Queue side: submit and cancel
    # ------------------------------------------------------------------ #
    def _now(self) -> float:
        """Seconds since the core was built (so job arrival times are >= 0)."""
        return self.clock.now() - self._epoch

    @property
    def shed(self) -> int:
        """Submissions shed, at a full queue or by :meth:`abort`."""
        return self.shed_on_submit + self.aborted

    @property
    def backlog(self) -> int:
        """Current submission-queue depth."""
        with self._lock:
            return len(self._queue)

    def submit(self, workload: float) -> int | None:
        """Accept one job into the queue, or shed it at capacity.

        Returns the stable job id when accepted, ``None`` when shed — the
        caller (server, load generator, property test) learns the fate of
        every submission synchronously; nothing is silently dropped.
        """
        now = self._now()
        with self._lock:
            if len(self._queue) >= self.config.queue_capacity:
                self.shed_on_submit += 1
                # First shed of an episode: trace it once, not per job.
                episode_start = not self._shedding
                self._shedding = True
                depth = len(self._queue)
                job_id = None
            else:
                job_id = next(self._ids)
                self._queue.append(GridJob(job_id=job_id, workload=workload, arrival_time=now))
                self.accepted += 1
                self.peak_backlog = max(self.peak_backlog, len(self._queue))
                episode_start = False
                self._shedding = False
                if self.trace_log is not None:
                    # Under the lock, like plan and revocation lines: no
                    # activation can batch the job before this line.
                    self.trace_log.emit(
                        "job_submitted",
                        source="service",
                        time=now,
                        job_id=job_id,
                        attempt=1,
                    )
        # The shed line goes out after the lock: no other line depends on it.
        if episode_start and self.trace_log is not None:
            self.trace_log.emit("shed", source="service", time=now, backlog=depth)
        return job_id

    def cancel(self, job_id: int) -> bool:
        """Withdraw a queued submission before it is planned.

        Returns ``True`` when the job was still in the queue and has been
        removed; ``False`` when it is unknown or already handed to the
        scheduler — cancellation is **at-most-once** and never recalls a
        planned job.  A cancelled job leaves the exactly-once partition as
        its own category: accepted ≡ scheduled ⊎ cancelled ⊎ shed-at-abort.
        """
        now = self._now()
        with self._lock:
            for index, job in enumerate(self._queue):
                if job.job_id == job_id:
                    del self._queue[index]
                    self.cancelled += 1
                    break
            else:
                return False
        if self.trace_log is not None:
            self.trace_log.emit(
                "task_cancel", source="service", time=now, job_id=job_id
            )
        return True

    # ------------------------------------------------------------------ #
    # Chaos hook: per-machine availability
    # ------------------------------------------------------------------ #
    def break_machine(self, index: int) -> bool:
        """Mark park machine *index* as down and revoke its unfinished work.

        As a simulated breakdown does: the park takes back every placement
        the machine has not finished, and their jobs go back to the front
        of the queue in job-id order, for immediate re-admission.  Returns
        ``False`` when the machine was already down.
        """
        return self._set_availability(index, False)

    def repair_machine(self, index: int) -> bool:
        """Mark park machine *index* as up again (``False`` if already up)."""
        return self._set_availability(index, True)

    def _set_availability(self, index: int, up: bool) -> bool:
        if not 0 <= index < len(self.machines):
            raise ValueError(
                f"machine index must be in [0, {len(self.machines)}), got {index}"
            )
        with self._lock:
            if self.park.up[index] == up:
                return False
            now = self._now()
            self.park.up[index] = up
            if up:
                self.repairs += 1
            else:
                self.breakdowns += 1
            if self.trace_log is not None:
                self.trace_log.emit(
                    "machine_repair" if up else "machine_breakdown",
                    source="service",
                    time=now,
                    machine_id=self.machines[index].machine_id,
                )
            if not up:
                self._revoke([index], now)
        return True

    def _revoke(self, indices: Sequence[int], now: float) -> None:
        """Revoke the unfinished work of park *indices*; re-queue its jobs.

        Runs under the lock, trace lines included, so no activation can
        batch a job again before its ``job_revoked`` line is written.
        """
        jobs = [
            placement.key for index in indices for placement in self.park.revoke(index, now)
        ]
        self._queue[:0] = sorted(jobs, key=lambda job: job.job_id)
        self.scheduled -= len(jobs)
        self.revoked += len(jobs)
        self.peak_backlog = max(self.peak_backlog, len(self._queue))
        if self.trace_log is not None:
            # Trace lines in revocation order, as the simulator writes them.
            for job in jobs:
                attempt = self._attempts.get(job.job_id, 1)
                self._attempts[job.job_id] = attempt + 1
                self._activator.trace_revocation(now, job.job_id, attempt, "breakdown", now)

    @property
    def machines_up(self) -> int:
        """How many park machines currently accept work."""
        with self._lock:
            return int(self.park.up.sum())

    def seconds_until_due(self) -> float:
        """Wall-clock seconds until the next activation should fire.

        The configured :class:`~repro.core.config.ActivationPolicy` re-read
        on wall time: adaptive mode waits ``min_interval`` past the last
        activation once the backlog reaches the threshold and
        ``max_interval`` otherwise; periodic mode always waits the
        ``activation_interval``.  Zero means "due now".
        """
        with self._lock:
            backlog = len(self._queue)
        gap = self._policy.gap(backlog, self.config.activation_interval)
        return max(0.0, self._last_activation + gap - self._now())

    # ------------------------------------------------------------------ #
    # Activation side
    # ------------------------------------------------------------------ #
    def activate(self) -> ActivationOutcome:
        """Drain the queue into one batch, schedule it, commit the plan.

        The queue drain, mode transition and plan commit run under the
        lock; the scheduler itself runs *outside* it, so submissions keep
        flowing (and shedding) while a cMA activation crunches — which is
        exactly the window where genuine overload happens.  If the solve
        fails, the batch goes back to the front of the queue and the error
        propagates.
        """
        with self._lock:
            now = self._now()
            self._last_activation = now
            batch = self._queue
            self._queue = []
            up = np.flatnonzero(self.park.up)
            if not batch or not up.size:
                # Nothing queued is idle.  With every machine down, stall,
                # don't lose: the batch goes back to the *front* of the queue
                # (arrival order preserved for the next activation) and the
                # activation reports idle, so the exactly-once partition is
                # untouched.
                self._queue = batch + self._queue
                self._activator.skip(now, len(batch))
                return ActivationOutcome(
                    time=now,
                    batch_size=0,
                    scheduled_ids=(),
                    mode=self.mode,
                    scheduler_seconds=0.0,
                )
            # Hysteresis: degrade on a big batch, recover only on a small
            # one, so a single borderline batch cannot flap the mode.
            transition = None
            if self.mode == "normal" and len(batch) >= self.config.effective_degrade_threshold:
                self.mode = "degraded"
                transition = "degrade"
            elif self.mode == "degraded" and len(batch) <= self.config.effective_recover_threshold:
                self.mode = "normal"
                transition = "recover"
            if transition is not None:
                self.transitions[transition] += 1
            mode = self.mode
            attempts = (
                [self._attempts.get(job.job_id, 1) for job in batch]
                if self.trace_log is not None
                else None
            )
            # The batch is solved over the *up* machines only; a broken
            # machine gets no new work.
            activation = self._activator.build(
                now,
                JobTable.of(batch),
                [self.machines[i] for i in up.tolist()],
                self.park.busy_until[up],
                execution_times_matrix,
                attempts,
            )

        if transition is not None and self.trace_log is not None:
            self.trace_log.emit(transition, source="service", time=now, backlog=len(batch))
        try:
            activation.solve(self.scheduler, self.rng, mode)
        except BaseException:
            # A failed solve loses nothing either: the batch goes back to
            # the front of the queue, ahead of what arrived meanwhile.
            with self._lock:
                self._queue = batch + self._queue
                self.peak_backlog = max(self.peak_backlog, len(self._queue))
            raise
        with self._lock:
            # Planned work starts no earlier than its plan exists: the queue
            # bases are the post-solve instant and the busy tracks as of now.
            done = self._now()
            plan = activation.plan(self.park.busy_until[up], done)
            self.park.apply(up, plan, batch)
            self.scheduled += len(batch)
            latencies = [done - job.arrival_time for job in batch]
            self._latencies.extend(latencies)
            overflow = len(self._latencies) - self.config.latency_window
            if overflow > 0:
                del self._latencies[:overflow]
            # The assignment is traced and the activation counted under the
            # lock too: a breakdown cannot revoke a placement before its
            # job_assigned line, and no snapshot misses a committed plan.
            activation.finish(plan)
            # A machine that broke during the solve takes its share back.
            self._revoke(up[~self.park.up[up]].tolist(), done)
        for latency in latencies:
            self._m_job_latency.observe(latency)
        activation.report(plan)
        return ActivationOutcome(
            time=now,
            batch_size=len(batch),
            scheduled_ids=tuple(job.job_id for job in batch),
            mode=mode,
            scheduler_seconds=activation.scheduler_seconds,
        )

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def drain(self) -> list[ActivationOutcome]:
        """Graceful shutdown: schedule what is queued, bounded by the timeout.

        Activates until the queue is empty, an activation stalls because no
        machine is up, or ``drain_timeout`` wall-clock seconds have passed;
        whatever survives must be :meth:`abort`\\ ed by the caller (the
        server does).  Returns the activations performed.
        """
        started = self._now()
        outcomes: list[ActivationOutcome] = []
        while self.backlog > 0:
            if self._now() - started > self.config.drain_timeout:
                break
            outcomes.append(self.activate())
            if outcomes[-1].idle:
                break  # a dark park plans nothing until a repair
        return outcomes

    def abort(self) -> tuple[int, ...]:
        """Hard shutdown: shed everything still queued, return the job ids."""
        with self._lock:
            remainder = tuple(job.job_id for job in self._queue)
            self._queue = []
            self.aborted += len(remainder)
        return remainder

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def snapshot(self) -> ServiceSnapshot:
        """The current metrics snapshot (see :class:`ServiceSnapshot`)."""
        stats = getattr(self.scheduler, "stats", None)
        outcomes = self._activator.outcomes
        with self._lock:
            uptime = self._now()
            # Gated: p95/p99 are NaN until the rolling window holds enough
            # samples to support them (rendered n/a, JSON null).
            p50, p95, p99 = latency_percentiles(
                np.array(self._latencies), gated=True
            )
            return ServiceSnapshot(
                uptime_seconds=uptime,
                backlog=len(self._queue),
                queue_capacity=self.config.queue_capacity,
                mode=self.mode,
                accepted=self.accepted,
                shed=self.shed,
                scheduled=self.scheduled,
                activations=sum(outcomes.values()),
                idle_activations=outcomes["idle"],
                degraded_batches=int(getattr(stats, "degraded_batches", 0)),
                degraded_jobs=int(getattr(stats, "degraded_jobs", 0)),
                peak_backlog=self.peak_backlog,
                throughput_per_min=(
                    60.0 * self.scheduled / uptime if uptime > 0 else 0.0
                ),
                utilization=float(self.park.utilization(uptime).mean()),
                p50_latency=p50,
                p95_latency=p95,
                p99_latency=p99,
                cancelled=self.cancelled,
                machines_up=int(self.park.up.sum()),
                machines_total=len(self.machines),
                breakdowns=self.breakdowns,
                repairs=self.repairs,
                stalled_activations=outcomes["stalled"],
                revoked=self.revoked,
            )
