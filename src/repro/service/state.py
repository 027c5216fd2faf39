"""The live scheduler's synchronous core: queue, overload machine, metrics.

:class:`SchedulerCore` is the whole service minus the event loop — a plain,
thread-safe state machine that accepts submissions into a bounded queue,
turns the backlog into batch :class:`~repro.model.instance.
SchedulingInstance`\\ s against a static machine park, runs the configured
batch scheduler (normally the warm
:class:`~repro.grid.service.DynamicSchedulerService`), commits the plan to
per-machine busy-until tracks, and keeps the operational counters the
metrics snapshot reports; build, solve, check and the SPT commit plan are
the activation steps the simulator runs too (:mod:`repro.grid.activation`).
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

Every accepted submission is **exactly-once** accounted: it either appears
in exactly one activation's ``scheduled_ids``, is withdrawn through
:meth:`SchedulerCore.cancel`, or is returned by :meth:`SchedulerCore.abort`
as shed — the property test in ``tests/service/test_exactly_once.py`` pins
this under arbitrary interleavings.  A failed solve (the scheduler raises,
or returns a malformed assignment) puts its batch back at the front of the
queue before the error propagates, so it loses no job either.

The failure model reaches the live service through two additions: the
``cancel`` verb (a queued submission is withdrawn before it is planned —
at-most-once, a job already handed to the scheduler cannot be recalled),
and per-machine availability (:meth:`SchedulerCore.break_machine` /
:meth:`SchedulerCore.repair_machine`, driven by the
:class:`~repro.service.chaos.FaultInjector`): a broken machine stays in the
park but receives no new work, and an activation that finds *no* machine up
re-queues its batch untouched instead of losing it.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.config import ServiceConfig
from repro.grid.activation import Activator
from repro.grid.job import GridJob
from repro.grid.machine import GridMachine, execution_times_matrix
from repro.grid.metrics import latency_percentiles
from repro.obs.metrics import NULL_REGISTRY
from repro.utils.rng import RNGLike, as_generator

__all__ = ["Submission", "ActivationOutcome", "ServiceSnapshot", "SchedulerCore"]


@dataclass(frozen=True)
class Submission:
    """One accepted job waiting in the submission queue."""

    job: GridJob
    #: Wall-clock instant (the core's clock) the submission was accepted.
    submitted_at: float


@dataclass(frozen=True)
class ActivationOutcome:
    """What one activation of the live scheduler did."""

    time: float
    batch_size: int
    #: Stable job ids scheduled by this activation (empty when idle).
    scheduled_ids: tuple[int, ...]
    #: Overload mode the batch was solved under (``"normal"``/``"degraded"``).
    mode: str
    scheduler_seconds: float

    @property
    def idle(self) -> bool:
        """Whether the activation found an empty queue."""
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
    #: Failure-model additions (defaults keep older constructors working).
    cancelled: int = 0
    machines_up: int = 0
    machines_total: int = 0
    breakdowns: int = 0
    repairs: int = 0
    stalled_activations: int = 0

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly form (what the TCP ``metrics`` op returns).

        Gated percentiles (``NaN`` on the snapshot — too few samples, see
        :func:`~repro.grid.metrics.latency_percentiles`) become ``None``
        here: ``NaN`` is not valid strict JSON, and ``null`` is what the
        table renderers print as ``n/a``.
        """

        def _json(value: float) -> float | None:
            return None if value != value else value

        return {
            "uptime_seconds": self.uptime_seconds,
            "backlog": self.backlog,
            "queue_capacity": self.queue_capacity,
            "mode": self.mode,
            "accepted": self.accepted,
            "shed": self.shed,
            "scheduled": self.scheduled,
            "activations": self.activations,
            "idle_activations": self.idle_activations,
            "degraded_batches": self.degraded_batches,
            "degraded_jobs": self.degraded_jobs,
            "peak_backlog": self.peak_backlog,
            "throughput_per_min": self.throughput_per_min,
            "utilization": self.utilization,
            "p50_latency": _json(self.p50_latency),
            "p95_latency": _json(self.p95_latency),
            "p99_latency": _json(self.p99_latency),
            "cancelled": self.cancelled,
            "machines_up": self.machines_up,
            "machines_total": self.machines_total,
            "breakdowns": self.breakdowns,
            "repairs": self.repairs,
            "stalled_activations": self.stalled_activations,
        }


class SchedulerCore:
    """Thread-safe submission queue + overload state machine + metrics.

    Parameters
    ----------
    machines:
        The static machine park the service schedules onto (the live
        service's analogue of the simulator's available set; churn stays a
        simulator concern for now).
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
        A :class:`~repro.obs.metrics.MetricsRegistry` the core charges its
        operational metrics into (submissions by outcome, queue depth,
        mode transitions, scheduling-latency histograms); defaults to the
        no-op null registry, so the submit/activate hot paths stay
        allocation-free with observability off.  Exposed as
        :attr:`registry` — the server's ``GET /metrics`` renders it.
    trace_log:
        A :class:`~repro.obs.tracelog.TraceLog` receiving one span per
        activation and one point event per shed episode and
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
        self._queue: list[Submission] = []
        self._ids = itertools.count()
        self._busy_until = np.zeros(len(self.machines))
        self._busy_time = np.zeros(len(self.machines))
        self._latencies: list[float] = []
        self._last_activation = -float("inf")

        self.mode = "normal"
        self.accepted = 0
        self.shed = 0
        self.scheduled = 0
        self.cancelled = 0
        self.activations = 0
        self.idle_activations = 0
        #: Activations that found work but no machine up: the batch was
        #: re-queued untouched (no job is ever lost to a broken park).
        self.stalled_activations = 0
        self.peak_backlog = 0
        self.breakdowns = 0
        self.repairs = 0
        #: Per-machine availability, park order; flipped by the chaos hook.
        self._machine_up = [True] * len(self.machines)

        self.registry = registry if registry is not None else NULL_REGISTRY
        self.trace_log = trace_log
        #: True while a shed episode is running (first shed emits a trace
        #: event; the episode ends at the next accepted submission), so an
        #: overload burst traces as one event, not thousands.
        self._shedding = False
        submissions = self.registry.counter(
            "repro_service_submissions_total",
            "Submissions by outcome (aborted = shed at shutdown).",
            labels=("outcome",),
        )
        self._m_submissions = {
            outcome: submissions.labels(outcome=outcome)
            for outcome in ("accepted", "shed", "aborted", "cancelled")
        }
        machine_faults = self.registry.counter(
            "repro_service_machine_faults_total",
            "Chaos-injected machine availability flips, by kind.",
            labels=("kind",),
        )
        self._m_faults = {
            kind: machine_faults.labels(kind=kind)
            for kind in ("breakdown", "repair")
        }
        self._m_machines_up = self.registry.gauge(
            "repro_service_machines_up", "Machines currently accepting work."
        )
        self._m_machines_up.set(len(self.machines))
        self._m_queue_depth = self.registry.gauge(
            "repro_service_queue_depth", "Current submission-queue depth."
        )
        transitions = self.registry.counter(
            "repro_service_mode_transitions_total",
            "Overload mode transitions of the degrade/recover hysteresis.",
            labels=("transition",),
        )
        self._m_transitions = {
            transition: transitions.labels(transition=transition)
            for transition in ("degrade", "recover")
        }
        activations = self.registry.counter(
            "repro_service_activations_total",
            "Scheduler activations, by the mode the batch was solved under.",
            labels=("mode",),
        )
        self._m_activations = {
            mode: activations.labels(mode=mode)
            for mode in ("normal", "degraded", "idle", "stalled")
        }
        buckets = self.config.latency_buckets
        self._m_job_latency = self.registry.histogram(
            "repro_service_job_latency_seconds",
            "Per-job scheduling latency: accepted to planned.",
            buckets=buckets,
        )
        # The activation steps both clock domains share: batch build, timed
        # solve, SPT commit plan, scheduler/phase histograms.
        self._activator = Activator(
            "service", "repro_service", self.registry, trace_log, buckets
        )

    # ------------------------------------------------------------------ #
    # Submission side
    # ------------------------------------------------------------------ #
    def _now(self) -> float:
        """Seconds since the core was built (so job arrival times are >= 0)."""
        return self.clock.now() - self._epoch

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
                self.shed += 1
                # First shed of an episode: trace it once, not per job.
                episode_start = not self._shedding
                self._shedding = True
                depth = len(self._queue)
                job_id = None
            else:
                job_id = next(self._ids)
                self._queue.append(
                    Submission(
                        job=GridJob(job_id=job_id, workload=workload, arrival_time=now),
                        submitted_at=now,
                    )
                )
                self.accepted += 1
                depth = len(self._queue)
                self.peak_backlog = max(self.peak_backlog, depth)
                episode_start = False
                self._shedding = False
        # Instrumentation happens outside the lock: metric children have
        # their own lock, and a trace write must never block submitters.
        self._m_queue_depth.set(depth)
        if job_id is None:
            self._m_submissions["shed"].inc()
            if episode_start and self.trace_log is not None:
                self.trace_log.emit(
                    "shed", source="service", time=now, backlog=depth
                )
            return None
        self._m_submissions["accepted"].inc()
        if self.trace_log is not None:
            self.trace_log.emit(
                "job_submitted",
                source="service",
                time=now,
                job_id=job_id,
                attempt=1,
            )
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
            for index, submission in enumerate(self._queue):
                if submission.job.job_id == job_id:
                    del self._queue[index]
                    self.cancelled += 1
                    depth = len(self._queue)
                    break
            else:
                return False
        self._m_queue_depth.set(depth)
        self._m_submissions["cancelled"].inc()
        if self.trace_log is not None:
            self.trace_log.emit(
                "task_cancel", source="service", time=now, job_id=job_id
            )
        return True

    # ------------------------------------------------------------------ #
    # Chaos hook: per-machine availability
    # ------------------------------------------------------------------ #
    def break_machine(self, index: int) -> bool:
        """Mark park machine *index* as down; no new work is placed on it.

        Work already committed to its busy-until track is fire-and-forget
        in the live model and is not revoked (the simulator owns revocation
        semantics).  Returns ``False`` when the machine was already down.
        """
        return self._set_machine_up(index, False)

    def repair_machine(self, index: int) -> bool:
        """Mark park machine *index* as up again (``False`` if already up)."""
        return self._set_machine_up(index, True)

    def _set_machine_up(self, index: int, up: bool) -> bool:
        if not 0 <= index < len(self.machines):
            raise ValueError(
                f"machine index must be in [0, {len(self.machines)}), got {index}"
            )
        now = self._now()
        with self._lock:
            if self._machine_up[index] == up:
                return False
            self._machine_up[index] = up
            if up:
                self.repairs += 1
            else:
                self.breakdowns += 1
            up_count = sum(self._machine_up)
        kind = "repair" if up else "breakdown"
        self._m_faults[kind].inc()
        self._m_machines_up.set(up_count)
        if self.trace_log is not None:
            self.trace_log.emit(
                f"machine_{kind}",
                source="service",
                time=now,
                machine_id=self.machines[index].machine_id,
            )
        return True

    @property
    def machines_up(self) -> int:
        """How many park machines currently accept work."""
        with self._lock:
            return sum(self._machine_up)

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
            self.activations += 1
            batch = self._queue
            self._queue = []
            if not batch:
                self.idle_activations += 1
                self._m_activations["idle"].inc()
                return ActivationOutcome(
                    time=now,
                    batch_size=0,
                    scheduled_ids=(),
                    mode=self.mode,
                    scheduler_seconds=0.0,
                )
            up_indices = np.flatnonzero(self._machine_up)
            if up_indices.size == 0:
                # Every machine is down: stall, don't lose.  The batch goes
                # back to the *front* of the queue (arrival order preserved
                # for the next activation) and the activation reports idle,
                # so the exactly-once partition is untouched.
                self._queue = batch + self._queue
                self.stalled_activations += 1
                depth = len(self._queue)
                self._m_activations["stalled"].inc()
                if self.trace_log is not None:
                    self.trace_log.emit(
                        "stalled", source="service", time=now, backlog=depth
                    )
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
            mode = self.mode
            pending = [submission.job for submission in batch]
            # The batch is solved over the *up* machines only; a broken
            # machine keeps its busy-until track but gets no new work.
            activation = self._activator.build(
                now,
                pending,
                [self.machines[int(i)] for i in up_indices],
                self._busy_until[up_indices],
                execution_times_matrix,
            )

        self._m_queue_depth.set(0)
        if transition is not None:
            self._m_transitions[transition].inc()
            if self.trace_log is not None:
                self.trace_log.emit(
                    "degrade" if transition == "degrade" else "recover",
                    source="service",
                    time=now,
                    backlog=len(batch),
                )
        # Warm-start reuse and evaluation counts come out of the scheduler
        # stats as per-activation deltas (the warm service keeps cumulative
        # counters); a stats-less scheduler just traces zeros.
        stats = getattr(self.scheduler, "stats", None)
        stats_before = (
            (stats.carried_jobs, stats.filled_jobs, stats.evaluations)
            if stats is not None
            else (0, 0, 0)
        )
        # One span per activation: opened before the batch is solved,
        # closed after the plan is committed (the span stamps its own
        # duration; scheduler_seconds is the solve alone).
        span = (
            self.trace_log.span(
                "activation",
                source="service",
                time=now,
                seq=activation.seq,
                backlog=len(batch),
                batch_size=len(batch),
                mode=mode,
            )
            if self.trace_log is not None
            else None
        )

        degraded = mode == "degraded" and hasattr(self.scheduler, "degraded_schedule")
        try:
            activation.solve(self.scheduler, self.rng, degraded)
        except BaseException:
            # A failed solve loses nothing either: the batch goes back to
            # the front of the queue, ahead of what arrived meanwhile.
            with self._lock:
                self._queue = batch + self._queue
                depth = len(self._queue)
                self.peak_backlog = max(self.peak_backlog, depth)
            self._m_queue_depth.set(depth)
            raise
        with self._lock:
            # Planned work starts no earlier than its plan exists: the queue
            # bases are the post-solve instant and the busy tracks as of now.
            done = self._now()
            plan = activation.plan(self._busy_until[up_indices], done)
            planned = plan.jobs > 0
            self._busy_until[up_indices[planned]] = plan.ends[planned]
            self._busy_time[up_indices] += plan.busy
            self.scheduled += len(pending)
            latencies = [done - submission.submitted_at for submission in batch]
            self._latencies.extend(latencies)
            overflow = len(self._latencies) - self.config.latency_window
            if overflow > 0:
                del self._latencies[:overflow]
        phases = activation.finish(plan)
        self._m_activations[mode].inc()
        for latency in latencies:
            self._m_job_latency.observe(latency)
        if span is not None:
            stats_after = (
                (stats.carried_jobs, stats.filled_jobs, stats.evaluations)
                if stats is not None
                else (0, 0, 0)
            )
            span.update(
                scheduler_seconds=activation.scheduler_seconds,
                carried=stats_after[0] - stats_before[0],
                filled=stats_after[1] - stats_before[1],
                evaluations=stats_after[2] - stats_before[2],
                scheduled=len(pending),
                phases=phases,
            )
            span.close()
        return ActivationOutcome(
            time=now,
            batch_size=len(pending),
            scheduled_ids=tuple(job.job_id for job in pending),
            mode=mode,
            scheduler_seconds=activation.scheduler_seconds,
        )

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def drain(self) -> list[ActivationOutcome]:
        """Graceful shutdown: schedule what is queued, bounded by the timeout.

        Activates until the queue is empty or ``drain_timeout`` wall-clock
        seconds have passed; whatever survives the timeout must be
        :meth:`abort`\\ ed by the caller (the server does).  Returns the
        activations performed.
        """
        started = self._now()
        outcomes: list[ActivationOutcome] = []
        while self.backlog > 0:
            if self._now() - started > self.config.drain_timeout:
                break
            outcomes.append(self.activate())
        return outcomes

    def abort(self) -> tuple[int, ...]:
        """Hard shutdown: shed everything still queued, return the job ids."""
        with self._lock:
            remainder = tuple(submission.job.job_id for submission in self._queue)
            self._queue = []
            self.shed += len(remainder)
        self._m_queue_depth.set(0)
        if remainder:
            self._m_submissions["aborted"].inc(len(remainder))
        return remainder

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def snapshot(self) -> ServiceSnapshot:
        """The current metrics snapshot (see :class:`ServiceSnapshot`)."""
        stats = getattr(self.scheduler, "stats", None)
        with self._lock:
            uptime = self._now()
            # Gated: p95/p99 are NaN until the rolling window holds enough
            # samples to support them (rendered n/a, JSON null).
            p50, p95, p99 = latency_percentiles(
                np.array(self._latencies), gated=True
            )
            horizon = uptime * len(self.machines)
            busy = float(np.minimum(self._busy_time, uptime).sum())
            return ServiceSnapshot(
                uptime_seconds=uptime,
                backlog=len(self._queue),
                queue_capacity=self.config.queue_capacity,
                mode=self.mode,
                accepted=self.accepted,
                shed=self.shed,
                scheduled=self.scheduled,
                activations=self.activations,
                idle_activations=self.idle_activations,
                degraded_batches=int(getattr(stats, "degraded_batches", 0)),
                degraded_jobs=int(getattr(stats, "degraded_jobs", 0)),
                peak_backlog=self.peak_backlog,
                throughput_per_min=(
                    60.0 * self.scheduled / uptime if uptime > 0 else 0.0
                ),
                utilization=min(1.0, busy / horizon) if horizon > 0 else 0.0,
                p50_latency=p50,
                p95_latency=p95,
                p99_latency=p99,
                cancelled=self.cancelled,
                machines_up=int(sum(self._machine_up)),
                machines_total=len(self.machines),
                breakdowns=self.breakdowns,
                repairs=self.repairs,
                stalled_activations=self.stalled_activations,
            )
