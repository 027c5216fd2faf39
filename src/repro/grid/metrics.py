"""Metrics collected by the dynamic grid simulation.

The static benchmark reports makespan and flowtime of one batch; the dynamic
simulation generalizes both to a stream of jobs: the *makespan* becomes the
completion time of the last job, the *flowtime* becomes the sum of response
times (completion − arrival), and additional operational quantities —
waiting time, machine utilization, scheduling overhead, number of jobs that
had to be rescheduled because their machine left the grid — characterize the
scheduler's behaviour over time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ActivationRecord",
    "MachineEvent",
    "MACHINE_EVENT_KINDS",
    "SimulationMetrics",
    "latency_percentiles",
    "P95_MIN_SAMPLES",
    "P99_MIN_SAMPLES",
]

#: Minimum sample counts before a tail percentile is reported at all: with
#: fewer than 1/(1-q) samples, ``np.percentile`` interpolates the extreme
#: order statistics and "p99" is really "the maximum of a handful" — the
#: same misleading-small-n trap the replay report's Welch gating closes.
P95_MIN_SAMPLES = 20
P99_MIN_SAMPLES = 100


def latency_percentiles(
    values: np.ndarray, *, gated: bool = False
) -> tuple[float, float, float]:
    """``(p50, p95, p99)`` of a latency sample, zeros when it is empty.

    Shared by the simulation metrics (per-activation scheduler wall-clock)
    and the live service snapshot (per-job scheduling latency) so both
    layers report tail latency through the same machinery.

    With ``gated=True``, p95 and p99 are ``NaN`` unless the sample holds at
    least :data:`P95_MIN_SAMPLES` / :data:`P99_MIN_SAMPLES` values (the
    snapshot path renders those as ``n/a``); the ungated default keeps the
    simulation metrics — whose activation counts are pinned by tests and
    recorded traces — bit-identical.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return (0.0, 0.0, 0.0)
    p50, p95, p99 = np.percentile(values, (50, 95, 99))
    if gated:
        if values.size < P95_MIN_SAMPLES:
            p95 = float("nan")
        if values.size < P99_MIN_SAMPLES:
            p99 = float("nan")
    return (float(p50), float(p95), float(p99))


@dataclass(frozen=True)
class ActivationRecord:
    """What happened at one activation of the batch scheduler."""

    time: float
    pending_jobs: int
    available_machines: int
    scheduled_jobs: int
    batch_makespan: float
    scheduler_wall_seconds: float


#: MachineEvent kinds, in within-timestamp order: capacity-adding events
#: (join, repair) sort before capacity-removing ones (leave, breakdown),
#: mirroring the event queue's :class:`~repro.grid.events.EventType` order.
MACHINE_EVENT_KINDS = ("join", "repair", "leave", "breakdown")


@dataclass(frozen=True)
class MachineEvent:
    """One machine joining, leaving, breaking down or being repaired.

    The simulator emits these as an explicit, chronologically ordered log
    (capacity-adding events before capacity-removing ones at equal times,
    ties broken by machine id) — the machine-availability counterpart of the
    per-job completion records.
    """

    time: float
    machine_id: int
    event: str  # one of MACHINE_EVENT_KINDS

    def __post_init__(self) -> None:
        if self.event not in MACHINE_EVENT_KINDS:
            raise ValueError(
                f"event must be one of {MACHINE_EVENT_KINDS}, got {self.event!r}"
            )

    @property
    def sort_key(self) -> tuple[float, int, int]:
        """Chronological order: time, capacity-adders first, then machine id."""
        return (self.time, MACHINE_EVENT_KINDS.index(self.event), self.machine_id)


@dataclass
class SimulationMetrics:
    """Aggregate outcome of one simulation run."""

    policy: str
    nb_jobs: int
    nb_machines: int
    completed_jobs: int
    rescheduled_jobs: int
    makespan: float
    total_flowtime: float
    mean_response_time: float
    max_response_time: float
    mean_waiting_time: float
    mean_utilization: float
    nb_activations: int
    mean_scheduler_seconds: float
    # The paper's 90-second-budget argument is about the *distribution* of
    # per-activation scheduling cost, not its mean: a scheduler whose p95
    # blows the activation interval stalls the grid even if the mean looks
    # fine.  All quantiles come from the recorded activations.
    p50_scheduler_seconds: float = 0.0
    p95_scheduler_seconds: float = 0.0
    p99_scheduler_seconds: float = 0.0
    #: Activations that found nothing to schedule (no pending job or no
    #: available machine).  The periodic driver accumulates these on calm
    #: stretches; the adaptive driver's win is keeping this near zero.
    nb_idle_activations: int = 0
    #: Jobs withdrawn by their user before finishing (``TASK_CANCEL``).
    cancelled_jobs: int = 0
    #: Jobs dropped after exhausting the :class:`~repro.core.config.RetryPolicy`
    #: attempt cap — never completed, never cancelled.
    failed_jobs: int = 0
    #: SLA outcome over the jobs that carried a due date: completions past
    #: their deadline plus failed jobs that had one.  Cancelled jobs are the
    #: user's choice and do not count as misses.
    missed_deadlines: int = 0
    #: Sum over late completions of ``completion - due_date``.
    total_tardiness: float = 0.0
    #: Worst single-job lateness (0.0 when every deadline was met).
    max_tardiness: float = 0.0
    #: How many jobs carried a due date at all (the miss denominator).
    jobs_with_deadlines: int = 0
    activations: list[ActivationRecord] = field(default_factory=list)
    #: Ordered machine join/leave/breakdown/repair log (see :class:`MachineEvent`).
    machine_events: list[MachineEvent] = field(default_factory=list)
    #: Cumulative wall-clock seconds per activation phase (``instance_build``,
    #: ``solve``, ``commit``, plus the warm scheduler's internal split) over
    #: the whole run — what the arena report's phase-share columns divide.
    phase_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Completed jobs per simulated second."""
        if self.makespan <= 0:
            return 0.0
        return self.completed_jobs / self.makespan

    def summary(self) -> dict[str, float | str]:
        """Flat summary used by the reporting helpers and the examples."""
        return {
            "policy": self.policy,
            "jobs": float(self.nb_jobs),
            "machines": float(self.nb_machines),
            "completed": float(self.completed_jobs),
            "rescheduled": float(self.rescheduled_jobs),
            "makespan": self.makespan,
            "total_flowtime": self.total_flowtime,
            "mean_response": self.mean_response_time,
            "max_response": self.max_response_time,
            "mean_waiting": self.mean_waiting_time,
            "utilization": self.mean_utilization,
            "throughput": self.throughput,
            "activations": float(self.nb_activations),
            "scheduler_seconds": self.mean_scheduler_seconds,
            "scheduler_seconds_p50": self.p50_scheduler_seconds,
            "scheduler_seconds_p95": self.p95_scheduler_seconds,
            "scheduler_seconds_p99": self.p99_scheduler_seconds,
            "idle_activations": float(self.nb_idle_activations),
            "cancelled": float(self.cancelled_jobs),
            "failed": float(self.failed_jobs),
            "missed_deadlines": float(self.missed_deadlines),
            "total_tardiness": self.total_tardiness,
            "max_tardiness": self.max_tardiness,
            "jobs_with_deadlines": float(self.jobs_with_deadlines),
        }

    @staticmethod
    def from_records(
        *,
        policy: str,
        response_times: np.ndarray,
        waiting_times: np.ndarray,
        completion_times: np.ndarray,
        utilizations: np.ndarray,
        nb_jobs: int,
        nb_machines: int,
        rescheduled_jobs: int,
        activations: list[ActivationRecord],
        machine_events: list[MachineEvent] | None = None,
        nb_idle_activations: int = 0,
        cancelled_jobs: int = 0,
        failed_jobs: int = 0,
        missed_deadlines: int = 0,
        total_tardiness: float = 0.0,
        max_tardiness: float = 0.0,
        jobs_with_deadlines: int = 0,
        phase_seconds: dict[str, float] | None = None,
    ) -> "SimulationMetrics":
        """Assemble the metrics object from raw per-job / per-machine arrays."""
        completed = int(completion_times.size)
        activation_seconds = np.array([a.scheduler_wall_seconds for a in activations])
        scheduler_seconds = float(activation_seconds.mean()) if activations else 0.0
        scheduler_p50, scheduler_p95, scheduler_p99 = latency_percentiles(
            activation_seconds
        )
        return SimulationMetrics(
            policy=policy,
            nb_jobs=nb_jobs,
            nb_machines=nb_machines,
            completed_jobs=completed,
            rescheduled_jobs=rescheduled_jobs,
            makespan=float(completion_times.max()) if completed else 0.0,
            total_flowtime=float(response_times.sum()) if completed else 0.0,
            mean_response_time=float(response_times.mean()) if completed else 0.0,
            max_response_time=float(response_times.max()) if completed else 0.0,
            mean_waiting_time=float(waiting_times.mean()) if completed else 0.0,
            mean_utilization=float(utilizations.mean()) if utilizations.size else 0.0,
            nb_activations=len(activations),
            mean_scheduler_seconds=scheduler_seconds,
            p50_scheduler_seconds=scheduler_p50,
            p95_scheduler_seconds=scheduler_p95,
            p99_scheduler_seconds=scheduler_p99,
            nb_idle_activations=nb_idle_activations,
            cancelled_jobs=cancelled_jobs,
            failed_jobs=failed_jobs,
            missed_deadlines=missed_deadlines,
            total_tardiness=total_tardiness,
            max_tardiness=max_tardiness,
            jobs_with_deadlines=jobs_with_deadlines,
            activations=list(activations),
            machine_events=sorted(
                machine_events if machine_events is not None else [],
                key=lambda event: event.sort_key,
            ),
            phase_seconds=dict(phase_seconds) if phase_seconds else {},
        )
