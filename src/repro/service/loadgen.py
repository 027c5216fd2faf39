"""Open-loop load generation: replay a trace against the live service.

The generator computes every submission's **planned wall-clock instant
up front** (:meth:`~repro.core.config.LoadProfile.wall_offsets` over the
trace's arrivals) and sleeps toward those absolute targets — it never waits
on the scheduler's response before sending the next job.  This is the
open-loop discipline (Locust-style arrival-rate load shapes, and the
methodology point behind "coordinated omission"): a *closed-loop* generator
slows down exactly when the system under test is slow, so overload shows up
as the generator politely backing off instead of as queue growth, shed and
tail latency — the three things the soak test exists to measure.  An
open-loop generator keeps the offered load a property of the *workload*,
not of the system's current health.

The trace replayed can be any PR-5 scenario family (or a recorded trace),
optionally pre-compressed with :func:`~repro.traces.generators.
rescale_trace`; the :class:`~repro.core.config.LoadProfile` then shapes the
rate over the run (constant / step / ramp).
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict, dataclass
from typing import Any, Awaitable, Callable

import numpy as np

from repro.core.config import LoadProfile
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.traces.format import Trace

__all__ = ["LoadReport", "LoadGenerator"]

#: A submission callable: workload in, job id (or ``None`` = shed) out.
SubmitFn = Callable[[float], Awaitable[int | None]]


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one open-loop run."""

    planned: int
    accepted: int
    shed: int
    #: Wall-clock seconds the run took (>= the last planned offset).
    duration_seconds: float
    #: Largest lag between a submission's planned and actual send instant —
    #: the generator's own health check: a lag rivaling the inter-arrival
    #: gaps means the *generator* could not keep the offered rate, and the
    #: measured service metrics understate the intended load.
    max_lag_seconds: float

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly form (reported by the CLI next to the snapshot)."""
        return asdict(self)


class LoadGenerator:
    """Replays one trace's arrivals open-loop against a submission callable.

    Parameters
    ----------
    trace:
        The arrival stream to replay (sizes included; the machine park
        entries of the trace are ignored — the live service has its own).
    profile:
        The :class:`~repro.core.config.LoadProfile` shaping the rate.
    registry:
        A :class:`~repro.obs.metrics.MetricsRegistry` that reads the
        generator's counts: submissions by outcome and its own max lag (the
        generator's health gauge — lag rivaling the inter-arrival gaps
        means the offered rate was not met); defaults to the no-op null
        registry.
    """

    def __init__(
        self,
        trace: Trace,
        profile: LoadProfile | None = None,
        *,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        self.trace = trace
        self.profile = profile if profile is not None else LoadProfile()
        #: The current run's submissions by outcome and largest send lag:
        #: what its :class:`LoadReport` and the registry both read.
        self.accepted = 0
        self.shed = 0
        self.max_lag_seconds = 0.0
        reg = registry if registry is not None else NULL_REGISTRY
        reg.counter(
            "repro_loadgen_submissions_total",
            "Load-generator submissions by outcome.",
            lambda: {("accepted",): self.accepted, ("shed",): self.shed},
            labels=("outcome",),
        )
        reg.gauge(
            "repro_loadgen_max_lag_seconds",
            "Largest planned-vs-actual send lag of the open-loop generator.",
            lambda: self.max_lag_seconds,
        )

    def planned_offsets(self) -> np.ndarray:
        """The absolute submission instants (seconds from run start)."""
        return self.profile.wall_offsets(self.trace.job_arrivals)

    async def run(self, submit: SubmitFn) -> LoadReport:
        """Replay the whole stream against *submit*, open-loop.

        Each submission is sent at its planned absolute instant: a slow
        ``submit`` delays *its own* send, never the plan — subsequent
        targets stay fixed, so any accumulated lag is measured (see
        :attr:`LoadReport.max_lag_seconds`) rather than silently absorbed
        into a lower offered rate.
        """
        offsets = self.planned_offsets()
        workloads = self.trace.job_workloads
        loop = asyncio.get_running_loop()
        started = loop.time()
        self.accepted = self.shed = 0
        self.max_lag_seconds = 0.0
        for offset, workload in zip(offsets, workloads):
            target = started + float(offset)
            delay = target - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            elif -delay > self.max_lag_seconds:
                self.max_lag_seconds = -delay
            if await submit(float(workload)) is None:
                self.shed += 1
            else:
                self.accepted += 1
        return LoadReport(
            planned=int(offsets.size),
            accepted=self.accepted,
            shed=self.shed,
            duration_seconds=loop.time() - started,
            max_lag_seconds=self.max_lag_seconds,
        )
