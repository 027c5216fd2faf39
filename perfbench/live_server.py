"""The service process of the ``live_tcp`` workload.

Built through the library rather than the ``serve`` CLI, whose only solver
budget is wall-clock: a :class:`~repro.service.server.SchedulerServer` over
the warm :class:`~repro.grid.service.DynamicSchedulerService` with an
iteration budget, a :class:`~repro.obs.metrics.MetricsRegistry` behind
``GET /metrics`` (as ``serve --metrics-port`` runs it), a 16-machine park
and the adaptive activation driver.

Protocol with the benchmark: one JSON line with the ports once listening;
then, after a line (or EOF) on stdin, a graceful drain and one JSON line
with the peak RSS, the plans' quality against MCT and, when traced, the
per-layer figures of this process.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import sys

import numpy as np
from common import OUT, import_repro, median, peak_rss_mb, percentile

import_repro()

from live import live_trace_config  # noqa: E402
from replays import solver_layers  # noqa: E402
from spans import Recorder, install  # noqa: E402

from repro.core.config import ActivationPolicy, ServiceConfig  # noqa: E402
from repro.grid.service import DynamicSchedulerService  # noqa: E402
from repro.heuristics.base import build_schedule  # noqa: E402
from repro.model.schedule import Schedule  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.service import SchedulerCore, SchedulerServer  # noqa: E402
from repro.traces.generators import generate_trace  # noqa: E402


#: cMA iterations per activation: the only solver budget, so every batch
#: gets the same search whatever the box's speed.
ITERATIONS = 5


class RecordingScheduler:
    """The warm service, keeping each batch and its plan for the quality check.

    Only references are kept during the run; plans are compared with MCT
    on the same batch instances after the drain.
    """

    def __init__(self, service: DynamicSchedulerService) -> None:
        self.service = service
        self.stats = service.stats
        self.batches: list[tuple[object, object]] = []

    def schedule(self, instance, rng=None):
        assignment = self.service.schedule(instance, rng)
        self.batches.append((instance, assignment))
        return assignment

    def degraded_schedule(self, instance, rng=None):
        assignment = self.service.degraded_schedule(instance, rng)
        self.batches.append((instance, assignment))
        return assignment

    @property
    def last_phases(self):
        return self.service.last_phases

    def quality_vs_mct(self) -> tuple[float, float, int]:
        """Summed batch makespan and flowtime of the plans over MCT's.

        MCT plans the same batch instances (same ready times), so the
        ratios are what the warm cMA bought over the activations.
        """
        totals = np.zeros(4)
        for instance, assignment in self.batches:
            plan = Schedule(instance, assignment)
            mct = build_schedule("mct", instance)
            totals += (plan.makespan, plan.flowtime, mct.makespan, mct.flowtime)
        if not self.batches:
            return math.nan, math.nan, 0
        return totals[0] / totals[2], totals[1] / totals[3], len(self.batches)


def _server_layers(recorder: Recorder, service, snapshot, improving: int, samples: int) -> dict:
    submits = recorder.named("service.submit")
    activations = recorder.named("service.activate")
    busy = [span for span in activations if span.corr]
    submitted = {span.corr: span.end for span in submits if span.corr is not None}
    waits = [
        (span.start - submitted[job]) * 1e3
        for span in busy
        for job in span.corr
        if job in submitted
    ]
    loaded = max(span.end for span in activations) - min(span.start for span in submits)
    renders = [span.duration * 1e3 for span in recorder.named("obs.render")]
    layers = solver_layers(recorder, service.stats, improving)
    layers.update({
        "service.submit_calls": len(submits),
        "service.submit_us_p50": percentile([s.duration * 1e6 for s in submits], 50),
        "service.activations": snapshot.activations,
        "service.activate_busy_frac": sum(s.duration for s in activations) / loaded,
        "service.activate_p50_ms": percentile([s.duration * 1e3 for s in busy], 50),
        "service.activate_p95_ms": percentile([s.duration * 1e3 for s in busy], 95),
        "service.batch_jobs_p50": percentile([len(s.corr) for s in busy], 50),
        "service.batch_jobs_p95": percentile([len(s.corr) for s in busy], 95),
        "service.queue_wait_p50_ms": percentile(waits, 50),
        "service.queue_wait_p99_ms": percentile(waits, 99),
        "service.idle_activations": snapshot.idle_activations,
        "service.shed": snapshot.shed,
        "service.degraded_batches": snapshot.degraded_batches,
        "service.peak_backlog": snapshot.peak_backlog,
        "obs.render_ms": median(renders) if renders else 0.0,
        "obs.samples": samples,
        "trace.self_s": sum(span.self_s for span in recorder.spans),
        "trace.root_s": recorder.root_seconds(),
        "trace.nesting_errors": recorder.nesting_errors(),
    })
    return layers


async def _serve(args: argparse.Namespace) -> dict:
    machines = generate_trace(live_trace_config(1.0), args.seed).to_machines()
    registry = MetricsRegistry()
    service = DynamicSchedulerService(
        max_seconds=math.inf, max_iterations=ITERATIONS, registry=registry
    )
    config = ServiceConfig(
        # Far above any backlog this load builds: nothing is ever shed.
        queue_capacity=1 << 16,
        # At 150 jobs/s the 100-ms fallback fires first: ~15-job batches.
        activation=ActivationPolicy.adaptive(
            backlog_threshold=32, min_interval=0.02, max_interval=0.1
        ),
        latency_window=args.latency_window,
    )
    scheduler = RecordingScheduler(service)
    core = SchedulerCore(machines, scheduler, config, rng=args.seed, registry=registry)
    recorder = Recorder() if args.trace else None
    counts = {"improving": 0, "samples": 0}
    if recorder is not None:

        def on_step(span, improved):
            counts["improving"] += bool(improved)

        def on_render(span, text):
            counts["samples"] = sum(
                1 for line in text.splitlines() if line and not line.startswith("#")
            )

        def on_submit(span, job_id):
            span.corr = job_id

        def on_activate(span, outcome):
            span.corr = outcome.scheduled_ids

        install(recorder, on_step=on_step, on_render=on_render)
        recorder.patch(SchedulerCore, "submit", "service.submit", on_submit)
        recorder.patch(SchedulerCore, "activate", "service.activate", on_activate)

    server = SchedulerServer(core, host="127.0.0.1", port=0, metrics_port=0)
    await server.start()
    print(json.dumps({"port": server.address[1], "metrics_port": server.metrics_address[1]}),
          flush=True)
    await asyncio.get_running_loop().run_in_executor(None, sys.stdin.readline)
    snapshot = await server.stop(drain=True)
    result = {"peak_rss_mb": peak_rss_mb()}
    if recorder is not None:
        recorder.unpatch()
    result["makespan_vs_mct"], result["flowtime_vs_mct"], result["batches"] = (
        scheduler.quality_vs_mct()
    )
    if recorder is not None:
        result["layers"] = _server_layers(
            recorder, service, snapshot, counts["improving"], counts["samples"]
        )
        recorder.write(OUT / "spans" / f"live_tcp-server-seed{args.seed}.jsonl")
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--latency-window", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    result = asyncio.run(_serve(parser.parse_args()))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
