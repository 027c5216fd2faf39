"""Smoke test: per-job lifecycle tracing on the live service, end to end.

Marked ``smoke`` like the scrape and chaos tests (CI runs it in the
hang-guarded smoke step, not in tier-1), because it drives the live
asyncio service on the wall clock.  One short open-loop run with job
tracing on, then the acceptance checks of the timeline layer: the trace
folds into a legal lifecycle DAG whose job count reconciles with the load
generator's own report, every job's phase split sums to its end-to-end
latency (the "shares sum to 100%" guarantee), and the ``obs timeline`` /
``obs slowest`` CLI renders the same trace without complaint.
"""

import asyncio

import pytest

from repro.cli import main
from repro.core.config import (
    ActivationPolicy,
    LoadProfile,
    ServiceConfig,
    TraceConfig,
)
from repro.grid.service import DynamicSchedulerService
from repro.obs import (
    TraceLog,
    attribution_rows,
    build_timelines,
    lifecycle_violations,
    read_trace,
)
from repro.service import LoadGenerator, SchedulerCore, SchedulerServer
from repro.traces import generate_trace, rescale_trace

pytestmark = pytest.mark.smoke


def burst_trace():
    trace = generate_trace(
        TraceConfig(
            family="flash_crowd",
            duration=8.0,
            rate=15.0,
            nb_machines=4,
            extra={"nb_flashes": 1, "flash_size": 60, "flash_window": 1.0},
        ),
        seed=42,
    )
    return rescale_trace(trace, 2.0)


def make_server(trace, trace_log):
    config = ServiceConfig(
        queue_capacity=256,
        activation_interval=0.25,
        activation=ActivationPolicy.adaptive(
            backlog_threshold=12, min_interval=0.1, max_interval=0.25
        ),
    )
    scheduler = DynamicSchedulerService(
        max_seconds=0.03,
        max_iterations=10,
        max_stagnant_iterations=3,
    )
    core = SchedulerCore(
        trace.to_machines(), scheduler, config, rng=5, trace_log=trace_log
    )
    return SchedulerServer(core)


def test_live_job_tracing_reconciles_with_the_loadgen_report(tmp_path, capsys):
    trace_path = tmp_path / "jobs.jsonl"
    trace_log = TraceLog(trace_path)

    async def run():
        trace = burst_trace()
        server = make_server(trace, trace_log)
        await server.start()
        generator = LoadGenerator(trace, LoadProfile(multiplier=1.0))
        report = await generator.run(server.submit)
        for _ in range(100):
            if server.snapshot().backlog == 0:
                break
            await asyncio.sleep(0.1)
        snapshot = await server.stop(drain=True)
        return report, snapshot

    report, snapshot = asyncio.run(run())
    trace_log.close()

    # --- The trace reconstructs exactly the jobs the loadgen admitted. ---
    events = read_trace(trace_path)
    assert lifecycle_violations(events) == []
    timelines = build_timelines(events)
    assert len(timelines) == report.accepted == snapshot.accepted
    assert snapshot.scheduled == snapshot.accepted
    # The live service plans and forgets: every timeline ends "planned",
    # with wall-clock queue_wait + scheduling summing to the exact latency.
    for timeline in timelines:
        assert timeline.terminal == "planned"
        assert timeline.attempts == 1
        assert timeline.activation_seqs  # at least one batching activation
        assert abs(sum(timeline.phases.values()) - timeline.total) <= max(
            0.01 * timeline.total, 1e-9
        )
    # Shares over the whole trace sum to 100% (the attribution guarantee).
    headers, rows = attribution_rows(timelines)
    share_column = headers.index("share %")
    total_share = sum(row[share_column] for row in rows)
    assert abs(total_share - 100.0) <= 1.0

    # --- The CLI renders the same trace. ---
    capsys.readouterr()
    assert main(["obs", "timeline", str(trace_path), "--jobs", "5"]) == 0
    out = capsys.readouterr().out
    assert "Latency attribution" in out
    assert f"over {len(timelines)} job(s)" in out
    assert "end-to-end" in out
    assert main(["obs", "slowest", str(trace_path), "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "dominant phase" in out and "submitted@" in out
