"""Smoke test: scrape ``GET /metrics`` off the live server under real load.

Marked ``smoke`` like the service soak test (CI runs it in the
hang-guarded smoke step, not in tier-1), because it runs the live
asyncio service on the wall clock.  One short open-loop overload run with
the full observability layer on — metrics registry behind the HTTP
exposition listener, activation spans in a trace file — then the two
acceptance checks: the scraped document is conformance-valid and carries
the scheduling-latency histogram and the shed/degrade counters, and the
trace file reproduces the activation-by-activation account the service's
own counters tell.
"""

import asyncio
import json

import pytest

from repro.core.config import (
    ActivationPolicy,
    LoadProfile,
    ServiceConfig,
    TraceConfig,
)
from repro.grid.service import DynamicSchedulerService
from repro.obs import (
    MetricsRegistry,
    TraceLog,
    parse_exposition,
    read_trace,
    summarize_trace,
)
from repro.service import LoadGenerator, SchedulerCore, SchedulerServer
from repro.traces import generate_trace, rescale_trace

pytestmark = pytest.mark.smoke

CAPACITY = 48


def overload_trace():
    """A flash-crowd stream whose flashes exceed the queue by construction."""
    trace = generate_trace(
        TraceConfig(
            family="flash_crowd",
            duration=12.0,
            rate=15.0,
            nb_machines=8,
            extra={"nb_flashes": 2, "flash_size": 200, "flash_window": 1.0},
        ),
        seed=20070325,
    )
    return rescale_trace(trace, 2.0)


def make_server(trace, registry, trace_log):
    config = ServiceConfig(
        queue_capacity=CAPACITY,
        degrade_threshold=24,
        recover_threshold=6,
        activation_interval=0.25,
        activation=ActivationPolicy.adaptive(
            backlog_threshold=12, min_interval=0.15, max_interval=0.25
        ),
    )
    scheduler = DynamicSchedulerService(
        max_seconds=0.05,
        max_iterations=10,
        max_stagnant_iterations=3,
        registry=registry,
    )
    core = SchedulerCore(
        trace.to_machines(),
        scheduler,
        config,
        rng=11,
        registry=registry,
        trace_log=trace_log,
    )
    return SchedulerServer(core, metrics_port=0)


async def http_get(address, path):
    """One raw HTTP/1.0 request — the test stands in for a scraper."""
    reader, writer = await asyncio.open_connection(*address)
    writer.write(
        f"GET {path} HTTP/1.0\r\nHost: {address[0]}\r\n\r\n".encode("latin-1")
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = dict(
        line.split(": ", 1) for line in header_lines if ": " in line
    )
    return int(status_line.split()[1]), headers, body.decode("utf-8")


def test_live_scrape_under_load_and_trace_account(tmp_path):
    trace_path = tmp_path / "activations.jsonl"
    registry = MetricsRegistry()
    trace_log = TraceLog(trace_path)

    async def run():
        trace = overload_trace()
        server = make_server(trace, registry, trace_log)
        await server.start()
        assert server.metrics_address is not None

        generator = LoadGenerator(
            trace, LoadProfile(multiplier=2.0), registry=registry
        )
        load_task = asyncio.create_task(generator.run(server.submit))
        # Scrape mid-load, like a real Prometheus cadence would.
        await asyncio.sleep(0.5)
        status, headers, mid_body = await http_get(server.metrics_address, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == "text/plain; version=0.0.4; charset=utf-8"
        parse_exposition(mid_body)  # already conformance-valid mid-flight

        report = await load_task
        for _ in range(100):
            # An empty queue can still have a batch in flight: wait until
            # every accepted job is planned, so the scrape below sees it.
            current = server.snapshot()
            if current.backlog == 0 and current.scheduled == current.accepted:
                break
            await asyncio.sleep(0.1)

        # Wrong paths 404 without disturbing the listener.
        status, _, _ = await http_get(server.metrics_address, "/other")
        assert status == 404
        # The liveness probe answers next to /metrics: a small JSON
        # document with the mode and backlog an orchestrator wants.
        status, health_headers, health_body = await http_get(
            server.metrics_address, "/healthz"
        )
        assert status == 200
        assert health_headers["Content-Type"] == "application/json; charset=utf-8"
        health = json.loads(health_body)
        assert health["status"] == "ok"
        assert health["mode"] in ("normal", "degraded")
        assert health["backlog"] >= 0
        assert health["machines_up"] == 8
        status, _, body = await http_get(server.metrics_address, "/metrics")
        assert status == 200

        snapshot = await server.stop(drain=True)
        return report, snapshot, body

    report, snapshot, body = asyncio.run(run())
    trace_log.close()

    # --- The scraped document, validated against the strict grammar. ---
    families = parse_exposition(body)
    latency = families["repro_activation_scheduler_seconds"]
    assert latency.kind == "histogram"
    assert (
        latency.value(sample_name="repro_activation_scheduler_seconds_count", domain="service")
        > 0
    )
    submissions = families["repro_service_submissions_total"]
    assert submissions.value(outcome="accepted") == float(report.accepted)
    assert submissions.value(outcome="shed") == float(report.shed)
    assert report.shed > 0  # the overload actually happened
    transitions = families["repro_service_mode_transitions_total"]
    assert transitions.value(transition="degrade") >= 1.0
    # Engine, warm-scheduler and load-generator families ride along.
    assert families["repro_scheduler_batches_total"].value(path="degraded") > 0
    assert "repro_loadgen_submissions_total" in families
    assert families["repro_service_job_latency_seconds"].value(
        sample_name="repro_service_job_latency_seconds_count"
    ) == float(snapshot.scheduled)

    # --- The trace reproduces the service's own account. ---
    events = read_trace(trace_path)
    spans = [e for e in events if e["event"] == "activation"]
    assert sum(e["scheduled"] for e in spans) == snapshot.scheduled
    assert any(e["mode"] == "degraded" for e in spans)
    assert [e for e in events if e["event"] == "shed"]
    assert [e for e in events if e["event"] == "degrade"]
    for span in spans:
        assert span["scheduler_seconds"] >= 0.0
        assert span["duration_seconds"] >= span["scheduler_seconds"]

    summary = summarize_trace(trace_path)
    assert f"Activations ({len(spans)})" in summary
    assert "degrade" in summary
