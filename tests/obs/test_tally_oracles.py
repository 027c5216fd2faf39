"""One tally per fact: ``/metrics``, the snapshots and the trace agree.

Three deterministic scenarios drive the layers that report counts: the
live core over the warm scheduler on a :class:`~repro.service.clock.
FakeClock`, the simulator on a ``flaky`` trace under a retry policy, and
the open-loop load generator against a live core.  For each:

* the exposition is pinned: every counter and gauge sample and every
  histogram ``_count``.  Wall-clock histogram buckets and sums, the
  engine's evals/s gauge and the generator's lag gauge are left out;
* folding the trace log with :mod:`repro.obs.timeline` gives the counts
  the snapshot and :class:`~repro.grid.metrics.SimulationMetrics` report.

A last check races a scraping thread against a thread calling the core:
every render parses, no counter goes down, and the final render matches
the snapshot.
"""

import asyncio
import dataclasses
import io
import json
import math
import sys
import threading
from collections import Counter

import pytest

from repro.core.config import (
    LoadProfile,
    RetryPolicy,
    ServiceConfig,
    TraceConfig,
)
from repro.grid.machine import GridMachine
from repro.grid.scheduler import HeuristicBatchPolicy
from repro.grid.service import DynamicSchedulerService, ServiceStats
from repro.grid.simulator import GridSimulator, SimulationConfig
from repro.obs import MetricsRegistry, TraceLog, build_timelines, parse_exposition
from repro.service import FakeClock, LoadGenerator, SchedulerCore
from repro.traces import generate_trace

#: Samples whose values follow the wall clock, left out of the pins.
UNPINNED = ("repro_engine_evals_per_second", "repro_loadgen_max_lag_seconds")


def make_machines(count):
    return [GridMachine(machine_id=i, mips=1000.0) for i in range(count)]


def trace_events(buffer):
    return [json.loads(line) for line in buffer.getvalue().splitlines()]


def pinned(registry):
    """Counter and gauge samples plus histogram counts, by rendered key."""
    samples = {}
    for family in parse_exposition(registry.render()).values():
        for (name, labels), value in family.samples.items():
            if family.kind == "histogram" and not name.endswith("_count"):
                continue
            if name in UNPINNED:
                continue
            rendered = ",".join(f"{label}={value!s}" for label, value in labels)
            samples[f"{name}{{{rendered}}}" if labels else name] = value
    return samples


def sample_sum(registry, name):
    """The sum of every sample of one family."""
    family = parse_exposition(registry.render())[name]
    return sum(family.samples.values())


# --------------------------------------------------------------------------- #
# Scenarios
# --------------------------------------------------------------------------- #
def live_scenario():
    """Accept, shed, cancel, a revoking breakdown, repair, degrade, recover, abort."""
    registry = MetricsRegistry()
    buffer = io.StringIO()
    clock = FakeClock()
    service = DynamicSchedulerService(
        max_seconds=math.inf, max_iterations=3, registry=registry
    )
    core = SchedulerCore(
        make_machines(4),
        service,
        ServiceConfig(queue_capacity=8, degrade_threshold=6, recover_threshold=3),
        clock=clock,
        rng=7,
        registry=registry,
        trace_log=TraceLog(buffer),
    )
    core.activate()  # idle
    ids = [core.submit(1000.0 * (1 + i)) for i in range(5)]
    assert core.cancel(ids[1])
    core.activate()  # a warm cMA run on 4 jobs
    clock.advance(0.5)
    busy = next(i for i, queue in enumerate(core.park.queues) if queue)
    assert core.break_machine(busy)  # revokes the machine's unfinished work
    for _ in range(9):
        core.submit(2000.0)  # fills the queue, sheds the rest
    core.activate()  # a full batch degrades to Min-Min
    clock.advance(1.0)
    assert core.repair_machine(busy)
    for _ in range(3):
        core.submit(500.0)
    core.activate()  # a small batch recovers: another warm cMA run
    for _ in range(2):
        core.submit(700.0)
    core.activate()  # too few jobs for the cMA: the degenerate fallback
    for _ in range(3):
        core.submit(100.0)
    assert len(core.abort()) == 3
    return registry, buffer, core


def simulator_scenario():
    """A flaky trace under a retry cap, with due dates and cancel times."""
    registry = MetricsRegistry()
    buffer = io.StringIO()
    trace = generate_trace(
        TraceConfig(family="flaky", duration=60.0, rate=1.0, nb_machines=4), seed=5
    )
    jobs = [
        dataclasses.replace(
            job,
            due_date=job.arrival_time + 15.0 if job.job_id % 3 == 0 else None,
            cancel_time=job.arrival_time + 4.0 if job.job_id % 7 == 0 else None,
        )
        for job in trace.to_jobs()
    ]
    metrics = GridSimulator(
        jobs,
        trace.to_machines(),
        HeuristicBatchPolicy("mct"),
        SimulationConfig(
            activation_interval=2.0,
            retry=RetryPolicy(max_attempts=1, backoff_base=0.5, jitter=0.0),
        ),
        rng=3,
        registry=registry,
        trace_log=TraceLog(buffer),
    ).run()
    return registry, buffer, metrics


def loadgen_scenario():
    """An open-loop run into a small queue, activated every eighth submission.

    Full batches degrade; the one extra activation at the twentieth
    submission recovers.
    """
    registry = MetricsRegistry()
    buffer = io.StringIO()
    core = SchedulerCore(
        make_machines(2),
        HeuristicBatchPolicy("min_min"),
        ServiceConfig(queue_capacity=6, degrade_threshold=6, recover_threshold=4),
        clock=FakeClock(),
        rng=3,
        registry=registry,
        trace_log=TraceLog(buffer),
    )
    trace = generate_trace(
        TraceConfig(family="calm", duration=20.0, rate=2.0, nb_machines=2), seed=9
    )
    generator = LoadGenerator(trace, LoadProfile(multiplier=1000.0), registry=registry)
    calls = [0]

    async def submit(workload):
        job_id = core.submit(workload)
        calls[0] += 1
        if calls[0] % 8 == 0 or calls[0] == 20:
            core.activate()
        return job_id

    report = asyncio.run(generator.run(submit))
    core.drain()
    return registry, buffer, core, report


# --------------------------------------------------------------------------- #
# The pinned exposition
# --------------------------------------------------------------------------- #
LIVE_SAMPLES = {
    "repro_activation_phase_seconds_count{domain=service,phase=commit}": 4.0,
    "repro_activation_phase_seconds_count{domain=service,phase=evaluate}": 3.0,
    "repro_activation_phase_seconds_count{domain=service,phase=instance_build}": 4.0,
    "repro_activation_phase_seconds_count{domain=service,phase=solve}": 4.0,
    "repro_activation_phase_seconds_count{domain=service,phase=warm_remap}": 2.0,
    "repro_activation_scheduler_seconds_count{domain=service}": 4.0,
    "repro_activations_total{domain=service,outcome=degraded}": 1.0,
    "repro_activations_total{domain=service,outcome=idle}": 1.0,
    "repro_activations_total{domain=service,outcome=normal}": 3.0,
    "repro_activations_total{domain=service,outcome=stalled}": 0.0,
    "repro_engine_evaluations_total": 272.0,
    "repro_scheduler_batches_total{path=cold}": 0.0,
    "repro_scheduler_batches_total{path=degenerate}": 1.0,
    "repro_scheduler_batches_total{path=degraded}": 1.0,
    "repro_scheduler_batches_total{path=warm}": 2.0,
    "repro_scheduler_jobs_total{path=carried}": 0.0,
    "repro_scheduler_jobs_total{path=degenerate}": 2.0,
    "repro_scheduler_jobs_total{path=degraded}": 8.0,
    "repro_scheduler_jobs_total{path=filled}": 7.0,
    "repro_scheduler_reallocations_total": 1.0,
    "repro_service_job_latency_seconds_count": 17.0,
    "repro_service_machine_faults_total{kind=breakdown}": 1.0,
    "repro_service_machine_faults_total{kind=repair}": 1.0,
    "repro_service_machines_up": 4.0,
    "repro_service_mode_transitions_total{transition=degrade}": 1.0,
    "repro_service_mode_transitions_total{transition=recover}": 1.0,
    "repro_service_queue_depth": 0.0,
    "repro_service_submissions_total{outcome=aborted}": 3.0,
    "repro_service_submissions_total{outcome=accepted}": 20.0,
    "repro_service_submissions_total{outcome=cancelled}": 1.0,
    "repro_service_submissions_total{outcome=shed}": 2.0,
}
SIMULATOR_SAMPLES = {
    "repro_activation_phase_seconds_count{domain=simulator,phase=commit}": 30.0,
    "repro_activation_phase_seconds_count{domain=simulator,phase=instance_build}": 30.0,
    "repro_activation_phase_seconds_count{domain=simulator,phase=solve}": 30.0,
    "repro_activation_scheduler_seconds_count{domain=simulator}": 30.0,
    "repro_activations_total{domain=simulator,outcome=degraded}": 0.0,
    "repro_activations_total{domain=simulator,outcome=idle}": 15.0,
    "repro_activations_total{domain=simulator,outcome=normal}": 30.0,
    "repro_activations_total{domain=simulator,outcome=stalled}": 0.0,
    "repro_sim_cancellations_total": 10.0,
    "repro_sim_deadline_misses_total": 20.0,
    "repro_sim_events_total{kind=machine_breakdown}": 6.0,
    "repro_sim_events_total{kind=machine_join}": 4.0,
    "repro_sim_events_total{kind=machine_leave}": 0.0,
    "repro_sim_events_total{kind=machine_repair}": 5.0,
    "repro_sim_events_total{kind=scheduler_tick}": 45.0,
    "repro_sim_events_total{kind=task_cancel}": 10.0,
    "repro_sim_events_total{kind=task_submit}": 111.0,
    "repro_sim_retries_total{outcome=dropped}": 26.0,
    "repro_sim_retries_total{outcome=requeued}": 41.0,
    "repro_sim_revocations_total{cause=breakdown}": 67.0,
    "repro_sim_revocations_total{cause=leave}": 0.0,
}
LOADGEN_SAMPLES = {
    "repro_activation_phase_seconds_count{domain=service,phase=commit}": 7.0,
    "repro_activation_phase_seconds_count{domain=service,phase=instance_build}": 7.0,
    "repro_activation_phase_seconds_count{domain=service,phase=solve}": 7.0,
    "repro_activation_scheduler_seconds_count{domain=service}": 7.0,
    "repro_activations_total{domain=service,outcome=degraded}": 5.0,
    "repro_activations_total{domain=service,outcome=idle}": 0.0,
    "repro_activations_total{domain=service,outcome=normal}": 2.0,
    "repro_activations_total{domain=service,outcome=stalled}": 0.0,
    "repro_loadgen_submissions_total{outcome=accepted}": 38.0,
    "repro_loadgen_submissions_total{outcome=shed}": 8.0,
    "repro_service_job_latency_seconds_count": 38.0,
    "repro_service_machine_faults_total{kind=breakdown}": 0.0,
    "repro_service_machine_faults_total{kind=repair}": 0.0,
    "repro_service_machines_up": 2.0,
    "repro_service_mode_transitions_total{transition=degrade}": 2.0,
    "repro_service_mode_transitions_total{transition=recover}": 1.0,
    "repro_service_queue_depth": 0.0,
    "repro_service_submissions_total{outcome=aborted}": 0.0,
    "repro_service_submissions_total{outcome=accepted}": 38.0,
    "repro_service_submissions_total{outcome=cancelled}": 0.0,
    "repro_service_submissions_total{outcome=shed}": 8.0,
}


def test_live_exposition_is_pinned():
    registry, _, _ = live_scenario()
    assert pinned(registry) == LIVE_SAMPLES


def test_simulator_exposition_is_pinned():
    registry, _, _ = simulator_scenario()
    assert pinned(registry) == SIMULATOR_SAMPLES


def test_loadgen_exposition_is_pinned():
    registry, _, _, report = loadgen_scenario()
    assert pinned(registry) == LOADGEN_SAMPLES
    lag = registry.get_sample_value("repro_loadgen_max_lag_seconds")
    assert lag == report.max_lag_seconds >= 0.0


# --------------------------------------------------------------------------- #
# Folding the trace gives the reported counts
# --------------------------------------------------------------------------- #
def live_fold(events):
    """The snapshot's counts, recounted from the trace lines alone."""
    terminals = Counter(timeline.terminal for timeline in build_timelines(events))
    names = Counter(event["event"] for event in events)
    return {
        "accepted": names["job_submitted"],
        "scheduled": terminals["planned"],
        "cancelled": terminals["cancelled"],
        "revoked": names["job_revoked"],
        "breakdowns": names["machine_breakdown"],
        "repairs": names["machine_repair"],
    }


def snapshot_counts(snapshot):
    return {name: getattr(snapshot, name) for name in (
        "accepted", "scheduled", "cancelled", "revoked", "breakdowns", "repairs"
    )}


def test_live_trace_folds_to_the_snapshot():
    _, buffer, core = live_scenario()
    snapshot = core.snapshot()
    assert live_fold(trace_events(buffer)) == snapshot_counts(snapshot)
    assert snapshot.revoked > 0 and snapshot.cancelled == 1


def test_loadgen_trace_folds_to_the_snapshot_and_report():
    _, buffer, core, report = loadgen_scenario()
    snapshot = core.snapshot()
    folded = live_fold(trace_events(buffer))
    assert folded == snapshot_counts(snapshot)
    assert folded["accepted"] == report.accepted == snapshot.scheduled
    assert report.shed == snapshot.shed > 0


def test_simulator_trace_folds_to_the_metrics():
    registry, buffer, metrics = simulator_scenario()
    events = trace_events(buffer)
    terminals = Counter(timeline.terminal for timeline in build_timelines(events))
    names = Counter(event["event"] for event in events)
    assert terminals["completed"] == metrics.completed_jobs
    assert terminals["cancelled"] == metrics.cancelled_jobs > 0
    assert terminals["failed"] == metrics.failed_jobs > 0
    assert names["job_revoked"] == sample_sum(registry, "repro_sim_revocations_total") > 0
    assert names["job_retried"] + names["job_dropped"] == sample_sum(
        registry, "repro_sim_retries_total"
    )
    assert names["job_deadline_missed"] == metrics.missed_deadlines > 0


# --------------------------------------------------------------------------- #
# A scrape racing the core's caller
# --------------------------------------------------------------------------- #
def heuristic_scheduler(registry):
    return HeuristicBatchPolicy("mct")


def warm_scheduler(registry):
    return DynamicSchedulerService(
        max_seconds=math.inf, max_iterations=2, registry=registry
    )


def fault_core(scheduler, registry, clock):
    """A live core small enough that the drive below sheds and degrades."""
    return SchedulerCore(
        make_machines(4),
        scheduler,
        ServiceConfig(queue_capacity=6, degrade_threshold=5, recover_threshold=2),
        clock=clock,
        rng=11,
        registry=registry,
    )


def drive(core, clock, rounds):
    """Submit, shed, cancel, break, repair and activate on every path, then abort."""
    for round_ in range(rounds):
        ids = [core.submit(500.0 + round_) for _ in range(7)]
        core.cancel(ids[round_ % 3])
        core.activate()  # a full batch degrades
        clock.advance(0.25)
        machine = 1 + round_ % 3
        core.break_machine(machine)
        core.activate()
        core.repair_machine(machine)
        core.submit(300.0)
        core.activate()  # one job recovers: the degenerate fallback
        for _ in range(3):
            core.submit(400.0)
        core.activate()  # a warm cMA run
    core.submit(100.0)
    core.abort()


def monotone_scrape(registry, problems):
    """A scrape that records a render that does not parse or a counter gone down."""
    seen = {}

    def scrape():
        try:
            families = parse_exposition(registry.render())
        except ValueError as error:
            problems.append(str(error))
            return
        for family in families.values():
            if family.kind != "counter":
                continue
            for key, value in family.samples.items():
                if value < seen.get(key, 0.0):
                    problems.append(f"{key} went from {seen[key]} to {value}")
                seen[key] = value

    return scrape


@pytest.mark.parametrize("make_scheduler", [heuristic_scheduler, warm_scheduler])
def test_scrapes_racing_the_core_stay_valid_and_monotone(make_scheduler):
    registry = MetricsRegistry()
    clock = FakeClock()
    scheduler = make_scheduler(registry)
    core = fault_core(scheduler, registry, clock)
    done = threading.Event()
    problems = []
    scrape = monotone_scrape(registry, problems)
    renders = [0]

    def scrape_until_done():
        while not problems:
            finished = done.is_set()
            scrape()
            renders[0] += 1
            if finished:
                return

    def drive_then_stop():
        try:
            drive(core, clock, rounds=60)
        finally:
            done.set()

    threads = [
        threading.Thread(target=scrape_until_done),
        threading.Thread(target=drive_then_stop),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: more interleavings
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert problems == []
    assert renders[0] >= 1

    snapshot = core.snapshot()
    families = parse_exposition(registry.render())

    def value(name, **labels):
        return families[name].value(**labels)

    assert value("repro_service_submissions_total", outcome="accepted") == snapshot.accepted
    assert (
        value("repro_service_submissions_total", outcome="shed")
        + value("repro_service_submissions_total", outcome="aborted")
        == snapshot.shed
    )
    assert value("repro_service_submissions_total", outcome="cancelled") == snapshot.cancelled
    assert value("repro_service_machine_faults_total", kind="breakdown") == snapshot.breakdowns
    assert value("repro_service_machine_faults_total", kind="repair") == snapshot.repairs
    assert value("repro_service_machines_up") == snapshot.machines_up
    assert value("repro_service_queue_depth") == snapshot.backlog
    activations = families["repro_activations_total"]
    assert sum(activations.samples.values()) == snapshot.activations
    assert value("repro_activations_total", domain="service", outcome="idle") == (
        snapshot.idle_activations
    )
    if isinstance(scheduler, DynamicSchedulerService):
        stats = scheduler.stats
        batches = families["repro_scheduler_batches_total"]
        assert sum(batches.samples.values()) == stats.activations
        assert value("repro_scheduler_batches_total", path="cold") == 0
        assert value("repro_scheduler_batches_total", path="warm") > 0
        for path in ("degenerate", "degraded"):
            count = value("repro_scheduler_batches_total", path=path)
            assert count == getattr(stats, f"{path}_batches") > 0


def test_a_scrape_after_any_stats_write_sees_no_counter_go_down():
    """The race's deterministic twin: scrape right after every ``ServiceStats`` write.

    A thread switch between two adjacent writes is rare, yet a scrape may
    land there; a count derived from two tallies could go down in that gap.
    """
    registry = MetricsRegistry()
    clock = FakeClock()
    service = warm_scheduler(registry)
    problems = []
    scrape = monotone_scrape(registry, problems)

    class ScrapedStats(ServiceStats):
        def __setattr__(self, name, value):
            super().__setattr__(name, value)
            scrape()

    service.stats = ScrapedStats()
    drive(fault_core(service, registry, clock), clock, rounds=8)
    assert problems == []
    stats = service.stats
    assert stats.degenerate_batches and stats.degraded_batches
    assert stats.activations > stats.degenerate_batches + stats.degraded_batches
