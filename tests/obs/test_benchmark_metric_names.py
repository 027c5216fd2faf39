"""The metric names the repository benchmark reads stay in place.

``perfbench/`` reads the simulator's event, revocation and retry families
with an ``or 0.0`` fallback, and scrapes the live job-latency count by a
line prefix that reads 0 when it is missing.  A rename there would turn the
benchmark's figures into zeros and fail nothing, so these checks pin the
names the way the benchmark looks them up.
"""

import math

from repro.core.config import RetryPolicy, ServiceConfig
from repro.grid.events import EventType
from repro.grid.job import GridJob
from repro.grid.machine import GridMachine
from repro.grid.scheduler import HeuristicBatchPolicy
from repro.grid.service import DynamicSchedulerService
from repro.grid.simulator import GridSimulator, SimulationConfig
from repro.obs import MetricsRegistry
from repro.service import FakeClock, SchedulerCore


def test_simulator_families_read_by_the_benchmark():
    registry = MetricsRegistry()
    jobs = [GridJob(job_id, 5_000.0, float(job_id)) for job_id in range(6)]
    machines = [
        GridMachine(0, mips=1_000.0),
        GridMachine(1, mips=1_000.0, breakdowns=((2.0, 4.0),)),
    ]
    metrics = GridSimulator(
        jobs,
        machines,
        HeuristicBatchPolicy("mct"),
        SimulationConfig(
            activation_interval=1.0,
            retry=RetryPolicy(max_attempts=3, backoff_base=1.0, jitter=0.0),
        ),
        rng=1,
        registry=registry,
    ).run()
    assert metrics.completed_jobs == len(jobs)

    for kind in (
        EventType.TASK_SUBMIT,
        EventType.MACHINE_JOIN,
        EventType.MACHINE_BREAKDOWN,
        EventType.MACHINE_REPAIR,
        EventType.SCHEDULER_TICK,
    ):
        assert registry.get_sample_value("repro_sim_events_total", {"kind": kind.name.lower()}) > 0
    assert registry.get_sample_value("repro_sim_revocations_total", {"cause": "breakdown"}) > 0
    assert registry.get_sample_value("repro_sim_retries_total", {"outcome": "requeued"}) > 0


def test_live_job_latency_count_is_unlabeled():
    registry = MetricsRegistry()
    core = SchedulerCore(
        [GridMachine(machine_id, mips=1_000.0) for machine_id in range(2)],
        HeuristicBatchPolicy("mct"),
        ServiceConfig(queue_capacity=8),
        clock=FakeClock(),
        rng=1,
        registry=registry,
    )
    for _ in range(3):
        core.submit(1_000.0)
    core.activate()
    counts = [
        line
        for line in registry.render().splitlines()
        if line.startswith("repro_service_job_latency_seconds_count ")
    ]
    assert counts == ["repro_service_job_latency_seconds_count 3.0"]


class _HoldsStats:
    """A wrapper that keeps the ``stats`` it saw at construction.

    The live workload's recording scheduler does this, and the live snapshot
    reads ``degraded_batches`` through it.
    """

    def __init__(self, service):
        self.service = service
        self.stats = service.stats

    def schedule(self, instance, rng=None):
        return self.service.schedule(instance, rng)

    def degraded_schedule(self, instance, rng=None):
        return self.service.degraded_schedule(instance, rng)


def _warm_core():
    service = DynamicSchedulerService(max_seconds=math.inf, max_iterations=2)
    core = SchedulerCore(
        [GridMachine(machine_id, mips=1_000.0) for machine_id in range(3)],
        _HoldsStats(service),
        ServiceConfig(queue_capacity=16, degrade_threshold=8, recover_threshold=2),
        clock=FakeClock(),
        rng=1,
    )
    for _ in range(5):
        core.submit(1_000.0)
    core.activate()  # a warm cMA run
    for _ in range(8):
        core.submit(1_000.0)
    core.activate()  # degraded
    return service, core


def test_live_snapshot_keys_read_by_the_benchmark():
    _, core = _warm_core()
    snapshot = core.snapshot()
    as_dict = snapshot.as_dict()
    # perfbench/live.py reads these keys of the TCP metrics reply.
    for key in ("accepted", "scheduled", "shed", "degraded_batches", "p50_latency", "p99_latency"):
        assert key in as_dict
    assert as_dict["accepted"] == as_dict["scheduled"] == 13
    assert as_dict["degraded_batches"] == 1
    # perfbench/live_server.py reads these snapshot attributes.
    assert snapshot.activations == 2
    assert snapshot.idle_activations == 0
    assert snapshot.shed == 0
    assert snapshot.degraded_batches == 1
    assert snapshot.peak_backlog == 8


def test_service_stats_fields_read_by_the_benchmark():
    service, core = _warm_core()
    stats = service.stats
    # perfbench's solver_layers reads these fields.
    assert stats.carried_jobs + stats.filled_jobs + stats.degenerate_jobs == 5
    assert stats.capacity_reallocations == 1
    assert stats.evaluations > 0
    # The wrapper's reference, taken at construction, sees every activation.
    assert core.scheduler.stats is stats
    assert core.scheduler.stats.degraded_batches == 1
