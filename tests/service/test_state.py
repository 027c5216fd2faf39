"""Deterministic fake-clock tests of the live scheduler core.

Everything here drives :class:`repro.service.state.SchedulerCore` directly
with a :class:`~repro.service.clock.FakeClock` — no event loop, no sleeps:
queue bounds and shed accounting, the degrade/recover hysteresis, latency
percentile bookkeeping, activation cadence, and the drain-vs-abort
shutdown contract.
"""

import dataclasses
import io
import json
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.core.config import ActivationPolicy, ServiceConfig
from repro.grid.machine import GridMachine
from repro.grid.scheduler import HeuristicBatchPolicy
from repro.grid.service import DynamicSchedulerService
from repro.obs import TraceLog, build_timelines, lifecycle_violations, read_trace
from repro.service import ChaosReport, FakeClock, LoadReport, SchedulerCore


def make_machines(count=4, mips=1000.0):
    return [GridMachine(machine_id=i, mips=mips) for i in range(count)]


def make_core(config=None, scheduler=None, clock=None, machines=None):
    return SchedulerCore(
        machines if machines is not None else make_machines(),
        scheduler if scheduler is not None else HeuristicBatchPolicy("min_min"),
        config if config is not None else ServiceConfig(queue_capacity=16),
        clock=clock if clock is not None else FakeClock(),
        rng=7,
    )


class DegradableStub:
    """Scheduler stub that records which path each batch went through."""

    def __init__(self):
        self.modes = []

    def schedule(self, instance, rng=None):
        self.modes.append("normal")
        return np.zeros(instance.nb_jobs, dtype=np.int64)

    def degraded_schedule(self, instance, rng=None):
        self.modes.append("degraded")
        return np.zeros(instance.nb_jobs, dtype=np.int64)


class TestConfig:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            ServiceConfig(queue_capacity=8, degrade_threshold=4, recover_threshold=4)
        with pytest.raises(ValueError):
            ServiceConfig(queue_capacity=8, degrade_threshold=16)

    def test_defaults_derive_from_capacity(self):
        config = ServiceConfig(queue_capacity=64)
        assert config.effective_degrade_threshold == 32
        assert config.effective_recover_threshold == 8
        assert config.effective_activation.is_adaptive

    def test_describe_and_evolve(self):
        config = ServiceConfig(queue_capacity=64)
        assert config.describe()["queue capacity"] == 64
        assert config.evolve(queue_capacity=32).queue_capacity == 32


class TestQueueAndShed:
    def test_submissions_accepted_until_capacity_then_shed(self):
        core = make_core(ServiceConfig(queue_capacity=4))
        ids = [core.submit(100.0) for _ in range(6)]
        assert ids[:4] == [0, 1, 2, 3]
        assert ids[4:] == [None, None]
        assert core.accepted == 4
        assert core.shed == 2
        assert core.backlog == 4
        assert core.peak_backlog == 4

    def test_activation_frees_capacity_again(self):
        core = make_core(ServiceConfig(queue_capacity=2))
        core.submit(100.0)
        core.submit(100.0)
        assert core.submit(100.0) is None
        core.activate()
        assert core.backlog == 0
        assert core.submit(100.0) is not None

    def test_idle_activation_is_counted_not_failed(self):
        core = make_core()
        outcome = core.activate()
        assert outcome.idle
        assert outcome.scheduled_ids == ()
        snapshot = core.snapshot()
        assert (snapshot.activations, snapshot.idle_activations) == (1, 1)


class TestActivation:
    def test_every_queued_job_is_scheduled_once(self):
        core = make_core()
        ids = [core.submit(100.0 * (k + 1)) for k in range(5)]
        outcome = core.activate()
        assert sorted(outcome.scheduled_ids) == ids
        assert core.scheduled == 5
        assert core.backlog == 0

    def test_commit_advances_busy_until_and_ready_times(self):
        clock = FakeClock()
        seen = []

        class Spy:
            def schedule(self, instance, rng=None):
                seen.append(np.array(instance.ready_times))
                return np.zeros(instance.nb_jobs, dtype=np.int64)

        core = make_core(scheduler=Spy(), clock=clock, machines=make_machines(2))
        core.submit(1000.0)  # 1 second on machine 0
        core.activate()
        core.submit(1000.0)
        core.activate()  # clock has not moved: machine 0 still busy 1s
        assert seen[0][0] == 0.0
        assert seen[1][0] == pytest.approx(1.0)
        assert seen[1][1] == 0.0

    def test_latency_is_wait_plus_scheduling_time(self):
        clock = FakeClock()
        core = make_core(clock=clock)
        core.submit(100.0)
        clock.advance(2.0)
        core.submit(100.0)
        clock.advance(0.5)
        core.activate()
        snapshot = core.snapshot()
        # Latencies are 2.5 and 0.5 seconds; percentiles come from the
        # shared latency_percentiles machinery.  With only two samples the
        # tail percentiles are gated to NaN (a 2-sample p99 would just be
        # the max dressed up as a tail) while the median is reported.
        assert snapshot.p50_latency == pytest.approx(1.5)
        assert np.isnan(snapshot.p95_latency)
        assert np.isnan(snapshot.p99_latency)

    def test_latency_window_is_a_rolling_bound(self):
        clock = FakeClock()
        core = make_core(ServiceConfig(queue_capacity=16, latency_window=3), clock=clock)
        for _ in range(5):
            core.submit(100.0)
        clock.advance(1.0)
        core.activate()
        assert len(core._latencies) == 3


class TestOverloadHysteresis:
    def config(self):
        return ServiceConfig(queue_capacity=16, degrade_threshold=4, recover_threshold=1)

    def test_degrades_at_threshold_and_recovers_with_hysteresis(self):
        stub = DegradableStub()
        core = make_core(self.config(), scheduler=stub)
        for _ in range(4):
            core.submit(100.0)
        core.activate()
        assert core.mode == "degraded"
        # A mid-sized batch (above recover, below degrade) stays degraded.
        core.submit(100.0)
        core.submit(100.0)
        core.activate()
        assert core.mode == "degraded"
        # Only a batch at/below the recover threshold flips back.
        core.submit(100.0)
        core.activate()
        assert core.mode == "normal"
        assert stub.modes == ["degraded", "degraded", "normal"]

    def test_scheduler_without_degraded_path_still_works(self):
        core = make_core(self.config())  # HeuristicBatchPolicy: no degraded hook
        for _ in range(5):
            core.submit(100.0)
        outcome = core.activate()
        assert outcome.mode == "degraded"  # mode tracked, normal path used
        assert core.scheduled == 5

    def test_degraded_path_uses_min_min_and_keeps_warm_plan(self):
        service = DynamicSchedulerService(max_seconds=0.05, max_iterations=3)
        core = make_core(self.config(), scheduler=service)
        for _ in range(6):
            core.submit(100.0)
        core.activate()
        assert service.stats.degraded_batches == 1
        assert service.stats.degraded_jobs == 6
        assert len(service.plan) == 6  # remembered: warm start stays coherent
        assert core.snapshot().degraded_batches == 1


class TestCadence:
    def test_periodic_policy_waits_the_activation_interval(self):
        clock = FakeClock()
        config = ServiceConfig(
            queue_capacity=16,
            activation_interval=2.0,
            activation=ActivationPolicy.periodic(),
        )
        core = make_core(config, clock=clock)
        core.activate()
        assert core.seconds_until_due() == pytest.approx(2.0)
        clock.advance(1.5)
        assert core.seconds_until_due() == pytest.approx(0.5)

    def test_adaptive_policy_fires_early_on_backlog(self):
        clock = FakeClock()
        config = ServiceConfig(
            queue_capacity=16,
            activation_interval=5.0,
            activation=ActivationPolicy.adaptive(
                backlog_threshold=3, min_interval=0.5, max_interval=5.0
            ),
        )
        core = make_core(config, clock=clock)
        core.activate()
        core.submit(100.0)
        assert core.seconds_until_due() == pytest.approx(5.0)
        core.submit(100.0)
        core.submit(100.0)  # threshold crossed: min_interval governs
        assert core.seconds_until_due() == pytest.approx(0.5)
        clock.advance(0.6)
        assert core.seconds_until_due() == 0.0


class TestShutdown:
    def test_drain_schedules_everything(self):
        core = make_core()
        ids = [core.submit(100.0) for _ in range(5)]
        outcomes = core.drain()
        assert sorted(i for o in outcomes for i in o.scheduled_ids) == ids
        assert core.backlog == 0
        assert core.abort() == ()

    def test_abort_sheds_the_remainder(self):
        core = make_core()
        ids = [core.submit(100.0) for _ in range(3)]
        shed = core.abort()
        assert sorted(shed) == ids
        assert core.shed == 3
        assert core.backlog == 0

    def test_drain_respects_the_timeout(self):
        clock = FakeClock()

        class Slow:
            """Slow scheduler with a submission racing in per activation."""

            core = None

            def schedule(self, instance, rng=None):
                clock.advance(10.0)
                self.core.submit(100.0)
                return np.zeros(instance.nb_jobs, dtype=np.int64)

        slow = Slow()
        core = make_core(
            ServiceConfig(queue_capacity=16, drain_timeout=5.0),
            scheduler=slow,
            clock=clock,
        )
        slow.core = core
        core.submit(100.0)
        outcomes = core.drain()
        # The first activation blows the 5s budget, so the racing job stays
        # queued for the caller's abort instead of extending the drain.
        assert len(outcomes) == 1
        assert core.backlog == 1
        assert len(core.abort()) == 1


    def test_drain_stops_on_a_dark_park(self):
        core = make_core(machines=make_machines(1))
        core.break_machine(0)
        job_id = core.submit(100.0)
        # Nothing can be planned until a repair: one stalled activation,
        # then the caller's abort sheds the job.
        outcomes = core.drain()
        assert [outcome.idle for outcome in outcomes] == [True]
        snapshot = core.snapshot()
        assert (snapshot.stalled_activations, snapshot.idle_activations) == (1, 0)
        assert core.abort() == (job_id,)
        assert core.shed == 1


class TestBreakdown:
    """A live breakdown revokes unfinished work, as a simulated one does."""

    def spread(self, clock, trace_log=None):
        """A core whose three 1-second jobs Min-Min puts on three machines."""
        core = SchedulerCore(
            make_machines(3),
            HeuristicBatchPolicy("min_min"),
            ServiceConfig(queue_capacity=16),
            clock=clock,
            rng=7,
            trace_log=trace_log,
        )
        ids = [core.submit(1000.0) for _ in range(3)]
        assert core.activate().scheduled_ids == tuple(ids)
        return core

    def test_breakdown_revokes_unfinished_work_and_requeues_it(self):
        clock = FakeClock()
        core = self.spread(clock)
        assert [placement.key.job_id for placement in core.park.queues[1]] == [1]
        clock.advance(0.25)
        assert core.break_machine(1)
        assert not core.break_machine(1)  # already down
        assert (core.backlog, core.scheduled, core.revoked) == (1, 2, 1)
        # The machine keeps credit for the quarter second it ran.
        assert (core.park.busy_time[1], core.park.busy_until[1]) == (0.25, 0.25)
        assert core.activate().scheduled_ids == (1,)
        assert (core.backlog, core.scheduled, core.snapshot().revoked) == (0, 3, 1)

    def test_finished_work_is_not_revoked(self):
        clock = FakeClock()
        core = self.spread(clock)
        clock.advance(1.0)
        assert core.break_machine(1)
        assert (core.backlog, core.scheduled, core.revoked) == (0, 3, 0)

    def test_a_machine_broken_mid_solve_takes_its_share_back(self):
        class BreaksMachineOne:
            def schedule(self, instance, rng=None):
                core.break_machine(1)
                return np.arange(instance.nb_jobs) % instance.nb_machines

        core = SchedulerCore(
            make_machines(3),
            BreaksMachineOne(),
            ServiceConfig(queue_capacity=16),
            clock=FakeClock(),
            rng=7,
        )
        ids = [core.submit(1000.0) for _ in range(3)]
        assert core.activate().scheduled_ids == tuple(ids)
        assert (core.backlog, core.scheduled, core.revoked) == (1, 2, 1)
        assert not core.park.queues[1] and core.park.busy_time[1] == 0.0
        core.scheduler = HeuristicBatchPolicy("min_min")
        assert core.activate().scheduled_ids == (1,)
        assert (core.backlog, core.scheduled) == (0, 3)

    def test_revocation_traces_a_legal_lifecycle(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        clock = FakeClock()
        with TraceLog(path) as log:
            core = self.spread(clock, log)
            clock.advance(0.25)
            core.break_machine(1)
            clock.advance(0.25)
            core.activate()
        events = read_trace(path)
        assert lifecycle_violations(events) == []
        timelines = build_timelines(events)
        assert [timeline.attempts for timeline in timelines] == [1, 2, 1]
        assert {timeline.terminal for timeline in timelines} == {"planned"}
        lines = [
            (event["event"], event.get("attempt"), event.get("cause"))
            for event in events
            if event.get("job_id") == 1
        ]
        assert lines == [
            ("job_submitted", 1, None),
            ("job_batched", 1, None),
            ("job_assigned", 1, None),
            ("job_revoked", 1, "breakdown"),
            ("job_retried", 2, None),
            ("job_batched", 2, None),
            ("job_assigned", 2, None),
        ]


    def test_breakdowns_racing_activations_keep_every_job_once(self):
        # Wall clock, four threads on a short switch interval: submitters,
        # an activation loop and a chaos loop race on one core, so machines
        # break mid-solve and between commit and trace.
        log = io.StringIO()
        core = SchedulerCore(
            make_machines(3),
            HeuristicBatchPolicy("mct"),
            ServiceConfig(queue_capacity=64),
            rng=7,
            trace_log=TraceLog(log),
        )
        accepted, planned = [], []
        stop = threading.Event()

        def submitter():
            for _ in range(100):
                job_id = core.submit(1000.0)
                if job_id is not None:
                    accepted.append(job_id)

        def activator():
            while not stop.is_set():
                planned.extend(core.activate().scheduled_ids)

        def chaos():
            while not stop.is_set():
                for index in (1, 2):
                    core.break_machine(index)
                    core.repair_machine(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=submitter) for _ in range(2)]
            loops = [threading.Thread(target=activator), threading.Thread(target=chaos)]
            for thread in workers + loops:
                thread.start()
            for thread in workers:
                thread.join(timeout=30.0)
            # Planned jobs run for seconds: keep breaking and re-planning.
            stop.wait(0.2)
            stop.set()
            for thread in loops:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers + loops)
        for outcome in core.drain():
            planned.extend(outcome.scheduled_ids)
        shed = list(core.abort())

        # The whole log is a legal lifecycle per job, and per job plans and
        # revocations alternate, starting with a plan.
        events = [json.loads(line) for line in log.getvalue().splitlines()]
        assert lifecycle_violations(events) == []
        steps: dict[int, list[str]] = {}
        for event in events:
            if event["event"] in ("job_assigned", "job_revoked"):
                steps.setdefault(event["job_id"], []).append(event["event"])
        for sequence in steps.values():
            assert set(sequence[::2]) == {"job_assigned"}
            assert set(sequence[1::2]) <= {"job_revoked"}
        revoked = Counter(e["job_id"] for e in events if e["event"] == "job_revoked")
        plans = Counter(planned)
        assert core.revoked == sum(revoked.values()) > 0
        assert all(0 <= plans[job] - revoked[job] <= 1 for job in plans | revoked)
        last_planned = [job for job in plans if plans[job] > revoked[job]]
        assert sorted(last_planned + shed) == sorted(accepted)
        assert core.scheduled == len(last_planned)


class TestSnapshot:
    def test_counters_and_rates(self):
        clock = FakeClock()
        core = make_core(clock=clock)
        for _ in range(4):
            core.submit(500.0)
        clock.advance(2.0)
        core.activate()
        snapshot = core.snapshot()
        assert snapshot.accepted == snapshot.scheduled == 4
        assert snapshot.shed == 0
        assert snapshot.backlog == 0
        assert snapshot.mode == "normal"
        assert snapshot.uptime_seconds == pytest.approx(2.0)
        assert snapshot.throughput_per_min == pytest.approx(4 * 60 / 2.0)
        assert 0.0 <= snapshot.utilization <= 1.0
        payload = snapshot.as_dict()
        assert payload["queue_capacity"] == 16
        # Four samples are too few for a tail percentile: the snapshot
        # gates p95/p99 and the JSON payload carries None, not a number.
        assert payload["p50_latency"] >= 0.0
        assert payload["p95_latency"] is None
        assert payload["p99_latency"] is None

    def test_payloads_list_every_field_in_order(self):
        snapshot = make_core().snapshot()
        load = LoadReport(
            planned=2, accepted=1, shed=1, duration_seconds=0.5, max_lag_seconds=0.0
        )
        chaos = ChaosReport(planned_events=2, breakdowns=1, repairs=1, restored=0)
        for report in (snapshot, load, chaos):
            names = [field.name for field in dataclasses.fields(report)]
            assert list(report.as_dict()) == names
        assert snapshot.as_dict()["revoked"] == 0

    def test_requires_at_least_one_machine(self):
        with pytest.raises(ValueError):
            SchedulerCore([], HeuristicBatchPolicy("min_min"))


class TestLatencyBuckets:
    """The configurable latency histogram buckets (ServiceConfig + wiring)."""

    def test_config_validates_and_coerces(self):
        config = ServiceConfig(queue_capacity=16, latency_buckets=(1, 2.5))
        assert config.latency_buckets == (1.0, 2.5)
        assert ServiceConfig(queue_capacity=16).latency_buckets is None
        with pytest.raises(ValueError, match="empty"):
            ServiceConfig(queue_capacity=16, latency_buckets=())
        with pytest.raises(ValueError, match="positive"):
            ServiceConfig(queue_capacity=16, latency_buckets=(0.0, 1.0))
        with pytest.raises(ValueError, match="increasing"):
            ServiceConfig(queue_capacity=16, latency_buckets=(1.0, 1.0))

    def test_describe_reports_default_or_custom(self):
        assert (
            ServiceConfig(queue_capacity=16).describe()["latency buckets"]
            == "default"
        )
        described = ServiceConfig(
            queue_capacity=16, latency_buckets=(0.5, 2.0)
        ).describe()
        assert described["latency buckets"] == [0.5, 2.0]

    def test_custom_buckets_reach_the_latency_histograms(self):
        from repro.obs import MetricsRegistry, parse_exposition

        registry = MetricsRegistry()
        core = SchedulerCore(
            make_machines(),
            HeuristicBatchPolicy("min_min"),
            ServiceConfig(queue_capacity=16, latency_buckets=(0.5, 2.0)),
            clock=FakeClock(),
            rng=7,
            registry=registry,
        )
        for _ in range(3):
            core.submit(500.0)
        core.activate()
        families = parse_exposition(registry.render())
        for family in (
            "repro_activation_scheduler_seconds",
            "repro_service_job_latency_seconds",
            "repro_activation_phase_seconds",
        ):
            text = registry.render()
            assert f'{family}_bucket{{' in text or family in families
        # Exactly the configured bounds plus the implicit +Inf, no default
        # bucket ladder.
        text = registry.render()
        latency_lines = [
            line
            for line in text.splitlines()
            if line.startswith("repro_service_job_latency_seconds_bucket")
        ]
        bounds = [line.split('le="')[1].split('"')[0] for line in latency_lines]
        assert bounds == ["0.5", "2.0", "+Inf"]
        phase_lines = [
            line
            for line in text.splitlines()
            if line.startswith('repro_activation_phase_seconds_bucket{domain="service"')
        ]
        assert phase_lines, "phase histogram must be live after an activation"
        assert {line.split('le="')[1].split('"')[0] for line in phase_lines} <= {
            "0.5",
            "2.0",
            "+Inf",
        }
