"""The instrumented layers report through the registry and trace log correctly.

Deterministic, no event loop: the live core runs on a
:class:`~repro.service.clock.FakeClock`, the simulator on simulated time.
Each test cross-checks the registry's samples against the layer's own
counters — the metrics must *reproduce* the accounting, not approximate
it — and the trace events against what actually happened.
"""

import io
import json
import math

import numpy as np

from repro.core.config import ServiceConfig
from repro.engine import BatchEvaluator, EvaluationEngine
from repro.grid.job import GridJob
from repro.grid.machine import GridMachine
from repro.grid.scheduler import HeuristicBatchPolicy
from repro.grid.service import DynamicSchedulerService
from repro.grid.simulator import GridSimulator, SimulationConfig
from repro.obs import MetricsRegistry, TraceLog, parse_exposition
from repro.service import FakeClock, SchedulerCore


def make_machines(count=4, mips=1000.0):
    return [GridMachine(machine_id=i, mips=mips) for i in range(count)]


def trace_events(buffer: io.StringIO) -> list[dict]:
    return [json.loads(line) for line in buffer.getvalue().splitlines()]


class TestCoreInstrumentation:
    def config(self):
        return ServiceConfig(
            queue_capacity=4, degrade_threshold=3, recover_threshold=1
        )

    def make_core(self, registry, trace_log):
        return SchedulerCore(
            make_machines(),
            HeuristicBatchPolicy("min_min"),
            self.config(),
            clock=FakeClock(),
            rng=7,
            registry=registry,
            trace_log=trace_log,
        )

    def test_submissions_shed_and_episode_tracing(self):
        registry = MetricsRegistry()
        buffer = io.StringIO()
        core = self.make_core(registry, TraceLog(buffer))
        for _ in range(6):
            core.submit(100.0)  # 4 accepted, 2 shed (one episode)
        assert registry.get_sample_value(
            "repro_service_submissions_total", {"outcome": "accepted"}
        ) == float(core.accepted) == 4.0
        assert registry.get_sample_value(
            "repro_service_submissions_total", {"outcome": "shed"}
        ) == float(core.shed) == 2.0
        assert registry.get_sample_value("repro_service_queue_depth") == 4.0
        # One shed *episode*, not one event per shed job.
        sheds = [e for e in trace_events(buffer) if e["event"] == "shed"]
        assert len(sheds) == 1
        assert sheds[0]["backlog"] == 4
        # The episode ends at the next accepted submission; a new full
        # queue starts a new episode.
        core.activate()
        for _ in range(5):
            core.submit(100.0)
        sheds = [e for e in trace_events(buffer) if e["event"] == "shed"]
        assert len(sheds) == 2

    def test_activation_spans_and_mode_transitions(self):
        registry = MetricsRegistry()
        buffer = io.StringIO()
        core = self.make_core(registry, TraceLog(buffer))

        core.activate()  # idle
        for _ in range(3):
            core.submit(100.0)
        core.activate()  # degrades (threshold 3)
        core.submit(100.0)
        core.activate()  # recovers (threshold 1)

        for outcome, count in (("idle", 1), ("degraded", 1), ("normal", 1), ("stalled", 0)):
            assert registry.get_sample_value(
                "repro_activations_total", {"domain": "service", "outcome": outcome}
            ) == float(count)
        assert registry.get_sample_value(
            "repro_service_mode_transitions_total", {"transition": "degrade"}
        ) == 1.0
        assert registry.get_sample_value(
            "repro_service_mode_transitions_total", {"transition": "recover"}
        ) == 1.0
        # The scheduling-latency histogram saw the two non-idle
        # activations, the job-latency histogram every scheduled job.
        assert registry.get_sample_value(
            "repro_activation_scheduler_seconds_count", {"domain": "service"}
        ) == 2.0
        assert registry.get_sample_value(
            "repro_service_job_latency_seconds_count"
        ) == float(core.scheduled) == 4.0

        events = trace_events(buffer)
        spans = [e for e in events if e["event"] == "activation"]
        assert [e["event"] for e in events if e["event"] in ("degrade", "recover")] == [
            "degrade",
            "recover",
        ]
        assert [span["batch_size"] for span in spans] == [3, 1]
        assert [span["mode"] for span in spans] == ["degraded", "normal"]
        assert sum(span["scheduled"] for span in spans) == core.scheduled
        for span in spans:
            assert span["duration_seconds"] >= 0.0
            assert span["scheduler_seconds"] >= 0.0
        # The whole document stays conformance-valid.
        parse_exposition(registry.render())

    def test_abort_counts_as_aborted_submissions(self):
        registry = MetricsRegistry()
        core = self.make_core(registry, None)
        for _ in range(3):
            core.submit(100.0)
        core.abort()
        assert registry.get_sample_value(
            "repro_service_submissions_total", {"outcome": "aborted"}
        ) == 3.0
        assert registry.get_sample_value("repro_service_queue_depth") == 0.0


class TestWarmServiceInstrumentation:
    def test_job_paths_reproduce_the_service_stats(self):
        registry = MetricsRegistry()
        service = DynamicSchedulerService(
            max_seconds=0.05, max_iterations=3, registry=registry
        )
        config = ServiceConfig(
            queue_capacity=16, degrade_threshold=6, recover_threshold=1
        )
        core = SchedulerCore(
            make_machines(),
            service,
            config,
            clock=FakeClock(),
            rng=7,
            registry=registry,
        )
        for _ in range(5):
            core.submit(100.0)
        core.activate()  # normal warm batch
        for _ in range(6):
            core.submit(100.0)
        core.activate()  # degraded Min-Min batch

        stats = service.stats

        def sample(name, **labels):
            return registry.get_sample_value(name, labels)

        assert sample("repro_scheduler_jobs_total", path="degraded") == float(
            stats.degraded_jobs
        )
        carried = sample("repro_scheduler_jobs_total", path="carried") or 0.0
        filled = sample("repro_scheduler_jobs_total", path="filled") or 0.0
        assert carried == float(stats.carried_jobs)
        assert filled == float(stats.filled_jobs)
        assert sample("repro_scheduler_batches_total", path="degraded") == float(
            stats.degraded_batches
        )
        # The engine metrics rode along through the same registry.
        assert sample("repro_engine_evaluations_total") == float(stats.evaluations)
        parse_exposition(registry.render())

    def test_evals_per_second_reads_the_last_run_alone(self, tiny_instance, monkeypatch):
        # Every run lasts half a second, whatever the box's speed.
        monkeypatch.setattr(EvaluationEngine, "elapsed", property(lambda engine: 0.5))
        registry = MetricsRegistry()
        service = DynamicSchedulerService(
            max_seconds=math.inf, max_iterations=3, registry=registry
        )
        readings = []
        for _ in range(6):
            # The instance carries no job ids, so no plan carries over and
            # every activation repeats the same run.
            before = service.stats.evaluations
            service.schedule(tiny_instance, rng=5)
            evaluations = service.stats.evaluations - before
            readings.append(registry.get_sample_value("repro_engine_evals_per_second"))
            assert readings[-1] == evaluations / 0.5 > 0.0
        assert readings == readings[:1] * 6


class TestSimulatorInstrumentation:
    def test_event_counts_activations_and_machine_churn(self):
        registry = MetricsRegistry()
        buffer = io.StringIO()
        jobs = [
            GridJob(job_id=i, workload=100.0, arrival_time=float(i)) for i in range(6)
        ]
        machines = [
            GridMachine(machine_id=0, mips=100.0),
            GridMachine(machine_id=1, mips=100.0, join_time=1.0, leave_time=4.0),
        ]
        simulator = GridSimulator(
            jobs,
            machines,
            HeuristicBatchPolicy("mct"),
            SimulationConfig(activation_interval=1.0),
            rng=5,
            registry=registry,
            trace_log=TraceLog(buffer),
        )
        metrics = simulator.run()

        def sample(name, **labels):
            return registry.get_sample_value(name, labels) or 0.0

        scheduled = sample("repro_activations_total", domain="simulator", outcome="normal")
        idle = sample("repro_activations_total", domain="simulator", outcome="idle")
        assert scheduled == float(metrics.nb_activations)
        assert idle == float(metrics.nb_idle_activations)
        assert sample("repro_sim_events_total", kind="task_submit") == float(len(jobs))
        # Machine 0 joins at t=0, machine 1 at t=1; only machine 1 leaves.
        assert sample("repro_sim_events_total", kind="machine_join") == 2.0
        assert sample("repro_sim_events_total", kind="machine_leave") == 1.0
        assert sample("repro_activation_scheduler_seconds_count", domain="simulator") == scheduled

        events = trace_events(buffer)
        joins = [e for e in events if e["event"] == "machine_join"]
        leaves = [e for e in events if e["event"] == "machine_leave"]
        assert [e["machine_id"] for e in joins] == [0, 1]
        assert [e["machine_id"] for e in leaves] == [1]
        spans = [e for e in events if e["event"] == "activation"]
        assert len(spans) == int(scheduled)
        assert sum(e["scheduled"] for e in spans) == len(jobs)
        assert all(e["source"] == "simulator" for e in spans)
        parse_exposition(registry.render())


class TestNullDefaults:
    def test_uninstrumented_layers_stay_silent(self, tiny_instance):
        # No registry anywhere: everything still runs, and a registry
        # created afterwards is untouched.
        engine = EvaluationEngine(tiny_instance)
        engine.evaluate(BatchEvaluator.random(tiny_instance, 8, rng=3).view(0))
        core = SchedulerCore(
            make_machines(),
            HeuristicBatchPolicy("min_min"),
            ServiceConfig(queue_capacity=4),
            clock=FakeClock(),
            rng=7,
        )
        core.submit(100.0)
        core.activate()
        assert core.registry.render() == ""
        assert core.registry.enabled is False
