"""Tests for the dynamic grid simulator and its batch scheduling policies."""

import numpy as np
import pytest

from repro.core.config import ActivationPolicy, TraceConfig
from repro.grid.job import GridJob, JobState
from repro.grid.machine import GridMachine
from repro.grid.scheduler import HeuristicBatchPolicy
from repro.grid.service import WarmCMAPolicy
from repro.grid.simulator import GridSimulator, SimulationConfig
from repro.model.instance import SchedulingInstance
from repro.traces import generate_trace


def simple_jobs(count=10, workload=100.0, spacing=1.0):
    return [
        GridJob(job_id=i, workload=workload, arrival_time=i * spacing) for i in range(count)
    ]


def simple_machines(count=3, mips=10.0):
    return [GridMachine(machine_id=i, mips=mips) for i in range(count)]


class TestBatchPolicies:
    def test_heuristic_policy_returns_valid_assignment(self, tiny_instance):
        assignment = HeuristicBatchPolicy("min_min").schedule(tiny_instance, rng=1)
        assert assignment.shape == (tiny_instance.nb_jobs,)
        assert assignment.max() < tiny_instance.nb_machines

    def test_cma_policy_returns_valid_assignment(self, tiny_instance):
        policy = WarmCMAPolicy(warm=False, max_seconds=0.05, max_iterations=5)
        assignment = policy.schedule(tiny_instance, rng=1)
        assert assignment.shape == (tiny_instance.nb_jobs,)
        assert assignment.min() >= 0

    def test_cma_policy_single_machine_shortcut(self):
        instance = SchedulingInstance(etc=np.arange(1.0, 6.0).reshape(5, 1))
        assignment = WarmCMAPolicy(warm=False).schedule(instance, rng=1)
        assert assignment.tolist() == [0] * 5

    def test_cma_policy_tiny_batch_falls_back_to_min_min(self):
        # Regression: batches with fewer jobs than the recombination operator
        # needs parents used to spin up the full metaheuristic; they must be
        # solved by Min-Min directly.
        from repro.heuristics.base import build_schedule

        for nb_jobs in (1, 2):
            instance = SchedulingInstance(
                etc=np.random.default_rng(8).uniform(1.0, 9.0, size=(nb_jobs, 3))
            )
            assignment = WarmCMAPolicy(warm=False).schedule(instance, rng=1)
            reference = build_schedule("min_min", instance)
            assert assignment.tolist() == list(reference.assignment)

    def test_policy_name_reported(self):
        assert HeuristicBatchPolicy("mct").name == "mct"
        assert WarmCMAPolicy(warm=False).name == "cma"


class TestSimulatorBasics:
    def test_all_jobs_complete(self):
        simulator = GridSimulator(
            simple_jobs(12),
            simple_machines(3),
            HeuristicBatchPolicy("mct"),
            SimulationConfig(activation_interval=5.0),
            rng=1,
        )
        metrics = simulator.run()
        assert metrics.completed_jobs == 12
        assert all(
            record.state is JobState.COMPLETED for record in simulator.records.values()
        )

    def test_metrics_are_sensible(self):
        metrics = GridSimulator(
            simple_jobs(10),
            simple_machines(2),
            HeuristicBatchPolicy("min_min"),
            SimulationConfig(activation_interval=4.0),
            rng=2,
        ).run()
        assert metrics.makespan > 0
        assert metrics.mean_response_time > 0
        assert metrics.mean_response_time <= metrics.max_response_time
        assert 0 <= metrics.mean_utilization <= 1
        assert metrics.throughput > 0
        assert metrics.total_flowtime >= metrics.max_response_time

    def test_jobs_never_start_before_arrival_or_scheduling(self):
        simulator = GridSimulator(
            simple_jobs(8, spacing=3.0),
            simple_machines(2),
            HeuristicBatchPolicy("mct"),
            SimulationConfig(activation_interval=6.0),
            rng=3,
        )
        simulator.run()
        for record in simulator.records.values():
            assert record.start_time >= record.job.arrival_time

    def test_machine_queue_is_sequential(self):
        simulator = GridSimulator(
            simple_jobs(9),
            simple_machines(2),
            HeuristicBatchPolicy("olb"),
            SimulationConfig(activation_interval=100.0),
            rng=4,
        )
        simulator.run()
        for entries in simulator.park.queues:
            ordered = sorted(entries, key=lambda e: e.start)
            for earlier, later in zip(ordered, ordered[1:]):
                assert later.start >= earlier.finish - 1e-9

    def test_empty_job_list(self):
        metrics = GridSimulator(
            [], simple_machines(2), HeuristicBatchPolicy("mct"), rng=5
        ).run()
        assert metrics.completed_jobs == 0
        assert metrics.makespan == 0.0

    def test_no_machines_rejected(self):
        with pytest.raises(ValueError):
            GridSimulator(simple_jobs(3), [], HeuristicBatchPolicy("mct"))

    def test_duplicate_job_ids_rejected(self):
        jobs = [GridJob(0, 10.0, 0.0), GridJob(0, 10.0, 1.0)]
        with pytest.raises(ValueError):
            GridSimulator(jobs, simple_machines(1), HeuristicBatchPolicy("mct"))

    def test_activation_interval_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(activation_interval=0.0)


class TestBatchingBehaviour:
    def test_one_activation_when_everything_arrives_at_once(self):
        jobs = [GridJob(i, 50.0, 0.0) for i in range(6)]
        simulator = GridSimulator(
            jobs,
            simple_machines(2),
            HeuristicBatchPolicy("min_min"),
            SimulationConfig(activation_interval=10.0),
            rng=1,
        )
        simulator.run()
        assert len(simulator.activations) == 1
        assert simulator.activations[0].scheduled_jobs == 6

    def test_later_arrivals_wait_for_next_activation(self):
        jobs = [GridJob(0, 10.0, 0.0), GridJob(1, 10.0, 7.0)]
        simulator = GridSimulator(
            jobs,
            simple_machines(1),
            HeuristicBatchPolicy("mct"),
            SimulationConfig(activation_interval=5.0),
            rng=1,
        )
        simulator.run()
        second = simulator.records[1]
        # Job 1 arrives at t=7 and can only be scheduled at the t=10 activation.
        assert second.start_time >= 10.0

    def test_ready_times_carried_between_batches(self):
        # One slow machine: the batch scheduled at t=5 must queue behind the
        # work committed at t=0.
        jobs = [GridJob(0, 100.0, 0.0), GridJob(1, 100.0, 4.0)]
        machines = [GridMachine(0, mips=10.0)]
        simulator = GridSimulator(
            jobs,
            machines,
            HeuristicBatchPolicy("mct"),
            SimulationConfig(activation_interval=5.0),
            rng=1,
        )
        simulator.run()
        first, second = simulator.records[0], simulator.records[1]
        assert second.start_time >= first.completion_time - 1e-9


class TestMachineDepartures:
    def test_jobs_on_departed_machine_are_rescheduled(self):
        # Machine 1 leaves at t=6 with work still queued; its jobs must be
        # rescheduled and still complete.
        jobs = [GridJob(i, 200.0, 0.0) for i in range(4)]
        machines = [
            GridMachine(0, mips=10.0),
            GridMachine(1, mips=10.0, leave_time=6.0),
        ]
        simulator = GridSimulator(
            jobs,
            machines,
            HeuristicBatchPolicy("olb"),
            SimulationConfig(activation_interval=5.0),
            rng=1,
        )
        metrics = simulator.run()
        assert metrics.completed_jobs == 4
        assert metrics.rescheduled_jobs >= 1
        # Nothing may be recorded as finishing on machine 1 after it left.
        for record in simulator.records.values():
            if record.machine_id == 1:
                assert record.completion_time <= 6.0 + 1e-9

    def test_rescheduled_jobs_counted_once_per_job(self):
        jobs = [GridJob(i, 500.0, 0.0) for i in range(3)]
        machines = [
            GridMachine(0, mips=5.0),
            GridMachine(1, mips=50.0, leave_time=8.0),
        ]
        simulator = GridSimulator(
            jobs,
            machines,
            HeuristicBatchPolicy("met"),
            SimulationConfig(activation_interval=4.0),
            rng=1,
        )
        metrics = simulator.run()
        assert metrics.completed_jobs == 3
        assert metrics.rescheduled_jobs <= 3


class TestMachineEventLog:
    def test_static_park_logs_only_joins(self):
        simulator = GridSimulator(
            simple_jobs(6),
            simple_machines(3),
            HeuristicBatchPolicy("mct"),
            SimulationConfig(activation_interval=5.0),
            rng=1,
        )
        metrics = simulator.run()
        assert [e.event for e in metrics.machine_events] == ["join"] * 3
        assert [e.machine_id for e in metrics.machine_events] == [0, 1, 2]
        assert all(e.time == 0.0 for e in metrics.machine_events)

    def test_churn_log_is_explicit_and_ordered(self):
        # Machine 1 joins late, machine 2 leaves mid-run: the log must
        # carry both events at their own simulated times, chronologically
        # ordered (joins before leaves at equal times).
        jobs = [GridJob(i, 200.0, 2.0 * i) for i in range(8)]
        machines = [
            GridMachine(0, mips=10.0),
            GridMachine(1, mips=10.0, join_time=6.0),
            GridMachine(2, mips=10.0, leave_time=11.0),
        ]
        metrics = GridSimulator(
            jobs,
            machines,
            HeuristicBatchPolicy("mct"),
            SimulationConfig(activation_interval=5.0),
            rng=1,
        ).run()
        events = [(e.time, e.event, e.machine_id) for e in metrics.machine_events]
        assert events == [
            (0.0, "join", 0),
            (0.0, "join", 2),
            (6.0, "join", 1),
            (11.0, "leave", 2),
        ]
        keys = [e.sort_key for e in metrics.machine_events]
        assert keys == sorted(keys)

    def test_event_timestamps_not_activation_times(self):
        # Join at t=3 and leave at t=7 are both noticed at the t=10
        # activation but logged at their own times.
        jobs = [GridJob(0, 50.0, 0.0), GridJob(1, 50.0, 9.0)]
        machines = [
            GridMachine(0, mips=10.0),
            GridMachine(1, mips=10.0, join_time=3.0, leave_time=7.0),
        ]
        metrics = GridSimulator(
            jobs,
            machines,
            HeuristicBatchPolicy("mct"),
            SimulationConfig(activation_interval=10.0),
            rng=1,
        ).run()
        churny = [e for e in metrics.machine_events if e.machine_id == 1]
        assert [(e.time, e.event) for e in churny] == [(3.0, "join"), (7.0, "leave")]


class TestEndToEndWithTraces:
    def test_generated_workload_completes_with_cma_policy(self):
        trace = generate_trace(
            TraceConfig(
                duration=30.0,
                rate=0.8,
                nb_machines=3,
                job_heterogeneity="lo",
                machine_heterogeneity="lo",
            ),
            seed=6,
        )
        policy = WarmCMAPolicy(warm=False, max_seconds=0.05, max_iterations=5)
        metrics = GridSimulator.from_trace(
            trace, policy, SimulationConfig(activation_interval=10.0), rng=6
        ).run()
        assert metrics.completed_jobs == trace.nb_jobs
        assert metrics.policy == "cma"
        assert metrics.nb_activations >= 1

    def test_summary_keys(self):
        metrics = GridSimulator(
            simple_jobs(5), simple_machines(2), HeuristicBatchPolicy("mct"), rng=1
        ).run()
        summary = metrics.summary()
        assert {"policy", "makespan", "mean_response", "utilization", "throughput"}.issubset(
            summary
        )


class TestCancellation:
    @pytest.mark.parametrize(
        "activation",
        [None, ActivationPolicy.adaptive()],
        ids=["periodic", "adaptive"],
    )
    def test_cancelling_the_last_placement_releases_the_machine(self, activation):
        # Job 0 (100 s) is placed at t=0 and withdrawn at t=10; job 1 (1 s)
        # arrives at t=12 and is planned by the t=15 activation.  The
        # machine is free from t=10 on, so job 1 starts at 15, not at 100.
        jobs = [
            GridJob(0, 100_000.0, 0.0, cancel_time=10.0),
            GridJob(1, 1_000.0, 12.0),
        ]
        simulator = GridSimulator(
            jobs,
            [GridMachine(0, mips=1_000.0)],
            HeuristicBatchPolicy("mct"),
            SimulationConfig(activation_interval=15.0, activation=activation),
            rng=1,
        )
        metrics = simulator.run()
        assert metrics.cancelled_jobs == 1
        assert simulator.records[1].start_time == 15.0
        assert simulator.park.busy_until[0] == 16.0
        assert metrics.mean_utilization == pytest.approx(11.0 / 16.0)

    def test_cancelling_mid_queue_keeps_later_placements(self):
        # Jobs 0..2 (10 s each) queue on one machine at t=0; job 1 is
        # withdrawn at t=5, before it starts.  Job 2 keeps its committed
        # start at 20 and the machine stays reserved until 30.
        jobs = [
            GridJob(0, 10_000.0, 0.0),
            GridJob(1, 10_000.0, 0.0, cancel_time=5.0),
            GridJob(2, 10_000.0, 0.0),
        ]
        simulator = GridSimulator(
            jobs,
            [GridMachine(0, mips=1_000.0)],
            HeuristicBatchPolicy("mct"),
            SimulationConfig(activation_interval=50.0),
            rng=1,
        )
        simulator.run()
        assert simulator.records[2].start_time == 20.0
        assert simulator.park.busy_until[0] == 30.0
