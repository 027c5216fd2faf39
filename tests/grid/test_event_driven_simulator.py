"""The event-driven simulator core: bit-exactness, exactly-once churn, adaptive driver.

Three contracts of the heapq refactor:

* the periodic ``SCHEDULER_TICK`` driver reproduces the pre-refactor
  fixed-tick loop **bit-exactly** (pinned makespans/flowtimes measured on
  the seed implementation before the refactor);
* machine joins/leaves and job arrivals are popped exactly once — no
  per-activation park rescans (regression for the old
  ``_notice_joins``/``_process_departures`` O(activations × machines) scans);
* the adaptive :class:`~repro.core.config.ActivationPolicy` schedules far
  fewer activations while still completing the whole stream, honours its
  min-interval guard and reacts to membership changes.
"""

from __future__ import annotations

import math

import pytest

from repro.core.config import ActivationPolicy, TraceConfig
from repro.grid.events import EventType
from repro.grid.machine import GridMachine
from repro.grid.scheduler import HeuristicBatchPolicy
from repro.grid.service import WarmCMAPolicy
from repro.grid.simulator import GridSimulator, SimulationConfig
from repro.traces import generate_trace


def _calm_trace():
    return generate_trace(
        TraceConfig(
            family="calm",
            duration=60.0,
            rate=1.0,
            nb_machines=5,
            job_heterogeneity="lo",
        ),
        seed=123,
    )


def _churn_trace():
    return generate_trace(
        TraceConfig(
            family="flash_crowd",
            duration=80.0,
            rate=0.8,
            nb_machines=6,
            job_heterogeneity="lo",
            churn_fraction=0.5,
        ),
        seed=321,
    )


class TestPeriodicBitExactness:
    """Pinned metrics measured on the pre-refactor fixed-tick loop.

    Any change to event ordering, RNG consumption or commit arithmetic
    shows up here as a bit-level diff, not a tolerance failure.
    """

    def test_calm_trace_min_min(self):
        metrics = GridSimulator.from_trace(
            _calm_trace(),
            HeuristicBatchPolicy("min_min"),
            SimulationConfig(activation_interval=7.0),
            rng=7,
        ).run()
        assert metrics.makespan == 106.84527270527829
        assert metrics.total_flowtime == 1911.1914357570613
        assert metrics.completed_jobs == 73
        assert metrics.nb_activations == 9
        assert metrics.rescheduled_jobs == 0

    def test_churn_trace_min_min(self):
        metrics = GridSimulator.from_trace(
            _churn_trace(),
            HeuristicBatchPolicy("min_min"),
            SimulationConfig(activation_interval=7.0),
            rng=7,
        ).run()
        assert metrics.makespan == 178.87135057255043
        assert metrics.total_flowtime == 3676.406632325912
        assert metrics.completed_jobs == 96
        assert metrics.nb_activations == 14
        assert metrics.rescheduled_jobs == 8

    def test_calm_trace_cma_rolling_horizon(self):
        metrics = GridSimulator.from_trace(
            _calm_trace(),
            WarmCMAPolicy(warm=False, max_seconds=1e9, max_iterations=3),
            SimulationConfig(activation_interval=7.0, commit_horizon=7.0),
            rng=42,
        ).run()
        assert metrics.makespan == 104.59848355674988
        assert metrics.total_flowtime == 1544.7793199007397
        assert metrics.completed_jobs == 73
        assert metrics.nb_activations == 13


class _CountingSimulator(GridSimulator):
    """Counts handler invocations to prove exactly-once event processing."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.join_counts: dict[int, int] = {}
        self.leave_counts: dict[int, int] = {}
        self.submit_counts: dict[int, int] = {}

    def _handle_membership(self, position, now, adaptive, event):
        machine_id = self.machines[position].machine_id
        counts = {
            EventType.MACHINE_JOIN: self.join_counts,
            EventType.MACHINE_LEAVE: self.leave_counts,
        }.get(event)
        if counts is not None:
            counts[machine_id] = counts.get(machine_id, 0) + 1
        super()._handle_membership(position, now, adaptive, event)

    def _handle_submit(self, position, now, adaptive):
        job_id = self.jobs[position].job_id
        self.submit_counts[job_id] = self.submit_counts.get(job_id, 0) + 1
        super()._handle_submit(position, now, adaptive)


class TestExactlyOnceChurn:
    @pytest.mark.parametrize(
        "activation",
        [None, ActivationPolicy.adaptive(backlog_threshold=4, min_interval=1.0)],
        ids=["periodic", "adaptive"],
    )
    def test_every_join_leave_and_arrival_is_processed_once(self, activation):
        trace = _churn_trace()
        simulator = _CountingSimulator.from_trace(
            trace,
            HeuristicBatchPolicy("min_min"),
            SimulationConfig(activation_interval=7.0, activation=activation),
            rng=7,
        )
        metrics = simulator.run()
        assert metrics.completed_jobs == metrics.nb_jobs

        machines = simulator.machines
        assert simulator.join_counts == {m.machine_id: 1 for m in machines}
        expected_leaves = {
            m.machine_id: 1 for m in machines if m.leave_time is not None
        }
        assert simulator.leave_counts == expected_leaves
        assert simulator.submit_counts == {j.job_id: 1 for j in simulator.jobs}
        # ... and the event log carries each membership event exactly once,
        # stamped at the machine's own join/leave time.
        joins = [e for e in metrics.machine_events if e.event == "join"]
        leaves = [e for e in metrics.machine_events if e.event == "leave"]
        assert sorted((e.machine_id, e.time) for e in joins) == sorted(
            (m.machine_id, m.join_time) for m in machines
        )
        assert sorted((e.machine_id, e.time) for e in leaves) == sorted(
            (m.machine_id, m.leave_time)
            for m in machines
            if m.leave_time is not None
        )


class TestAdaptiveActivation:
    def test_fewer_activations_same_completions(self):
        trace = _calm_trace()
        periodic = GridSimulator.from_trace(
            trace,
            HeuristicBatchPolicy("min_min"),
            SimulationConfig(activation_interval=1.0, max_activations=100_000),
            rng=7,
        ).run()
        adaptive = GridSimulator.from_trace(
            trace,
            HeuristicBatchPolicy("min_min"),
            SimulationConfig(
                activation_interval=1.0,
                max_activations=100_000,
                activation=ActivationPolicy.adaptive(
                    backlog_threshold=8, min_interval=1.0, max_interval=20.0
                ),
            ),
            rng=7,
        ).run()
        assert adaptive.completed_jobs == periodic.completed_jobs == trace.nb_jobs
        total_periodic = periodic.nb_activations + periodic.nb_idle_activations
        total_adaptive = adaptive.nb_activations + adaptive.nb_idle_activations
        assert total_adaptive < total_periodic / 5

    def test_min_interval_guard_spaces_activations(self):
        min_interval = 3.0
        metrics = GridSimulator.from_trace(
            _calm_trace(),
            HeuristicBatchPolicy("min_min"),
            SimulationConfig(
                activation_interval=10.0,
                activation=ActivationPolicy.adaptive(
                    backlog_threshold=1, min_interval=min_interval
                ),
            ),
            rng=7,
        ).run()
        assert metrics.completed_jobs == metrics.nb_jobs
        times = [record.time for record in metrics.activations]
        gaps = [later - earlier for earlier, later in zip(times, times[1:])]
        assert gaps and all(gap >= min_interval - 1e-9 for gap in gaps)

    def test_machine_change_triggers_activation(self):
        # One machine joins late; with an astronomical backlog threshold and
        # max interval, only the on_machine_change trigger can explain an
        # activation before the fallback would fire at t=10_000.
        jobs = _calm_trace().to_jobs()
        machines = [
            GridMachine(machine_id=0, mips=1000.0),
            GridMachine(machine_id=1, mips=1000.0, join_time=30.0),
        ]
        policy = ActivationPolicy.adaptive(
            backlog_threshold=10**6,
            min_interval=0.0,
            max_interval=10_000.0,
            on_machine_change=True,
        )
        metrics = GridSimulator(
            jobs,
            machines,
            HeuristicBatchPolicy("min_min"),
            SimulationConfig(activation_interval=10.0, activation=policy),
            rng=7,
        ).run()
        assert metrics.completed_jobs == metrics.nb_jobs
        assert any(record.time <= 30.0 for record in metrics.activations)

    def test_first_arrival_fires_without_waiting_for_min_interval(self):
        # _last_activation starts at -inf, so the very first trigger must
        # fire at the arrival itself, not min_interval later.
        metrics = GridSimulator.from_trace(
            _calm_trace(),
            HeuristicBatchPolicy("min_min"),
            SimulationConfig(
                activation_interval=10.0,
                activation=ActivationPolicy.adaptive(
                    backlog_threshold=1, min_interval=50.0
                ),
            ),
            rng=7,
        ).run()
        first_arrival = min(job.arrival_time for job in _calm_trace().to_jobs())
        assert metrics.activations[0].time == pytest.approx(first_arrival)

    def test_empty_job_list_terminates(self):
        machines = [GridMachine(machine_id=0, mips=1000.0, leave_time=5.0)]
        metrics = GridSimulator(
            [],
            machines,
            HeuristicBatchPolicy("mct"),
            SimulationConfig(activation=ActivationPolicy.adaptive()),
        ).run()
        assert metrics.completed_jobs == 0
        assert metrics.nb_activations == 0
        assert [(e.time, e.event) for e in metrics.machine_events] == [
            (0.0, "join"),
            (5.0, "leave"),
        ]

    def test_idle_activations_are_counted(self):
        # Periodic driver on a short stream with a tiny interval piles up
        # ticks with nothing to do; they must be counted, not recorded.
        metrics = GridSimulator.from_trace(
            _calm_trace(),
            HeuristicBatchPolicy("min_min"),
            SimulationConfig(activation_interval=0.25, max_activations=1000),
            rng=7,
        ).run()
        assert metrics.nb_idle_activations > 0
        assert metrics.nb_activations + metrics.nb_idle_activations <= 1000
        assert all(record.scheduled_jobs > 0 for record in metrics.activations)

    def test_p99_scheduler_seconds_is_populated(self):
        metrics = GridSimulator.from_trace(
            _calm_trace(),
            HeuristicBatchPolicy("min_min"),
            SimulationConfig(activation_interval=7.0),
            rng=7,
        ).run()
        assert metrics.p99_scheduler_seconds >= metrics.p95_scheduler_seconds >= 0.0
        assert math.isfinite(metrics.p99_scheduler_seconds)
        assert "scheduler_seconds_p99" in metrics.summary()
        assert "idle_activations" in metrics.summary()
