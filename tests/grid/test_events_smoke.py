"""Smoke test: the event-driven core end to end, periodic and adaptive.

Marked ``smoke`` like the islands/arena/service tests (CI runs it in the
hang-guarded smoke step, not in tier-1), because it
drives the complete event loop (arrivals, churn with revocations, both
activation drivers, a warm metaheuristic policy) end to end rather than one
unit at a time.  Locally it is just part of the normal suite.
"""

import pytest

from repro.core.config import ActivationPolicy, CMAConfig, TraceConfig
from repro.grid import GridSimulator, SimulationConfig, WarmCMAPolicy
from repro.grid.scheduler import HeuristicBatchPolicy
from repro.traces import generate_trace

pytestmark = pytest.mark.smoke


def _trace():
    return generate_trace(
        TraceConfig(
            family="flash_crowd",
            duration=90.0,
            rate=1.0,
            nb_machines=6,
            job_heterogeneity="lo",
            churn_fraction=0.4,
        ),
        seed=29,
    )


def test_event_core_runs_both_drivers_end_to_end():
    trace = _trace()
    periodic = GridSimulator.from_trace(
        trace,
        HeuristicBatchPolicy("min_min"),
        SimulationConfig(activation_interval=5.0),
        rng=29,
    ).run()
    adaptive = GridSimulator.from_trace(
        trace,
        HeuristicBatchPolicy("min_min"),
        SimulationConfig(
            activation_interval=5.0,
            activation=ActivationPolicy.adaptive(
                backlog_threshold=8, min_interval=1.0, max_interval=20.0
            ),
        ),
        rng=29,
    ).run()

    # Both drivers complete the whole stream despite churn revocations.
    assert periodic.completed_jobs == trace.nb_jobs
    assert adaptive.completed_jobs == trace.nb_jobs
    # The drivers place ticks, not jobs: quality stays in the same league.
    assert adaptive.makespan <= 1.5 * periodic.makespan
    # Both log the same membership history (popped exactly once each).
    assert adaptive.machine_events == periodic.machine_events


def test_adaptive_driver_feeds_a_warm_metaheuristic():
    trace = _trace()
    policy = WarmCMAPolicy(
        CMAConfig.fast_defaults(),
        max_seconds=5.0,
        max_iterations=5,
        max_stagnant_iterations=2,
    )
    metrics = GridSimulator.from_trace(
        trace,
        policy,
        SimulationConfig(
            activation_interval=5.0,
            commit_horizon=10.0,
            activation=ActivationPolicy.adaptive(
                backlog_threshold=8, min_interval=1.0, max_interval=20.0
            ),
        ),
        rng=29,
    ).run()
    assert metrics.completed_jobs == trace.nb_jobs
    # The warm service saw exactly the activations the adaptive driver fired.
    assert policy.service.stats.activations == metrics.nb_activations
    assert metrics.nb_idle_activations == 0
