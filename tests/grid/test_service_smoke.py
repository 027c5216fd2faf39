"""Smoke test: the warm service drives a full rolling-horizon simulation.

Marked ``smoke`` like the islands worker test (CI runs it in the
hang-guarded smoke step, not in tier-1), because it exercises
the complete dynamic-scheduling stack (flash-crowd arrivals, a churning
park, rolling commit horizon, warm-started cMA activations) end to end
rather than one unit at a time.  Locally it is just part of the normal suite.
"""

import pytest

from repro.core.config import CMAConfig, TraceConfig
from repro.grid import GridSimulator, SimulationConfig, WarmCMAPolicy
from repro.traces import generate_trace

pytestmark = pytest.mark.smoke


def test_warm_service_survives_bursts_and_churn():
    # Three ~10-job flashes over a thin background, on a park where some
    # machines join late and leave mid-stream.
    trace = generate_trace(
        TraceConfig(
            family="flash_crowd",
            duration=60.0,
            rate=0.1,
            nb_machines=6,
            job_heterogeneity="lo",
            machine_heterogeneity="lo",
            churn_fraction=0.4,
            extra={"nb_flashes": 3, "flash_size": 10, "flash_window": 1.0},
        ),
        seed=17,
    )
    policy = WarmCMAPolicy(
        CMAConfig.fast_defaults(),
        max_seconds=5.0,
        max_iterations=5,
        max_stagnant_iterations=2,
    )
    metrics = GridSimulator.from_trace(
        trace,
        policy,
        SimulationConfig(activation_interval=10.0, commit_horizon=10.0),
        rng=17,
    ).run()

    assert metrics.completed_jobs == trace.nb_jobs
    assert metrics.policy == "warm-cma"
    stats = policy.service.stats
    assert stats.activations == metrics.nb_activations
    # Under a rolling horizon consecutive batches overlap, so the warm
    # service must actually carry plans forward (that is its whole point).
    assert stats.carried_jobs > 0
    # Grow-only capacity: far fewer reallocations than activations.
    assert stats.capacity_reallocations <= 5
    # Conservation of planned jobs: every job of every activation's batch is
    # either carried, heuristic-filled, or scheduled by the degenerate
    # fallback — cross-checked against the simulator's activation records.
    planned = sum(a.pending_jobs for a in metrics.activations)
    assert stats.carried_jobs + stats.filled_jobs + stats.degenerate_jobs == planned
