"""Smoke test: the replay arena's worker mode, and its parity contract.

Marked ``smoke`` like the islands worker and warm-service tests (CI runs
it in the hang-guarded smoke step, not in tier-1), because it spawns one
worker process per policy.  Locally it is just part
of the normal suite.

The contract it pins is the arena's acceptance criterion: ``workers=0``
and ``workers=N`` produce **identical** per-policy metrics, because every
replay builds a fresh policy from its spec and derives its seed stream
from (arena seed, policy name, repetition) — never from process state.
"""

import pytest

from repro.core.config import ArenaConfig, TraceConfig
from repro.traces.generators import generate_trace
from repro.traces.replay import (
    ReplayArena,
    cold_cma_policy_spec,
    heuristic_policy_spec,
    warm_cma_policy_spec,
)

pytestmark = pytest.mark.smoke

#: Iteration-bound budget: wall-clock caps must never bind, or the two
#: execution modes could diverge on a loaded machine.
BUDGET = dict(max_seconds=120.0, max_iterations=3)


def test_worker_mode_matches_in_process_mode():
    trace = generate_trace(
        TraceConfig(
            family="bursty", duration=20.0, rate=1.0, nb_machines=3,
            churn_fraction=0.3,
        ),
        seed=17,
    )
    specs = [
        heuristic_policy_spec("min_min"),
        cold_cma_policy_spec(**BUDGET),
        warm_cma_policy_spec(**BUDGET),
    ]
    config = ArenaConfig(
        activation_interval=5.0, repetitions=2, seed=23, worker_timeout=120.0
    )
    reference = ReplayArena(trace, specs, config).run()
    parallel = ReplayArena(
        trace, specs, config.evolve(workers=len(specs))
    ).run()

    assert parallel.policy_names == reference.policy_names
    for name in reference.policy_names:
        for ours, theirs in zip(
            reference.metrics_of(name), parallel.metrics_of(name)
        ):
            assert ours.makespan == theirs.makespan, name
            assert ours.total_flowtime == theirs.total_flowtime, name
            assert ours.completed_jobs == theirs.completed_jobs, name
            assert ours.nb_activations == theirs.nb_activations, name
            assert ours.rescheduled_jobs == theirs.rescheduled_jobs, name
