"""Extension — the dynamic batch-mode deployment the paper motivates.

Sections 1 and 6 argue that the cMA's ability to deliver good plans in a
short, fixed budget makes it suitable as the periodic batch scheduler of a
real grid.  The paper itself defers that study to future work (grid
simulator packages); this benchmark performs it with the library's
discrete-event simulator: the same arriving workload and machine park is
scheduled with four policies — the cold cMA policy, the warm engine-resident
scheduling service, and two conventional heuristics — and the metaheuristics
must deliver the best (or tied-best) stream makespan.

A second table stresses the operational scenarios the paper names: bursty
(flash-crowd) arrivals and a churning machine park, both simulated under a
rolling commit horizon so consecutive activations overlap and the warm
service's plan carrying is exercised for real.
"""

from repro.core.config import TraceConfig
from repro.experiments.reporting import format_table
from repro.grid import (
    GridSimulator,
    HeuristicBatchPolicy,
    SimulationConfig,
    WarmCMAPolicy,
)
from repro.traces import generate_trace

from .conftest import run_once

#: Identical per-activation budget for the cold policy and the warm service:
#: iteration cap, wall-clock cap and an early stagnation stop — the budget
#: style the paper's "very short time" activations call for (a converged
#: population should hand the plan back instead of burning the cap).
_CMA_BUDGET = dict(max_seconds=0.15, max_iterations=40, max_stagnant_iterations=5)


def _policies():
    return [
        WarmCMAPolicy(warm=False, **_CMA_BUDGET),
        WarmCMAPolicy(**_CMA_BUDGET),
        HeuristicBatchPolicy("min_min"),
        HeuristicBatchPolicy("olb"),
    ]


def _run_simulations(seed=2007):
    trace = generate_trace(TraceConfig(duration=60.0, rate=1.5, nb_machines=8), seed=seed)
    metrics = {}
    for policy in _policies():
        simulator = GridSimulator.from_trace(
            trace, policy, SimulationConfig(activation_interval=15.0), rng=seed
        )
        metrics[policy.name] = simulator.run()
    return metrics


def _run_scenarios(seed=2007):
    """Flash-crowd arrivals and a churning park under a rolling horizon."""
    # Small (lo) jobs on fast (hi) machines keep the stream makespan within
    # a few dozen activation intervals, so the rolling-horizon simulations
    # stay benchmark-sized.
    lo_jobs = TraceConfig(duration=60.0, rate=1.0, nb_machines=8, job_heterogeneity="lo")
    scenarios = {
        "bursty": lo_jobs.evolve(family="flash_crowd"),
        "churning": lo_jobs.evolve(churn_fraction=0.3),
    }
    results = {}
    for scenario, config in scenarios.items():
        trace = generate_trace(config, seed=seed)
        for policy in _policies():
            simulator = GridSimulator.from_trace(
                trace,
                policy,
                SimulationConfig(activation_interval=10.0, commit_horizon=10.0),
                rng=seed,
            )
            results[(scenario, policy.name)] = simulator.run()
    return results


def test_dynamic_grid_scheduling(benchmark, record_output):
    metrics = run_once(benchmark, _run_simulations)
    rows = [
        [
            name,
            m.makespan,
            m.mean_response_time,
            m.mean_utilization,
            m.mean_scheduler_seconds,
        ]
        for name, m in metrics.items()
    ]
    text = format_table(
        ["policy", "stream makespan", "mean response", "utilization", "sched s/activation"],
        rows,
        title="Dynamic grid simulation: batch policies on the same workload",
    )
    record_output("dynamic_grid_scheduling", text)

    for name, m in metrics.items():
        assert m.completed_jobs == m.nb_jobs, name

    cma = metrics["cma"]
    warm = metrics["warm-cma"]
    # The metaheuristics never lose to blind load balancing and stay
    # competitive with Min-Min on the stream makespan.
    for candidate in (cma, warm):
        assert candidate.makespan <= metrics["olb"].makespan * 1.02
        assert candidate.makespan <= metrics["min_min"].makespan * 1.10
    # The per-activation scheduling cost stays within its configured budget
    # (the "very short time" requirement of the paper).  The warm-vs-cold
    # per-activation comparison lives in the rolling-horizon scenarios below
    # and in the throughput benchmark — in this classic full-commit mode the
    # batches never overlap, so warm starting is cost-neutral by design.
    assert cma.mean_scheduler_seconds < 1.0
    assert warm.mean_scheduler_seconds < 1.0

    print()
    print(text)


def test_dynamic_grid_scenarios(benchmark, record_output):
    results = run_once(benchmark, _run_scenarios)
    rows = [
        [
            scenario,
            name,
            m.makespan,
            m.mean_response_time,
            m.rescheduled_jobs,
            m.mean_scheduler_seconds,
        ]
        for (scenario, name), m in results.items()
    ]
    text = format_table(
        [
            "scenario",
            "policy",
            "stream makespan",
            "mean response",
            "rescheduled",
            "sched s/activation",
        ],
        rows,
        title="Rolling-horizon scenarios: bursty arrivals and machine churn",
    )
    record_output("dynamic_grid_scenarios", text)

    for (scenario, name), m in results.items():
        assert m.completed_jobs == m.nb_jobs, (scenario, name)

    for scenario in ("bursty", "churning"):
        cold = results[(scenario, "cma")]
        warm = results[(scenario, "warm-cma")]
        # Warm starting must not cost solution quality on either scenario...
        assert warm.makespan <= cold.makespan * 1.05, scenario
        # ...and must not be meaningfully slower per activation than the
        # cold start.  The margin absorbs wall-clock noise on a loaded
        # machine (sub-second activations jitter by tens of percent); the
        # hard warm-vs-cold speed claim (>= 1.3x faster at equal budget)
        # is pinned by the dynamic section of test_engine_throughput.py.
        assert warm.mean_scheduler_seconds <= cold.mean_scheduler_seconds * 1.25, scenario

    print()
    print(text)
