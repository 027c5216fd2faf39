"""Dynamic grid scheduling: the deployment scenario the paper motivates.

The introduction and conclusions of the paper argue that a batch scheduler
that produces high-quality plans in a short, fixed budget can drive a *real*
grid by being re-activated periodically on the jobs that arrived since its
last activation.  This example simulates exactly that with the library's
discrete-event grid simulator:

* a Poisson stream of parameter-sweep style jobs (the Monte-Carlo workload
  of the paper's Section 2) on a heterogeneous machine park in which some
  machines join late and leave early (grid churn), both drawn as one
  ``calm`` scenario trace,
* three scheduling policies driving the batch activations — the cMA, Min-Min
  and opportunistic load balancing — compared on stream makespan, mean
  response time, utilization and scheduling overhead.

Run with:  python examples/dynamic_grid_scheduling.py
"""

from __future__ import annotations

import numpy as np

from repro.core.config import TraceConfig
from repro.experiments.reporting import format_table
from repro.grid import GridSimulator, HeuristicBatchPolicy, SimulationConfig, WarmCMAPolicy
from repro.traces import generate_trace


def main() -> None:
    seed = 11
    trace = generate_trace(
        TraceConfig(duration=90.0, rate=2.0, nb_machines=12, churn_fraction=0.25),
        seed=seed,
    )
    print(f"Workload: {trace.nb_jobs} jobs over 90 simulated seconds")
    churny = int(np.isfinite(trace.machine_leaves).sum())
    print(f"Machine park: {trace.nb_machines} machines ({churny} with limited membership)")
    print()

    policies = [
        WarmCMAPolicy(warm=False, max_seconds=0.2, max_iterations=60),
        HeuristicBatchPolicy("min_min"),
        HeuristicBatchPolicy("olb"),
    ]

    rows = []
    for policy in policies:
        simulator = GridSimulator.from_trace(
            trace,
            policy,
            SimulationConfig(activation_interval=15.0),
            rng=seed,
        )
        metrics = simulator.run()
        rows.append(
            [
                metrics.policy,
                metrics.completed_jobs,
                metrics.rescheduled_jobs,
                metrics.makespan,
                metrics.mean_response_time,
                metrics.mean_utilization,
                metrics.mean_scheduler_seconds,
            ]
        )

    print(
        format_table(
            [
                "policy",
                "completed",
                "rescheduled",
                "stream makespan",
                "mean response",
                "utilization",
                "sched s/act.",
            ],
            rows,
            title="Periodic batch scheduling of an arriving workload",
            precision=2,
        )
    )
    print()
    print("The cMA policy spends a bounded, sub-second budget per activation and")
    print("should deliver the lowest (or tied-lowest) stream makespan of the three.")


if __name__ == "__main__":
    main()
