"""Command-line interface for the reproduction.

The CLI wraps the library's main entry points so the paper's experiments can
be driven without writing Python:

``repro-scheduler solve``
    Solve one (regenerated) benchmark instance with a chosen algorithm.
``repro-scheduler heuristics``
    Evaluate every constructive heuristic on one instance.
``repro-scheduler tune``
    Re-run one of the tuning sweeps of Figures 2-5.
``repro-scheduler table``
    Re-generate one of the comparison tables (Tables 2-5) or the robustness
    study.
``repro-scheduler islands``
    Run K islands of one algorithm — in-process or one worker process per
    island — with periodic best-row migration along a chosen topology.
``repro-scheduler simulate``
    Run the dynamic-grid simulation of a generated ``calm`` trace with a
    chosen batch scheduling policy; ``--out FILE`` also captures the run as
    a replayable trace artifact.
``repro-scheduler trace``
    Generate and replay dynamic workload traces: ``trace generate``
    produces a synthetic scenario family (calm / bursty / diurnal /
    heavy-tailed / flash-crowd), and ``trace replay`` runs the policy
    arena — one trace against several policies at equal per-activation
    budget, optionally one worker process per policy.
``repro-scheduler serve``
    Stand the warm scheduler up as a live wall-clock service behind the
    TCP/JSON line protocol, on a generated trace's machine park, with a
    bounded submission queue and shed/degrade overload handling.
``repro-scheduler loadgen``
    Replay a trace family open-loop against a live service (an in-process
    one on the trace's own park by default, or ``--connect host:port``) at
    a shaped rate multiplier, and print the load report next to the
    service's final metrics snapshot.  ``--soak`` replays a multi-minute ramp
    (``REPRO_SOAK_SECONDS``); ``--metrics-port``/``--trace-out`` turn the
    observability layer on.
``repro-scheduler obs``
    Observability utilities: ``obs summarize trace.jsonl`` renders the
    per-activation account a ``--trace-out`` run recorded.

Every subcommand prints plain-text tables (the same renderings the benchmark
harness writes to ``benchmarks/output/``) and returns a conventional process
exit code, so the CLI can be scripted.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import sys
from typing import Sequence

from repro.core import IslandConfig, TerminationCriteria
from repro.core.config import (
    ACTIVATION_MODES,
    EMIGRANT_SELECTIONS,
    ISLAND_TOPOLOGIES,
    LOAD_PROFILE_SHAPES,
    TRACE_FAMILIES,
    ActivationPolicy,
    ArenaConfig,
    LoadProfile,
    RetryPolicy,
    ServiceConfig,
    TraceConfig,
)
from repro.experiments.reporting import format_mapping, format_table
from repro.experiments.runner import (
    ExperimentSettings,
    braun_ga_spec,
    cellular_ga_spec,
    cma_spec,
    panmictic_ma_spec,
    simulated_annealing_spec,
    steady_state_ga_spec,
    struggle_ga_spec,
    tabu_search_spec,
)
from repro.islands import IslandModel
from repro.experiments.tables import (
    flowtime_comparison_table,
    flowtime_table,
    makespan_comparison_table,
    makespan_table,
    robustness_table,
    table1_configuration,
)
from repro.experiments.tuning import ALL_SWEEPS, TuningSettings
from repro.grid import GridMachine, GridSimulator, SimulationConfig
from repro.grid.service import DynamicSchedulerService
from repro.heuristics import build_schedule, list_heuristics
from repro.obs import (
    MetricsRegistry,
    TraceLog,
    slowest_report,
    summarize_trace,
    timeline_report,
)
from repro.service import (
    FaultInjector,
    LoadGenerator,
    SchedulerCore,
    SchedulerServer,
    ServiceClient,
)
from repro.model.benchmark import BRAUN_INSTANCE_NAMES, generate_braun_like_instance
from repro.model.generator import ETCGeneratorConfig
from repro.model.io import load_etc_file
from repro.traces import (
    ReplayArena,
    Trace,
    arena_table,
    generate_trace,
    load_trace,
    policy_spec_from_name,
    rescale_trace,
)
from repro.utils.validation import check_positive

__all__ = ["build_parser", "main"]

TABLES = ("table1", "table2", "table3", "table4", "table5", "robustness")

#: Spec builders addressable from ``solve --algorithm`` and
#: ``islands --algorithm``: both run the configs the tables and sweeps run.
ALGORITHMS = {
    "cma": cma_spec,
    "braun_ga": braun_ga_spec,
    "carretero_xhafa_ga": steady_state_ga_spec,
    "struggle_ga": struggle_ga_spec,
    "cellular_ga": cellular_ga_spec,
    "panmictic_ma": panmictic_ma_spec,
    "simulated_annealing": simulated_annealing_spec,
    "tabu_search": tabu_search_spec,
}


# --------------------------------------------------------------------------- #
# Argument parsing
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """The complete argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-scheduler",
        description="Cellular memetic algorithms for batch job scheduling in grids "
        "(reproduction of Xhafa, Alba & Dorronsoro, IPPS 2007).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_activation_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--activation-policy", choices=ACTIVATION_MODES, default="periodic",
            help="scheduler-activation driver: 'periodic' fires every "
            "--interval seconds; 'adaptive' fires on a pending-job backlog "
            "or a machine-membership change (with --interval as the "
            "fallback cadence)",
        )
        sub.add_argument(
            "--backlog", type=int, default=32,
            help="adaptive driver only: pending-job count that triggers an "
            "immediate activation (default 32)",
        )

    def add_instance_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--instance",
            default="u_c_hihi.0",
            help="Braun-style instance name (e.g. u_i_lohi.0); "
            f"the benchmark uses {', '.join(BRAUN_INSTANCE_NAMES[:3])}, ...",
        )
        sub.add_argument("--etc-file", default=None, help="load a real Braun-format ETC file instead of generating one")
        sub.add_argument("--jobs", type=int, default=128, help="number of jobs (default 128)")
        sub.add_argument("--machines", type=int, default=16, help="number of machines (default 16)")
        sub.add_argument("--seed", type=int, default=2007, help="random seed")

    solve = subparsers.add_parser("solve", help="solve one instance with one algorithm")
    add_instance_arguments(solve)
    solve.add_argument("--algorithm", choices=ALGORITHMS, default="cma")
    solve.add_argument("--seconds", type=float, default=2.0, help="wall-clock budget per run")
    solve.add_argument("--iterations", type=int, default=None, help="optional iteration budget")

    heuristics = subparsers.add_parser(
        "heuristics", help="evaluate every constructive heuristic on one instance"
    )
    add_instance_arguments(heuristics)

    tune = subparsers.add_parser("tune", help="re-run one tuning sweep (Figures 2-5)")
    tune.add_argument("--figure", choices=sorted(ALL_SWEEPS), default="figure2")
    tune.add_argument("--jobs", type=int, default=96)
    tune.add_argument("--machines", type=int, default=16)
    tune.add_argument("--runs", type=int, default=2)
    tune.add_argument("--seconds", type=float, default=0.5)
    tune.add_argument("--seed", type=int, default=2007)

    table = subparsers.add_parser("table", help="re-generate a comparison table (Tables 2-5)")
    table.add_argument("--table", choices=TABLES, default="table2")
    table.add_argument("--jobs", type=int, default=96)
    table.add_argument("--machines", type=int, default=16)
    table.add_argument("--runs", type=int, default=2)
    table.add_argument("--seconds", type=float, default=0.5)
    table.add_argument("--seed", type=int, default=2007)
    table.add_argument(
        "--instances",
        nargs="*",
        default=None,
        help="subset of benchmark instance names (default: all 12)",
    )

    islands = subparsers.add_parser(
        "islands",
        help="run K islands of one algorithm with shared-memory migration",
    )
    add_instance_arguments(islands)
    islands.add_argument(
        "--algorithm", choices=ALGORITHMS, default="cma",
        help="what runs inside every island",
    )
    islands.add_argument("--islands", type=int, default=4, help="number of islands (default 4)")
    islands.add_argument(
        "--topology", choices=ISLAND_TOPOLOGIES, default="ring",
        help="migration graph (default ring)",
    )
    islands.add_argument(
        "--interval", type=float, default=1000.0,
        help="distance between migration points (default 1000)",
    )
    islands.add_argument(
        "--interval-unit", choices=("evaluations", "seconds"), default="evaluations",
        help="how --interval is measured (default evaluations)",
    )
    islands.add_argument(
        "--no-migration", action="store_true",
        help="disable migration: islands become independent repetitions",
    )
    islands.add_argument(
        "--emigrants", type=int, default=1, help="rows migrated per point (default 1)"
    )
    islands.add_argument(
        "--selection", choices=EMIGRANT_SELECTIONS, default="best_k",
        help="emigrant selection (default best_k)",
    )
    islands.add_argument(
        "--workers", type=int, default=0,
        help="0 = deterministic in-process driver; pass the value of "
        "--islands to spawn one process per island (no other value accepted)",
    )
    islands.add_argument(
        "--seconds", type=float, default=2.0, help="wall-clock budget per island"
    )
    islands.add_argument(
        "--evaluations", type=int, default=None, help="optional evaluation budget per island"
    )
    islands.add_argument(
        "--iterations", type=int, default=None, help="optional iteration budget per island"
    )

    simulate = subparsers.add_parser("simulate", help="run the dynamic grid simulation")
    simulate.add_argument(
        "--policy",
        default="cma",
        help="'cma' (cold start per activation), 'warm-cma' (persistent "
        "warm-started service) or any heuristic name",
    )
    simulate.add_argument("--rate", type=float, default=1.0, help="job arrivals per simulated second")
    simulate.add_argument("--duration", type=float, default=60.0, help="submission window (simulated seconds)")
    simulate.add_argument("--machines", type=int, default=8)
    simulate.add_argument("--interval", type=float, default=10.0, help="scheduler activation interval")
    simulate.add_argument("--budget", type=float, default=0.2, help="cMA wall-clock budget per activation")
    simulate.add_argument(
        "--stagnation", type=int, default=None,
        help="optional per-activation early stop after N stagnant iterations",
    )
    add_activation_arguments(simulate)
    simulate.add_argument("--seed", type=int, default=2007)
    simulate.add_argument(
        "--out", default=None, help="also save the run as a replayable trace file (.npz)"
    )

    trace = subparsers.add_parser("trace", help="generate and replay dynamic workload traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    generate = trace_sub.add_parser(
        "generate", help="generate a synthetic scenario-family trace"
    )
    generate.add_argument(
        "--family", choices=TRACE_FAMILIES, default="calm",
        help="scenario family (default calm)",
    )
    generate.add_argument("--duration", type=float, default=60.0, help="submission window (simulated seconds)")
    generate.add_argument("--rate", type=float, default=1.0, help="mean job arrivals per simulated second")
    generate.add_argument("--machines", type=int, default=8)
    generate.add_argument("--churn", type=float, default=0.0, help="fraction of machines that join late / leave early")
    generate.add_argument("--affinity", type=float, default=0.0, help="per-machine ETC affinity noise spread")
    generate.add_argument("--job-heterogeneity", choices=("hi", "lo"), default="hi")
    generate.add_argument("--machine-heterogeneity", choices=("hi", "lo"), default="hi")
    generate.add_argument("--seed", type=int, default=2007)
    generate.add_argument("--out", required=True, help="output trace file (.npz)")

    replay = trace_sub.add_parser(
        "replay", help="replay one trace against several policies (the arena)"
    )
    replay.add_argument("--trace", required=True, help="trace file to replay")
    replay.add_argument(
        "--policies", default="min_min,cma,warm-cma",
        help="comma-separated roster: heuristic names, 'cma', 'warm-cma', "
        "'warm-cma-rolling' (needs --horizon)",
    )
    replay.add_argument(
        "--workers", type=int, default=0,
        help="0 = sequential deterministic driver; pass the number of "
        "policies to spawn one process per policy (no other value accepted)",
    )
    replay.add_argument(
        "--interval", type=float, default=None,
        help="scheduler activation interval (default: the interval recorded "
        "in the trace's metadata, else 10)",
    )
    replay.add_argument(
        "--horizon", type=float, default=None,
        help="rolling commit horizon of the warm-cma-rolling policy "
        "(simulated seconds); every other policy replays under the trace's "
        "recorded commit horizon (full commit when none is recorded)",
    )
    replay.add_argument("--budget", type=float, default=0.2, help="cMA wall-clock budget per activation")
    replay.add_argument("--iterations", type=int, default=50, help="cMA iteration cap per activation")
    replay.add_argument(
        "--stagnation", type=int, default=None,
        help="optional per-activation early stop after N stagnant iterations",
    )
    replay.add_argument("--repetitions", type=int, default=1, help="independent replays per policy")
    replay.add_argument(
        "--retry-attempts", type=int, default=None, metavar="N",
        help="cap revoked-work resubmissions at N attempts per job with "
        "exponential backoff (see --retry-backoff); jobs past the cap are "
        "dropped as failed.  Default: unlimited immediate resubmission",
    )
    replay.add_argument(
        "--retry-backoff", type=float, default=1.0,
        help="base backoff delay in simulated seconds, doubled per attempt "
        "with deterministic jitter (only with --retry-attempts; default 1)",
    )
    add_activation_arguments(replay)
    replay.add_argument("--seed", type=int, default=2007)

    def add_service_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--machines", type=int, default=8,
            help="machine park size of the generated trace (default 8; "
            "a replayed --trace brings its own park)",
        )
        sub.add_argument(
            "--capacity", type=int, default=4096,
            help="submission-queue bound; arrivals beyond it are shed (default 4096)",
        )
        sub.add_argument(
            "--degrade", type=int, default=None,
            help="batch size that switches to the Min-Min degraded path "
            "(default: half the capacity)",
        )
        sub.add_argument(
            "--recover", type=int, default=None,
            help="batch size that switches back to the cMA "
            "(default: an eighth of the capacity)",
        )
        sub.add_argument(
            "--interval", type=float, default=0.5,
            help="fallback activation cadence in wall-clock seconds (default 0.5)",
        )
        sub.add_argument(
            "--budget", type=float, default=0.1,
            help="cMA wall-clock budget per activation (default 0.1)",
        )
        sub.add_argument(
            "--backlog", type=int, default=32,
            help="backlog that triggers an immediate activation (default 32)",
        )
        sub.add_argument("--seed", type=int, default=2007)
        sub.add_argument(
            "--metrics-port", type=int, default=None,
            help="also serve GET /metrics (Prometheus text format) on this "
            "port (0 picks a free port; local server only)",
        )
        sub.add_argument(
            "--trace-out", default=None, metavar="FILE",
            help="append one JSON line per activation/transition/job event "
            "to FILE (inspect with 'obs summarize'/'obs timeline'; local "
            "server only)",
        )
        sub.add_argument(
            "--latency-buckets", default=None, metavar="S,S,...",
            help="comma-separated upper bounds (seconds, strictly "
            "increasing) of the latency histogram buckets; default: the "
            "registry's generic buckets",
        )

    serve = subparsers.add_parser(
        "serve", help="run the scheduler as a live wall-clock TCP service"
    )
    add_service_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7077, help="0 picks a free port")
    serve.add_argument(
        "--duration", type=float, default=None,
        help="stop (drain + final snapshot) after this many seconds; "
        "default: run until interrupted",
    )

    loadgen = subparsers.add_parser(
        "loadgen",
        help="replay a trace family open-loop against a live service",
    )
    add_service_arguments(loadgen)
    loadgen.add_argument(
        "--family", choices=TRACE_FAMILIES, default="calm",
        help="scenario family to replay (default calm; ignored with --trace)",
    )
    loadgen.add_argument("--trace", default=None, help="replay a saved trace file instead")
    loadgen.add_argument(
        "--duration", type=float, default=10.0,
        help="trace submission window in seconds at 1x (default 10)",
    )
    loadgen.add_argument("--rate", type=float, default=20.0, help="mean submissions per second at 1x")
    loadgen.add_argument(
        "--shape", choices=LOAD_PROFILE_SHAPES, default="constant",
        help="rate-multiplier shape over the run (default constant)",
    )
    loadgen.add_argument(
        "--multiplier", type=float, default=1.0,
        help="peak rate multiplier relative to the trace's recorded rate",
    )
    loadgen.add_argument(
        "--base-multiplier", type=float, default=1.0,
        help="starting multiplier of the step/ramp shapes",
    )
    loadgen.add_argument(
        "--step-at", type=float, default=0.5,
        help="fraction of the stream where the step shape jumps (default 0.5)",
    )
    loadgen.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="drive a remote 'serve' process instead of an in-process server",
    )
    loadgen.add_argument(
        "--abort", action="store_true",
        help="abort (shed the queue) instead of draining at the end",
    )
    loadgen.add_argument(
        "--chaos", action="store_true",
        help="inject seeded machine breakdowns/repairs while the load runs "
        "(local in-process server only; the park is restored at the end)",
    )
    loadgen.add_argument(
        "--chaos-mtbf", type=float, default=5.0,
        help="chaos: mean seconds between failures per machine (default 5)",
    )
    loadgen.add_argument(
        "--chaos-mttr", type=float, default=1.0,
        help="chaos: mean seconds to repair (default 1)",
    )
    loadgen.add_argument(
        "--chaos-seed", type=int, default=0,
        help="chaos: seed of the deterministic fault plan (default 0)",
    )
    loadgen.add_argument(
        "--soak", action="store_true",
        help="sustained soak: replay a REPRO_SOAK_SECONDS-long stream "
        "(default 180) under the LoadProfile.soak() ramp, overriding "
        "--duration/--shape/--multiplier/--base-multiplier",
    )

    obs = subparsers.add_parser(
        "obs", help="observability utilities (trace summaries)"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    summarize = obs_sub.add_parser(
        "summarize",
        help="render a trace JSONL (serve/loadgen --trace-out) as "
        "per-activation tables",
    )
    summarize.add_argument("trace", help="trace JSONL file to summarize")
    summarize.add_argument(
        "--limit", type=int, default=None,
        help="show only the last N activations (default: all)",
    )
    timeline = obs_sub.add_parser(
        "timeline",
        help="render per-job waterfalls and the latency-attribution table "
        "from a trace JSONL with job lifecycle events",
    )
    timeline.add_argument("trace", help="trace JSONL file to analyze")
    timeline.add_argument(
        "--jobs", type=int, default=10,
        help="how many of the slowest jobs get a waterfall row (default 10)",
    )
    slowest = obs_sub.add_parser(
        "slowest",
        help="surface the slowest jobs of a trace JSONL with their causal "
        "event chains",
    )
    slowest.add_argument("trace", help="trace JSONL file to analyze")
    slowest.add_argument(
        "--top", type=int, default=10,
        help="how many jobs to show (default 10)",
    )

    return parser


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def _load_instance(args: argparse.Namespace):
    if getattr(args, "etc_file", None):
        return load_etc_file(args.etc_file, nb_jobs=args.jobs, nb_machines=args.machines)
    return generate_braun_like_instance(
        args.instance, rng=args.seed, nb_jobs=args.jobs, nb_machines=args.machines
    )


# --------------------------------------------------------------------------- #
# Subcommand implementations
# --------------------------------------------------------------------------- #
def _command_solve(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    termination = TerminationCriteria(
        max_seconds=args.seconds, max_iterations=args.iterations
    )
    spec = ALGORITHMS[args.algorithm]()
    result = spec.build(instance, termination, rng=args.seed).run()
    print(
        format_mapping(
            {
                "instance": result.instance_name,
                "algorithm": result.algorithm,
                "makespan": result.makespan,
                "flowtime": result.flowtime,
                "mean flowtime": result.mean_flowtime,
                "fitness": result.best_fitness,
                "iterations": result.iterations,
                "evaluations": result.evaluations,
                "elapsed seconds": result.elapsed_seconds,
            },
            title=f"{result.algorithm} on {result.instance_name} "
            f"({instance.nb_jobs} jobs x {instance.nb_machines} machines)",
        )
    )
    return 0


def _command_heuristics(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    rows = []
    for name in list_heuristics():
        schedule = build_schedule(name, instance, rng=args.seed)
        rows.append([name, schedule.makespan, schedule.flowtime])
    rows.sort(key=lambda row: row[1])
    print(
        format_table(
            ["heuristic", "makespan", "flowtime"],
            rows,
            title=f"Constructive heuristics on {instance.name}",
            precision=1,
        )
    )
    return 0


def _command_tune(args: argparse.Namespace) -> int:
    tuning = TuningSettings(
        settings=ExperimentSettings(
            nb_jobs=args.jobs,
            nb_machines=args.machines,
            runs=args.runs,
            max_seconds=args.seconds,
            seed=args.seed,
        ),
        generator=ETCGeneratorConfig(
            nb_jobs=args.jobs, nb_machines=args.machines, consistency="inconsistent"
        ),
    )
    result = ALL_SWEEPS[args.figure](tuning)
    print(result.as_series_text())
    print()
    print(result.as_summary_text())
    print(f"best variant: {result.best_variant()}")
    return 0


def _command_table(args: argparse.Namespace) -> int:
    if args.table == "table1":
        print(table1_configuration())
        return 0
    settings = ExperimentSettings(
        nb_jobs=args.jobs,
        nb_machines=args.machines,
        runs=args.runs,
        max_seconds=args.seconds,
        seed=args.seed,
    )
    builders = {
        "table2": makespan_table,
        "table3": makespan_comparison_table,
        "table4": flowtime_table,
        "table5": flowtime_comparison_table,
        "robustness": robustness_table,
    }
    instances = None
    if args.instances:
        from repro.experiments.tables import benchmark_instances

        instances = benchmark_instances(settings, names=tuple(args.instances))
    table = builders[args.table](settings, instances)
    print(table.render(precision=1))
    return 0


def _command_islands(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    termination = TerminationCriteria(
        max_seconds=args.seconds,
        max_evaluations=args.evaluations,
        max_iterations=args.iterations,
    )
    config = IslandConfig(
        nb_islands=args.islands,
        topology=args.topology,
        migration_interval=None if args.no_migration else args.interval,
        interval_unit=args.interval_unit,
        nb_emigrants=args.emigrants,
        emigrant_selection=args.selection,
        workers=args.workers,
    )
    spec = ALGORITHMS[args.algorithm]()
    model = IslandModel(instance, spec, config, termination, rng=args.seed)
    result = model.run()

    rows = [
        [
            row["island"],
            row["best_fitness"],
            row["makespan"],
            row["flowtime"],
            row["evaluations"],
            row.get("migrations_in", 0),
            row.get("immigrants_adopted", 0),
        ]
        for row in result.metadata["per_island"]
    ]
    print(
        format_table(
            [
                "island",
                "fitness",
                "makespan",
                "flowtime",
                "evaluations",
                "migrations in",
                "adopted",
            ],
            rows,
            title=f"{config.nb_islands} x {args.algorithm} islands "
            f"({config.topology} topology, workers={config.workers}) on {instance.name}",
            precision=1,
        )
    )
    print()
    print(
        format_mapping(
            {
                "algorithm": result.algorithm,
                "best island": float(result.metadata["best_island"]),
                "best fitness": result.best_fitness,
                "makespan": result.makespan,
                "flowtime": result.flowtime,
                "total evaluations": float(result.evaluations),
                "elapsed seconds": result.elapsed_seconds,
            },
            title="combined result",
        )
    )
    return 0


def _activation_policy(args: argparse.Namespace) -> ActivationPolicy | None:
    """``--activation-policy``/``--backlog`` -> the simulator's driver."""
    if args.activation_policy == "adaptive":
        return ActivationPolicy.adaptive(backlog_threshold=args.backlog)
    return None


def _command_simulate(args: argparse.Namespace) -> int:
    policy = policy_spec_from_name(
        args.policy, max_seconds=args.budget, max_stagnant_iterations=args.stagnation
    ).build()
    simulator = GridSimulator.from_trace(
        generate_trace(
            TraceConfig(duration=args.duration, rate=args.rate, nb_machines=args.machines),
            seed=args.seed,
        ),
        policy,
        SimulationConfig(
            activation_interval=args.interval, activation=_activation_policy(args)
        ),
        rng=args.seed,
    )
    metrics = simulator.run()
    print(
        format_mapping(
            metrics.summary(),
            title=f"Dynamic grid simulation with the {metrics.policy} policy",
        )
    )
    if args.out is not None:
        # Provenance lets a replay default to the recorded cadence and be
        # checked against the recorded makespan and flowtime.
        trace = Trace.from_simulation(
            simulator.jobs,
            simulator.machines,
            name=f"recorded-{args.policy}",
            metadata={
                "source": "recorded",
                "activation_interval": simulator.config.activation_interval,
                "commit_horizon": simulator.config.commit_horizon,
                "policy": metrics.policy,
                "stream_makespan": metrics.makespan,
                "total_flowtime": metrics.total_flowtime,
            },
        )
        path = trace.save(args.out)
        print(format_mapping(trace.describe(), title=f"Recorded trace -> {path}"))
    return 0


def _command_trace_generate(args: argparse.Namespace) -> int:
    config = TraceConfig(
        family=args.family,
        duration=args.duration,
        rate=args.rate,
        nb_machines=args.machines,
        job_heterogeneity=args.job_heterogeneity,
        machine_heterogeneity=args.machine_heterogeneity,
        affinity_spread=args.affinity,
        churn_fraction=args.churn,
    )
    trace = generate_trace(config, seed=args.seed)
    path = trace.save(args.out)
    print(format_mapping(trace.describe(), title=f"Generated trace -> {path}"))
    return 0


def _command_trace_replay(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    specs = [
        policy_spec_from_name(
            name,
            horizon=args.horizon,
            max_seconds=args.budget,
            max_iterations=args.iterations,
            max_stagnant_iterations=args.stagnation,
        )
        for name in args.policies.split(",")
        if name.strip()
    ]
    # Recorded traces carry their simulation parameters in the metadata
    # header; honoring them by default keeps a replay faithful to the
    # captured run (``--interval`` overrides).  --horizon only
    # parameterizes the warm-cma-rolling contestant, so the rolling
    # variant can be compared against its full-commit twin in one table.
    interval = args.interval
    if interval is None:
        interval = float(trace.metadata.get("activation_interval") or 10.0)
    recorded_horizon = trace.metadata.get("commit_horizon")
    retry = (
        RetryPolicy(
            max_attempts=args.retry_attempts,
            backoff_base=args.retry_backoff,
            seed=args.seed,
        )
        if args.retry_attempts is not None
        else None
    )
    config = ArenaConfig(
        activation_interval=interval,
        commit_horizon=None if recorded_horizon is None else float(recorded_horizon),
        activation=_activation_policy(args),
        repetitions=args.repetitions,
        seed=args.seed,
        workers=args.workers,
        retry=retry,
    )
    result = ReplayArena(trace, specs, config).run()
    print(arena_table(result))
    return 0


_TRACE_COMMANDS = {
    "generate": _command_trace_generate,
    "replay": _command_trace_replay,
}


def _service_core(
    args: argparse.Namespace, machines: Sequence[GridMachine]
) -> SchedulerCore:
    """The shared ``serve``/``loadgen`` core: the warm scheduler on *machines*.

    ``--metrics-port``/``--trace-out`` turn observability on: one shared
    :class:`~repro.obs.MetricsRegistry` is threaded through the warm
    scheduler and the core (exposed as ``core.registry``; the server's
    ``GET /metrics`` renders it), and the trace log rides on the core as
    ``core.trace_log`` (the command closes it when the run ends).
    """
    buckets = None
    if getattr(args, "latency_buckets", None):
        try:
            buckets = tuple(
                float(bound) for bound in args.latency_buckets.split(",") if bound.strip()
            )
        except ValueError:
            raise ValueError(
                f"--latency-buckets must be comma-separated numbers, "
                f"got {args.latency_buckets!r}"
            ) from None
    check_positive("--budget", args.budget)
    config = ServiceConfig(
        queue_capacity=args.capacity,
        degrade_threshold=args.degrade,
        recover_threshold=args.recover,
        activation_interval=args.interval,
        activation=ActivationPolicy.adaptive(
            backlog_threshold=args.backlog,
            min_interval=0.02,
            max_interval=args.interval,
        ),
        latency_buckets=buckets,
    )
    observed = args.metrics_port is not None or args.trace_out
    registry = MetricsRegistry() if observed else None
    trace_log = TraceLog(args.trace_out) if args.trace_out else None
    scheduler = DynamicSchedulerService(
        max_seconds=args.budget,
        max_iterations=25,
        max_stagnant_iterations=5,
        registry=registry,
    )
    return SchedulerCore(
        machines,
        scheduler,
        config,
        rng=args.seed,
        registry=registry,
        trace_log=trace_log,
    )


def _command_serve(args: argparse.Namespace) -> int:
    # serve replays nothing: its park is a generated trace's.
    trace = generate_trace(TraceConfig(nb_machines=args.machines), seed=args.seed)
    core = _service_core(args, trace.to_machines())

    async def run() -> None:
        server = SchedulerServer(
            core, host=args.host, port=args.port, metrics_port=args.metrics_port
        )
        await server.start()
        host, port = server.address
        print(f"serving on {host}:{port} (JSON line protocol; Ctrl-C to stop)")
        if server.metrics_address is not None:
            mhost, mport = server.metrics_address
            print(f"metrics on http://{mhost}:{mport}/metrics")
        if args.duration is not None:
            await asyncio.sleep(args.duration)
        else:
            await asyncio.Event().wait()  # until interrupted
        snapshot = await server.stop(drain=True)
        print(format_mapping(snapshot.as_dict(), title="final service snapshot"))

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
    finally:
        if core.trace_log is not None:
            core.trace_log.close()
    return 0


def _command_loadgen(args: argparse.Namespace) -> int:
    if args.chaos and args.connect:
        # The injector flips core.break_machine/repair_machine directly;
        # a remote server's core is out of reach by design (the protocol
        # carries work, not faults).
        raise ValueError("--chaos needs the local in-process server, not --connect")
    if args.soak:
        # Sustained soak: a multi-minute stream (REPRO_SOAK_SECONDS, kept
        # out of default CI) under the ramp-through-nominal soak profile.
        args.duration = float(os.environ.get("REPRO_SOAK_SECONDS", "180"))
        args.trace = None
        profile = LoadProfile.soak()
    else:
        profile = LoadProfile(
            shape=args.shape,
            multiplier=args.multiplier,
            base_multiplier=args.base_multiplier,
            step_at=args.step_at,
        )
    if args.trace:
        trace = load_trace(args.trace)
    else:
        trace = generate_trace(
            TraceConfig(
                family=args.family,
                duration=args.duration,
                rate=args.rate,
                nb_machines=args.machines,
            ),
            seed=args.seed,
        )

    async def run_remote(host: str, port: int):
        generator = LoadGenerator(trace, profile)
        client = await ServiceClient.connect(host, port)
        try:
            report = await generator.run(client.submit)
            snapshot = await client.metrics()
        finally:
            await client.close()
        return report, snapshot

    async def run_local():
        # The park the trace's load was drawn for.
        core = _service_core(args, trace.to_machines())
        generator = LoadGenerator(trace, profile, registry=core.registry)
        server = SchedulerServer(core, metrics_port=args.metrics_port)
        await server.start()
        if server.metrics_address is not None:
            mhost, mport = server.metrics_address
            print(f"metrics on http://{mhost}:{mport}/metrics")
        chaos_task = None
        chaos_report = None
        if args.chaos:
            injector = FaultInjector(
                core,
                mtbf=args.chaos_mtbf,
                mttr=args.chaos_mttr,
                seed=args.chaos_seed,
            )
            offsets = generator.planned_offsets()
            horizon = float(offsets[-1]) if offsets.size else 0.0
            chaos_task = asyncio.get_running_loop().create_task(
                injector.run(horizon)
            )
        try:
            report = await generator.run(server.submit)
            if chaos_task is not None:
                chaos_report = await chaos_task
                chaos_task = None
            snapshot = await server.stop(drain=not args.abort)
        finally:
            if chaos_task is not None:
                # Load run failed mid-stream: stop the injector; its own
                # cleanup repairs whatever it left broken.
                chaos_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await chaos_task
            if core.trace_log is not None:
                core.trace_log.close()
        return report, snapshot.as_dict(), chaos_report

    if args.connect:
        host, _, port = args.connect.rpartition(":")
        report, snapshot = asyncio.run(run_remote(host or "127.0.0.1", int(port)))
        chaos_report = None
    else:
        report, snapshot, chaos_report = asyncio.run(run_local())
    if chaos_report is not None:
        print(
            format_mapping(
                chaos_report.as_dict(),
                title=f"chaos: mtbf {args.chaos_mtbf:g}s, mttr "
                f"{args.chaos_mttr:g}s, seed {args.chaos_seed}",
            )
        )
        print()
    print(
        format_mapping(
            report.as_dict(),
            title=f"open-loop load: {trace.name} ({profile.shape} "
            f"x{profile.multiplier:g})",
        )
    )
    print()
    print(format_mapping(snapshot, title="service snapshot"))
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    return _TRACE_COMMANDS[args.trace_command](args)


def _command_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "summarize":
        print(summarize_trace(args.trace, limit=args.limit))
        return 0
    if args.obs_command == "timeline":
        print(timeline_report(args.trace, jobs=args.jobs))
        return 0
    if args.obs_command == "slowest":
        print(slowest_report(args.trace, top=args.top))
        return 0
    raise ValueError(f"unknown obs command {args.obs_command!r}")


_COMMANDS = {
    "solve": _command_solve,
    "heuristics": _command_heuristics,
    "tune": _command_tune,
    "table": _command_table,
    "islands": _command_islands,
    "simulate": _command_simulate,
    "trace": _command_trace,
    "serve": _command_serve,
    "loadgen": _command_loadgen,
    "obs": _command_obs,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro-scheduler`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError, TypeError, RuntimeError) as error:
        # TypeError: e.g. a non-steppable --algorithm combined with
        # migration; RuntimeError: island worker failures and timeouts;
        # OSError: missing files and refused/unreachable --connect targets.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - manual invocation
    raise SystemExit(main())
