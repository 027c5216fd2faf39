"""Micro-benchmark: evaluations/sec for the scalar vs. batch paths.

Records the throughput trajectory of the engine on the paper's 512 × 16
instance shape, one section per engine generation, so future perf PRs extend
this table instead of adding ad-hoc timers (see
``benchmarks/output/engine_throughput.txt`` after a run):

* **full evaluation** (PR 1) — evaluating a whole population from scratch:
  scalar ``Schedule`` construction vs. one vectorized ``recompute``;
* **neighborhood scan** (PR 1) — scoring all ``jobs × machines`` single-job
  moves of one schedule: per-candidate what-ifs vs. one vectorized scan, a
  one-row ``score_moves_batch`` (first recorded at ~150x);
* **grid iteration** (PR 2) — the cMA offspring pipeline: the PR-1
  scalar-grid path (one detached ``Schedule``/``Individual`` per offspring,
  scalar local-search steps, which now choose their candidates through the
  batch kernels on a one-row batch, per-offspring evaluation) vs. the
  resident-grid path
  (offspring staged into the population's scratch rows, whole-batch local
  search via ``score_moves_batch``-style kernels, one batched evaluation);
* **islands scaling** (PR 3) — a fixed total evaluation budget split across
  K ∈ {1, 2, 4} island worker processes (one full cMA engine each, ring
  migration through shared memory): wall-clock and best fitness per K.  The
  ≥ 1.5x speedup assertion at K = 4 only fires on hardware with at least 4
  usable cores — on fewer cores the numbers are still recorded, but
  process-parallel scaling is physically impossible and asserting it would
  only test the CI container, not the code;
* **dynamic scheduling** (PR 4) — a rolling-horizon grid simulation driven
  by the cold ``WarmCMAPolicy(warm=False)`` (fresh engine + seeding +
  initial local search per activation) and by the warm
  ``DynamicSchedulerService`` (persistent engine-resident population,
  plans carried between activations) at an identical per-activation budget,
  three times each, alternately: median mean/p95 scheduler seconds per
  activation and the stream makespan.  Warm must be ≥ 1.3x faster per
  activation with the stream makespan tied within 1% (the PR-4 acceptance
  bar);
* **event core at scale** (PR 6) — the same calm 10⁵-job trace simulated
  once under the periodic ``SCHEDULER_TICK`` driver and once under the
  adaptive :class:`~repro.core.config.ActivationPolicy` (backlog trigger +
  min/max-interval guard): wall-clock seconds, activation counts (total and
  idle) and the stream makespan.  Adaptive must fire ≥ 5x fewer activations
  and finish in less wall-clock at an equal (within 2%) stream makespan —
  the PR-6 acceptance bar.

Besides the rendered table, the numbers are dumped to
``benchmarks/output/BENCH_engine.json`` (section → rows) so future perf PRs
can diff the trajectory numerically instead of parsing text.

The grid-iteration section runs at the paper's 5×5 mesh and at a larger 8×8
mesh: batched kernels amortize with the offspring count, so the resident
grid pulls further ahead exactly where the scalar path hurts most.  One more
LMCTS row runs at the warm service's batch shape (51 jobs × 16 machines on
the 5×5 mesh), where the blocked critical-swap kernel must beat the scalar
pipeline.  The quantitative assertion — at least one recorded 512-job grid
configuration reaches a 5x speedup — pins the resident grid's acceptance
criterion; the qualitative assertions guard against regressions that
silently fall back to scalar paths.
"""

from __future__ import annotations

import math
import os

import numpy as np

from repro.core.config import ActivationPolicy, CMAConfig, IslandConfig, TraceConfig
from repro.core.individual import Individual
from repro.core.local_search import get_local_search
from repro.core.termination import TerminationCriteria
from repro.engine import BatchEvaluator
from repro.experiments.runner import cma_spec
from repro.grid import GridSimulator, SimulationConfig, WarmCMAPolicy
from repro.grid.scheduler import HeuristicBatchPolicy
from repro.islands import IslandModel
from repro.model.benchmark import generate_braun_like_instance
from repro.traces import generate_trace
from repro.utils.timer import Stopwatch
from repro.model.fitness import FitnessEvaluator
from repro.model.schedule import Schedule

NB_JOBS = 512
NB_MACHINES = 16
POP = 64

#: Total evaluation budget split across the islands of each scaling row.
ISLAND_TOTAL_EVALUATIONS = 3_000
#: Island counts of the scaling table (one worker process per island).
ISLAND_COUNTS = (1, 2, 4)

#: Dynamic-scheduling scenario: Poisson stream on a static park, scheduled
#: under a rolling commit horizon so consecutive activations overlap.
DYNAMIC_SEED = 2007
DYNAMIC_RATE = 2.0
DYNAMIC_DURATION = 30.0
DYNAMIC_MACHINES = 12
DYNAMIC_INTERVAL = 15.0
#: Identical per-activation budget for the cold policy and the warm service.
DYNAMIC_BUDGET = dict(max_seconds=5.0, max_iterations=15, max_stagnant_iterations=4)
#: Simulations per policy, run cold/warm alternately so host noise hits both
#: alike; the gate compares the medians of their per-activation seconds.
DYNAMIC_REPETITIONS = 3

#: Event-core scenario: a calm 10^5-job stream (10^6 at paper scale) on a
#: static 16-machine park, scheduled by MCT so the measurement isolates the
#: simulator core instead of the scheduling policy.
_EVENT_SCALE = os.environ.get("REPRO_BENCH_SCALE", "laptop").lower()
EVENT_TRACE = TraceConfig(
    family="calm",
    duration=50_000.0 if _EVENT_SCALE == "paper" else 10_000.0,
    rate=20.0 if _EVENT_SCALE == "paper" else 10.0,
    nb_machines=16,
    job_heterogeneity="lo",
)
EVENT_SEED = 9
EVENT_INTERVAL = 1.0
#: Adaptive driver of the comparison: fire on a 256-job backlog (or a
#: membership change), at most once per simulated second, at least every 60.
EVENT_ADAPTIVE = ActivationPolicy.adaptive(
    backlog_threshold=256, min_interval=1.0, max_interval=60.0
)

#: Jobs of the warm-batch grid-iteration row: the largest batch the
#: ``warm_replay`` workload of ``perfbench`` solves (19 jobs at the median).
WARM_BATCH_JOBS = 51

#: Grid-iteration configurations: (mesh label, cells, local search, jobs).
GRID_CASES = [
    ("5x5", 25, "slm", NB_JOBS),
    ("5x5", 25, "gsm", NB_JOBS),
    ("5x5", 25, "lmcts", NB_JOBS),
    ("8x8", 64, "slm", NB_JOBS),
    ("8x8", 64, "lm", NB_JOBS),
    ("8x8", 64, "gsm", NB_JOBS),
    ("5x5", 25, "lmcts", WARM_BATCH_JOBS),
]


def _timed(function, *args, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock seconds for one call."""
    best = float("inf")
    stopwatch = Stopwatch()
    for _ in range(repeats):
        stopwatch.restart()
        function(*args)
        best = min(best, stopwatch.elapsed)
    return best


def _time_grid_iteration(instance, cells: int, local_search: str) -> tuple[float, float]:
    """Seconds for one grid iteration's offspring pipeline, scalar vs. resident.

    Both paths push ``cells`` offspring (the same crossover children) through
    ``local_search`` and evaluation.  The scalar path is the PR-1 cMA
    pipeline: one detached ``Schedule`` + ``Individual`` per offspring,
    scalar local-search steps (each choosing its candidate through the batch
    scan kernels on a one-row batch), one counted evaluation each.  The resident
    path stages the whole offspring batch into the grid's scratch rows and
    improves/evaluates it with vectorized whole-batch passes.
    """
    evaluator = FitnessEvaluator(0.75)
    search = get_local_search(local_search, iterations=5)
    population = BatchEvaluator.random(instance, cells, rng=1)
    children = BatchEvaluator.random(instance, cells, rng=2).assignments.copy()

    def scalar_grid_iteration():
        rng = np.random.default_rng(5)
        for row in range(cells):
            offspring = Individual(Schedule(instance, children[row]))
            search.improve(offspring.schedule, evaluator, rng)
            offspring.evaluate(evaluator)

    resident = population.expanded(cells)
    rows = cells + np.arange(cells)

    def resident_grid_iteration():
        rng = np.random.default_rng(5)
        resident.set_rows(rows, children)
        search.improve_batch(resident, rows, evaluator, rng)
        evaluator.scalarize_batch(resident.makespans(rows), resident.mean_flowtimes(rows))
        evaluator.add_evaluations(cells)

    return _timed(scalar_grid_iteration), _timed(resident_grid_iteration)


def _time_islands(instance, nb_islands: int) -> tuple[float, float, int]:
    """(wall seconds, best fitness, total evaluations) for one scaling row.

    The fixed total budget is split evenly across the islands, so more
    workers mean less sequential work per process: on a machine with enough
    cores the wall-clock falls roughly linearly with K while the combined
    best stays comparable (migration re-links the smaller populations).
    """
    per_island = ISLAND_TOTAL_EVALUATIONS // nb_islands
    config = IslandConfig(
        nb_islands=nb_islands,
        topology="ring",
        migration_interval=max(per_island // 4, 1),
        nb_emigrants=1,
        workers=nb_islands,
        worker_timeout=600.0,
    )
    termination = TerminationCriteria(
        max_seconds=math.inf, max_evaluations=per_island
    )
    model = IslandModel(
        instance, cma_spec(CMAConfig.paper_defaults()), config, termination, rng=2007
    )
    stopwatch = Stopwatch()
    result = model.run()
    elapsed = stopwatch.elapsed
    return elapsed, float(result.best_fitness), int(result.evaluations)


def _time_dynamic_scheduling() -> dict[str, dict[str, float]]:
    """Per-activation scheduler cost of the cold policy vs. the warm service.

    Both policies schedule the *same* job stream on the *same* machine park
    under the same rolling-horizon simulation and the same per-activation
    budget (iteration cap + stagnation stop); the only difference is the
    cold start.  The simulator reports per-activation wall seconds, so the
    simulation itself is the measurement harness.  Each policy runs
    ``DYNAMIC_REPETITIONS`` times, alternating with the other, and reports
    the median of its runs' timings.
    """
    trace = generate_trace(
        TraceConfig(
            duration=DYNAMIC_DURATION, rate=DYNAMIC_RATE, nb_machines=DYNAMIC_MACHINES
        ),
        seed=DYNAMIC_SEED,
    )
    config = SimulationConfig(
        activation_interval=DYNAMIC_INTERVAL, commit_horizon=DYNAMIC_INTERVAL
    )
    runs: dict[str, list] = {"cold": [], "warm": []}
    for _ in range(DYNAMIC_REPETITIONS):
        for name, warm in (("cold", False), ("warm", True)):
            policy = WarmCMAPolicy(warm=warm, **DYNAMIC_BUDGET)
            runs[name].append(
                GridSimulator.from_trace(trace, policy, config, rng=DYNAMIC_SEED).run()
            )
    results: dict[str, dict[str, float]] = {}
    for name, repeats in runs.items():
        # The iteration budget binds, not the wall clock: every repetition
        # must plan the same stream, so only the timings may differ.
        assert len({metrics.makespan for metrics in repeats}) == 1, name
        assert len({metrics.completed_jobs for metrics in repeats}) == 1, name
        results[name] = {
            "mean_scheduler_seconds": float(
                np.median([metrics.mean_scheduler_seconds for metrics in repeats])
            ),
            "p95_scheduler_seconds": float(
                np.median([metrics.p95_scheduler_seconds for metrics in repeats])
            ),
            "stream_makespan": repeats[0].makespan,
            "activations": float(repeats[0].nb_activations),
            "completed_jobs": float(repeats[0].completed_jobs),
        }
    return results


def _time_event_core() -> dict[str, dict[str, float]]:
    """Wall-clock and activation counts of the two activation drivers.

    One calm high-volume trace, one cheap policy (MCT), one simulation per
    driver.  The periodic driver ticks every ``EVENT_INTERVAL`` simulated
    seconds whether or not anything arrived; the adaptive driver fires on a
    pending backlog / membership change under a min-interval guard, with a
    max-interval fallback.  The stream is work-dominated (utilization ~1),
    so both drivers must land on near-identical stream makespans — the
    activation count and the wall-clock are where they differ.  Ingest is
    timed too: generating the trace, and ``from_trace`` per driver.
    """
    stopwatch = Stopwatch()
    trace = generate_trace(EVENT_TRACE, seed=EVENT_SEED)
    generate_seconds = stopwatch.elapsed
    results: dict[str, dict[str, float]] = {}
    for name, activation in (("periodic", None), ("adaptive", EVENT_ADAPTIVE)):
        config = SimulationConfig(
            activation_interval=EVENT_INTERVAL,
            max_activations=10_000_000,
            activation=activation,
        )
        stopwatch = Stopwatch()
        simulator = GridSimulator.from_trace(
            trace, HeuristicBatchPolicy("mct"), config, rng=EVENT_SEED
        )
        from_trace_seconds = stopwatch.elapsed
        stopwatch = Stopwatch()
        metrics = simulator.run()
        elapsed = stopwatch.elapsed
        results[name] = {
            "from_trace_seconds": from_trace_seconds,
            "wall_seconds": elapsed,
            "activations": float(metrics.nb_activations),
            "idle_activations": float(metrics.nb_idle_activations),
            "stream_makespan": metrics.makespan,
            "completed_jobs": float(metrics.completed_jobs),
        }
    results["jobs"] = {"count": float(trace.nb_jobs), "generate_seconds": generate_seconds}
    return results


def test_engine_throughput(record_output, record_json):
    instance = generate_braun_like_instance(
        "u_i_hihi.0", rng=7, nb_jobs=NB_JOBS, nb_machines=NB_MACHINES
    )
    batch = BatchEvaluator.random(instance, POP, rng=1)

    # --- full evaluation: POP schedules from scratch --------------------- #
    def scalar_evaluate():
        # Both objectives, as the batch side computes them (a Schedule
        # fills its flowtimes on first read).
        for row in batch.assignments:
            schedule = Schedule(instance, row)
            schedule.makespan, schedule.flowtime

    def batch_evaluate():
        batch.recompute()
        batch.fitnesses()

    scalar_eval_s = _timed(scalar_evaluate)
    batch_eval_s = _timed(batch_evaluate)

    # --- neighborhood scan: all jobs × machines moves of one schedule ---- #
    schedule = Schedule(instance, batch.assignments[0])

    def scalar_scan():
        for job in range(NB_JOBS):
            for machine in range(NB_MACHINES):
                schedule.makespan_if_moved(job, machine)

    def vectorized_scan():
        batch.score_moves_batch([0])

    scalar_scan_s = _timed(scalar_scan)
    vector_scan_s = _timed(vectorized_scan)

    # --- grid iteration: offspring batch through local search ------------ #
    warm_batch = generate_braun_like_instance(
        "u_i_hihi.0", rng=7, nb_jobs=WARM_BATCH_JOBS, nb_machines=NB_MACHINES
    )
    grid_rows = []
    for mesh, cells, local_search, jobs in GRID_CASES:
        scalar_s, resident_s = _time_grid_iteration(
            instance if jobs == NB_JOBS else warm_batch, cells, local_search
        )
        grid_rows.append((mesh, cells, local_search, jobs, scalar_s, resident_s))

    # --- islands scaling: fixed total budget across K worker processes --- #
    island_rows = []
    for nb_islands in ISLAND_COUNTS:
        elapsed, fitness, evaluations = _time_islands(instance, nb_islands)
        island_rows.append((nb_islands, elapsed, fitness, evaluations))
    cores = os.cpu_count() or 1

    # --- dynamic scheduling: cold policy vs. warm service ----------------- #
    dynamic = _time_dynamic_scheduling()
    warm_speedup = (
        dynamic["cold"]["mean_scheduler_seconds"]
        / dynamic["warm"]["mean_scheduler_seconds"]
    )

    # --- event core at scale: periodic vs. adaptive activation ------------ #
    event_core = _time_event_core()
    activation_ratio = (
        (
            event_core["periodic"]["activations"]
            + event_core["periodic"]["idle_activations"]
        )
        / max(
            event_core["adaptive"]["activations"]
            + event_core["adaptive"]["idle_activations"],
            1.0,
        )
    )
    event_wall_speedup = (
        event_core["periodic"]["wall_seconds"]
        / event_core["adaptive"]["wall_seconds"]
    )

    moves = NB_JOBS * NB_MACHINES
    lines = [
        f"instance: {NB_JOBS} jobs x {NB_MACHINES} machines, population {POP}",
        "",
        "full evaluation (schedules/sec):",
        f"  scalar Schedule   : {POP / scalar_eval_s:12.0f}",
        f"  BatchEvaluator    : {POP / batch_eval_s:12.0f}  ({scalar_eval_s / batch_eval_s:.1f}x)",
        "",
        "neighborhood scan (move evaluations/sec):",
        f"  scalar what-ifs   : {moves / scalar_scan_s:12.0f}",
        f"  vectorized scan   : {moves / vector_scan_s:12.0f}  ({scalar_scan_s / vector_scan_s:.1f}x)",
        "",
        "grid iteration (offspring evaluations/sec, 5 local-search steps each):",
    ]
    for mesh, cells, local_search, jobs, scalar_s, resident_s in grid_rows:
        lines.append(
            f"  {mesh} {local_search:6s} {jobs:3d} jobs: scalar-grid {cells / scalar_s:9.0f}"
            f"  resident-grid {cells / resident_s:9.0f}"
            f"  ({scalar_s / resident_s:.1f}x)"
        )
    base_elapsed = island_rows[0][1]
    lines += [
        "",
        f"islands scaling ({ISLAND_TOTAL_EVALUATIONS} total evaluations, "
        f"ring migration, one process per island, {cores} cores):",
    ]
    for nb_islands, elapsed, fitness, evaluations in island_rows:
        lines.append(
            f"  K={nb_islands}: wall {elapsed:7.2f}s"
            f"  best fitness {fitness:14.1f}"
            f"  evaluations {evaluations:6d}"
            f"  (speedup {base_elapsed / elapsed:.2f}x)"
        )
    lines += [
        "",
        f"dynamic scheduling (calm trace, {DYNAMIC_RATE}/s for {DYNAMIC_DURATION:.0f}s, "
        f"{DYNAMIC_MACHINES} machines, rolling horizon {DYNAMIC_INTERVAL:.0f}s, "
        f"equal per-activation budget, median of {DYNAMIC_REPETITIONS} runs):",
    ]
    for name in ("cold", "warm"):
        row = dynamic[name]
        lines.append(
            f"  {name} policy: {row['mean_scheduler_seconds'] * 1e3:8.2f} ms/activation mean"
            f"  p95 {row['p95_scheduler_seconds'] * 1e3:8.2f} ms"
            f"  stream makespan {row['stream_makespan']:10.1f}"
            f"  ({row['activations']:.0f} activations)"
        )
    lines.append(f"  warm-vs-cold per-activation speedup: {warm_speedup:.2f}x")
    lines += [
        "",
        f"event core at scale ({event_core['jobs']['count']:.0f}-job calm trace, "
        f"{EVENT_TRACE.nb_machines} machines, MCT policy, "
        f"periodic interval {EVENT_INTERVAL:.0f}s vs adaptive backlog "
        f"{EVENT_ADAPTIVE.backlog_threshold}):",
        f"  trace generated in {event_core['jobs']['generate_seconds']:.3f}s",
    ]
    for name in ("periodic", "adaptive"):
        row = event_core[name]
        lines.append(
            f"  {name:8s}: from_trace {row['from_trace_seconds']:6.3f}s"
            f"  wall {row['wall_seconds']:7.2f}s"
            f"  activations {row['activations']:8.0f}"
            f"  (+{row['idle_activations']:.0f} idle)"
            f"  stream makespan {row['stream_makespan']:14.1f}"
        )
    lines.append(
        f"  adaptive fires {activation_ratio:.1f}x fewer activations, "
        f"{event_wall_speedup:.2f}x less wall-clock"
    )
    text = "\n".join(lines)
    record_output("engine_throughput", text)
    record_json(
        "BENCH_engine",
        {
            "instance": {"jobs": NB_JOBS, "machines": NB_MACHINES, "population": POP},
            "sections": {
                "full_evaluation": {
                    "scalar_schedules_per_s": POP / scalar_eval_s,
                    "batch_schedules_per_s": POP / batch_eval_s,
                    "speedup": scalar_eval_s / batch_eval_s,
                },
                "neighborhood_scan": {
                    "scalar_moves_per_s": moves / scalar_scan_s,
                    "vectorized_moves_per_s": moves / vector_scan_s,
                    "speedup": scalar_scan_s / vector_scan_s,
                },
                "grid_iteration": [
                    {
                        "mesh": mesh,
                        "cells": cells,
                        "local_search": local_search,
                        "jobs": jobs,
                        "scalar_offspring_per_s": cells / scalar_s,
                        "resident_offspring_per_s": cells / resident_s,
                        "speedup": scalar_s / resident_s,
                    }
                    for mesh, cells, local_search, jobs, scalar_s, resident_s in grid_rows
                ],
                "islands_scaling": [
                    {
                        "islands": nb_islands,
                        "wall_seconds": elapsed,
                        "best_fitness": fitness,
                        "evaluations": evaluations,
                        "speedup": base_elapsed / elapsed,
                    }
                    for nb_islands, elapsed, fitness, evaluations in island_rows
                ],
                "dynamic_scheduling": {
                    "cold": dynamic["cold"],
                    "warm": dynamic["warm"],
                    "speedup": warm_speedup,
                },
                "event_core": {
                    "jobs": event_core["jobs"]["count"],
                    "generate_seconds": event_core["jobs"]["generate_seconds"],
                    "machines": EVENT_TRACE.nb_machines,
                    "activation_interval": EVENT_INTERVAL,
                    "backlog_threshold": EVENT_ADAPTIVE.backlog_threshold,
                    "periodic": event_core["periodic"],
                    "adaptive": event_core["adaptive"],
                    "activation_ratio": activation_ratio,
                    "wall_speedup": event_wall_speedup,
                },
            },
            "cores": cores,
        },
    )
    print()
    print(text)

    # The engine must beat the scalar paths on the paper-scale shape.
    assert vector_scan_s < scalar_scan_s
    assert batch_eval_s < scalar_eval_s
    # The resident grid must beat the PR-1 scalar-grid offspring pipeline on
    # the move-based searches (the 512-job lmcts row is recorded but not
    # asserted: there the blocked pair scan scores one row per block, and
    # its resident advantage, 1.1-1.7x on a 2-core box against 0.8-1.0x
    # for the per-row loop it replaced, is a thin margin CI load could
    # invert)...
    speedups = {
        (mesh, ls, jobs): scalar_s / resident_s
        for mesh, _, ls, jobs, scalar_s, resident_s in grid_rows
    }
    assert all(s > 1.0 for (_, ls, _), s in speedups.items() if ls != "lmcts")
    # ...and LMCTS must win at the warm service's batch shape, where the
    # blocked kernel scores every offspring row in one block...
    assert speedups[("5x5", "lmcts", WARM_BATCH_JOBS)] > 1.0
    # ...and by >= 5x where batching amortizes best (PR-2 acceptance bar).
    assert max(s for (_, _, jobs), s in speedups.items() if jobs == NB_JOBS) >= 5.0
    # Every islands row must complete its share of the fixed budget and
    # produce a finite best.
    for nb_islands, _, fitness, evaluations in island_rows:
        assert np.isfinite(fitness)
        assert evaluations >= (ISLAND_TOTAL_EVALUATIONS // nb_islands) * nb_islands * 0.9
    # Process-parallel wall-clock scaling (PR-3 acceptance bar): >= 1.5x at
    # K=4 for the fixed budget — only assertable where 4 cores exist.
    if cores >= 4:
        k4_elapsed = dict((k, e) for k, e, _, _ in island_rows)[4]
        assert base_elapsed / k4_elapsed >= 1.5
    # Dynamic scheduling (PR-4 acceptance bar): at an equal per-activation
    # budget the warm service must be no slower per activation — >= 1.3x
    # faster in fact, on the medians of the alternating runs — with the
    # stream makespan tied within 1%.
    assert (
        dynamic["warm"]["mean_scheduler_seconds"]
        <= dynamic["cold"]["mean_scheduler_seconds"]
    )
    assert warm_speedup >= 1.3
    assert (
        dynamic["warm"]["stream_makespan"]
        <= dynamic["cold"]["stream_makespan"] * 1.01
    )
    # Both policies must finish the same stream.
    assert dynamic["warm"]["completed_jobs"] == dynamic["cold"]["completed_jobs"]
    # Event core (PR-6 acceptance bar): both drivers complete the whole
    # stream; adaptive fires >= 5x fewer activations and costs less
    # wall-clock at an equal (within 2%) stream makespan.
    assert (
        event_core["periodic"]["completed_jobs"]
        == event_core["adaptive"]["completed_jobs"]
        == event_core["jobs"]["count"]
    )
    assert activation_ratio >= 5.0
    assert (
        event_core["adaptive"]["wall_seconds"]
        < event_core["periodic"]["wall_seconds"]
    )
    assert event_core["adaptive"]["stream_makespan"] <= (
        event_core["periodic"]["stream_makespan"] * 1.02
    )
