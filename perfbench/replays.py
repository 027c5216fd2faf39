"""The two replay workloads: ``warm_replay`` and ``event_core``.

Both replay synthetic traces through :class:`repro.grid.simulator.
GridSimulator` as a library user would: generate the trace, build the policy
and the simulator, ``run()``.  Every cMA budget is an iteration count
(``max_seconds=inf``), so all repetitions of one seed do identical solver
work and only the box's speed varies.  The untraced run samples that speed
(:class:`common.BoxSpeed`) and reports its timings calibrated by it.
"""

from __future__ import annotations

import gc
import json
import math
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from common import (OUT, BoxSpeed, Metric, median, peak_rss_mb, percentile, source_sha,
                    timing_note)
from spans import Recorder, install

from repro.core.config import ActivationPolicy, RetryPolicy, TraceConfig
from repro.grid.events import EventType
from repro.grid.scheduler import BatchSchedulingPolicy, HeuristicBatchPolicy
from repro.grid.service import WarmCMAPolicy
from repro.grid.simulator import GridSimulator, SimulationConfig
from repro.obs.metrics import MetricsRegistry
from repro.traces.generators import generate_trace


@dataclass(frozen=True)
class ReplaySpec:
    trace: TraceConfig
    simulation: SimulationConfig
    #: Warm cMA iterations per activation; ``None`` replays with MCT.
    iterations: int | None
    #: Distinct traces a run replays, drawn from seeds ``1000 * seed + k``.
    #: Quality and cost per job vary with each trace's park and flashes;
    #: summing over many traces keeps one seed's figures near another's.
    traces: int
    #: Times a run sets its whole input up; ``setup_s`` is their median.
    setup_rounds: int


def replay_spec(workload: str, tiny: bool) -> ReplaySpec:
    if workload == "warm_replay":
        # Flash crowds on a 16-machine park with churn: lo job sizes, hi
        # machine heterogeneity and per-pair affinity noise (inconsistent
        # ETC).  0.74 jobs/s offers rho~0.7 of the park's expected capacity,
        # flashes included; a fixed rate (not one scaled to each trace's
        # park) keeps batch sizes, hence cost per job, comparable across
        # traces.  One 150-s trace is ~165 jobs in ~8 activations.
        return ReplaySpec(
            trace=TraceConfig(
                family="flash_crowd",
                duration=150.0,
                rate=0.74,
                nb_machines=16,
                job_heterogeneity="lo",
                machine_heterogeneity="hi",
                affinity_spread=0.5,
                churn_fraction=0.25,
            ),
            simulation=SimulationConfig(
                activation_interval=20.0, commit_horizon=10.0, max_activations=100_000
            ),
            iterations=3 if tiny else 15,
            traces=2 if tiny else 16,
            setup_rounds=15,
        )
    if workload == "event_core":
        # ~10^5 Poisson jobs on 128 machines at rho~0.8 with MTBF/MTTR
        # breakdowns: every TASK_END drains, and revocations exercise the
        # bounded retry path.
        duration = 3_000.0 if tiny else 300_000.0
        return ReplaySpec(
            trace=TraceConfig(
                family="flaky",
                duration=duration,
                rate=0.34,
                nb_machines=128,
                extra={"mtbf": 150_000.0, "mttr": 15_000.0},
            ),
            simulation=SimulationConfig(
                activation_interval=duration / 200.0,
                activation=ActivationPolicy.adaptive(backlog_threshold=256),
                retry=RetryPolicy(max_attempts=3, backoff_base=1.0),
                max_activations=100_000,
            ),
            iterations=None,
            traces=1,
            setup_rounds=5,
        )
    raise ValueError(f"unknown replay workload {workload!r}")


def trace_seeds(spec: ReplaySpec, seed: int) -> list[int]:
    return [1000 * seed + k for k in range(spec.traces)]


def _policy(spec: ReplaySpec) -> BatchSchedulingPolicy:
    if spec.iterations is None:
        return HeuristicBatchPolicy("mct")
    return WarmCMAPolicy(max_seconds=math.inf, max_iterations=spec.iterations)


class TracedPolicy(BatchSchedulingPolicy):
    """Delegates to a policy, recording each solve as a span.

    The activation ordinal becomes the correlation id of every span opened
    during the solve.
    """

    def __init__(self, inner: BatchSchedulingPolicy, recorder: Recorder) -> None:
        self.inner = inner
        self.name = inner.name
        self._recorder = recorder
        self._ordinal = 0

    def schedule(self, instance, rng=None):
        self._ordinal += 1
        self._recorder.corr = self._ordinal
        try:
            with self._recorder.span("grid.solve"):
                return self.inner.schedule(instance, rng)
        finally:
            self._recorder.corr = 0

    @property
    def last_phases(self):
        return getattr(self.inner, "last_phases", None)


@dataclass
class Rep:
    """One replay: its set-up and ``run()`` seconds and its results."""

    setup_s: float
    run_s: float
    policy: BatchSchedulingPolicy
    metrics: object
    #: Clock readings around set-up and ``run()``.
    setup_at: tuple[float, float]
    run_at: tuple[float, float]


def _setup(spec, seed, recorder=None, registry=None, clock=perf_counter):
    """Trace generation, policy construction and ``from_trace``, and when they ran."""
    span = recorder.span if recorder is not None else lambda name: nullcontext()
    start = clock()
    with span("traces.generate_trace"):
        trace = generate_trace(spec.trace, seed)
    policy = _policy(spec)
    if recorder is not None:
        policy = TracedPolicy(policy, recorder)
    with span("grid.from_trace"):
        simulator = GridSimulator.from_trace(
            trace, policy, spec.simulation, rng=seed, registry=registry
        )
    return simulator, policy, (start, clock())


def run_rep(spec: ReplaySpec, seed: int, recorder: Recorder | None = None,
            registry: MetricsRegistry | None = None, clock=perf_counter) -> Rep:
    gc.collect()
    root = recorder.span("bench.rep") if recorder is not None else nullcontext()
    with root:
        simulator, policy, setup_at = _setup(spec, seed, recorder, registry, clock)
        run = recorder.span("grid.run") if recorder is not None else nullcontext()
        with run:
            start = clock()
            metrics = simulator.run()
            run_at = (start, clock())
    return Rep(setup_at[1] - setup_at[0], run_at[1] - run_at[0], policy, metrics,
               setup_at, run_at)


def planned_latency(metrics, arrivals: np.ndarray) -> np.ndarray:
    """Simulated seconds from each job's arrival to the activation that first planned it.

    Every recorded activation plans all pending jobs, so a job is first
    planned by the first activation at or after its arrival.
    """
    times = np.array([activation.time for activation in metrics.activations])
    first = np.searchsorted(times, arrivals, side="left")
    if first.size and first.max() >= times.size:
        raise RuntimeError("a job arrived after the last activation")
    return times[first] - arrivals


def _quality(metrics) -> tuple[float, float]:
    return (metrics.makespan, metrics.total_flowtime)


def _check_pin(key: str, quality: list[tuple[float, float]], problems: list[str]) -> None:
    """Quality must repeat bit for bit across runs of one seed and one program."""
    path = OUT / "quality" / f"{key}-{source_sha()}.json"
    if path.is_file():
        pinned = [tuple(pair) for pair in json.loads(path.read_text())]
        if pinned != quality:
            problems.append(f"quality {quality} differs from an earlier run's {pinned}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(quality))


def _check_rep(rep: Rep, problems: list[str]) -> None:
    m = rep.metrics
    if m.completed_jobs + m.failed_jobs + m.cancelled_jobs != m.nb_jobs:
        problems.append(
            f"{m.nb_jobs} jobs submitted but {m.completed_jobs} completed, "
            f"{m.failed_jobs} dropped, {m.cancelled_jobs} cancelled"
        )


def _replay_all(spec: ReplaySpec, seeds: list[int], seconds: float, problems: list[str],
                clock):
    """Replays every trace once, then cycles until ``seconds`` and one repeat.

    The repeat is the in-run determinism check: a replay of the same trace
    must reach the same schedule.
    """
    reps: list[tuple[int, Rep]] = []
    start = perf_counter()
    while len(reps) <= len(seeds) or perf_counter() - start < seconds:
        seed = seeds[len(reps) % len(seeds)]
        rep = run_rep(spec, seed, clock=clock)
        _check_rep(rep, problems)
        reps.append((seed, rep))
    for seed, rep in reps[len(seeds):]:
        first = reps[seeds.index(seed)][1]
        if _quality(rep.metrics) != _quality(first.metrics):
            problems.append(
                f"trace {seed} replayed to {_quality(rep.metrics)}, "
                f"first to {_quality(first.metrics)}"
            )
    return reps


def _setup_rounds(spec: ReplaySpec, seeds: list[int], reps, clock):
    """Set-up seconds of the whole input (every trace), ``setup_rounds`` times.

    Also returns when every set-up ran.
    """
    passes = [reps[i: i + len(seeds)] for i in range(0, len(reps) - len(seeds) + 1, len(seeds))]
    rounds = [sum(rep.setup_s for _, rep in done) for done in passes]
    windows = [rep.setup_at for _, rep in reps]
    while len(rounds) < spec.setup_rounds:
        setup = 0.0
        for seed in seeds:
            gc.collect()
            simulator, _, (start, end) = _setup(spec, seed, clock=clock)
            setup += end - start
            windows.append((start, end))
            del simulator
        rounds.append(setup)
    return rounds, windows


def measure(workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    """The untraced run: end-to-end metrics plus the outcome of every check.

    Its timings are calibrated to the nominal box: set-up and ``run()``
    seconds are scaled by the box's speed sampled during set-ups and during
    ``run()`` calls respectively.
    """
    spec = replay_spec(workload, tiny)
    seeds = trace_seeds(spec, seed)
    problems: list[str] = []
    with BoxSpeed() as box:
        reps = _replay_all(spec, seeds, seconds, problems, box.now)
        wall_setups, setup_windows = _setup_rounds(spec, seeds, reps, box.now)
    setup_speed, setup_probes = box.speed(setup_windows)
    run_speed, run_probes = box.speed([rep.run_at for _, rep in reps])
    setups = [setup_s * setup_speed for setup_s in wall_setups]
    first = [rep.metrics for _, rep in reps[: len(seeds)]]
    traces = [generate_trace(spec.trace, s) for s in seeds]
    if spec.iterations is None:
        reference = first  # the workload replays MCT itself
    else:
        reference = [
            GridSimulator.from_trace(
                trace, HeuristicBatchPolicy("mct"), spec.simulation, rng=s
            ).run()
            for trace, s in zip(traces, seeds)
        ]
    _check_pin(f"{workload}-{'tiny' if tiny else 'full'}-seed{seed}",
               [_quality(m) for m in first], problems)

    planned = np.concatenate([
        planned_latency(m, trace.job_arrivals) for m, trace in zip(first, traces)
    ]) * 1e3
    completed = sum(rep.metrics.completed_jobs for _, rep in reps)
    wall_run_s = sum(rep.run_s for _, rep in reps)
    run_s = wall_run_s * run_speed
    # A replay hands its whole trace over at once, so no submission waits:
    # what each submitted job costs is its share of run().  Pooling each
    # trace's replays first keeps the traces equally weighted however many
    # repeats fitted in the run.
    submit = [
        sum(rep.run_s for s, rep in reps if s == trace_seed) * run_speed * 1e3
        / sum(rep.metrics.nb_jobs for s, rep in reps if s == trace_seed)
        for trace_seed in seeds
    ]
    attempted = sum(rep.metrics.nb_jobs for _, rep in reps)
    failed = attempted - completed
    makespan = sum(m.makespan for m in first) / sum(m.makespan for m in reference)
    flowtime = sum(m.total_flowtime for m in first) / sum(m.total_flowtime for m in reference)
    reference_note = "MCT is the workload's own policy" if reference is first else "vs MCT replays"
    metrics = [
        Metric("setup_s", median(setups), "s",
               f"median of {len(setups)} set-ups of {len(seeds)} trace(s); "
               f"wall {median(wall_setups):.4g} s at box speed {setup_speed:.3f} "
               f"(n={setup_probes} probes)"),
        Metric("peak_rss_mb", peak_rss_mb(), "MB", "this process"),
        Metric("jobs_per_s", completed / run_s, "jobs/s",
               f"{completed} jobs over {len(reps)} replays of {len(seeds)} trace(s); "
               f"wall {completed / wall_run_s:.6g} jobs/s at box speed {run_speed:.3f} "
               f"(n={run_probes} probes)"),
        Metric("makespan_vs_mct", makespan, "ratio",
               f"summed over {len(seeds)} trace(s), {reference_note}"),
        Metric("flowtime_vs_mct", flowtime, "ratio",
               f"summed over {len(seeds)} trace(s), {reference_note}"),
        Metric("planned_p50_ms", percentile(planned, 50), "ms",
               "simulated arrival->planned, " + timing_note(planned, 50)),
        Metric("planned_p99_ms", percentile(planned, 99), "ms",
               "simulated arrival->planned, " + timing_note(planned, 99)),
        Metric("submit_p50_ms", median(submit), "ms",
               f"run() ms per submitted job, median of {len(submit)} trace(s)"),
        Metric("failed_frac", failed / attempted, "ratio", f"{failed} of {attempted}"),
    ]
    units = [(seed, rep.metrics.completed_jobs, rep.run_s, rep.setup_s) for seed, rep in reps]
    box_record = {"setup_speed": setup_speed, "run_speed": run_speed,
                  "probes": len(box.samples), "probe_s": box.probe_s}
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "problems": problems,
            "units": units, "box": box_record}


def _outer(recorder: Recorder, name: str) -> list:
    """Spans named *name* inside no other span of that name (nested calls count once)."""

    def nested(span) -> bool:
        parent = span.parent
        while parent is not None and parent.name != name:
            parent = parent.parent
        return parent is not None

    return [span for span in recorder.named(name) if not nested(span)]


def solver_layers(recorder: Recorder, stats, improving_steps: int) -> dict[str, float]:
    """Per-layer figures of the warm service, cMA, engine and heuristics."""
    steps = recorder.named("core.step")
    scans = _outer(recorder, "engine.scan")
    builds = _outer(recorder, "heuristics.build_schedule")
    layers = {
        "heuristics.calls": len(builds),
        "heuristics.build_s": sum(s.duration for s in builds),
        "grid.etc_build_s": recorder.total("grid.execution_times_matrix"),
        "core.starts": len(recorder.named("core.start")),
        "core.start_s": recorder.total("core.start"),
        "core.iterations": len(steps),
        "core.step_s": sum(s.duration for s in steps),
        "core.step_self_s": sum(s.self_s for s in steps),
        "core.improving_step_frac": improving_steps / len(steps) if steps else 0.0,
        "engine.improve_batch_calls": len(recorder.named("engine.improve_batch")),
        "engine.improve_batch_s": recorder.total("engine.improve_batch"),
        "engine.scan_calls": len(scans),
        "engine.scan_s": sum(s.duration for s in scans),
        "engine.recompute_s": sum(s.duration for s in _outer(recorder, "engine.recompute")),
    }
    if stats is not None:
        planned = stats.carried_jobs + stats.filled_jobs + stats.degenerate_jobs
        layers.update({
            "grid.warm_remap_s": recorder.total("grid.warm_assignment"),
            "grid.carried_frac": stats.carried_jobs / planned if planned else 0.0,
            "grid.reallocations": stats.capacity_reallocations,
            "engine.evaluations": stats.evaluations,
        })
    for module, seconds in recorder.module_self_seconds().items():
        layers[f"self.{module}_s"] = seconds
    return layers


def _traced_rep(spec: ReplaySpec, seed: int) -> tuple[Rep, dict[str, float], Recorder]:
    """One replay with every layer boundary wrapped; its per-layer figures."""
    recorder = Recorder()
    improving = [0]

    def on_step(span, improved):
        improving[0] += bool(improved)

    registry = MetricsRegistry()
    install(recorder, on_step=on_step)
    try:
        rep = run_rep(spec, seed, recorder, registry)
    finally:
        recorder.unpatch()
    m = rep.metrics
    inner = rep.policy.inner
    stats = inner.service.stats if isinstance(inner, WarmCMAPolicy) else None
    layers = solver_layers(recorder, stats, improving[0])
    (root,) = recorder.named("bench.rep")
    (run,) = recorder.named("grid.run")
    solves = [s.duration * 1e3 for s in recorder.named("grid.solve")]
    batches = [a.pending_jobs for a in m.activations]
    events = sum(
        registry.get_sample_value("repro_sim_events_total", {"kind": kind.name.lower()}) or 0.0
        for kind in EventType
    )
    revoked = sum(
        registry.get_sample_value("repro_sim_revocations_total", {"cause": cause}) or 0.0
        for cause in ("leave", "breakdown")
    )
    fired = m.nb_activations + m.nb_idle_activations
    layers.update({
        "traces.generate_s": recorder.total("traces.generate_trace"),
        "grid.construct_s": recorder.total("grid.from_trace"),
        "grid.run_self_s": run.self_s,
        "grid.events": events,
        "grid.events_per_s": events / run.duration,
        "grid.commit_s": m.phase_seconds.get("commit", 0.0),
        "grid.activations": m.nb_activations,
        "grid.idle_activation_frac": m.nb_idle_activations / fired if fired else 0.0,
        "grid.revocations": revoked,
        "grid.retries": registry.get_sample_value("repro_sim_retries_total", {"outcome": "requeued"}) or 0.0,
        "grid.dropped_jobs": m.failed_jobs,
        "grid.solve_s": sum(solves) / 1e3,
        "grid.solve_p50_ms": percentile(solves, 50),
        "grid.solve_p95_ms": percentile(solves, 95),
        "grid.batch_jobs_p50": percentile(batches, 50),
        "grid.batch_jobs_max": max(batches),
        "trace.self_sum_frac": sum(s.self_s for s in recorder.spans) / root.duration,
        "trace.nesting_errors": recorder.nesting_errors(),
    })
    rep.run_s = run.duration
    return rep, layers, recorder


def measure_traced(workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    """Untraced and traced replays of each trace in turn; per-layer medians."""
    spec = replay_spec(workload, tiny)
    seeds = trace_seeds(spec, seed)
    pairs: list[tuple[Rep, Rep]] = []
    per_rep: list[dict[str, float]] = []
    problems: list[str] = []
    start = perf_counter()
    while not pairs or perf_counter() - start < seconds:
        trace_seed = seeds[len(pairs) % len(seeds)]
        plain = run_rep(spec, trace_seed)
        traced, layers, recorder = _traced_rep(spec, trace_seed)
        for rep in (plain, traced):
            _check_rep(rep, problems)
        if _quality(traced.metrics) != _quality(plain.metrics):
            problems.append(f"tracing changed the schedule of trace {trace_seed}")
        pairs.append((plain, traced))
        per_rep.append(layers)
    layers = {name: median([rep[name] for rep in per_rep]) for name in per_rep[0]}

    def rate(reps) -> float:
        return sum(r.metrics.completed_jobs for r in reps) / sum(r.run_s for r in reps)

    layers["trace.overhead_frac"] = 1.0 - rate([t for _, t in pairs]) / rate([p for p, _ in pairs])
    if any(rep["trace.nesting_errors"] for rep in per_rep):
        problems.append("spans do not nest")
    worst = max((abs(rep["trace.self_sum_frac"] - 1.0) for rep in per_rep))
    if worst > 1e-9:
        problems.append(f"self times miss the wall time of a replay by {worst:.3g} of it")
    recorder.write(OUT / "spans" / f"{workload}-seed{seed}.jsonl")
    attempted = sum(r.metrics.nb_jobs for pair in pairs for r in pair)
    failed = attempted - sum(r.metrics.completed_jobs for pair in pairs for r in pair)
    return {"layers": layers, "problems": problems, "attempted": attempted, "failed": failed}
