"""Deterministic scenario-family generators for synthetic arrival traces.

:func:`generate_trace` is the one generator of synthetic job streams and
machine parks: ``simulate``, ``serve``, ``loadgen`` and ``trace generate``,
the replay arena, the benchmarks and the examples all draw through it.
Each family maps a :class:`~repro.core.config.TraceConfig` plus a seed to a
:class:`~repro.traces.format.Trace` through independent substreams derived
with ``SeedSequence.spawn`` (:func:`repro.utils.rng.spawn_seed_sequences`):
one stream for arrival times, one for job sizes, one for the machine park.
The same seed therefore always produces the same trace, and changing, say,
the size distribution of a family never perturbs its arrival pattern.

Families (registry mirrored in :data:`repro.core.config.TRACE_FAMILIES`):

``calm``
    Homogeneous Poisson arrivals — the steady parameter-sweep submission
    pattern of the paper's dynamic scenario.
``bursty``
    A two-state Markov-modulated Poisson process (MMPP): the rate switches
    between a calm baseline and a burst state ``burst_factor`` times
    hotter, with exponentially distributed sojourn times.
``diurnal``
    A non-homogeneous Poisson process whose rate follows a sinusoidal wave
    (day/night submission cycles), sampled by thinning.
``heavy_tail``
    Poisson arrivals whose job sizes follow a Pareto (power-law)
    distribution instead of the benchmark's uniform hi/lo ranges — a few
    huge jobs dominate the total workload.
``flash_crowd``
    A calm background plus sudden arrival spikes, on a churning machine
    park — the paper's "resources could dynamically be added/dropped"
    clause under its most hostile workload.
``flaky``
    Calm arrivals on a park whose machines break down and get repaired:
    exponential times between failures (mean ``mtbf``) and exponential
    repair durations (mean ``mttr``) per machine, machine 0 exempt so the
    grid is never all-broken.  The stress scenario of the failure model —
    in-flight work is revoked and retried.
``deadline``
    Calm arrivals where every job carries a due date ``tightness`` times
    its expected processing time past its arrival (uniformly jittered by
    ``due_spread``) — the due-date-tightness calibration of the DRL
    dynamic-scheduling literature, for the SLA metrics (missed deadlines,
    tardiness).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.core.config import TRACE_FAMILIES, TraceConfig
from repro.model.generator import MACHINE_HETEROGENEITY_RANGES, TASK_HETEROGENEITY_RANGES
from repro.traces.format import Trace
from repro.utils.rng import RNGLike, as_generator, spawn_seed_sequences

__all__ = [
    "generate_trace",
    "list_trace_families",
    "rescale_trace",
    "TRACE_GENERATORS",
]


def _extra(config: TraceConfig, allowed: dict[str, float]) -> dict[str, float]:
    """The family's knobs with defaults applied; unknown keys are rejected."""
    unknown = sorted(set(config.extra) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown extra parameters for family {config.family!r}: {unknown} "
            f"(accepted: {sorted(allowed)})"
        )
    return {**allowed, **{k: float(v) for k, v in config.extra.items()}}


# --------------------------------------------------------------------------- #
# Arrival processes (one substream each)
# --------------------------------------------------------------------------- #
def _poisson_arrivals(
    rate: float, duration: float, gen: np.random.Generator
) -> np.ndarray:
    """Homogeneous Poisson process on ``(0, duration]``."""
    arrivals = []
    time = 0.0
    while True:
        time += float(gen.exponential(1.0 / rate))
        if time > duration:
            return np.array(arrivals)
        arrivals.append(time)


def _mmpp_arrivals(
    config: TraceConfig, gen: np.random.Generator
) -> np.ndarray:
    """Two-state MMPP: calm/burst rates with exponential sojourn times."""
    knobs = _extra(
        config,
        {
            "burst_factor": 8.0,
            "calm_sojourn": config.duration / 5.0,
            "burst_sojourn": config.duration / 20.0,
        },
    )
    # The configured rate is the long-run mean; solve for the calm rate so
    # the family stays budget-comparable with `calm` at the same `rate`.
    calm_share = knobs["calm_sojourn"] / (knobs["calm_sojourn"] + knobs["burst_sojourn"])
    mean_factor = calm_share + (1.0 - calm_share) * knobs["burst_factor"]
    calm_rate = config.rate / mean_factor
    rates = (calm_rate, calm_rate * knobs["burst_factor"])
    sojourns = (knobs["calm_sojourn"], knobs["burst_sojourn"])

    arrivals: list[float] = []
    time, state = 0.0, 0
    switch = float(gen.exponential(sojourns[state]))
    while time < config.duration:
        gap = float(gen.exponential(1.0 / rates[state]))
        if time + gap >= switch:
            # The sojourn ends first: restart the (memoryless) wait in the
            # other state from the switch point.
            time = switch
            state = 1 - state
            switch = time + float(gen.exponential(sojourns[state]))
            continue
        time += gap
        if time <= config.duration:
            arrivals.append(time)
    return np.array(arrivals)


def _diurnal_arrivals(
    config: TraceConfig, gen: np.random.Generator
) -> np.ndarray:
    """Sinusoidally modulated Poisson process, sampled by thinning."""
    knobs = _extra(
        config, {"wave_depth": 0.8, "wave_period": config.duration / 2.0}
    )
    depth = knobs["wave_depth"]
    if not 0.0 <= depth <= 1.0:
        raise ValueError(f"wave_depth must be in [0, 1], got {depth}")
    peak = config.rate * (1.0 + depth)
    arrivals = []
    time = 0.0
    while True:
        time += float(gen.exponential(1.0 / peak))
        if time > config.duration:
            return np.array(arrivals)
        wave = 1.0 + depth * math.sin(2.0 * math.pi * time / knobs["wave_period"])
        if gen.random() * peak < config.rate * wave:
            arrivals.append(time)


def _flash_crowd_arrivals(
    config: TraceConfig, gen: np.random.Generator
) -> np.ndarray:
    """Calm background plus ``nb_flashes`` short, violent arrival spikes."""
    knobs = _extra(
        config,
        {"nb_flashes": 2.0, "flash_size": config.rate * config.duration / 4.0,
         "flash_window": 2.0},
    )
    nb_flashes = int(knobs["nb_flashes"])
    if nb_flashes < 1:
        raise ValueError("flash_crowd needs nb_flashes >= 1")
    background = _poisson_arrivals(config.rate, config.duration, gen)
    # Flash instants are spread over the middle of the window so the crowd
    # lands on an already-loaded grid.
    instants = gen.uniform(
        0.2 * config.duration, 0.8 * config.duration, size=nb_flashes
    )
    spikes = [
        instant + gen.uniform(0.0, knobs["flash_window"], size=int(gen.poisson(knobs["flash_size"])))
        for instant in instants
    ]
    arrivals = np.sort(np.concatenate([background, *spikes]))
    return arrivals[arrivals <= config.duration]


# --------------------------------------------------------------------------- #
# Job sizes and machine park
# --------------------------------------------------------------------------- #
def sample_workloads(
    count: int, heterogeneity: str, rng: np.random.Generator
) -> np.ndarray:
    """Job sizes following the hi/lo task-heterogeneity ranges of the ETC benchmark."""
    high = TASK_HETEROGENEITY_RANGES[heterogeneity]
    return rng.uniform(1.0, high, size=count) * 1e3  # millions of instructions


def sample_mips(count: int, heterogeneity: str, rng: np.random.Generator) -> np.ndarray:
    """Machine capacities following the hi/lo machine-heterogeneity ranges."""
    high = MACHINE_HETEROGENEITY_RANGES[heterogeneity]
    return rng.uniform(1.0, high, size=count) * 10.0  # MIPS


def _pareto_sizes(
    count: int, config: TraceConfig, gen: np.random.Generator
) -> np.ndarray:
    knobs = _extra(config, {"pareto_shape": 1.5})
    shape = knobs["pareto_shape"]
    if shape <= 0:
        raise ValueError(f"pareto_shape must be positive, got {shape}")
    # Scale so the *median* matches the uniform family's median workload
    # (midpoint of the shared benchmark range, in MI): heavy tails should
    # change the shape of the distribution, not make every job bigger.
    median_uniform = (1.0 + TASK_HETEROGENEITY_RANGES[config.job_heterogeneity]) / 2.0 * 1e3
    scale = median_uniform / 2.0 ** (1.0 / shape)
    return scale * (1.0 + gen.pareto(shape, size=count))


def _machine_park(
    config: TraceConfig, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(mips, joins, leaves)`` for the park; ``leaves`` uses inf = never."""
    mips = sample_mips(config.nb_machines, config.machine_heterogeneity, gen)
    joins = np.zeros(config.nb_machines)
    leaves = np.full(config.nb_machines, np.inf)
    if config.churn_fraction > 0 and config.nb_machines > 1:
        churny = gen.random(config.nb_machines) < config.churn_fraction
        # Machine 0 always stays so the grid is never empty.
        churny[0] = False
        # Membership windows overlap the submission window: joins land in
        # its first quarter, leaves from 40% of it up to 1.5x past its end
        # — so departures can hit mid-stream (including the flash_crowd
        # spikes at 20-80% of the window) while some machines also drain
        # the completion phase.
        joins[churny] = gen.uniform(
            0.0, 0.25 * config.duration, size=int(churny.sum())
        )
        leaves[churny] = gen.uniform(
            0.4 * config.duration, 1.5 * config.duration, size=int(churny.sum())
        )
    return mips, joins, leaves


# --------------------------------------------------------------------------- #
# Families
# --------------------------------------------------------------------------- #
def _breakdown_schedule(
    config: TraceConfig, mips: np.ndarray, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-machine MTBF/MTTR breakdown windows as flat schema arrays.

    Alternating exponential up-times (mean ``mtbf``) and repair durations
    (mean ``mttr``), drawn machine by machine in park order over
    ``[0, 1.5 * duration]`` — the same horizon churn leaves use, so failures
    can also hit the completion phase.  Machine 0 never breaks (mirroring
    the churn convention that keeps the grid from going empty).
    """
    knobs = _extra(
        config, {"mtbf": config.duration / 2.0, "mttr": config.duration / 20.0}
    )
    mtbf, mttr = knobs["mtbf"], knobs["mttr"]
    if mtbf <= 0 or mttr <= 0:
        raise ValueError(f"mtbf and mttr must be positive, got {mtbf}, {mttr}")
    horizon = 1.5 * config.duration
    machine_rows: list[int] = []
    downs: list[float] = []
    ups: list[float] = []
    for machine in range(1, config.nb_machines):
        time = float(gen.exponential(mtbf))
        while time < horizon:
            repair = time + float(gen.exponential(mttr))
            machine_rows.append(machine)
            downs.append(time)
            ups.append(repair)
            time = repair + float(gen.exponential(mtbf))
    return (
        np.array(machine_rows, dtype=np.int64),
        np.array(downs),
        np.array(ups),
    )


def _due_dates(
    config: TraceConfig,
    arrivals: np.ndarray,
    sizes: np.ndarray,
    mips: np.ndarray,
    gen: np.random.Generator,
) -> np.ndarray:
    """Per-job due dates from a tightness factor on expected processing time.

    ``due = arrival + tightness * (size / mean park MIPS) * U[1 - spread,
    1 + spread)`` — the classic due-date-tightness calibration: ``tightness``
    near 1 leaves no slack for queueing, large values make every deadline
    easy.
    """
    knobs = _extra(config, {"tightness": 3.0, "due_spread": 0.5})
    tightness, spread = knobs["tightness"], knobs["due_spread"]
    if tightness <= 0:
        raise ValueError(f"tightness must be positive, got {tightness}")
    if not 0.0 <= spread < 1.0:
        raise ValueError(f"due_spread must be in [0, 1), got {spread}")
    expected = sizes / float(mips.mean())
    jitter = gen.uniform(1.0 - spread, 1.0 + spread, size=arrivals.size)
    return arrivals + tightness * expected * jitter


def _generate(
    config: TraceConfig,
    arrivals_fn: Callable[[TraceConfig, np.random.Generator], np.ndarray],
    sizes_fn: Callable[[int, TraceConfig, np.random.Generator], np.ndarray],
    seed: RNGLike,
    name: str | None,
    extra_metadata: dict | None = None,
    failures_fn: Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None,
    dues_fn: Callable[..., np.ndarray] | None = None,
) -> Trace:
    # Families without failure ingredients spawn exactly the three legacy
    # substreams, so their traces are bit-identical to the pre-failure-model
    # generator.  Extra ingredients get their own child streams appended
    # (SeedSequence children are indexed, so the first three never change).
    extra_streams = (failures_fn is not None) + (dues_fn is not None)
    streams = spawn_seed_sequences(seed, 3 + extra_streams)
    arrival_stream, size_stream, machine_stream = (
        as_generator(stream) for stream in streams[:3]
    )
    arrivals = np.sort(arrivals_fn(config, arrival_stream))
    sizes = sizes_fn(arrivals.size, config, size_stream)
    mips, joins, leaves = _machine_park(config, machine_stream)
    next_stream = 3
    breakdown_ids = breakdown_times = repair_times = None
    if failures_fn is not None:
        failure_stream = as_generator(streams[next_stream])
        next_stream += 1
        breakdown_ids, breakdown_times, repair_times = failures_fn(
            config, mips, failure_stream
        )
    dues = None
    if dues_fn is not None:
        due_stream = as_generator(streams[next_stream])
        dues = dues_fn(config, arrivals, sizes, mips, due_stream)
    metadata = {
        "source": "synthetic",
        "family": config.family,
        "config": config.describe(),
        **(extra_metadata or {}),
    }
    if isinstance(seed, (int, np.integer)):
        metadata["seed"] = int(seed)
    return Trace(
        name=name if name is not None else f"{config.family}-trace",
        job_ids=np.arange(arrivals.size, dtype=np.int64),
        job_workloads=sizes,
        job_arrivals=arrivals,
        machine_ids=np.arange(config.nb_machines, dtype=np.int64),
        machine_mips=mips,
        machine_joins=joins,
        machine_leaves=leaves,
        machine_affinity_spreads=np.full(
            config.nb_machines, config.affinity_spread
        ),
        job_due_dates=dues,
        breakdown_machine_ids=breakdown_ids,
        breakdown_times=breakdown_times,
        repair_times=repair_times,
        metadata=metadata,
    )


def _uniform_sizes_fn(count: int, config: TraceConfig, gen) -> np.ndarray:
    return sample_workloads(count, config.job_heterogeneity, gen)


def _calm_arrivals(config: TraceConfig, gen: np.random.Generator) -> np.ndarray:
    _extra(config, {})  # calm has no knobs: reject every extra key
    return _poisson_arrivals(config.rate, config.duration, gen)


def _calm(config: TraceConfig, seed: RNGLike, name: str | None) -> Trace:
    return _generate(config, _calm_arrivals, _uniform_sizes_fn, seed, name)


def _bursty(config: TraceConfig, seed: RNGLike, name: str | None) -> Trace:
    return _generate(config, _mmpp_arrivals, _uniform_sizes_fn, seed, name)


def _diurnal(config: TraceConfig, seed: RNGLike, name: str | None) -> Trace:
    return _generate(config, _diurnal_arrivals, _uniform_sizes_fn, seed, name)


def _heavy_tail(config: TraceConfig, seed: RNGLike, name: str | None) -> Trace:
    return _generate(config,
        lambda cfg, gen: _poisson_arrivals(cfg.rate, cfg.duration, gen),
        _pareto_sizes, seed, name)


def _flash_crowd(config: TraceConfig, seed: RNGLike, name: str | None) -> Trace:
    return _generate(config, _flash_crowd_arrivals, _uniform_sizes_fn, seed, name)


def _flaky(config: TraceConfig, seed: RNGLike, name: str | None) -> Trace:
    return _generate(
        config,
        lambda cfg, gen: _poisson_arrivals(cfg.rate, cfg.duration, gen),
        _uniform_sizes_fn,
        seed,
        name,
        failures_fn=_breakdown_schedule,
    )


def _deadline(config: TraceConfig, seed: RNGLike, name: str | None) -> Trace:
    return _generate(
        config,
        lambda cfg, gen: _poisson_arrivals(cfg.rate, cfg.duration, gen),
        _uniform_sizes_fn,
        seed,
        name,
        dues_fn=_due_dates,
    )


#: Family name -> generator callable (the registry the config layer mirrors).
TRACE_GENERATORS: dict[str, Callable[[TraceConfig, RNGLike, str | None], Trace]] = {
    "calm": _calm,
    "bursty": _bursty,
    "diurnal": _diurnal,
    "heavy_tail": _heavy_tail,
    "flash_crowd": _flash_crowd,
    "flaky": _flaky,
    "deadline": _deadline,
}

if set(TRACE_GENERATORS) != set(TRACE_FAMILIES):  # pragma: no cover - import guard
    raise RuntimeError(
        "TRACE_GENERATORS is out of sync with repro.core.config.TRACE_FAMILIES"
    )


def list_trace_families() -> tuple[str, ...]:
    """The registered scenario-family names (mirrors ``TRACE_FAMILIES``)."""
    return tuple(TRACE_GENERATORS)


def rescale_trace(
    trace: Trace, multiplier: float, name: str | None = None
) -> Trace:
    """*trace* replayed ``multiplier`` times faster, as a new trace.

    Every timestamp — job arrivals and the finite machine join/leave
    instants — is divided by *multiplier*, so the whole scenario (spikes,
    churn windows, diurnal waves) compresses uniformly: the arrival *rate*
    scales by ``multiplier`` while the arrival *pattern* and every job size
    stay untouched.  This is the rate-scaling hook the open-loop load
    generator (:class:`repro.service.LoadGenerator`) builds its 1x/2x
    overload comparisons on; infinite leave times ("never leaves") are
    preserved.
    """
    if multiplier <= 0:
        raise ValueError(f"multiplier must be positive, got {multiplier}")
    multiplier = float(multiplier)

    def _scale_finite(values: np.ndarray) -> np.ndarray:
        return np.where(np.isfinite(values), values / multiplier, values)

    leaves = _scale_finite(trace.machine_leaves)
    return Trace(
        name=name if name is not None else f"{trace.name}@{multiplier:g}x",
        job_ids=trace.job_ids,
        job_workloads=trace.job_workloads,
        job_arrivals=trace.job_arrivals / multiplier,
        machine_ids=trace.machine_ids,
        machine_mips=trace.machine_mips,
        machine_joins=trace.machine_joins / multiplier,
        machine_leaves=leaves,
        machine_affinity_spreads=trace.machine_affinity_spreads,
        job_due_dates=_scale_finite(trace.job_due_dates),
        job_cancel_times=_scale_finite(trace.job_cancel_times),
        breakdown_machine_ids=trace.breakdown_machine_ids,
        breakdown_times=trace.breakdown_times / multiplier,
        repair_times=trace.repair_times / multiplier,
        metadata={
            **trace.metadata,
            "rate_multiplier": multiplier * float(
                trace.metadata.get("rate_multiplier", 1.0)
            ),
        },
    )


def generate_trace(
    config: TraceConfig | None = None,
    seed: RNGLike = None,
    name: str | None = None,
) -> Trace:
    """Generate one synthetic trace from a scenario config and a seed.

    The same ``(config, seed)`` pair always produces the same trace: every
    stochastic ingredient draws from its own ``SeedSequence.spawn`` child
    stream.  Pass an integer seed to have it recorded in the trace's
    metadata for provenance.
    """
    config = config if config is not None else TraceConfig()
    generator = TRACE_GENERATORS[config.family]
    return generator(config, seed, name)
