"""Configuration of the Cellular Memetic Algorithm.

:class:`CMAConfig` gathers every tunable ingredient of the algorithm in one
validated, immutable object.  :meth:`CMAConfig.paper_defaults` returns the
configuration of **Table 1** of the paper — the result of the tuning study of
Section 4 — except for the termination budget, which callers are expected to
set explicitly (the paper used 90 wall-clock seconds on 2007 hardware;
laptop-scale tests and benchmarks use much smaller budgets).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.core.crossover import list_crossovers
from repro.core.local_search import list_local_searches
from repro.core.mutation import list_mutations
from repro.core.neighborhood import list_neighborhoods
from repro.core.replacement import list_replacements
from repro.core.selection import list_selections
from repro.core.sweep import list_sweeps
from repro.core.termination import TerminationCriteria
from repro.heuristics import list_heuristics
from repro.model.fitness import DEFAULT_LAMBDA
from repro.utils.validation import (
    check_integer,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "CMAConfig",
    "IslandConfig",
    "TraceConfig",
    "ArenaConfig",
    "ActivationPolicy",
    "RetryPolicy",
    "ServiceConfig",
    "LoadProfile",
    "ISLAND_TOPOLOGIES",
    "MIGRATION_INTERVAL_UNITS",
    "EMIGRANT_SELECTIONS",
    "TRACE_FAMILIES",
    "ACTIVATION_MODES",
    "LOAD_PROFILE_SHAPES",
]

#: Migration-graph names understood by :mod:`repro.islands.topology`.  The
#: registry lives up in the islands layer; the names are mirrored here so the
#: config layer can validate without importing upward (pinned in sync by
#: ``tests/islands/test_topology.py``).
ISLAND_TOPOLOGIES = ("ring", "torus", "star", "complete")

#: How :attr:`IslandConfig.migration_interval` is measured.
MIGRATION_INTERVAL_UNITS = ("evaluations", "seconds")

#: Emigrant-selection strategies of :mod:`repro.islands.migration`.
EMIGRANT_SELECTIONS = ("best_k", "random_k")

#: Scenario families understood by :mod:`repro.traces.generators`.  Like the
#: island topologies above, the registry lives up in the traces layer; the
#: names are mirrored here so the config layer can validate without importing
#: upward (pinned in sync by ``tests/traces/test_generators.py``).
TRACE_FAMILIES = (
    "calm",
    "bursty",
    "diurnal",
    "heavy_tail",
    "flash_crowd",
    "flaky",
    "deadline",
)

#: How :class:`ActivationPolicy` drives the simulator's scheduler ticks.
ACTIVATION_MODES = ("periodic", "adaptive")

#: Rate-multiplier shapes understood by :class:`LoadProfile`.
LOAD_PROFILE_SHAPES = ("constant", "step", "ramp")


def _check_choice(name: str, value: str, available) -> str:
    value = str(value).lower()
    options = set(available)
    if value not in options:
        raise ValueError(f"{name} must be one of {sorted(options)}, got {value!r}")
    return value


_MASK64 = (1 << 64) - 1


def _jitter_hash(key: int) -> float:
    """SplitMix64 finalizer on *key*, mapped to a uniform in (0, 1).

    Pure-python twin of the counter-based construction the grid layer uses
    for affinity noise: the jitter of a retry is a pure function of
    ``(seed, job_id, attempt)``, so replays are bit-exact without carrying
    generator state.
    """
    z = (key + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return ((z >> 11) + 0.5) * 2.0**-53


@dataclass(frozen=True)
class RetryPolicy:
    """How revoked jobs (machine left or broke down) are re-admitted.

    The simulator's legacy behaviour — no policy — resubmits a revoked job
    to the pending pool immediately and retries forever.  A ``RetryPolicy``
    bounds that: each revocation consumes one attempt, re-admission is
    delayed by exponential backoff with deterministic jitter, and a job
    revoked more than ``max_attempts`` times is dropped and counted as
    *failed* instead of retried.

    Attributes
    ----------
    max_attempts:
        Revocations a job may survive; the ``max_attempts + 1``-th
        revocation drops it as failed.
    backoff_base:
        Delay (simulated seconds) before re-admission after the first
        revocation; ``0.0`` re-admits immediately (still bounded by
        ``max_attempts``).
    backoff_factor:
        Multiplier applied to the delay per additional revocation
        (``delay = backoff_base * backoff_factor ** (attempt - 1)``).
    jitter:
        Relative symmetric jitter on the delay, in ``[0, 1)``: the delay is
        scaled by a factor in ``[1 - jitter, 1 + jitter)`` derived
        deterministically from ``(seed, job_id, attempt)``.
    seed:
        Folded into the jitter hash so distinct experiments decorrelate
        while each stays bit-reproducible.
    """

    max_attempts: int = 3
    backoff_base: float = 1.0
    backoff_factor: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        check_integer("max_attempts", self.max_attempts, minimum=1)
        check_non_negative("backoff_base", self.backoff_base)
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        check_integer("seed", self.seed, minimum=0)

    def delay(self, job_id: int, attempt: int) -> float:
        """Backoff before re-admitting *job_id* after its *attempt*-th revocation."""
        check_integer("attempt", attempt, minimum=1)
        base = self.backoff_base * self.backoff_factor ** (attempt - 1)
        if base <= 0.0:
            return 0.0
        if self.jitter == 0.0:
            return base
        key = (
            (self.seed & _MASK64) * 0xD1342543DE82EF95
            ^ (int(job_id) & _MASK64) * 0x2545F4914F6CDD1D
            ^ int(attempt)
        ) & _MASK64
        return base * (1.0 + self.jitter * (2.0 * _jitter_hash(key) - 1.0))

    def evolve(self, **changes: Any) -> "RetryPolicy":
        """Return a copy of the policy with the given fields replaced."""
        return replace(self, **changes)

    def describe(self) -> dict[str, Any]:
        """A flat, JSON-friendly description of the policy."""
        return {
            "max attempts": self.max_attempts,
            "backoff base": self.backoff_base,
            "backoff factor": self.backoff_factor,
            "jitter": self.jitter,
            "retry seed": self.seed,
        }


@dataclass(frozen=True)
class CMAConfig:
    """All parameters of the cellular memetic scheduler.

    The attribute names follow Table 1 of the paper; see
    :meth:`paper_defaults` for the tuned values.

    Attributes
    ----------
    population_height, population_width:
        Dimensions of the toroidal population mesh.
    nb_recombinations:
        Number of recombination-stream cell updates per iteration.
    nb_mutations:
        Number of mutation-stream cell updates per iteration.
    nb_solutions_to_recombine:
        How many parents are selected from the neighborhood and folded by the
        recombination operator.
    seeding_heuristic, perturbation_rate:
        Population initialization (see
        :class:`repro.core.population.PopulationInitializer`).
    neighborhood:
        Neighborhood pattern name (``"panmictic"``, ``"l5"``, ``"l9"``,
        ``"c9"``, ``"c13"``).
    recombination_order, mutation_order:
        Sweep order names (``"fls"``, ``"frs"``, ``"nrs"``) for the two
        independent update streams.
    selection, tournament_size:
        Parent-selection operator and its N (for ``"n_tournament"``).
    crossover:
        Recombination operator name.
    mutation:
        Mutation operator name.
    local_search, local_search_iterations:
        Local-search method name and its per-offspring iteration count.
    replacement:
        Replacement policy name (``"if_better"`` is the paper's
        *add only if better*).
    cell_updates:
        How a stream's cell updates are executed. ``"batch"`` (default)
        stages the whole stream's offspring in the resident grid's scratch
        rows and improves/evaluates them with one vectorized pass per
        local-search step; ``"sequential"`` reproduces the paper's fully
        asynchronous one-cell-at-a-time updates (and the pre-resident-grid
        best-fitness trajectories) exactly.
    fitness_weight:
        The λ of the weighted-sum fitness.
    termination:
        A :class:`~repro.core.termination.TerminationCriteria` instance.
    """

    population_height: int = 5
    population_width: int = 5
    nb_recombinations: int = 25
    nb_mutations: int = 12
    nb_solutions_to_recombine: int = 3
    seeding_heuristic: str = "ljfr_sjfr"
    perturbation_rate: float = 0.4
    neighborhood: str = "c9"
    recombination_order: str = "fls"
    mutation_order: str = "nrs"
    selection: str = "n_tournament"
    tournament_size: int = 3
    crossover: str = "one_point"
    mutation: str = "rebalance"
    local_search: str = "lmcts"
    local_search_iterations: int = 5
    replacement: str = "if_better"
    cell_updates: str = "batch"
    fitness_weight: float = DEFAULT_LAMBDA
    termination: TerminationCriteria = field(
        default_factory=lambda: TerminationCriteria.by_iterations(100)
    )
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_integer("population_height", self.population_height, minimum=1)
        check_integer("population_width", self.population_width, minimum=1)
        check_integer("nb_recombinations", self.nb_recombinations, minimum=0)
        check_integer("nb_mutations", self.nb_mutations, minimum=0)
        if self.nb_recombinations == 0 and self.nb_mutations == 0:
            raise ValueError(
                "at least one of nb_recombinations / nb_mutations must be positive"
            )
        check_integer(
            "nb_solutions_to_recombine", self.nb_solutions_to_recombine, minimum=1
        )
        check_integer("tournament_size", self.tournament_size, minimum=1)
        check_integer(
            "local_search_iterations", self.local_search_iterations, minimum=0
        )
        check_probability("perturbation_rate", self.perturbation_rate)
        check_probability("fitness_weight", self.fitness_weight)

        object.__setattr__(
            self,
            "seeding_heuristic",
            _check_choice("seeding_heuristic", self.seeding_heuristic, list_heuristics()),
        )
        object.__setattr__(
            self,
            "neighborhood",
            _check_choice("neighborhood", self.neighborhood, list_neighborhoods()),
        )
        object.__setattr__(
            self,
            "recombination_order",
            _check_choice("recombination_order", self.recombination_order, list_sweeps()),
        )
        object.__setattr__(
            self,
            "mutation_order",
            _check_choice("mutation_order", self.mutation_order, list_sweeps()),
        )
        object.__setattr__(
            self, "selection", _check_choice("selection", self.selection, list_selections())
        )
        object.__setattr__(
            self, "crossover", _check_choice("crossover", self.crossover, list_crossovers())
        )
        object.__setattr__(
            self, "mutation", _check_choice("mutation", self.mutation, list_mutations())
        )
        object.__setattr__(
            self,
            "local_search",
            _check_choice("local_search", self.local_search, list_local_searches()),
        )
        object.__setattr__(
            self,
            "replacement",
            _check_choice("replacement", self.replacement, list_replacements()),
        )
        object.__setattr__(
            self,
            "cell_updates",
            _check_choice("cell_updates", self.cell_updates, ("batch", "sequential")),
        )
        if not isinstance(self.termination, TerminationCriteria):
            raise TypeError("termination must be a TerminationCriteria instance")

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def population_size(self) -> int:
        """Number of cells in the population mesh."""
        return self.population_height * self.population_width

    # ------------------------------------------------------------------ #
    # Factories
    # ------------------------------------------------------------------ #
    @classmethod
    def paper_defaults(
        cls, termination: TerminationCriteria | None = None
    ) -> "CMAConfig":
        """The tuned configuration of Table 1.

        Parameters
        ----------
        termination:
            Stopping rule; defaults to the paper's 90-second wall-clock
            budget.  Pass an evaluation- or iteration-based budget for
            deterministic, laptop-scale runs.
        """
        if termination is None:
            termination = TerminationCriteria.by_time(90.0)
        return cls(
            population_height=5,
            population_width=5,
            nb_recombinations=25,
            nb_mutations=12,
            nb_solutions_to_recombine=3,
            seeding_heuristic="ljfr_sjfr",
            neighborhood="c9",
            recombination_order="fls",
            mutation_order="nrs",
            selection="n_tournament",
            tournament_size=3,
            crossover="one_point",
            mutation="rebalance",
            local_search="lmcts",
            local_search_iterations=5,
            replacement="if_better",
            fitness_weight=0.75,
            termination=termination,
        )

    @classmethod
    def fast_defaults(
        cls, termination: TerminationCriteria | None = None
    ) -> "CMAConfig":
        """A scaled-down configuration for unit tests and quick examples.

        Identical operator choices to :meth:`paper_defaults`, but with a
        smaller mesh and fewer updates per iteration so that runs finish in
        milliseconds on toy instances.
        """
        if termination is None:
            termination = TerminationCriteria.by_iterations(20)
        return cls(
            population_height=3,
            population_width=3,
            nb_recombinations=6,
            nb_mutations=3,
            nb_solutions_to_recombine=2,
            local_search_iterations=2,
            termination=termination,
        )

    def evolve(self, **changes: Any) -> "CMAConfig":
        """Return a copy of the configuration with the given fields replaced."""
        return replace(self, **changes)

    def describe(self) -> dict[str, Any]:
        """A flat, JSON-friendly description of the configuration (Table 1 view)."""
        return {
            "population height": self.population_height,
            "population width": self.population_width,
            "nb solutions to recombine": self.nb_solutions_to_recombine,
            "nb recombinations": self.nb_recombinations,
            "nb mutations": self.nb_mutations,
            "start choice": self.seeding_heuristic,
            "neighborhood pattern": self.neighborhood,
            "recombination order": self.recombination_order,
            "mutation order": self.mutation_order,
            "recombine choice": self.crossover,
            "recombine selection": f"{self.tournament_size}-tournament"
            if self.selection == "n_tournament"
            else self.selection,
            "mutate choice": self.mutation,
            "local search choice": self.local_search,
            "nb local search iterations": self.local_search_iterations,
            "add only if better": self.replacement == "if_better",
            "cell updates": self.cell_updates,
            "lambda": self.fitness_weight,
        }


@dataclass(frozen=True)
class IslandConfig:
    """Configuration of the process-parallel island model.

    The island subsystem (:mod:`repro.islands`) runs ``nb_islands``
    independent engine-resident algorithm instances and periodically copies
    the best rows between them along a migration graph.  This config only
    describes the island layer; what runs *inside* each island is an
    ordinary algorithm spec with its own configuration.

    Attributes
    ----------
    nb_islands:
        Number of islands (one full population each).
    topology:
        Migration-graph name (``"ring"``, ``"torus"``, ``"star"``,
        ``"complete"``).
    migration_interval:
        Distance between migration points, measured in ``interval_unit``.
        ``None`` disables migration entirely, which makes the islands
        bit-identical to the same number of independent repetitions.
    interval_unit:
        ``"evaluations"`` (deterministic; the default) or ``"seconds"``.
    nb_emigrants:
        Rows copied out of an island at each migration point.
    emigrant_selection:
        ``"best_k"`` (the k best cells) or ``"random_k"``.
    immigrant_replacement:
        Replacement-policy name applied when immigrants challenge the
        destination island's worst cells (``"if_better"`` keeps migration
        elitist, matching the paper's cell replacement).
    workers:
        ``0`` runs every island in-process on a deterministic synchronous
        schedule (the reference semantics); ``nb_islands`` spawns one worker
        process per island with shared-memory migration.  No other value is
        accepted.
    start_method:
        ``multiprocessing`` start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``); ``None`` picks ``"fork"`` where available (fast)
        and ``"spawn"`` otherwise.
    worker_timeout:
        Seconds the parent waits for a worker result before it terminates
        the pool and raises — the guard against deadlocked queues.
    """

    nb_islands: int = 4
    topology: str = "ring"
    migration_interval: float | None = 1_000.0
    interval_unit: str = "evaluations"
    nb_emigrants: int = 1
    emigrant_selection: str = "best_k"
    immigrant_replacement: str = "if_better"
    workers: int = 0
    start_method: str | None = None
    worker_timeout: float = 120.0

    def __post_init__(self) -> None:
        check_integer("nb_islands", self.nb_islands, minimum=1)
        check_integer("nb_emigrants", self.nb_emigrants, minimum=1)
        object.__setattr__(
            self, "topology", _check_choice("topology", self.topology, ISLAND_TOPOLOGIES)
        )
        object.__setattr__(
            self,
            "interval_unit",
            _check_choice("interval_unit", self.interval_unit, MIGRATION_INTERVAL_UNITS),
        )
        object.__setattr__(
            self,
            "emigrant_selection",
            _check_choice(
                "emigrant_selection", self.emigrant_selection, EMIGRANT_SELECTIONS
            ),
        )
        object.__setattr__(
            self,
            "immigrant_replacement",
            _check_choice(
                "immigrant_replacement", self.immigrant_replacement, list_replacements()
            ),
        )
        if self.migration_interval is not None and self.migration_interval <= 0:
            raise ValueError(
                f"migration_interval must be positive or None, "
                f"got {self.migration_interval}"
            )
        check_integer("workers", self.workers, minimum=0)
        if self.workers not in (0, self.nb_islands):
            raise ValueError(
                f"workers must be 0 (in-process) or nb_islands "
                f"({self.nb_islands}, one process per island), got {self.workers}"
            )
        if self.start_method is not None:
            object.__setattr__(
                self,
                "start_method",
                _check_choice(
                    "start_method", self.start_method, ("fork", "spawn", "forkserver")
                ),
            )
        if self.worker_timeout <= 0:
            raise ValueError(
                f"worker_timeout must be positive, got {self.worker_timeout}"
            )

    @property
    def migration_enabled(self) -> bool:
        """Whether migration points exist at all."""
        return self.migration_interval is not None

    def evolve(self, **changes: Any) -> "IslandConfig":
        """Return a copy of the configuration with the given fields replaced."""
        return replace(self, **changes)

    def describe(self) -> dict[str, Any]:
        """A flat, JSON-friendly description of the island layer."""
        return {
            "nb islands": self.nb_islands,
            "topology": self.topology,
            "migration interval": self.migration_interval,
            "interval unit": self.interval_unit,
            "nb emigrants": self.nb_emigrants,
            "emigrant selection": self.emigrant_selection,
            "immigrant replacement": self.immigrant_replacement,
            "workers": self.workers,
        }


@dataclass(frozen=True)
class TraceConfig:
    """Parameters of one synthetic arrival-trace scenario.

    The trace subsystem (:mod:`repro.traces`) turns dynamic workloads into
    first-class, seedable artifacts; this config describes one scenario
    *family* and its scale knobs.  The family registry lives in
    :mod:`repro.traces.generators`; the names are mirrored in
    :data:`TRACE_FAMILIES` so this layer validates without importing upward.

    Attributes
    ----------
    family:
        Scenario-family name: ``"calm"`` (homogeneous Poisson arrivals),
        ``"bursty"`` (two-state MMPP), ``"diurnal"`` (sinusoidally modulated
        rate), ``"heavy_tail"`` (Poisson arrivals with Pareto job sizes) or
        ``"flash_crowd"`` (calm background plus arrival spikes and machine
        churn).
    duration:
        Length of the submission window in simulated seconds (the
        simulation itself runs until the last job completes).
    rate:
        Mean job arrivals per simulated second (the bursty/diurnal/flash
        families modulate around this mean).
    nb_machines:
        Size of the machine park.
    job_heterogeneity, machine_heterogeneity:
        ``"hi"`` or ``"lo"``, following the ETC benchmark's task/machine
        heterogeneity ranges.
    affinity_spread:
        Per-machine log-normal execution-time noise (the *inconsistent*
        scenarios); 0 keeps machines perfectly consistent.
    churn_fraction:
        Fraction of machines with a finite membership window (join late /
        leave early); the ``flash_crowd`` family is typically run with a
        positive value so the spikes land on a shrinking park.
    extra:
        Family-specific knobs (e.g. ``burst_factor`` for ``bursty``,
        ``wave_depth`` for ``diurnal``); unknown keys are rejected by the
        generator, not here.
    """

    family: str = "calm"
    duration: float = 100.0
    rate: float = 1.0
    nb_machines: int = 16
    job_heterogeneity: str = "hi"
    machine_heterogeneity: str = "hi"
    affinity_spread: float = 0.0
    churn_fraction: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "family", _check_choice("family", self.family, TRACE_FAMILIES)
        )
        check_positive("duration", self.duration)
        check_positive("rate", self.rate)
        check_integer("nb_machines", self.nb_machines, minimum=1)
        for name in ("job_heterogeneity", "machine_heterogeneity"):
            value = str(getattr(self, name)).lower()
            if value not in ("hi", "lo"):
                raise ValueError(f"{name} must be 'hi' or 'lo', got {value!r}")
            object.__setattr__(self, name, value)
        check_non_negative("affinity_spread", self.affinity_spread)
        check_probability("churn_fraction", self.churn_fraction)

    def evolve(self, **changes: Any) -> "TraceConfig":
        """Return a copy of the configuration with the given fields replaced."""
        return replace(self, **changes)

    def describe(self) -> dict[str, Any]:
        """A flat, JSON-friendly description of the scenario."""
        return {
            "family": self.family,
            "duration": self.duration,
            "rate": self.rate,
            "nb machines": self.nb_machines,
            "job heterogeneity": self.job_heterogeneity,
            "machine heterogeneity": self.machine_heterogeneity,
            "affinity spread": self.affinity_spread,
            "churn fraction": self.churn_fraction,
            **{f"extra.{key}": value for key, value in sorted(self.extra.items())},
        }


@dataclass(frozen=True)
class ActivationPolicy:
    """When the event-driven grid simulator activates the batch scheduler.

    The simulator (:mod:`repro.grid.simulator`) runs on one typed event
    queue; scheduler activations are ``SCHEDULER_TICK`` events whose
    placement this policy controls.

    Attributes
    ----------
    mode:
        ``"periodic"`` (default) chains ticks at the simulation's
        ``activation_interval`` — the classic fixed-cadence driver, and the
        bit-exact replacement of the pre-event-queue loop.  ``"adaptive"``
        schedules ticks on demand: as soon as the pending backlog reaches
        ``backlog_threshold`` or the machine membership changes under
        pending work (subject to the ``min_interval`` guard), and at
        ``max_interval`` at the latest while work is pending — so a calm
        stream pays a handful of activations instead of thousands of empty
        ticks.
    backlog_threshold:
        Pending-job count that triggers an early activation in adaptive
        mode.
    min_interval:
        Guard between consecutive activations even when triggers fire;
        ``None`` means no guard (0 — but never two activations at the same
        simulated instant).
    max_interval:
        Latest re-activation distance while jobs are pending; ``None``
        inherits the simulation's ``activation_interval``.
    on_machine_change:
        Whether a join/leave that affects pending work (a join with a
        non-empty backlog, a leave that revokes placements) counts as a
        trigger.
    """

    mode: str = "periodic"
    backlog_threshold: int = 32
    min_interval: float | None = None
    max_interval: float | None = None
    on_machine_change: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", _check_choice("mode", self.mode, ACTIVATION_MODES))
        check_integer("backlog_threshold", self.backlog_threshold, minimum=1)
        if self.min_interval is not None:
            check_non_negative("min_interval", self.min_interval)
        if self.max_interval is not None:
            check_positive("max_interval", self.max_interval)
        if (
            self.min_interval is not None
            and self.max_interval is not None
            and self.min_interval > self.max_interval
        ):
            raise ValueError(
                f"min_interval ({self.min_interval}) must not exceed "
                f"max_interval ({self.max_interval})"
            )

    @property
    def is_adaptive(self) -> bool:
        """Whether this policy schedules ticks on demand."""
        return self.mode == "adaptive"

    def gap(self, backlog: int, interval: float, membership_changed: bool = False) -> float:
        """How long after the last activation the next one is due.

        Periodic mode waits *interval*.  Adaptive mode waits
        ``min_interval`` (``None``: 0) once triggered — *backlog* at the
        threshold, or a membership change with ``on_machine_change`` — and
        ``max_interval`` (``None``: *interval*) otherwise.
        """
        if self.mode != "adaptive":
            return interval
        if backlog >= self.backlog_threshold or (membership_changed and self.on_machine_change):
            return self.min_interval or 0.0
        return interval if self.max_interval is None else self.max_interval

    @classmethod
    def periodic(cls) -> "ActivationPolicy":
        """The fixed-cadence driver (ticks at ``activation_interval``)."""
        return cls(mode="periodic")

    @classmethod
    def adaptive(
        cls,
        backlog_threshold: int = 32,
        *,
        min_interval: float | None = None,
        max_interval: float | None = None,
        on_machine_change: bool = True,
    ) -> "ActivationPolicy":
        """The on-demand driver (backlog / membership triggers + fallback)."""
        return cls(
            mode="adaptive",
            backlog_threshold=backlog_threshold,
            min_interval=min_interval,
            max_interval=max_interval,
            on_machine_change=on_machine_change,
        )

    def evolve(self, **changes: Any) -> "ActivationPolicy":
        """Return a copy of the policy with the given fields replaced."""
        return replace(self, **changes)

    def describe(self) -> dict[str, Any]:
        """A flat, JSON-friendly description of the activation policy."""
        return {
            "mode": self.mode,
            "backlog threshold": self.backlog_threshold,
            "min interval": self.min_interval,
            "max interval": self.max_interval,
            "on machine change": self.on_machine_change,
        }


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of the live scheduler service (:mod:`repro.service`).

    The live service runs a batch scheduler — normally the warm
    :class:`~repro.grid.service.DynamicSchedulerService`, which carries its
    own per-activation budget — on **wall-clock** time behind a bounded
    submission queue.  This config describes the queue and the overload
    state machine; the activation cadence itself is an ordinary
    :class:`ActivationPolicy` re-read on wall-clock seconds.

    Attributes
    ----------
    queue_capacity:
        Hard bound on the submission queue.  A submission arriving at a
        full queue is *shed* (rejected with a counter) — the backpressure
        signal of the open-loop story: the queue never grows without bound,
        the shed counter does.
    degrade_threshold:
        Batch size at or above which an activation is solved by the Min-Min
        degraded fallback instead of the cMA (``None`` defaults to half the
        queue capacity).  Degrading trades schedule quality for bounded
        per-activation latency exactly when the backlog says latency is the
        binding constraint.
    recover_threshold:
        Batch size at or below which a degraded service returns to normal
        cMA scheduling (``None`` defaults to an eighth of the queue
        capacity).  Keeping ``recover < degrade`` gives the state machine
        hysteresis: one borderline batch cannot flap the mode.
    activation_interval:
        Wall-clock seconds of the fallback activation cadence (the adaptive
        policy's ``max_interval`` default, and the fixed cadence when a
        periodic :class:`ActivationPolicy` is configured).
    activation:
        The :class:`ActivationPolicy` placing activations on wall-clock
        time; ``None`` means an adaptive policy with a 32-job backlog
        trigger, a 20 ms minimum gap and ``activation_interval`` as the
        fallback.
    latency_window:
        How many of the most recent per-job scheduling latencies the
        metrics snapshot aggregates (a rolling window, so a long-running
        service reports recent tail latency with bounded memory).
    latency_buckets:
        Upper bounds of the latency histogram buckets (strictly increasing
        positive seconds; the ``+Inf`` bucket is implicit).  ``None`` keeps
        the registry default.  Sub-millisecond scheduling latencies need
        sub-millisecond buckets, or every observation lands in the first
        default bucket and the histogram quantiles say nothing.
    drain_timeout:
        Wall-clock bound on a graceful (draining) shutdown; whatever is
        still queued when it expires is shed instead of scheduled.
    """

    queue_capacity: int = 4096
    degrade_threshold: int | None = None
    recover_threshold: int | None = None
    activation_interval: float = 0.5
    activation: ActivationPolicy | None = None
    latency_window: int = 65536
    latency_buckets: tuple[float, ...] | None = None
    drain_timeout: float = 30.0

    def __post_init__(self) -> None:
        check_integer("queue_capacity", self.queue_capacity, minimum=1)
        if self.degrade_threshold is not None:
            check_integer("degrade_threshold", self.degrade_threshold, minimum=1)
        if self.recover_threshold is not None:
            check_integer("recover_threshold", self.recover_threshold, minimum=0)
        degrade = self.effective_degrade_threshold
        recover = self.effective_recover_threshold
        if not recover < degrade <= self.queue_capacity:
            raise ValueError(
                f"thresholds must satisfy recover ({recover}) < degrade "
                f"({degrade}) <= queue_capacity ({self.queue_capacity})"
            )
        check_positive("activation_interval", self.activation_interval)
        if self.activation is not None and not isinstance(
            self.activation, ActivationPolicy
        ):
            raise TypeError("activation must be an ActivationPolicy or None")
        check_integer("latency_window", self.latency_window, minimum=1)
        if self.latency_buckets is not None:
            buckets = tuple(float(bound) for bound in self.latency_buckets)
            if not buckets:
                raise ValueError("latency_buckets must not be empty")
            if any(bound <= 0 for bound in buckets):
                raise ValueError("latency_buckets must be positive")
            if any(b >= a for b, a in zip(buckets, buckets[1:])):
                raise ValueError("latency_buckets must be strictly increasing")
            object.__setattr__(self, "latency_buckets", buckets)
        check_positive("drain_timeout", self.drain_timeout)

    @property
    def effective_degrade_threshold(self) -> int:
        """The degrade threshold with its capacity-derived default applied."""
        if self.degrade_threshold is not None:
            return self.degrade_threshold
        return max(1, self.queue_capacity // 2)

    @property
    def effective_recover_threshold(self) -> int:
        """The recover threshold with its capacity-derived default applied."""
        if self.recover_threshold is not None:
            return self.recover_threshold
        return max(0, min(self.queue_capacity // 8, self.effective_degrade_threshold - 1))

    @property
    def effective_activation(self) -> ActivationPolicy:
        """The activation policy with the wall-clock defaults applied."""
        if self.activation is not None:
            return self.activation
        return ActivationPolicy.adaptive(
            backlog_threshold=32,
            min_interval=0.02,
            max_interval=self.activation_interval,
        )

    def evolve(self, **changes: Any) -> "ServiceConfig":
        """Return a copy of the configuration with the given fields replaced."""
        return replace(self, **changes)

    def describe(self) -> dict[str, Any]:
        """A flat, JSON-friendly description of the live service layer."""
        return {
            "queue capacity": self.queue_capacity,
            "degrade threshold": self.effective_degrade_threshold,
            "recover threshold": self.effective_recover_threshold,
            "activation interval": self.activation_interval,
            "activation mode": self.effective_activation.mode,
            "latency window": self.latency_window,
            "latency buckets": (
                "default"
                if self.latency_buckets is None
                else list(self.latency_buckets)
            ),
            "drain timeout": self.drain_timeout,
        }


@dataclass(frozen=True)
class LoadProfile:
    """How an open-loop load generator scales a trace's arrival rate.

    The generator replays a trace's recorded inter-arrival gaps divided by
    a time-varying rate multiplier — submissions are placed on *planned*
    wall-clock instants that never depend on how fast the scheduler
    responds (the open-loop discipline; a closed-loop generator would slow
    down exactly when the system under test is slow, hiding the tail
    latency overload produces).

    Attributes
    ----------
    shape:
        ``"constant"`` holds ``multiplier`` for the whole stream;
        ``"step"`` holds ``base_multiplier`` until ``step_at`` of the
        stream has been replayed, then jumps to ``multiplier``; ``"ramp"``
        interpolates linearly from ``base_multiplier`` to ``multiplier``
        across the stream.
    multiplier:
        Peak rate multiplier relative to the trace's recorded rate
        (``2.0`` replays the trace twice as fast).
    base_multiplier:
        Starting multiplier of the ``step`` and ``ramp`` shapes (ignored
        by ``constant``).
    step_at:
        Fraction of the stream (by trace time) where the ``step`` lands.
    """

    shape: str = "constant"
    multiplier: float = 1.0
    base_multiplier: float = 1.0
    step_at: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "shape", _check_choice("shape", self.shape, LOAD_PROFILE_SHAPES)
        )
        check_positive("multiplier", self.multiplier)
        check_positive("base_multiplier", self.base_multiplier)
        check_probability("step_at", self.step_at)

    def wall_offsets(self, arrivals: "np.ndarray") -> "np.ndarray":
        """Planned wall-clock submission offsets for sorted trace *arrivals*.

        Each recorded inter-arrival gap is divided by the multiplier in
        force at that point of the stream; the cumulative sum is the
        open-loop submission schedule (seconds from the generator's start).
        """
        arrivals = np.asarray(arrivals, dtype=float)
        if arrivals.size == 0:
            return arrivals
        span = float(arrivals[-1])
        fractions = arrivals / span if span > 0 else np.zeros_like(arrivals)
        if self.shape == "constant":
            multipliers = np.full(arrivals.size, self.multiplier)
        elif self.shape == "step":
            multipliers = np.where(
                fractions < self.step_at, self.base_multiplier, self.multiplier
            )
        else:
            multipliers = self.base_multiplier + fractions * (
                self.multiplier - self.base_multiplier
            )
        gaps = np.diff(arrivals, prepend=0.0)
        return np.cumsum(gaps / multipliers)

    def evolve(self, **changes: Any) -> "LoadProfile":
        """Return a copy of the profile with the given fields replaced."""
        return replace(self, **changes)

    @classmethod
    def soak(cls, multiplier: float = 1.2) -> "LoadProfile":
        """The sustained-soak preset: a slow ramp through the design load.

        Starts below the trace's recorded rate (0.8x) and ramps linearly to
        *multiplier* (default 1.2x), so one multi-minute run crosses from
        comfortable to past-nominal load — the shape the ``loadgen --soak``
        runs replay (duration via the ``REPRO_SOAK_SECONDS`` env knob,
        deliberately outside default CI).
        """
        return cls(shape="ramp", base_multiplier=0.8, multiplier=multiplier)

    def describe(self) -> dict[str, Any]:
        """A flat, JSON-friendly description of the load profile."""
        return {
            "shape": self.shape,
            "multiplier": self.multiplier,
            "base multiplier": self.base_multiplier,
            "step at": self.step_at,
        }


@dataclass(frozen=True)
class ArenaConfig:
    """Configuration of the policy-replay arena.

    The arena (:mod:`repro.traces.replay`) replays one trace against N
    scheduling policies under identical simulation parameters and an equal
    per-activation budget.  This config describes the shared simulation
    parameters and the arena's execution mode; what each contestant *is* is
    a policy spec with its own budget, built by the caller.

    Attributes
    ----------
    activation_interval, commit_horizon, max_activations:
        Shared :class:`~repro.grid.simulator.SimulationConfig` parameters
        applied to every policy (a policy spec may override the commit
        horizon — the rolling-horizon variants exist precisely to study
        that knob).
    activation:
        Shared :class:`ActivationPolicy` driving every replay's scheduler
        ticks; ``None`` means the periodic driver.  A policy spec may
        override it, which is how the adaptive-activation variant of a
        policy enters the same arena as its periodic twin.
    retry:
        Shared :class:`RetryPolicy` applied to every replay's revocations;
        ``None`` keeps the legacy unlimited-immediate-retry behaviour.
    repetitions:
        Independent replays per policy; each repetition derives its own
        seed stream from ``seed`` through the stable
        :func:`~repro.utils.rng.substream_seed_sequence` path.
    seed:
        Root seed of the arena; per-(policy, repetition) streams are
        derived from it, so adding a policy never perturbs the others.
    workers:
        ``0`` replays every policy sequentially in-process (deterministic
        reference mode); ``nb_policies`` spawns one worker process per
        policy.  Both modes produce identical per-policy metrics (pinned by
        test).  No other value is accepted; the policy count is only known
        to the arena, so the cross-check happens there.
    start_method:
        ``multiprocessing`` start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``); ``None`` picks ``"fork"`` where available and
        ``"spawn"`` otherwise.
    worker_timeout:
        Seconds the parent waits for a worker result before it terminates
        the pool and raises — the guard against deadlocked queues.
    """

    activation_interval: float = 10.0
    commit_horizon: float | None = None
    max_activations: int = 10_000
    activation: ActivationPolicy | None = None
    retry: "RetryPolicy | None" = None
    repetitions: int = 1
    seed: int = 2007
    workers: int = 0
    start_method: str | None = None
    worker_timeout: float = 300.0

    def __post_init__(self) -> None:
        check_positive("activation_interval", self.activation_interval)
        if self.commit_horizon is not None:
            check_positive("commit_horizon", self.commit_horizon)
        if self.activation is not None and not isinstance(
            self.activation, ActivationPolicy
        ):
            raise TypeError("activation must be an ActivationPolicy or None")
        if self.retry is not None and not isinstance(self.retry, RetryPolicy):
            raise TypeError("retry must be a RetryPolicy or None")
        check_integer("max_activations", self.max_activations, minimum=1)
        check_integer("repetitions", self.repetitions, minimum=1)
        check_integer("seed", self.seed, minimum=0)
        check_integer("workers", self.workers, minimum=0)
        if self.start_method is not None:
            object.__setattr__(
                self,
                "start_method",
                _check_choice(
                    "start_method", self.start_method, ("fork", "spawn", "forkserver")
                ),
            )
        if self.worker_timeout <= 0:
            raise ValueError(
                f"worker_timeout must be positive, got {self.worker_timeout}"
            )

    def evolve(self, **changes: Any) -> "ArenaConfig":
        """Return a copy of the configuration with the given fields replaced."""
        return replace(self, **changes)

    def describe(self) -> dict[str, Any]:
        """A flat, JSON-friendly description of the arena."""
        return {
            "activation interval": self.activation_interval,
            "commit horizon": self.commit_horizon,
            "max activations": self.max_activations,
            "activation mode": (
                "periodic" if self.activation is None else self.activation.mode
            ),
            "retry": None if self.retry is None else self.retry.describe(),
            "repetitions": self.repetitions,
            "seed": self.seed,
            "workers": self.workers,
        }
