"""Generic multi-run experiment machinery.

The paper's methodology is: fix a configuration, run it 10 times with a
90-second budget on every benchmark instance, report the best value and use
the standard deviation across runs as a robustness indicator (Section 5.1).
:class:`ExperimentSettings` captures the scale knobs (instance size, number
of repetitions, budget) so that the same harness can run both the laptop-
scale defaults used by tests/benchmarks and the full paper-scale protocol,
and :class:`AlgorithmSpec` wraps each scheduler behind a uniform factory so
tables and sweeps can iterate over algorithms as data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

from repro.baselines import (
    CellularGA,
    CellularGAConfig,
    GAConfig,
    GenerationalGA,
    PanmicticMA,
    PanmicticMAConfig,
    SimulatedAnnealingConfig,
    SimulatedAnnealingScheduler,
    SteadyStateGA,
    SteadyStateGAConfig,
    StruggleGA,
    TabuSearchConfig,
    TabuSearchScheduler,
)
from repro.core.cma import CellularMemeticAlgorithm, SchedulingResult
from repro.core.config import CMAConfig, IslandConfig
from repro.core.individual import Individual
from repro.core.search import Search
from repro.core.termination import TerminationCriteria
from repro.engine.service import EvaluationEngine
from repro.heuristics import build_schedule
from repro.islands.model import IslandModel
from repro.model.instance import SchedulingInstance
from repro.utils.rng import (
    RNGLike,
    as_generator,
    spawn_generators,
    substream_seed_sequence,
)
from repro.utils.stats import RunStatistics, summarize
from repro.utils.validation import check_integer

__all__ = [
    "ExperimentSettings",
    "AlgorithmSpec",
    "cma_spec",
    "braun_ga_spec",
    "steady_state_ga_spec",
    "struggle_ga_spec",
    "cellular_ga_spec",
    "panmictic_ma_spec",
    "simulated_annealing_spec",
    "tabu_search_spec",
    "heuristic_spec",
    "islands_spec",
    "default_algorithm_specs",
    "dynamic_policy_specs",
    "repeat_run",
    "ComparisonCell",
    "compare_algorithms",
]


@dataclass(frozen=True)
class ExperimentSettings:
    """Scale knobs shared by every experiment.

    Attributes
    ----------
    nb_jobs, nb_machines:
        Instance dimensions used when the experiment generates instances.
    runs:
        Number of independent repetitions per (algorithm, instance) pair.
    max_seconds:
        Wall-clock budget per run (``inf`` to disable).
    max_evaluations, max_iterations:
        Optional deterministic budgets; at least one budget must be finite.
    seed:
        Root seed; every repetition receives an independent child generator.
    """

    nb_jobs: int = 128
    nb_machines: int = 16
    runs: int = 3
    max_seconds: float = 1.0
    max_evaluations: int | None = None
    max_iterations: int | None = None
    seed: int = 2007

    def __post_init__(self) -> None:
        check_integer("nb_jobs", self.nb_jobs, minimum=1)
        check_integer("nb_machines", self.nb_machines, minimum=1)
        check_integer("runs", self.runs, minimum=1)
        # Validation of the budget combination is delegated to TerminationCriteria.
        self.termination()

    def termination(self) -> TerminationCriteria:
        """The termination criteria corresponding to these settings."""
        return TerminationCriteria(
            max_seconds=self.max_seconds,
            max_evaluations=self.max_evaluations,
            max_iterations=self.max_iterations,
        )

    def scaled(self, **changes) -> "ExperimentSettings":
        """Copy with some fields replaced."""
        return replace(self, **changes)

    @classmethod
    def paper_scale(cls) -> "ExperimentSettings":
        """The paper's protocol: 512 × 16 instances, 10 runs of 90 seconds."""
        return cls(
            nb_jobs=512,
            nb_machines=16,
            runs=10,
            max_seconds=90.0,
            max_evaluations=None,
            max_iterations=None,
        )


#: Factory signature: (instance, termination, rng, engine=engine) -> scheduler object.
SchedulerFactory = Callable[..., Search | IslandModel]


@dataclass(frozen=True)
class AlgorithmSpec:
    """A named scheduler factory usable by every experiment.

    Factories receive ``(instance, termination, rng, engine=engine)``.
    """

    name: str
    factory: SchedulerFactory
    description: str = ""

    def build(
        self,
        instance: SchedulingInstance,
        termination: TerminationCriteria,
        rng: RNGLike = None,
        engine: EvaluationEngine | None = None,
    ) -> Search | IslandModel:
        """Instantiate the scheduler for one run.

        Every run gets one :class:`EvaluationEngine` (a fresh one when
        *engine* is ``None``) so evaluation counting, timing and convergence
        history flow through a single shared service.
        """
        if engine is None:
            engine = EvaluationEngine(instance)
        return self.factory(instance, termination, rng, engine=engine)


# --------------------------------------------------------------------------- #
# Picklable scheduler factories
# --------------------------------------------------------------------------- #
# Specs cross process boundaries (the island workers receive them whole), so
# factories are module-level dataclasses rather than closures: a closure
# cannot be pickled, a frozen dataclass holding a scheduler class and its
# config can.


@dataclass(frozen=True)
class _CMAFactory:
    """Builds the cMA; the run's termination is folded into the config."""

    config: CMAConfig

    def __call__(self, instance, termination, rng, engine=None):
        return CellularMemeticAlgorithm(
            instance,
            self.config.evolve(termination=termination),
            rng=rng,
            engine=engine,
        )


@dataclass(frozen=True)
class _ConfiguredFactory:
    """Builds any baseline following the uniform scheduler signature."""

    scheduler: type
    config: object

    def __call__(self, instance, termination, rng, engine=None):
        return self.scheduler(
            instance, self.config, termination=termination, rng=rng, engine=engine
        )


@dataclass(frozen=True)
class _HeuristicFactory:
    """Wraps a constructive heuristic behind the scheduler protocol."""

    heuristic: str

    def __call__(self, instance, termination, rng, engine=None):
        return _HeuristicRunner(self.heuristic, instance, termination, rng, engine=engine)


@dataclass(frozen=True)
class _IslandFactory:
    """Builds an :class:`~repro.islands.model.IslandModel` over an inner spec.

    The ``engine`` argument is accepted for signature uniformity and
    ignored: islands build one engine per island by design.
    """

    inner: "AlgorithmSpec"
    config: IslandConfig

    def __call__(self, instance, termination, rng, engine=None):
        return IslandModel(instance, self.inner, self.config, termination, rng=rng)


# --------------------------------------------------------------------------- #
# Built-in algorithm specs
# --------------------------------------------------------------------------- #
def cma_spec(config: CMAConfig | None = None, name: str = "cma") -> AlgorithmSpec:
    """The paper's cellular memetic algorithm (Table 1 configuration by default)."""
    base = config if config is not None else CMAConfig.paper_defaults()
    return AlgorithmSpec(
        name=name, factory=_CMAFactory(base), description="Cellular memetic algorithm"
    )


def braun_ga_spec(config: GAConfig | None = None, name: str = "braun_ga") -> AlgorithmSpec:
    """The Braun et al.-style generational GA baseline."""
    base = config if config is not None else GAConfig.fast_defaults()
    return AlgorithmSpec(
        name=name,
        factory=_ConfiguredFactory(GenerationalGA, base),
        description="Generational GA (Braun et al.)",
    )


def steady_state_ga_spec(
    config: SteadyStateGAConfig | None = None, name: str = "carretero_xhafa_ga"
) -> AlgorithmSpec:
    """The Carretero & Xhafa-style steady-state GA baseline."""
    base = config if config is not None else SteadyStateGAConfig.fast_defaults()
    return AlgorithmSpec(
        name=name,
        factory=_ConfiguredFactory(SteadyStateGA, base),
        description="Steady-state GA (Carretero & Xhafa)",
    )


def struggle_ga_spec(
    config: SteadyStateGAConfig | None = None, name: str = "struggle_ga"
) -> AlgorithmSpec:
    """Xhafa's Struggle GA baseline."""
    base = config if config is not None else SteadyStateGAConfig.fast_defaults()
    return AlgorithmSpec(
        name=name,
        factory=_ConfiguredFactory(StruggleGA, base),
        description="Struggle GA (Xhafa)",
    )


def cellular_ga_spec(
    config: CellularGAConfig | None = None, name: str = "cellular_ga"
) -> AlgorithmSpec:
    """Cellular GA ablation (cMA without local search)."""
    base = config if config is not None else CellularGAConfig()
    return AlgorithmSpec(
        name=name,
        factory=_ConfiguredFactory(CellularGA, base),
        description="Cellular GA (no local search)",
    )


def panmictic_ma_spec(
    config: PanmicticMAConfig | None = None, name: str = "panmictic_ma"
) -> AlgorithmSpec:
    """Panmictic MA ablation (local search without cellular structure)."""
    base = config if config is not None else PanmicticMAConfig.fast_defaults()
    return AlgorithmSpec(
        name=name,
        factory=_ConfiguredFactory(PanmicticMA, base),
        description="Unstructured memetic algorithm",
    )


def simulated_annealing_spec(
    config: SimulatedAnnealingConfig | None = None, name: str = "simulated_annealing"
) -> AlgorithmSpec:
    """Simulated-annealing extension baseline."""
    base = config if config is not None else SimulatedAnnealingConfig()
    return AlgorithmSpec(
        name=name,
        factory=_ConfiguredFactory(SimulatedAnnealingScheduler, base),
        description="Simulated annealing",
    )


def tabu_search_spec(
    config: TabuSearchConfig | None = None, name: str = "tabu_search"
) -> AlgorithmSpec:
    """Tabu-search extension baseline."""
    base = config if config is not None else TabuSearchConfig()
    return AlgorithmSpec(
        name=name,
        factory=_ConfiguredFactory(TabuSearchScheduler, base),
        description="Tabu search",
    )


class _HeuristicRunner(Search):
    """A constructive heuristic as a search with no iterations."""

    def __init__(
        self,
        heuristic: str,
        instance: SchedulingInstance,
        termination: TerminationCriteria,
        rng: RNGLike,
        engine: EvaluationEngine | None = None,
    ) -> None:
        super().__init__(instance, termination, rng=rng, engine=engine)
        self.algorithm_name = heuristic

    def should_continue(self) -> bool:
        return False

    def _begin(self) -> Individual:
        best = Individual(build_schedule(self.algorithm_name, self.instance, self.rng))
        best.evaluate(self.evaluator)
        return best

    def _iterate(self) -> bool:
        return False


def heuristic_spec(heuristic: str) -> AlgorithmSpec:
    """A constructive heuristic (LJFR-SJFR, Min-Min, ...) as an algorithm spec."""
    return AlgorithmSpec(
        name=heuristic,
        factory=_HeuristicFactory(heuristic),
        description=f"Constructive heuristic {heuristic}",
    )


def islands_spec(
    inner: AlgorithmSpec | None = None,
    config: IslandConfig | None = None,
    name: str | None = None,
) -> AlgorithmSpec:
    """An island model over *inner* as an ordinary algorithm spec.

    This makes the whole island layer addressable by every experiment:
    ``repeat_run`` and ``compare_algorithms`` treat the K-island run as one
    algorithm whose result is the best island (per-island details ride in
    the result metadata).  The per-run termination passed by the harness
    becomes the **per-island** budget, matching the paper's protocol of
    giving every competitor the same wall-clock budget.
    """
    inner = inner if inner is not None else cma_spec()
    config = config if config is not None else IslandConfig()
    if name is None:
        name = f"islands_{inner.name}_x{config.nb_islands}"
    return AlgorithmSpec(
        name=name,
        factory=_IslandFactory(inner, config),
        description=(
            f"{config.nb_islands}-island {inner.name} "
            f"({config.topology} topology, workers={config.workers})"
        ),
    )


def default_algorithm_specs() -> dict[str, AlgorithmSpec]:
    """The algorithms the paper compares, keyed by their reporting name."""
    return {
        spec.name: spec
        for spec in (
            cma_spec(),
            braun_ga_spec(),
            steady_state_ga_spec(),
            struggle_ga_spec(),
            heuristic_spec("ljfr_sjfr"),
        )
    }


def dynamic_policy_specs(
    *,
    horizon: float = 10.0,
    max_seconds: float = 0.25,
    max_iterations: int | None = 50,
    max_stagnant_iterations: int | None = None,
):
    """The default replay-arena roster, keyed by policy name.

    The dynamic counterpart of :func:`default_algorithm_specs`: Min-Min
    (the conventional grid scheduler), the cold cMA batch policy, the warm
    engine-resident service, and the warm service under a per-policy
    rolling commit *horizon* — all metaheuristics at the same
    per-activation budget, so arena gaps are attributable to the policies
    rather than their budgets.
    """
    from repro.traces.replay import policy_spec_from_name

    return {
        name: policy_spec_from_name(
            name,
            horizon=horizon,
            max_seconds=max_seconds,
            max_iterations=max_iterations,
            max_stagnant_iterations=max_stagnant_iterations,
        )
        for name in ("min_min", "cma", "warm-cma", "warm-cma-rolling")
    }


# --------------------------------------------------------------------------- #
# Execution helpers
# --------------------------------------------------------------------------- #
def repeat_run(
    spec: AlgorithmSpec,
    instance: SchedulingInstance,
    settings: ExperimentSettings,
    rng: RNGLike = None,
) -> list[SchedulingResult]:
    """Run *spec* on *instance* ``settings.runs`` times with independent seeds."""
    parent = as_generator(rng if rng is not None else settings.seed)
    children = spawn_generators(parent, settings.runs)
    termination = settings.termination()
    results = []
    for child in children:
        # One engine per run: a single evaluation counter, clock and
        # convergence history shared by whatever algorithm the spec builds.
        engine = EvaluationEngine(instance)
        scheduler = spec.build(instance, termination, child, engine=engine)
        results.append(scheduler.run())
    return results


@dataclass(frozen=True)
class ComparisonCell:
    """Results of one (algorithm, instance) pair of a comparison experiment."""

    algorithm: str
    instance: str
    makespan: RunStatistics
    flowtime: RunStatistics
    fitness: RunStatistics
    results: tuple[SchedulingResult, ...] = field(repr=False, default=())

    @property
    def best_makespan(self) -> float:
        """Best (smallest) makespan over the repetitions, as the paper reports."""
        return self.makespan.best

    @property
    def best_flowtime(self) -> float:
        """Best (smallest) flowtime over the repetitions."""
        return self.flowtime.best


def compare_algorithms(
    specs: Sequence[AlgorithmSpec],
    instances: Mapping[str, SchedulingInstance],
    settings: ExperimentSettings,
) -> dict[tuple[str, str], ComparisonCell]:
    """Run every algorithm on every instance and summarize the repetitions.

    Returns a mapping keyed by ``(instance_name, algorithm_name)``.  The seed
    of each cell is derived deterministically from the experiment seed, the
    instance name and the algorithm name — through the stable
    :func:`~repro.utils.rng.substream_seed_sequence` derivation, never
    ``hash()`` (which is salted per process) — so adding an algorithm does
    not change the results of the others, and a cell reproduces across
    processes and interpreter restarts.
    """
    cells: dict[tuple[str, str], ComparisonCell] = {}
    for instance_name, instance in instances.items():
        for spec in specs:
            cell_stream = substream_seed_sequence(
                settings.seed, instance_name, spec.name
            )
            results = repeat_run(spec, instance, settings, rng=cell_stream)
            cells[(instance_name, spec.name)] = ComparisonCell(
                algorithm=spec.name,
                instance=instance_name,
                makespan=summarize([r.makespan for r in results]),
                flowtime=summarize([r.flowtime for r in results]),
                fitness=summarize([r.best_fitness for r in results]),
                results=tuple(results),
            )
    return cells
