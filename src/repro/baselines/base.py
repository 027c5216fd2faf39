"""Common machinery shared by the baseline evolutionary schedulers.

The paper compares the cMA against three previously published evolutionary
schedulers (Braun et al.'s generational GA, Carretero & Xhafa's steady-state
GA and Xhafa's Struggle GA).  None of those implementations is publicly
available, so :mod:`repro.baselines` reimplements them from their published
descriptions; this module holds the scaffolding they share — population
bookkeeping, history recording and the common run loop driven by
:class:`~repro.core.termination.TerminationCriteria` — so each baseline file
only contains the algorithm-specific reproduction/replacement logic.
"""

from __future__ import annotations

import abc
from typing import Sequence

from repro.core.cma import SchedulingResult
from repro.core.crossover import OnePointCrossover
from repro.core.individual import Individual
from repro.core.mutation import MoveMutation
from repro.core.population import individuals_from_batch
from repro.core.termination import SearchState, TerminationCriteria
from repro.engine.service import EvaluationEngine
from repro.model.instance import SchedulingInstance
from repro.utils.rng import RNGLike, as_generator

__all__ = ["PopulationBasedScheduler"]


class PopulationBasedScheduler(abc.ABC):
    """Template for population-based baseline schedulers.

    Subclasses implement :meth:`_iteration` (one generation or one steady-
    state step) and may override :meth:`_initialize_population`.  The base
    class owns the run loop, the best-so-far tracking and the convergence
    history, and produces the same :class:`~repro.core.cma.SchedulingResult`
    as the cMA so that the experiment harness treats every algorithm alike.
    """

    #: Name reported in :class:`SchedulingResult.algorithm`; subclasses override.
    algorithm_name: str = "baseline"
    #: The registered operators the GA baselines breed with, on :attr:`rng`.
    crossover = OnePointCrossover()
    mutation = MoveMutation()

    def __init__(
        self,
        instance: SchedulingInstance,
        *,
        population_size: int,
        termination: TerminationCriteria,
        fitness_weight: float = 0.75,
        seeding_heuristic: str | None = "ljfr_sjfr",
        rng: RNGLike = None,
        engine: EvaluationEngine | None = None,
    ) -> None:
        if population_size < 2:
            raise ValueError(f"population_size must be >= 2, got {population_size}")
        self.instance = instance
        self.population_size = int(population_size)
        self.termination = termination
        self.seeding_heuristic = seeding_heuristic
        self.rng = as_generator(rng)
        self.engine = (
            engine if engine is not None else EvaluationEngine(instance, fitness_weight)
        )
        self.engine.set_weight(fitness_weight)
        self.evaluator = self.engine.evaluator
        self.history = self.engine.history
        self.population: list[Individual] = []
        self.best: Individual | None = None

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    def _setup_population(self) -> None:
        """Create the initial population state (default: a list of individuals).

        Baselines that keep their population resident in a
        :class:`~repro.engine.batch.BatchEvaluator` (e.g. the panmictic MA)
        override this together with :meth:`_population_best` and leave
        :attr:`population` empty.
        """
        self.population = self._initialize_population()

    def _initialize_population(self) -> list[Individual]:
        """Default seeding: one heuristic individual plus random schedules.

        The whole population is drawn and evaluated through the batch
        engine — one vectorized random draw, one batched evaluation.
        """
        batch = self.engine.seeded_batch(
            self.population_size, self.seeding_heuristic, rng=self.rng
        )
        return individuals_from_batch(batch, self.evaluator)

    def _population_best(self) -> Individual:
        """The current population best (callers copy before holding on to it)."""
        return min(self.population, key=lambda ind: ind.fitness)

    @abc.abstractmethod
    def _iteration(self, state: SearchState) -> bool:
        """Perform one iteration; return whether the population best improved."""

    # ------------------------------------------------------------------ #
    # Run loop
    # ------------------------------------------------------------------ #
    def run(self) -> SchedulingResult:
        """Execute the search until the termination criterion fires."""
        self.engine.begin_run()
        deadline = self.termination.make_deadline()
        state = SearchState()

        self._setup_population()
        self.best = self._population_best().copy()
        state.evaluations = self.evaluator.evaluations
        state.best_fitness = self.best.fitness
        self._record(state)

        while not self.termination.should_stop(state, deadline):
            improved = self._iteration(state)
            current_best = self._population_best()
            if current_best.fitness < self.best.fitness:
                self.best = current_best.copy()
                improved = True
            state.evaluations = self.evaluator.evaluations
            state.best_fitness = self.best.fitness
            state.register_iteration(improved)
            self._record(state)

        return self.engine.build_result(
            algorithm=self.algorithm_name,
            best_schedule=self.best.schedule.copy(),
            best_fitness=self.best.fitness,
            state=state,
            metadata={"population_size": self.population_size},
        )

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def _record(self, state: SearchState) -> None:
        self.engine.record(
            state,
            fitness=self.best.fitness,
            makespan=self.best.makespan,
            flowtime=self.best.flowtime,
        )

    def _tournament(self, candidates: Sequence[Individual], size: int) -> Individual:
        """Pick the best of ``size`` uniformly sampled candidates."""
        pool = len(candidates)
        indices = self.rng.integers(0, pool, size=max(1, size))
        return min((candidates[int(i)] for i in indices), key=lambda ind: ind.fitness)
