"""Common machinery shared by the population-based baseline schedulers.

The paper compares the cMA against three previously published evolutionary
schedulers (Braun et al.'s generational GA, Carretero & Xhafa's steady-state
GA and Xhafa's Struggle GA).  None of those implementations is publicly
available, so :mod:`repro.baselines` reimplements them from their published
descriptions; this module holds the scaffolding they share — population
seeding and best-so-far tracking on top of the
:class:`~repro.core.search.Search` run loop — so each baseline file only
contains the algorithm-specific reproduction/replacement logic.
"""

from __future__ import annotations

import abc
from typing import Sequence

from repro.core.crossover import OnePointCrossover
from repro.core.individual import Individual
from repro.core.mutation import MoveMutation
from repro.core.population import individuals_from_batch
from repro.core.search import Search
from repro.core.termination import TerminationCriteria
from repro.engine.service import EvaluationEngine
from repro.model.instance import SchedulingInstance
from repro.utils.rng import RNGLike

__all__ = ["PopulationBasedScheduler"]


class PopulationBasedScheduler(Search):
    """Template for population-based baseline schedulers.

    Subclasses implement :meth:`_iteration` (one generation or one steady-
    state step) and may override :meth:`_initialize_population`.  The base
    class seeds the population and adopts a better population best after
    every iteration; :class:`~repro.core.search.Search` owns the run loop
    and the convergence history.
    """

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
        super().__init__(
            instance, termination, fitness_weight=fitness_weight, rng=rng, engine=engine
        )
        self.population_size = int(population_size)
        self.seeding_heuristic = seeding_heuristic
        self.population: list[Individual] = []

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
    def _iteration(self) -> bool:
        """Perform one iteration; return whether the population best improved."""

    # ------------------------------------------------------------------ #
    # Search hooks
    # ------------------------------------------------------------------ #
    def _begin(self) -> Individual:
        self._setup_population()
        return self._population_best().copy()

    def _iterate(self) -> bool:
        improved = self._iteration()
        current_best = self._population_best()
        if current_best.fitness < self.best.fitness:
            self.best = current_best.copy()
            improved = True
        return improved

    def _metadata(self) -> dict:
        return {"population_size": self.population_size}

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def _tournament(self, candidates: Sequence[Individual], size: int) -> Individual:
        """Pick the best of ``size`` uniformly sampled candidates."""
        pool = len(candidates)
        indices = self.rng.integers(0, pool, size=max(1, size))
        return min((candidates[int(i)] for i in indices), key=lambda ind: ind.fitness)
