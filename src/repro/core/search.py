"""One scheduler run: the start/step/finish lifecycle every algorithm shares.

Every scheduler of the library is a :class:`Search`: the cMA, the baseline
GAs and memetic algorithms, simulated annealing, tabu search and the
constructive heuristics of the experiment harness.  The base class owns the
run loop; :meth:`~Search.run` composes its four phases, and drivers above an
algorithm pause between iterations through the same four methods (the island
model migrates there, the warm dynamic service re-primes the cMA through
:meth:`~Search.start`).

A subclass implements two hooks: :meth:`~Search._begin` seeds the run and
returns the initial best as an owned :class:`~repro.core.individual.Individual`,
and :meth:`~Search._iterate` runs one iteration, keeps :attr:`~Search.best`
current and returns whether it improved.
"""

from __future__ import annotations

import abc
from typing import Any

from repro.core.individual import Individual
from repro.core.termination import SearchState, TerminationCriteria
from repro.engine.results import SchedulingResult
from repro.engine.service import EvaluationEngine
from repro.model.fitness import DEFAULT_LAMBDA
from repro.model.instance import SchedulingInstance
from repro.utils.rng import RNGLike, as_generator

__all__ = ["Search"]


class Search(abc.ABC):
    """Base class of every scheduler: one run through start/step/finish.

    Parameters
    ----------
    instance:
        The scheduling instance to solve.
    termination:
        The stopping rule :meth:`should_continue` asks.
    fitness_weight:
        The λ of the scalarized fitness, written into the engine.
    rng:
        Source of randomness (seed or generator) for reproducible runs.
    engine:
        Optional shared :class:`~repro.engine.service.EvaluationEngine`.
        The experiment harness and the CLI pass one in so that evaluation
        counting, timing and convergence history flow through a single
        per-run service; when omitted the search creates its own.
    """

    #: Name reported in :attr:`SchedulingResult.algorithm`; subclasses override.
    algorithm_name = "search"

    def __init__(
        self,
        instance: SchedulingInstance,
        termination: TerminationCriteria,
        *,
        fitness_weight: float = DEFAULT_LAMBDA,
        rng: RNGLike = None,
        engine: EvaluationEngine | None = None,
    ) -> None:
        self.instance = instance
        self.termination = termination
        self.rng = as_generator(rng)
        self.engine = (
            engine if engine is not None else EvaluationEngine(instance, fitness_weight)
        )
        self.engine.set_weight(fitness_weight)
        self.evaluator = self.engine.evaluator
        self.history = self.engine.history
        self.best: Individual | None = None
        self.state: SearchState | None = None
        self._deadline = None

    def start(self, **options: Any) -> SearchState:
        """Restart the engine's clock and history, then seed the run.

        *options* go to :meth:`_begin`; the first history sample is taken
        once the run is seeded.
        """
        self.engine.begin_run()
        self._deadline = self.termination.make_deadline()
        self.state = SearchState()
        self.best = self._begin(**options)
        self.state.evaluations = self.evaluator.evaluations
        self.state.best_fitness = self.best.fitness
        self._record()
        return self.state

    def should_continue(self) -> bool:
        """Whether the termination criteria allow another iteration."""
        return not self.termination.should_stop(
            self._started("should_continue"), self._deadline
        )

    def step(self) -> bool:
        """Run one iteration and record one history sample; True if the best improved."""
        state = self._started("step")
        improved = self._iterate()
        state.evaluations = self.evaluator.evaluations
        state.best_fitness = self.best.fitness
        state.register_iteration(improved)
        self._record()
        return improved

    def finish(self) -> SchedulingResult:
        """Assemble the result record for the current run state."""
        state = self._started("finish")
        return self.engine.build_result(
            algorithm=self.algorithm_name,
            best_schedule=self.best.schedule.copy(),
            best_fitness=self.best.fitness,
            state=state,
            metadata=self._metadata(),
        )

    def run(self) -> SchedulingResult:
        """Execute the search until the termination criteria fire."""
        self.start()
        while self.should_continue():
            self.step()
        return self.finish()

    @abc.abstractmethod
    def _begin(self, **options: Any) -> Individual:
        """Seed the run; return the initial best as an owned individual."""

    @abc.abstractmethod
    def _iterate(self) -> bool:
        """Run one iteration, keep :attr:`best` current; True if it improved."""

    def _metadata(self) -> dict[str, Any]:
        """Algorithm-specific entries of the result's metadata."""
        return {}

    def _started(self, method: str) -> SearchState:
        if self.state is None:
            raise RuntimeError(f"call start() before {method}()")
        return self.state

    def _record(self) -> None:
        self.engine.record(
            self.state,
            fitness=self.best.fitness,
            makespan=self.best.makespan,
            flowtime=self.best.flowtime,
        )
