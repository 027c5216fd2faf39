"""The shared evaluation engine: one counter, one clock, one history.

Before this subsystem existed, the cMA and every baseline owned a private
``FitnessEvaluator``, ``Stopwatch`` and ``ConvergenceHistory`` plus a
near-duplicate block of result-building code.  :class:`EvaluationEngine`
centralizes those services for one scheduler run:

* **counting** — a single :class:`~repro.model.fitness.FitnessEvaluator`
  whose evaluation counter is charged by scalar and batch paths alike;
* **timing** — one stopwatch started by :meth:`begin_run`, read by every
  history record and by the final result;
* **history** — one :class:`~repro.utils.history.ConvergenceHistory` fed
  through :meth:`record`;
* **population state** — :meth:`~EvaluationEngine.seeded_batch` builds
  heuristic-seeded (optionally perturbed) or random
  :class:`~repro.engine.batch.BatchEvaluator` populations in one vectorized
  initialization;
* **results** — :meth:`build_result` assembles the uniform
  :class:`~repro.engine.results.SchedulingResult` every algorithm returns.

Algorithms accept an optional engine so the experiment harness and the CLI
can construct them through one shared instance per run; when none is given
they create their own, keeping the public constructors backward compatible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.engine.batch import BatchEvaluator
from repro.engine.results import SchedulingResult
from repro.model.fitness import DEFAULT_LAMBDA, FitnessEvaluator, ObjectiveValues
from repro.model.instance import SchedulingInstance
from repro.model.schedule import Schedule
from repro.utils.history import ConvergenceHistory
from repro.utils.rng import RNGLike
from repro.utils.timer import Stopwatch
from repro.utils.validation import check_probability

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.termination import SearchState

__all__ = ["EvaluationEngine"]


class EvaluationEngine:
    """Shared evaluation services for one scheduler run.

    Parameters
    ----------
    instance:
        The scheduling instance being solved.
    fitness_weight:
        The λ of the scalarized fitness; algorithms overwrite it with their
        configured weight through :meth:`set_weight`.
    evaluator:
        Optionally share an existing evaluator (and therefore its counter)
        instead of creating a fresh one.
    """

    __slots__ = ("instance", "evaluator", "history", "_stopwatch")

    def __init__(
        self,
        instance: SchedulingInstance,
        fitness_weight: float = DEFAULT_LAMBDA,
        evaluator: FitnessEvaluator | None = None,
    ) -> None:
        self.instance = instance
        self.evaluator = (
            evaluator if evaluator is not None else FitnessEvaluator(fitness_weight)
        )
        self.history = ConvergenceHistory()
        self._stopwatch = Stopwatch()

    # ------------------------------------------------------------------ #
    # Run lifecycle
    # ------------------------------------------------------------------ #
    def set_weight(self, weight: float) -> None:
        """Adopt an algorithm's configured fitness weight."""
        self.evaluator.weight = check_probability("weight", weight)

    def begin_run(self) -> None:
        """Start the run clock and clear the per-run history (in place)."""
        self.history.records.clear()
        self._stopwatch.restart()

    @property
    def elapsed(self) -> float:
        """Seconds since :meth:`begin_run` (or engine construction)."""
        return self._stopwatch.elapsed

    @property
    def evaluations(self) -> int:
        """Schedules evaluated so far on this engine's counter."""
        return self.evaluator.evaluations

    # ------------------------------------------------------------------ #
    # Population factories (vectorized batch initialization)
    # ------------------------------------------------------------------ #
    def seeded_batch(
        self,
        population_size: int,
        seeding_heuristic: str | None,
        rng: RNGLike = None,
        perturbation_rate: float | None = None,
    ) -> BatchEvaluator:
        """A heuristic-seeded population (see :meth:`BatchEvaluator.seeded`)."""
        return BatchEvaluator.seeded(
            self.instance,
            population_size,
            seeding_heuristic,
            rng=rng,
            perturbation_rate=perturbation_rate,
            weight=self.evaluator.weight,
        )

    # ------------------------------------------------------------------ #
    # Counted evaluation (scalar and batch)
    # ------------------------------------------------------------------ #
    def evaluate(self, schedule: Schedule) -> ObjectiveValues:
        """Evaluate one schedule (counts one evaluation)."""
        return self.evaluator.evaluate(schedule)

    def improve(self, schedule: Schedule, local_search, rng: RNGLike = None) -> bool:
        """Apply a local search through the engine's counter."""
        return local_search.improve(schedule, self.evaluator, rng)

    def improve_batch(
        self,
        batch: BatchEvaluator,
        rows: np.ndarray,
        local_search,
        rng: RNGLike = None,
    ) -> np.ndarray:
        """Batched local search over a row subset of a resident population.

        Every improvement step scores and applies candidate moves for its
        rows in a few vectorized expressions, for at most the search's
        ``iterations`` steps (see
        :meth:`repro.core.local_search.LocalSearch.improve_batch`); returns
        the per-row improvement mask.
        """
        return local_search.improve_batch(batch, rows, self.evaluator, rng)

    # ------------------------------------------------------------------ #
    # History and results
    # ------------------------------------------------------------------ #
    def record(
        self, state: "SearchState", *, fitness: float, makespan: float, flowtime: float
    ) -> None:
        """Append one convergence-history sample for the current best."""
        self.history.record(
            elapsed_seconds=self.elapsed,
            evaluations=state.evaluations,
            iterations=state.iterations,
            best_fitness=fitness,
            best_makespan=makespan,
            best_flowtime=flowtime,
        )

    def build_result(
        self,
        *,
        algorithm: str,
        best_schedule: Schedule,
        best_fitness: float,
        state: "SearchState",
        metadata: Mapping[str, Any] | None = None,
    ) -> SchedulingResult:
        """Assemble the uniform result record every algorithm returns."""
        return SchedulingResult(
            algorithm=algorithm,
            instance_name=self.instance.name,
            best_schedule=best_schedule,
            best_fitness=best_fitness,
            makespan=best_schedule.makespan,
            flowtime=best_schedule.flowtime,
            mean_flowtime=best_schedule.flowtime / self.instance.nb_machines,
            evaluations=self.evaluations,
            iterations=state.iterations,
            elapsed_seconds=self.elapsed,
            # Snapshot: a later begin_run clears the live history in place,
            # which must not retroactively erase an already-returned result.
            history=self.history.copy(),
            metadata=dict(metadata) if metadata else {},
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EvaluationEngine(instance={self.instance.name!r}, "
            f"evaluations={self.evaluations})"
        )
