"""Local-search methods — the "memetic" part of the cellular memetic algorithm.

Every offspring produced by recombination or mutation is improved by a short
local search before it competes for its cell (Algorithm 1).  The paper
implements and compares three methods (Figure 2):

* **LM** — *Local Move*: a random job is moved to a random machine; the move
  is kept only if it improves the fitness (first-improvement hill climbing
  with a random neighborhood sample).
* **SLM** — *Steepest Local Move*: a random job is moved to the machine that
  yields the largest reduction of the completion times (steepest descent on
  the makespan component).
* **LMCTS** — *Local Minimum Completion Time Swap*: among the swaps that
  exchange a job of the makespan-defining machine with a job of another
  machine, the pair yielding the largest completion-time reduction is
  applied.  This is the method selected by the paper's tuning.

Three extensions beyond the paper are provided for the ablation benchmarks:
**LMCTM** (best single-job move off the makespan machine), **GSM** (the best
single-job move over the whole ``jobs × machines`` neighborhood, scored by
one vectorized engine scan) and **VNS**, a small variable-neighborhood
scheme that cycles LM → SLM → LMCTS.

Every built-in method chooses its candidate once, with the vectorized
completion-time scans of :mod:`repro.engine.scan` (no schedule copies, no
per-candidate allocations), over ``(rows, jobs)`` assignments; the chosen
move is then applied and *accepted only if the scalarized fitness
improves*, so a local-search step never degrades the offspring.  The
number of steps per offspring is the ``nb local search iterations``
parameter of Table 1 (5 in the tuned configuration).

The choice is applied at two granularities.  :meth:`LocalSearch.step` /
:meth:`LocalSearch.improve` operate on one schedule: the choice runs on
its single row and the move goes through ``Schedule.move_job``/
``swap_jobs``, whose arithmetic fixes the ``sequential`` cMA trajectories.
:meth:`LocalSearch.step_batch` / :meth:`LocalSearch.improve_batch` improve
a whole row subset of a resident :class:`~repro.engine.batch.BatchEvaluator`
population at once: the choice runs on every row, the moves are applied
with incremental two-machine cache updates, and rows that did not strictly
improve are reverted from the undo record.  The searches whose choice draws
nothing stop stepping a row once a step leaves it unimproved: it is at a
fixed point.  Registered custom searches
only need ``step`` — the default ``step_batch`` walks rows through
zero-copy engine views.
"""

from __future__ import annotations

import abc
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.engine import scan
from repro.engine.batch import BatchEvaluator
from repro.model.fitness import FitnessEvaluator
from repro.model.schedule import Schedule
from repro.utils.rng import RNGLike, as_generator

__all__ = [
    "LocalSearch",
    "LocalMoveSearch",
    "SteepestLocalMoveSearch",
    "LocalMCTSwapSearch",
    "LocalMCTMoveSearch",
    "GlobalSteepestMoveSearch",
    "VariableNeighborhoodSearch",
    "NullLocalSearch",
    "get_local_search",
    "list_local_searches",
    "register_local_search",
]


def _fitness_of(schedule: Schedule, evaluator: FitnessEvaluator) -> float:
    """Scalarized fitness of *schedule* without touching the evaluation counter."""
    return evaluator.scalarize(schedule.makespan, schedule.mean_flowtime)


def _batch_fitness(
    batch: BatchEvaluator, rows: np.ndarray, evaluator: FitnessEvaluator
) -> np.ndarray:
    """Scalarized fitness of a row subset (counter untouched, like `_fitness_of`)."""
    return evaluator.scalarize_batch(batch.makespans(rows), batch.mean_flowtimes(rows))


def _accept_moves(
    batch: BatchEvaluator,
    rows: np.ndarray,
    jobs: np.ndarray,
    machines: np.ndarray,
    evaluator: FitnessEvaluator,
) -> np.ndarray:
    """Apply one candidate move per row, keep improvements, revert the rest.

    The shared accept/revert cycle of the batched move-based steps: the
    moves are applied with incremental two-machine cache updates, fitness is
    read back from the caches, and rows whose scalarized fitness did not
    strictly improve are restored bit-exactly from the ``O(rows)`` undo
    record.  Returns the per-row improvement mask.
    """
    before = _batch_fitness(batch, rows, evaluator)
    undo = batch.apply_moves(rows, jobs, machines)
    improved = _batch_fitness(batch, rows, evaluator) < before
    if not improved.all():
        batch.undo_moves(rows, jobs, undo, ~improved)
    return improved


def _accept_swaps(
    batch: BatchEvaluator,
    rows: np.ndarray,
    jobs_a: np.ndarray,
    jobs_b: np.ndarray,
    evaluator: FitnessEvaluator,
) -> np.ndarray:
    """Swap-based twin of :func:`_accept_moves`."""
    before = _batch_fitness(batch, rows, evaluator)
    undo = batch.apply_swaps(rows, jobs_a, jobs_b)
    improved = _batch_fitness(batch, rows, evaluator) < before
    if not improved.all():
        batch.undo_swaps(rows, jobs_a, jobs_b, undo, ~improved)
    return improved


class LocalSearch(abc.ABC):
    """Iterated improvement applied to one schedule in place.

    Parameters
    ----------
    iterations:
        Number of improvement attempts per :meth:`improve` call (the paper's
        ``nb local search iterations``).
    """

    #: Registry key; subclasses must override it.
    name: str = ""

    #: Whether :meth:`step_batch` draws nothing from ``rng`` and reverts a
    #: rejected row bit for bit.  Such a row would pick the same candidate
    #: at the next step and be rejected again, so :meth:`improve_batch`
    #: drops it.
    deterministic = False

    def __init__(self, iterations: int = 5) -> None:
        if iterations < 0:
            raise ValueError(f"iterations must be non-negative, got {iterations}")
        self.iterations = int(iterations)

    @abc.abstractmethod
    def step(
        self, schedule: Schedule, evaluator: FitnessEvaluator, rng: np.random.Generator
    ) -> bool:
        """Attempt one improving move; return whether the schedule improved."""

    def improve(
        self, schedule: Schedule, evaluator: FitnessEvaluator, rng: RNGLike = None
    ) -> bool:
        """Run :attr:`iterations` improvement steps; return whether any succeeded."""
        gen = as_generator(rng)
        improved = False
        for _ in range(self.iterations):
            if self.step(schedule, evaluator, gen):
                improved = True
        return improved

    def step_batch(
        self,
        batch: BatchEvaluator,
        rows: np.ndarray,
        evaluator: FitnessEvaluator,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One improvement attempt for every row; returns the improved mask.

        The default walks the rows with :meth:`step` through zero-copy
        engine views, so any registered local search works on resident
        populations out of the box; the built-in methods override this with
        fully vectorized whole-batch scans.
        """
        improved = np.zeros(rows.shape[0], dtype=bool)
        for i, row in enumerate(rows):
            improved[i] = self.step(batch.view(int(row)), evaluator, rng)
        return improved

    def improve_batch(
        self,
        batch: BatchEvaluator,
        rows: np.ndarray | Iterable[int],
        evaluator: FitnessEvaluator,
        rng: RNGLike = None,
    ) -> np.ndarray:
        """Run at most :attr:`iterations` batched steps over a row subset.

        The whole-population counterpart of :meth:`improve`: every step
        scores and applies candidate moves for all its rows in a handful of
        vectorized expressions.  A :attr:`deterministic` search steps only
        the rows its last step improved and stops when none is left; the
        rows it drops are at a fixed point, so the result is the one
        :attr:`iterations` steps over every row give.  Rows must be
        distinct.  Returns a boolean array marking the rows that improved
        at least once.
        """
        gen = as_generator(rng)
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        improved = np.zeros(rows.shape[0], dtype=bool)
        live = np.arange(rows.shape[0])
        for _ in range(self.iterations):
            stepped = self.step_batch(batch, rows[live], evaluator, gen)
            improved[live[stepped]] = True
            if self.deterministic:
                live = live[stepped]
                if not live.size:
                    break
        return improved

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(iterations={self.iterations})"


class NullLocalSearch(LocalSearch):
    """No-op local search: turns the cMA into a plain cellular GA (ablation)."""

    name = "none"

    def step(
        self, schedule: Schedule, evaluator: FitnessEvaluator, rng: np.random.Generator
    ) -> bool:
        return False

    def improve(
        self, schedule: Schedule, evaluator: FitnessEvaluator, rng: RNGLike = None
    ) -> bool:
        return False

    def improve_batch(
        self,
        batch: BatchEvaluator,
        rows: np.ndarray | Iterable[int],
        evaluator: FitnessEvaluator,
        rng: RNGLike = None,
    ) -> np.ndarray:
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        return np.zeros(rows.shape[0], dtype=bool)


class _CandidateSearch(LocalSearch):
    """A built-in method: one vectorized candidate choice, applied two ways.

    Subclasses implement :meth:`choose` once, over ``(rows, jobs)``
    assignments and ``(rows, machines)`` completion times.  :meth:`step`
    runs it on the schedule's single row and applies the pick through
    ``Schedule.move_job``/``swap_jobs``; :meth:`step_batch` runs it on a
    row subset and applies every pick with the batched accept/revert cycle.
    Both keep a candidate only on strict fitness improvement; with a single
    machine there is nothing to choose, and neither calls :meth:`choose`.

    The batched revert restores a rejected row's caches from the undo
    snapshot, bit for bit, so a chooser that draws nothing from ``rng``
    (LMCTS, LMCTM, GSM) declares itself :attr:`deterministic` and its
    :meth:`improve_batch` stops at each row's fixed point.  LM and SLM draw
    one job per row per step, so they step every row every time.  The
    scalar :meth:`improve` runs every step: ``Schedule.move_job``/
    ``swap_jobs`` revert by adding the difference back, which can leave a
    completion time one ulp off.
    """

    #: Whether the partner of a pick is a job to swap with (else a machine).
    swaps = False

    @abc.abstractmethod
    def choose(
        self,
        etc: np.ndarray,
        assignments: np.ndarray,
        completions: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each row's candidate on two or more machines: ``(jobs, partners, active)``.

        ``partners`` holds target machines, or partner jobs when
        :attr:`swaps` is set; ``active`` marks the rows that have a
        candidate.  A single row draws from *rng* exactly like one scalar
        step.
        """

    def step(
        self, schedule: Schedule, evaluator: FitnessEvaluator, rng: np.random.Generator
    ) -> bool:
        if schedule.instance.nb_machines < 2:
            return False
        jobs, partners, active = self.choose(
            schedule.instance.etc,
            schedule.assignment[None, :],
            schedule.completion_times[None, :],
            rng,
        )
        if not active[0]:
            return False
        job, partner = int(jobs[0]), int(partners[0])
        apply = schedule.swap_jobs if self.swaps else schedule.move_job
        undo = partner if self.swaps else int(schedule.assignment[job])
        before = _fitness_of(schedule, evaluator)
        apply(job, partner)
        if _fitness_of(schedule, evaluator) < before:
            return True
        apply(job, undo)  # a swap is its own inverse; a move goes back
        return False

    def step_batch(
        self,
        batch: BatchEvaluator,
        rows: np.ndarray,
        evaluator: FitnessEvaluator,
        rng: np.random.Generator,
    ) -> np.ndarray:
        improved = np.zeros(rows.shape[0], dtype=bool)
        if batch.nb_machines < 2:
            return improved
        jobs, partners, active = self.choose(
            batch.instance.etc, batch.assignments[rows], batch.completion_times[rows], rng
        )
        if active.any():
            accept = _accept_swaps if self.swaps else _accept_moves
            improved[active] = accept(
                batch, rows[active], jobs[active], partners[active], evaluator
            )
        return improved


class LocalMoveSearch(_CandidateSearch):
    """LM: move a random job to a random machine, keep only improvements."""

    name = "lm"

    def choose(self, etc, assignments, completions, rng):
        count, nb_jobs = assignments.shape
        jobs = rng.integers(0, nb_jobs, size=count)
        machines = rng.integers(0, etc.shape[1], size=count)
        return jobs, machines, machines != assignments[np.arange(count), jobs]


class SteepestLocalMoveSearch(_CandidateSearch):
    """SLM: move a random job to the machine giving the best completion-time drop."""

    name = "slm"

    def choose(self, etc, assignments, completions, rng):
        count, nb_jobs = assignments.shape
        jobs = rng.integers(0, nb_jobs, size=count)
        scores = scan.score_moves_for_jobs_batch(etc, assignments, completions, jobs)
        return jobs, scores.argmin(axis=1), np.ones(count, dtype=bool)


class LocalMCTSwapSearch(_CandidateSearch):
    """LMCTS: best swap between a job on the makespan machine and any other job.

    The scan considers every pair ``(a, b)`` where ``a`` runs on the machine
    that defines the makespan and ``b`` runs elsewhere, ranks the pairs by
    the larger of the two affected completion times after the swap (the
    quantity the paper calls "the reduction in the completion time"), applies
    the best pair and keeps it only if the fitness improves.  The pairs of
    every row are scored in padded row blocks by
    :func:`~repro.engine.scan.score_critical_swaps_batch`.
    """

    name = "lmcts"
    swaps = True
    deterministic = True

    def choose(self, etc, assignments, completions, rng):
        return scan.score_critical_swaps_batch(etc, assignments, completions)


class LocalMCTMoveSearch(_CandidateSearch):
    """LMCTM (extension): best single-job move off the makespan machine."""

    name = "lmctm"
    deterministic = True

    def choose(self, etc, assignments, completions, rng):
        return scan.score_critical_moves_batch(etc, assignments, completions)


class GlobalSteepestMoveSearch(_CandidateSearch):
    """GSM (extension): best single-job move over the whole neighborhood.

    Scores all ``jobs × machines`` single-job moves with one vectorized
    engine scan (:func:`repro.engine.scan.score_all_moves_batch`) and applies
    the move with the smallest resulting makespan — the deepest descent step
    a single-job neighborhood allows.
    """

    name = "gsm"
    deterministic = True

    def choose(self, etc, assignments, completions, rng):
        count = assignments.shape[0]
        scores = scan.score_all_moves_batch(etc, assignments, completions)
        flat = scores.reshape(count, -1).argmin(axis=1)
        jobs, targets = np.unravel_index(flat, scores.shape[1:])
        return jobs, targets, np.ones(count, dtype=bool)


class VariableNeighborhoodSearch(LocalSearch):
    """VNS (extension): cycle LM → SLM → LMCTS, restarting on improvement."""

    name = "vns"

    def __init__(self, iterations: int = 5) -> None:
        super().__init__(iterations)
        self._stages: tuple[LocalSearch, ...] = (
            LocalMoveSearch(1),
            SteepestLocalMoveSearch(1),
            LocalMCTSwapSearch(1),
        )

    def step(
        self, schedule: Schedule, evaluator: FitnessEvaluator, rng: np.random.Generator
    ) -> bool:
        for stage in self._stages:
            if stage.step(schedule, evaluator, rng):
                return True
        return False

    def step_batch(
        self,
        batch: BatchEvaluator,
        rows: np.ndarray,
        evaluator: FitnessEvaluator,
        rng: np.random.Generator,
    ) -> np.ndarray:
        improved = np.zeros(rows.shape[0], dtype=bool)
        for stage in self._stages:
            remaining = ~improved
            if not remaining.any():
                break
            improved[remaining] = stage.step_batch(
                batch, rows[remaining], evaluator, rng
            )
        return improved


_REGISTRY: dict[str, Callable[..., LocalSearch]] = {
    NullLocalSearch.name: NullLocalSearch,
    LocalMoveSearch.name: LocalMoveSearch,
    SteepestLocalMoveSearch.name: SteepestLocalMoveSearch,
    LocalMCTSwapSearch.name: LocalMCTSwapSearch,
    LocalMCTMoveSearch.name: LocalMCTMoveSearch,
    GlobalSteepestMoveSearch.name: GlobalSteepestMoveSearch,
    VariableNeighborhoodSearch.name: VariableNeighborhoodSearch,
}


def register_local_search(factory: type[LocalSearch]) -> type[LocalSearch]:
    """Register a user-defined local search under ``factory.name``.

    Registered methods become addressable from :class:`repro.core.config.CMAConfig`
    (``local_search="<name>"``) exactly like the built-in ones.  Usable as a
    class decorator.
    """
    if not factory.name:
        raise ValueError(f"{factory.__name__} must define a non-empty 'name'")
    if factory.name in _REGISTRY:
        raise ValueError(f"local search {factory.name!r} is already registered")
    _REGISTRY[factory.name] = factory
    return factory


def get_local_search(name: str, *, iterations: int = 5) -> LocalSearch:
    """Instantiate the local search registered under *name*."""
    key = name.lower()
    try:
        factory = _REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown local search {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(iterations=iterations)


def list_local_searches() -> Iterator[str]:
    """Names of all registered local-search methods, sorted."""
    return iter(sorted(_REGISTRY))
