"""The Cellular Memetic Algorithm for batch job scheduling (Algorithm 1).

This module assembles the ingredients of :mod:`repro.core` into the search
template of the paper:

1. Initialize the toroidal mesh (one LJFR-SJFR individual plus perturbed
   copies), apply local search to every cell and evaluate the population.
2. Until the termination criterion fires, perform per iteration:
   ``nb_recombinations`` recombination updates followed by ``nb_mutations``
   mutation updates.  Each update (a) walks its own sweep order, (b) builds
   an offspring from the neighborhood of the current cell (selection +
   one-point recombination, or rebalance mutation of the cell's occupant),
   (c) improves the offspring with the configured local search, (d)
   evaluates it and (e) replaces the cell occupant only if the offspring is
   better.
3. At the end of every iteration the sweep orders are updated (a fresh
   permutation for NRS) and the convergence history is sampled.

Note on the template: Algorithm 1 in the paper writes
``Replace P[rec_order.current]`` inside the *mutation* loop as well, which is
an evident typo (the mutation stream has its own ``mut_order``); we replace
the cell the mutated individual came from, which is the standard
asynchronous cellular model and matches the textual description.

The population is **resident**: the whole mesh (plus an offspring scratch
block) lives in one :class:`~repro.engine.batch.BatchEvaluator`, cells are
row indices, and replacement is a row copy (see
:class:`~repro.core.population.ResidentGrid`).  Two update disciplines are
offered through :attr:`CMAConfig.cell_updates`:

* ``"batch"`` (default) — each stream stages its whole offspring batch in
  the scratch rows, applies the local search to **all** of them with one
  vectorized scan per step (:meth:`LocalSearch.improve_batch`), evaluates
  them in one batched reduction and then replaces cells with the result of
  replacing them in update order: one array comparison and one row copy per
  run of distinct cells.  Offspring of one stream are bred from the grid
  state at the start of that stream; the mutation stream still sees the
  recombination stream's replacements, and mutates its staged copies of the
  visited cells in one batch (:meth:`MutationOperator.mutate_batch`).
  :func:`breed` breeds the recombination stream's children
  in one pass: operators that draw only bounded integers declare their
  draws' bounds, one ``Generator.integers`` call draws every child's
  selection and crossover draws, and each operator runs once over the
  whole phase, with the children and generator state of one selection and
  one recombination call per child.  ``linear_rank`` selection and
  ``uniform`` crossover draw doubles, which no integer call replays, so
  with either the phase breeds child by child.
* ``"sequential"`` — the paper's fully asynchronous discipline: an
  offspring installed in its cell is immediately visible to the later
  updates of the same iteration; each child is bred from the grid as the
  updates before it left it.  This path reproduces the pre-resident
  implementation's best-fitness trajectories bit for bit and serves as the
  semantic reference for the batch path.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.config import CMAConfig
from repro.core.crossover import CrossoverOperator, get_crossover
from repro.core.individual import Individual
from repro.core.local_search import get_local_search
from repro.core.mutation import get_mutation
from repro.core.neighborhood import get_neighborhood
from repro.core.population import PopulationInitializer, ResidentGrid
from repro.core.replacement import get_replacement
from repro.core.search import Search
from repro.core.selection import NTournamentSelection, SelectionOperator, get_selection
from repro.core.sweep import get_sweep
from repro.core.termination import SearchState
from repro.engine.results import SchedulingResult
from repro.engine.service import EvaluationEngine
from repro.model.instance import SchedulingInstance
from repro.model.schedule import Schedule
from repro.utils.rng import RNGLike, bounded_draws

__all__ = ["SchedulingResult", "CellularMemeticAlgorithm", "breed"]

#: Signature of the optional per-iteration observer callback.
IterationObserver = Callable[["CellularMemeticAlgorithm", SearchState], None]


def breed(
    selection: SelectionOperator,
    crossover: CrossoverOperator,
    fitness: np.ndarray,
    assignments: np.ndarray,
    neighbors: np.ndarray,
    nb_parents: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One recombination child per row of *neighbors*, all from one grid state.

    Row *c* of *neighbors* lists the grid rows child *c* picks its
    *nb_parents* parents from; *fitness* and *assignments* are the grid's.
    The children, and the state *rng* is left in, are those of a loop that
    calls ``select_indices`` and then ``recombine`` per child.  When both
    operators declare their draw bounds, one
    :func:`~repro.utils.rng.bounded_draws` call draws every child's
    selection and crossover draws in that order, and each operator runs
    once over the whole stack.  An operator that draws doubles
    (``linear_rank``, ``uniform``) declares none, and that loop runs.
    """
    pool, nb_jobs = neighbors.shape[1], assignments.shape[1]
    selection_bounds = selection.draw_bounds(pool, nb_parents)
    crossover_bounds = crossover.draw_bounds(nb_parents, nb_jobs)
    if selection_bounds is None or crossover_bounds is None:
        children = []
        for cells in neighbors:
            picks = selection.select_indices(fitness[cells], nb_parents, rng)
            children.append(crossover.recombine(assignments[cells[picks]], rng))
        return np.stack(children)
    draws = bounded_draws(rng, selection_bounds + crossover_bounds, len(neighbors))
    split = len(selection_bounds)
    picks = selection.select_from_draws(fitness[neighbors], nb_parents, draws[:, :split])
    parents = assignments[neighbors[np.arange(len(neighbors))[:, None], picks]]
    return crossover.recombine_from_draws(parents, draws[:, split:])


def _distinct_runs(positions: np.ndarray) -> list[slice]:
    """Consecutive runs of *positions*, each as long as no position repeats."""
    runs, start, seen = [], 0, set()
    for index, position in enumerate(positions.tolist()):
        if position in seen:
            runs.append(slice(start, index))
            start, seen = index, set()
        seen.add(position)
    runs.append(slice(start, len(positions)))
    return runs


class CellularMemeticAlgorithm(Search):
    """The paper's batch scheduler.

    Parameters
    ----------
    instance:
        The scheduling instance to solve.
    config:
        Algorithm configuration; defaults to the paper's Table 1 values with
        an iteration-based budget suited to interactive use.
    rng:
        Source of randomness (seed or generator) for reproducible runs.
    observer:
        Optional callable invoked after every iteration with the algorithm
        and its :class:`~repro.core.termination.SearchState`; used by the
        tuning experiments to collect extra statistics (e.g. diversity).
    engine:
        Optional shared :class:`~repro.engine.service.EvaluationEngine`
        (see :class:`~repro.core.search.Search`).

    Examples
    --------
    >>> from repro.model import braun_suite
    >>> from repro.core import CellularMemeticAlgorithm, CMAConfig, TerminationCriteria
    >>> instance = braun_suite(nb_jobs=64, nb_machines=8)["u_c_hihi.0"]
    >>> config = CMAConfig.paper_defaults(TerminationCriteria.by_iterations(10))
    >>> result = CellularMemeticAlgorithm(instance, config, rng=1).run()
    >>> result.makespan > 0
    True
    """

    algorithm_name = "cma"

    def __init__(
        self,
        instance: SchedulingInstance,
        config: CMAConfig | None = None,
        rng: RNGLike = None,
        observer: IterationObserver | None = None,
        engine: EvaluationEngine | None = None,
    ) -> None:
        self.config = config if config is not None else CMAConfig()
        cfg = self.config
        super().__init__(
            instance,
            cfg.termination,
            fitness_weight=cfg.fitness_weight,
            rng=rng,
            engine=engine,
        )
        self.observer = observer
        self.neighborhood = get_neighborhood(cfg.neighborhood)
        if cfg.selection == "n_tournament":
            self.selection = NTournamentSelection(cfg.tournament_size)
        else:
            self.selection = get_selection(cfg.selection)
        self.crossover = get_crossover(cfg.crossover)
        self.mutation = get_mutation(cfg.mutation)
        self.local_search = get_local_search(
            cfg.local_search, iterations=cfg.local_search_iterations
        )
        self.replacement = get_replacement(cfg.replacement)
        self.initializer = PopulationInitializer(
            seeding_heuristic=cfg.seeding_heuristic,
            perturbation_rate=cfg.perturbation_rate,
        )

        # Run state (populated by start()).
        self.grid: ResidentGrid | None = None
        self._neighbors: np.ndarray | None = None
        self._rec_order = None
        self._mut_order = None

    # ------------------------------------------------------------------ #
    # The lifecycle hooks
    # ------------------------------------------------------------------ #
    # start() and step() stay in this class body: profilers patch them on
    # this class, and step() feeds the observer.
    def start(
        self,
        *,
        grid: ResidentGrid | None = None,
        initial_local_search: bool = True,
    ) -> SearchState:
        """Initialize a run: population, initial local search, sweep orders.

        Parameters
        ----------
        grid:
            Optional pre-seeded :class:`~repro.core.population.ResidentGrid`
            to adopt instead of seeding a fresh population — the re-priming
            hook of the warm dynamic scheduling service, which carries the
            previous activation's plan into the next run's population.  The
            grid must match the configured mesh dimensions, provide enough
            scratch rows for both update streams, and live on this
            algorithm's instance.
        initial_local_search:
            Whether to apply the initial whole-population local-search pass
            of Algorithm 1.  Warm restarts may skip it: their seed rows are
            carried over from an already-improved plan.
        """
        return super().start(grid=grid, initial_local_search=initial_local_search)

    def step(self) -> bool:
        """Run one iteration (both update streams); True if the best improved."""
        improved = super().step()
        if self.observer is not None:
            self.observer(self, self.state)
        return improved

    def _begin(
        self, grid: ResidentGrid | None, initial_local_search: bool
    ) -> Individual:
        cfg = self.config
        if grid is None:
            self.grid = self._initialize_population(initial_local_search)
        else:
            self.grid = self._adopt_population(grid, initial_local_search)
        best = self.grid.best().copy()
        self._neighbors = self.neighborhood.table(self.grid.height, self.grid.width)
        self._rec_order = get_sweep(cfg.recombination_order, self.grid.size, self.rng)
        self._mut_order = get_sweep(cfg.mutation_order, self.grid.size, self.rng)
        return best

    def _iterate(self) -> bool:
        improved = False
        if self.config.cell_updates == "batch":
            improved |= self._recombination_phase(self._rec_order)
            improved |= self._mutation_phase(self._mut_order)
        else:
            improved |= self._recombination_stream(self._rec_order)
            improved |= self._mutation_stream(self._mut_order)
        self._rec_order.update()
        self._mut_order.update()
        improved |= self.sync_best_from_grid()
        return improved

    def sync_best_from_grid(self) -> bool:
        """Adopt the grid's best cell if it beats the tracked best.

        Called at the end of every iteration; external drivers that write
        into the grid between iterations (island migration) call it too so
        an adopted immigrant is immediately reflected in the run's best.
        """
        current_best = self.grid.best()
        if current_best.fitness < self.best.fitness:
            self.best = current_best.copy()
            self.state.best_fitness = self.best.fitness
            return True
        return False

    def _metadata(self) -> dict:
        return {"config": self.config.describe()}

    # ------------------------------------------------------------------ #
    # Stages
    # ------------------------------------------------------------------ #
    def _initialize_population(self, initial_local_search: bool = True) -> ResidentGrid:
        """Seed the resident mesh and apply the initial local-search pass.

        The whole population is seeded through one vectorized draw and stays
        resident in a single :class:`~repro.engine.batch.BatchEvaluator`;
        the initial local-search pass of Algorithm 1 then runs either as one
        whole-grid batch improvement or cell by cell (``cell_updates``).
        """
        cfg = self.config
        grid = self.initializer.build_resident(
            self.instance,
            cfg.population_height,
            cfg.population_width,
            self.evaluator,
            scratch_rows=max(cfg.nb_recombinations, cfg.nb_mutations),
            rng=self.rng,
        )
        if initial_local_search:
            self._initial_local_search_pass(grid)
        return grid

    def _adopt_population(
        self, grid: ResidentGrid, initial_local_search: bool
    ) -> ResidentGrid:
        """Adopt a pre-seeded resident grid (the warm-restart path).

        The grid's cells are charged one counted evaluation each — exactly
        what :meth:`_initialize_population` charges for a fresh seed — so
        evaluation budgets stay comparable between cold and warm runs.
        """
        cfg = self.config
        if grid.batch.instance is not self.instance:
            raise ValueError("the adopted grid lives on a different instance")
        if (grid.height, grid.width) != (cfg.population_height, cfg.population_width):
            raise ValueError(
                f"adopted grid is {grid.height}x{grid.width}, the configuration "
                f"needs {cfg.population_height}x{cfg.population_width}"
            )
        scratch_needed = max(cfg.nb_recombinations, cfg.nb_mutations)
        if grid.scratch_rows < scratch_needed:
            raise ValueError(
                f"adopted grid has {grid.scratch_rows} scratch rows, "
                f"the update streams need {scratch_needed}"
            )
        # ResidentGrid construction already refreshed every cell's cached
        # objectives, so only the evaluation counter needs charging here.
        grid.evaluator.add_evaluations(grid.size)
        if initial_local_search:
            self._initial_local_search_pass(grid)
        return grid

    def _initial_local_search_pass(self, grid: ResidentGrid) -> None:
        """The initial whole-population local-search pass of Algorithm 1."""
        if self.config.cell_updates == "batch":
            improved = self.engine.improve_batch(
                grid.batch, grid.population_rows, self.local_search, self.rng
            )
            if improved.any():
                grid.evaluate_rows(grid.population_rows[improved])
        else:
            for row in range(grid.size):
                if self.engine.improve(grid.batch.view(row), self.local_search, self.rng):
                    grid.evaluate_rows([row])

    def _breed(self, positions: Sequence[int]) -> np.ndarray:
        """Recombination children for the cells at *positions*, from the grid as it stands."""
        return breed(
            self.selection,
            self.crossover,
            self.grid.fitness_values(),
            self.grid.batch.assignments,
            self._neighbors[positions],
            self.config.nb_solutions_to_recombine,
            self.rng,
        )

    # -------------------------- batch cell updates --------------------- #
    def _recombination_phase(self, order) -> bool:
        """Breed, batch-improve, batch-evaluate and place one stream's offspring."""
        cfg = self.config
        if cfg.nb_recombinations == 0:
            return False
        positions = [order.advance() for _ in range(cfg.nb_recombinations)]
        return self._finalize_phase(positions, self.grid.stage(self._breed(positions)))

    def _mutation_phase(self, order) -> bool:
        """Mutate copies of the visited cells, then batch-improve and place them."""
        cfg = self.config
        if cfg.nb_mutations == 0:
            return False
        positions = [order.advance() for _ in range(cfg.nb_mutations)]
        rows = self.grid.stage_cells(positions)
        self.mutation.mutate_batch(self.grid.batch, rows, self.rng)
        return self._finalize_phase(positions, rows)

    def _finalize_phase(self, positions: list[int], rows: np.ndarray) -> bool:
        """Whole-batch local search + evaluation, then the phase's replacement.

        The result is that of replacing offspring by offspring in update
        order.  Within a run of distinct positions no offspring meets
        another's cell, so each run is one array ``accepts`` and one
        ``adopt`` of its accepted rows; the run's first minimum among them
        becomes the best if it beats it.  A phase visits a cell twice only
        with more updates than cells, and then a new run starts at each
        repeat, so a later offspring meets what an earlier one installed.
        """
        self.engine.improve_batch(self.grid.batch, rows, self.local_search, self.rng)
        fitnesses = self.grid.evaluate_rows(rows)
        positions = np.asarray(positions, dtype=np.int64)
        improved_best = False
        for run in _distinct_runs(positions):
            cells, offspring = positions[run], fitnesses[run]
            accepted = np.flatnonzero(
                self.replacement.accepts(self.grid.fitness_values()[cells], offspring)
            )
            if accepted.size == 0:
                continue
            self.grid.adopt(cells[accepted], rows[run][accepted])
            first_best = accepted[np.argmin(offspring[accepted])]
            if offspring[first_best] < self.best.fitness:
                self.best = self.grid[int(cells[first_best])].copy()
                improved_best = True
        return improved_best

    # ------------------------ sequential cell updates ------------------ #
    def _recombination_stream(self, order) -> bool:
        """Run the ``nb_recombinations`` recombination updates of one iteration."""
        improved_best = False
        for _ in range(self.config.nb_recombinations):
            position = order.advance()
            offspring = Individual(Schedule(self.instance, self._breed([position])[0]))
            improved_best |= self._finalize_offspring(position, offspring)
        return improved_best

    def _mutation_stream(self, order) -> bool:
        """Run the ``nb_mutations`` mutation updates of one iteration."""
        cfg = self.config
        improved_best = False
        for _ in range(cfg.nb_mutations):
            position = order.advance()
            offspring = self.grid[position].copy()
            self.mutation.mutate(offspring.schedule, self.rng)
            improved_best |= self._finalize_offspring(position, offspring)
        return improved_best

    def _finalize_offspring(self, position: int, offspring: Individual) -> bool:
        """Local search, evaluation and conditional replacement of one offspring."""
        self.engine.improve(offspring.schedule, self.local_search, self.rng)
        offspring.evaluate(self.evaluator)
        if self.replacement.should_replace(self.grid[position], offspring):
            self.grid.install(position, offspring)
            if offspring.fitness < self.best.fitness:
                self.best = offspring.copy()
                return True
        return False

    # ------------------------------------------------------------------ #
    # Introspection helpers (used by experiments / examples)
    # ------------------------------------------------------------------ #
    def population_diversity(self) -> float:
        """Genotypic diversity of the current population (0 if not started)."""
        if self.grid is None:
            return 0.0
        return self.grid.genotypic_diversity()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CellularMemeticAlgorithm(instance={self.instance.name!r}, "
            f"neighborhood={self.config.neighborhood!r}, "
            f"local_search={self.config.local_search!r})"
        )
