"""The cellular population: a toroidal grid of individuals plus its seeding.

The population of the cMA is a two-dimensional toroidal mesh of
``pop_height × pop_width`` cells (5 × 5 = 25 in the tuned configuration).
In a :class:`ResidentGrid` the cells **are** rows of one
:class:`~repro.engine.batch.BatchEvaluator`: the whole mesh (plus a block of
offspring scratch rows) lives in one structure-of-arrays state, cell
replacement is a row copy, and neighborhoods / statistics are resolved
against the shared matrices.  The cMA, the warm scheduling service, the
island model and the panmictic MA all run on it.

:class:`PopulationInitializer` implements the paper's seeding strategy: one
individual is built with the LJFR-SJFR heuristic and the remaining cells are
obtained from it by *large perturbations* (a sizeable fraction of the jobs is
reassigned to random machines).  Pure random seeding and seeding from any
registered heuristic are also supported for ablation studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.individual import Individual
from repro.engine.batch import BatchEvaluator
from repro.model.fitness import FitnessEvaluator
from repro.model.instance import SchedulingInstance
from repro.utils.rng import RNGLike
from repro.utils.validation import check_integer, check_probability

__all__ = [
    "ResidentGrid",
    "PopulationInitializer",
    "individuals_from_batch",
    "genome_diversity",
    "genome_entropy",
]


def genome_diversity(genomes: np.ndarray) -> float:
    """Average normalized Hamming distance between all pairs of genome rows.

    0 means every row holds the same assignment, values near
    ``1 − 1/nb_machines`` are typical of a random population.  Per gene the
    number of agreeing row pairs is ``Σ_machines C(count, 2)``; everything
    else is a differing pair — no pair loop.
    """
    genomes = np.asarray(genomes)
    cells, nb_jobs = genomes.shape
    if cells < 2:
        return 0.0
    nb_machines = int(genomes.max()) + 1
    counts = np.zeros((nb_jobs, nb_machines), dtype=np.int64)
    np.add.at(counts, (np.arange(nb_jobs)[None, :], genomes), 1)
    agreeing = float((counts * (counts - 1) // 2).sum())
    pairs = cells * (cells - 1) / 2
    return (pairs * nb_jobs - agreeing) / (pairs * nb_jobs)


def genome_entropy(genomes: np.ndarray) -> float:
    """Mean per-gene Shannon entropy of the machine assignment (in nats)."""
    genomes = np.asarray(genomes)
    cells, nb_jobs = genomes.shape
    nb_machines = int(genomes.max()) + 1 if genomes.size else 1
    entropy_sum = 0.0
    for machine in range(nb_machines):
        frequency = (genomes == machine).mean(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            contribution = np.where(frequency > 0, -frequency * np.log(frequency), 0.0)
        entropy_sum += float(contribution.sum())
    return entropy_sum / nb_jobs


def individuals_from_batch(
    batch: BatchEvaluator, evaluator: FitnessEvaluator
) -> list[Individual]:
    """Materialize evaluated :class:`Individual` rows from a batch.

    Objectives and fitness come from the batch's cached matrices in three
    vectorized reductions; the evaluator's counter is charged one evaluation
    per row, exactly as if each schedule had been evaluated individually.
    """
    makespans = batch.makespans()
    flowtimes = batch.flowtimes()
    fitnesses = evaluator.scalarize_batch(makespans, flowtimes / batch.nb_machines)
    evaluator.add_evaluations(batch.population_size)
    return [
        Individual(
            schedule=batch.schedule(row),
            fitness=float(fitnesses[row]),
            makespan=float(makespans[row]),
            flowtime=float(flowtimes[row]),
        )
        for row in range(batch.population_size)
    ]


class ResidentGrid:
    """A toroidal mesh whose cells are rows of one :class:`BatchEvaluator`.

    The first ``height × width`` rows of *batch* are the grid cells in
    row-major order (a linear cell position **is** its row index); the
    remaining ``scratch_rows`` rows are the staging area where a whole
    phase's offspring live while they are batch-improved and evaluated.
    Replacement is a row copy (:meth:`adopt`), never an object allocation,
    and all population statistics are vectorized reductions over the shared
    matrices.

    The cMA breeds from row indices: neighbor rows of the pattern's
    :meth:`~repro.core.neighborhood.NeighborhoodPattern.table`, the
    :meth:`fitness_values` vector and the assignment rows.  Cells are also
    exposed (to observers, the multi-objective archive, tests) as
    :class:`Individual` handles whose schedules are zero-copy engine views.
    Handles are created on demand and become stale once their cell is
    written — hold on to row indices, not handles.

    Parameters
    ----------
    height, width:
        Mesh dimensions.
    batch:
        The structure-of-arrays state; must hold exactly
        ``height·width + scratch_rows`` rows.
    evaluator:
        The run's :class:`~repro.model.fitness.FitnessEvaluator`; used to
        scalarize cached objectives and charge batched evaluations.
    scratch_rows:
        Number of offspring staging rows appended after the cells.
    """

    def __init__(
        self,
        height: int,
        width: int,
        batch: BatchEvaluator,
        evaluator: FitnessEvaluator,
        scratch_rows: int = 0,
    ) -> None:
        check_integer("height", height, minimum=1)
        check_integer("width", width, minimum=1)
        check_integer("scratch_rows", scratch_rows, minimum=0)
        expected = int(height) * int(width) + int(scratch_rows)
        if batch.population_size != expected:
            raise ValueError(
                f"batch must hold {expected} rows "
                f"({height}x{width} cells + {scratch_rows} scratch), "
                f"got {batch.population_size}"
            )
        self.height = int(height)
        self.width = int(width)
        self.batch = batch
        self.evaluator = evaluator
        self.scratch_rows = int(scratch_rows)
        rows = batch.population_size
        self._fitness = np.full(rows, np.inf)
        self._makespan = np.full(rows, np.inf)
        self._flowtime = np.full(rows, np.inf)
        self.refresh(self.population_rows)

    # ------------------------------------------------------------------ #
    # Geometry and cell access
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of cells in the grid (scratch rows excluded)."""
        return self.height * self.width

    def __len__(self) -> int:
        return self.size

    @property
    def population_rows(self) -> np.ndarray:
        """Row indices of the grid cells (``0 .. size-1``)."""
        return np.arange(self.size)

    def _check_position(self, position: int) -> int:
        if not 0 <= position < self.size:
            raise IndexError(f"position {position} outside grid of size {self.size}")
        return int(position)

    def position_of(self, row: int, col: int) -> int:
        """Linear index of the cell at (row, col), with toroidal wrap-around."""
        return (row % self.height) * self.width + (col % self.width)

    def coordinates_of(self, position: int) -> tuple[int, int]:
        """(row, col) coordinates of a linear cell index."""
        self._check_position(position)
        return divmod(position, self.width)

    def _individual(self, row: int) -> Individual:
        """An :class:`Individual` handle over one row (zero-copy schedule view)."""
        return Individual(
            schedule=self.batch.view(row),
            fitness=float(self._fitness[row]),
            makespan=float(self._makespan[row]),
            flowtime=float(self._flowtime[row]),
        )

    def __getitem__(self, position: int) -> Individual:
        return self._individual(self._check_position(position))

    def __iter__(self) -> Iterator[Individual]:
        return (self._individual(row) for row in range(self.size))

    # ------------------------------------------------------------------ #
    # Evaluation bookkeeping
    # ------------------------------------------------------------------ #
    def refresh(self, rows: np.ndarray | Sequence[int]) -> None:
        """Re-derive the cached fitness/objective vectors from the batch state.

        The batch caches are exact at all times, so this is three vectorized
        reductions; the evaluation counter is *not* charged (use
        :meth:`evaluate_rows` for counted evaluation).
        """
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        self._makespan[rows] = self.batch.makespans(rows)
        self._flowtime[rows] = self.batch.flowtimes(rows)
        self._fitness[rows] = self.evaluator.scalarize_batch(
            self._makespan[rows], self._flowtime[rows] / self.batch.nb_machines
        )

    def evaluate_rows(self, rows: np.ndarray | Sequence[int]) -> np.ndarray:
        """Counted batch evaluation: refresh *rows* and charge one eval each."""
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        self.refresh(rows)
        self.evaluator.add_evaluations(rows.shape[0])
        return self._fitness[rows]

    def fitness_at(self, position: int) -> float:
        """Cached scalarized fitness of one cell (or scratch row)."""
        return float(self._fitness[position])

    # ------------------------------------------------------------------ #
    # Offspring staging and replacement
    # ------------------------------------------------------------------ #
    def stage(self, assignments: np.ndarray) -> np.ndarray:
        """Write offspring assignments into scratch rows; returns their indices.

        One vectorized write plus one subset recompute covers the whole
        offspring batch; the rows are then ready for
        :meth:`~repro.core.local_search.LocalSearch.improve_batch`.
        """
        matrix = np.asarray(assignments, dtype=np.int64)
        if matrix.shape[0] > self.scratch_rows:
            raise ValueError(
                f"cannot stage {matrix.shape[0]} offspring with only "
                f"{self.scratch_rows} scratch rows"
            )
        rows = self.size + np.arange(matrix.shape[0])
        self.batch.set_rows(rows, matrix)
        return rows

    def stage_cells(self, positions: Sequence[int]) -> np.ndarray:
        """Copy cell occupants into scratch rows (offspring for mutation).

        Caches are copied, not recomputed, so mutating the staged copies
        stays incremental, whether one move per row through
        :meth:`~repro.engine.batch.BatchEvaluator.move_jobs` or through
        engine views.
        """
        positions = np.atleast_1d(np.asarray(positions, dtype=np.int64))
        if positions.shape[0] > self.scratch_rows:
            raise ValueError(
                f"cannot stage {positions.shape[0]} offspring with only "
                f"{self.scratch_rows} scratch rows"
            )
        rows = self.size + np.arange(positions.shape[0])
        self.batch.copy_rows(positions, rows)
        return rows

    def adopt(
        self,
        positions: int | np.ndarray | Sequence[int],
        rows: int | np.ndarray | Sequence[int],
    ) -> None:
        """Install the offspring in scratch *rows* into cells *positions* (row copies).

        Takes one position and row or equally long arrays of them, whose
        positions must be distinct: a whole phase's accepted offspring move
        in one write of each matrix and cached objective.
        """
        positions = np.atleast_1d(np.asarray(positions, dtype=np.int64))
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        outside = positions[(positions < 0) | (positions >= self.size)]
        if outside.size:
            self._check_position(int(outside[0]))
        self.batch.copy_rows(rows, positions)
        self._fitness[positions] = self._fitness[rows]
        self._makespan[positions] = self._makespan[rows]
        self._flowtime[positions] = self._flowtime[rows]

    def install(self, position: int, individual: Individual) -> None:
        """Install a detached, evaluated individual into cell *position*.

        The sequential cell-update path: the individual's schedule caches
        and cached objective values are adopted verbatim (no recompute, no
        re-evaluation), which makes replacement bit-for-bit equivalent to
        storing the individual object itself.
        """
        self._check_position(position)
        self.batch.install_row(position, individual.schedule)
        self._fitness[position] = individual.fitness
        self._makespan[position] = individual.makespan
        self._flowtime[position] = individual.flowtime

    # ------------------------------------------------------------------ #
    # Population statistics
    # ------------------------------------------------------------------ #
    def best_position(self) -> int:
        """Linear index of the cell holding the best (lowest) fitness."""
        return int(np.argmin(self._fitness[: self.size]))

    def best(self) -> Individual:
        """Handle over the best cell (copy it before mutating the grid)."""
        return self._individual(self.best_position())

    def worst_position(self) -> int:
        """Linear index of the cell holding the worst (highest) fitness."""
        return int(np.argmax(self._fitness[: self.size]))

    def worst(self) -> Individual:
        """Handle over the cell with the highest fitness."""
        return self._individual(self.worst_position())

    def fitness_values(self) -> np.ndarray:
        """Fitness of every cell as an array (row-major order, copied)."""
        return self._fitness[: self.size].copy()

    def mean_fitness(self) -> float:
        """Average fitness over the grid."""
        return float(self._fitness[: self.size].mean())

    def genotypic_diversity(self) -> float:
        """Average normalized Hamming distance between all cell pairs."""
        return genome_diversity(self.batch.assignments[: self.size])

    def entropy(self) -> float:
        """Mean per-gene Shannon entropy of the machine assignment (in nats)."""
        return genome_entropy(self.batch.assignments[: self.size])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResidentGrid({self.height}x{self.width}, "
            f"scratch_rows={self.scratch_rows}, "
            f"instance={self.batch.instance.name!r})"
        )


@dataclass
class PopulationInitializer:
    """Builds the initial population.

    Parameters
    ----------
    seeding_heuristic:
        Name of the constructive heuristic used for the first individual
        (``"ljfr_sjfr"`` in the paper; any name accepted by
        :func:`repro.heuristics.get_heuristic` works, or ``"random"`` for a
        fully random population).
    perturbation_rate:
        Fraction of jobs reassigned to random machines when deriving the
        remaining individuals from the seed ("large perturbations" in the
        paper).  Ignored when the seed itself is random.
    """

    seeding_heuristic: str = "ljfr_sjfr"
    perturbation_rate: float = 0.4

    def __post_init__(self) -> None:
        check_probability("perturbation_rate", self.perturbation_rate)

    def build_resident(
        self,
        instance: SchedulingInstance,
        height: int,
        width: int,
        evaluator: FitnessEvaluator,
        scratch_rows: int,
        rng: RNGLike = None,
    ) -> ResidentGrid:
        """Seed a :class:`ResidentGrid` (cells + offspring scratch rows).

        The population is drawn by :meth:`build_batch` — one heuristic seed,
        one vectorized perturbation draw — then kept resident: the seeded
        batch is expanded with *scratch_rows* staging rows and the evaluator
        is charged one evaluation per cell.
        """
        size = int(height) * int(width)
        batch = self.build_batch(instance, size, evaluator.weight, rng)
        grid = ResidentGrid(
            height, width, batch.expanded(scratch_rows), evaluator, scratch_rows
        )
        evaluator.add_evaluations(size)
        return grid

    def build_batch(
        self,
        instance: SchedulingInstance,
        size: int,
        weight: float,
        rng: RNGLike = None,
    ) -> BatchEvaluator:
        """The initial population as a :class:`BatchEvaluator` (SoA state)."""
        return BatchEvaluator.seeded(
            instance,
            size,
            self.seeding_heuristic,
            rng=rng,
            perturbation_rate=self.perturbation_rate,
            weight=weight,
        )
