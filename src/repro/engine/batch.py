"""Structure-of-arrays population state with vectorized batch evaluation.

The scalar :class:`~repro.model.schedule.Schedule` evaluates one solution at
a time.  :class:`BatchEvaluator` holds a whole population as a
``(pop, jobs)`` integer assignment matrix plus cached ``(pop, machines)``
completion-time and flowtime matrices, and recomputes *all* of them with a
handful of numpy operations:

* completion times are one flat ``np.bincount`` scatter-add over
  ``pop × jobs`` (ETC, machine) pairs;
* SPT flowtimes use the instance's precomputed per-machine ETC ranks to
  order every row's jobs by ``(machine, rank)`` with a single key sort, then
  a segment-reset cumulative sum yields every job's finishing time at once;
* makespan / flowtime / scalarized fitness are plain axis reductions.

Populations are designed to stay **resident**: algorithms keep their whole
mesh (plus offspring scratch rows, see
:class:`repro.core.population.ResidentGrid`) inside one evaluator for the
entire run.  To that end rows support three granularities of update:

* whole-row: :meth:`~BatchEvaluator.set_rows` (stage fresh assignments,
  subset recompute), :meth:`~BatchEvaluator.copy_rows` (replacement as a
  row copy) and :meth:`~BatchEvaluator.install_row` (adopt a scalar
  schedule's caches verbatim);
* whole-state: :meth:`~BatchEvaluator.reseat` re-targets the evaluator at a
  *different* instance and population in place, reusing grow-only backing
  stores (high-water-mark capacity) — the primitive behind the warm dynamic
  scheduling service, whose activations each solve a new pending-jobs
  instance;
* per-move, batched: :meth:`~BatchEvaluator.apply_moves` /
  :meth:`~BatchEvaluator.apply_swaps` change one job (or pair) in *every*
  row at once, patching only the two affected machine columns per row via
  closed-form SPT deltas, and return undo records for bit-exact reverts —
  the primitives behind whole-batch local search;
  :meth:`~BatchEvaluator.move_jobs` moves one job per row with
  ``Schedule.move_job``'s bits — the primitive behind whole-phase
  mutation.

A single row changes through its zero-copy :meth:`~BatchEvaluator.view`
(a ``Schedule`` whose ``move_job``/``swap_jobs`` write the batch matrices).

Candidate moves are scored without being applied by
:meth:`~BatchEvaluator.score_moves_batch` (the whole ``rows × jobs ×
machines`` move tensor in one expression; one row is a one-row subset),
and any row can be exposed through the full ``Schedule`` API as a
zero-copy view — which is how the rest of the library (operators, custom
local searches, tests) interoperates with engine state without a second
code path.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.engine import scan
from repro.model.fitness import DEFAULT_LAMBDA
from repro.model.instance import SchedulingInstance
from repro.model.schedule import Schedule
from repro.utils.rng import RNGLike, as_generator

__all__ = ["BatchEvaluator", "perturbed_copies"]


class BatchEvaluator:
    """A population of schedules stored as structure-of-arrays matrices.

    Parameters
    ----------
    instance:
        The problem instance every row refers to.
    assignments:
        ``(pop, jobs)`` matrix (or a single ``(jobs,)`` vector, promoted to
        one row) of machine indices.  The data is copied.
    weight:
        The λ of the scalarized fitness (eq. 3 of the paper).
    """

    __slots__ = (
        "instance",
        "weight",
        "_assignments",
        "_completion",
        "_machine_flowtime",
        "_assign_store",
        "_completion_store",
        "_flowtime_store",
    )

    def __init__(
        self,
        instance: SchedulingInstance,
        assignments: np.ndarray | Iterable[Iterable[int]],
        weight: float = DEFAULT_LAMBDA,
    ) -> None:
        matrix = np.array(assignments, dtype=np.int64)
        if matrix.ndim == 1:
            matrix = matrix[None, :]
        if matrix.ndim != 2 or matrix.shape[1] != instance.nb_jobs:
            raise ValueError(
                f"assignments must have shape (pop, {instance.nb_jobs}), got {matrix.shape}"
            )
        if matrix.size and (matrix.min() < 0 or matrix.max() >= instance.nb_machines):
            raise ValueError(
                f"assignment values must be machine indices in [0, {instance.nb_machines})"
            )
        self.instance = instance
        self.weight = float(weight)
        self._assignments = matrix
        self._completion = np.empty((matrix.shape[0], instance.nb_machines), dtype=float)
        self._machine_flowtime = np.empty_like(self._completion)
        # The backing stores coincide with the active matrices until a
        # reseat() grows them past the active shape (grow-only capacity).
        self._assign_store = self._assignments
        self._completion_store = self._completion
        self._flowtime_store = self._machine_flowtime
        self.recompute()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def random(
        cls,
        instance: SchedulingInstance,
        population_size: int,
        rng: RNGLike = None,
        weight: float = DEFAULT_LAMBDA,
    ) -> "BatchEvaluator":
        """A uniformly random population, drawn in one vectorized call."""
        gen = as_generator(rng)
        assignments = gen.integers(
            0, instance.nb_machines, size=(int(population_size), instance.nb_jobs)
        )
        return cls(instance, assignments, weight=weight)

    @classmethod
    def seeded(
        cls,
        instance: SchedulingInstance,
        population_size: int,
        seeding_heuristic: str | None = None,
        rng: RNGLike = None,
        perturbation_rate: float | None = None,
        weight: float = DEFAULT_LAMBDA,
    ) -> "BatchEvaluator":
        """A population seeded from a constructive heuristic.

        Row 0 holds the heuristic schedule (or a random one when
        ``seeding_heuristic`` is ``None``).  The remaining rows are uniform
        random schedules, or — when ``perturbation_rate`` is given — copies
        of the seed with that fraction of jobs reassigned to random machines
        (the paper's "large perturbations"), produced by one vectorized draw
        for the whole population.
        """
        from repro.heuristics.base import build_schedule  # heuristics sit above model

        gen = as_generator(rng)
        population_size = int(population_size)
        nb_jobs, nb_machines = instance.nb_jobs, instance.nb_machines
        if seeding_heuristic is not None:
            seed = np.asarray(build_schedule(seeding_heuristic, instance, gen).assignment)
        else:
            seed = gen.integers(0, nb_machines, size=nb_jobs)

        if perturbation_rate is None:
            assignments = gen.integers(0, nb_machines, size=(population_size, nb_jobs))
            assignments[0] = seed
        else:
            assignments = np.tile(seed, (population_size, 1))
            if population_size > 1:
                assignments[1:] = perturbed_copies(
                    seed, population_size - 1, nb_machines, perturbation_rate, gen
                )
        return cls(instance, assignments, weight=weight)

    # ------------------------------------------------------------------ #
    # Dimensions and read access
    # ------------------------------------------------------------------ #
    @property
    def population_size(self) -> int:
        return int(self._assignments.shape[0])

    @property
    def nb_jobs(self) -> int:
        return self.instance.nb_jobs

    @property
    def nb_machines(self) -> int:
        return self.instance.nb_machines

    def __len__(self) -> int:
        return self.population_size

    @property
    def row_capacity(self) -> int:
        """Population rows the backing store can hold without reallocating."""
        return int(self._assign_store.shape[0])

    @property
    def job_capacity(self) -> int:
        """Job columns the backing store can hold without reallocating."""
        return int(self._assign_store.shape[1])

    @property
    def machine_capacity(self) -> int:
        """Machine columns the cache stores can hold without reallocating."""
        return int(self._completion_store.shape[1])

    @property
    def assignments(self) -> np.ndarray:
        """Read-only ``(pop, jobs)`` view of the assignment matrix."""
        view = self._assignments.view()
        view.setflags(write=False)
        return view

    @property
    def completion_times(self) -> np.ndarray:
        """Read-only ``(pop, machines)`` view of the completion-time cache."""
        view = self._completion.view()
        view.setflags(write=False)
        return view

    @property
    def machine_flowtimes(self) -> np.ndarray:
        """Read-only ``(pop, machines)`` view of the flowtime cache."""
        view = self._machine_flowtime.view()
        view.setflags(write=False)
        return view

    def reseat(
        self,
        instance: SchedulingInstance,
        assignments: np.ndarray | Iterable[Iterable[int]],
        *,
        min_rows: int = 0,
        min_jobs: int = 0,
        min_machines: int = 0,
    ) -> bool:
        """Re-target this evaluator at a new instance and population in place.

        The dynamic-scheduling primitive: each scheduler activation solves a
        *different* instance (the currently pending jobs on the currently
        available machines), but a warm service keeps one evaluator alive
        across the whole simulation.  The active matrices become views into
        grow-only backing stores: when the new ``(pop, jobs, machines)``
        shape fits inside the high-water-mark capacity the rows are reused
        (one fancy write + one subset recompute, no allocation); only a batch
        that exceeds the capacity triggers a reallocation, optionally padded
        by the ``min_*`` floors so the caller can reserve slack for future
        growth.

        Returns ``True`` when the existing buffers were reused, ``False``
        when the store had to grow.
        """
        matrix = np.array(assignments, dtype=np.int64)
        if matrix.ndim == 1:
            matrix = matrix[None, :]
        if matrix.ndim != 2 or matrix.shape[1] != instance.nb_jobs:
            raise ValueError(
                f"assignments must have shape (pop, {instance.nb_jobs}), got {matrix.shape}"
            )
        if matrix.size and (matrix.min() < 0 or matrix.max() >= instance.nb_machines):
            raise ValueError(
                f"assignment values must be machine indices in [0, {instance.nb_machines})"
            )
        pop, jobs = matrix.shape
        machines = instance.nb_machines
        reused = (
            pop <= self.row_capacity
            and jobs <= self.job_capacity
            and machines <= self.machine_capacity
        )
        if not reused:
            rows_cap = max(pop, min_rows, self.row_capacity)
            jobs_cap = max(jobs, min_jobs, self.job_capacity)
            machines_cap = max(machines, min_machines, self.machine_capacity)
            self._assign_store = np.zeros((rows_cap, jobs_cap), dtype=np.int64)
            self._completion_store = np.empty((rows_cap, machines_cap), dtype=float)
            self._flowtime_store = np.empty((rows_cap, machines_cap), dtype=float)
        self.instance = instance
        self._assignments = self._assign_store[:pop, :jobs]
        self._assignments[:] = matrix
        self._completion = self._completion_store[:pop, :machines]
        self._machine_flowtime = self._flowtime_store[:pop, :machines]
        self.recompute()
        return reused

    # ------------------------------------------------------------------ #
    # Vectorized batch evaluation
    # ------------------------------------------------------------------ #
    def recompute(self, rows: np.ndarray | Sequence[int] | None = None) -> None:
        """Recompute the cached matrices from scratch (vectorized).

        With ``rows`` given, only that subset of the population is
        recomputed; otherwise the whole batch is.
        """
        instance = self.instance
        nb_jobs, nb_machines = instance.nb_jobs, instance.nb_machines
        if rows is None:
            assign = self._assignments
            completion = self._completion
            flowtime = self._machine_flowtime
        else:
            rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
            assign = self._assignments[rows]
            completion = np.empty((rows.shape[0], nb_machines), dtype=float)
            flowtime = np.empty_like(completion)
        pop = assign.shape[0]
        etc = instance.etc
        jobs = np.arange(nb_jobs)

        # Completion: scatter-add each row's chosen ETC onto its machine.
        chosen = etc[jobs[None, :], assign]  # (P, J)
        flat = (np.arange(pop)[:, None] * nb_machines + assign).ravel()
        totals = np.bincount(flat, weights=chosen.ravel(), minlength=pop * nb_machines)
        completion[:] = instance.ready_times[None, :] + totals.reshape(pop, nb_machines)

        # Flowtime: order every row's jobs by (machine, SPT rank) with one
        # key sort, then cumulative-sum within machine segments.  The keys
        # are unique within a row (ranks are a permutation), so the faster
        # unstable sort yields the same order as a stable one.
        ranks = instance.etc_ranks[jobs[None, :], assign]  # (P, J)
        order = np.argsort(assign * nb_jobs + ranks, axis=1)
        machines_sorted = np.take_along_axis(assign, order, axis=1)
        times_sorted = np.take_along_axis(chosen, order, axis=1)
        running = np.cumsum(times_sorted, axis=1)
        before = running - times_sorted  # cumulative sum *before* each position
        new_segment = np.empty_like(machines_sorted, dtype=bool)
        new_segment[:, 0] = True
        new_segment[:, 1:] = machines_sorted[:, 1:] != machines_sorted[:, :-1]
        # Index of each position's segment start, then the running sum there.
        start_index = np.maximum.accumulate(
            np.where(new_segment, jobs[None, :], 0), axis=1
        )
        segment_base = np.take_along_axis(before, start_index, axis=1)
        finish = instance.ready_times[machines_sorted] + (running - segment_base)
        flat_sorted = (np.arange(pop)[:, None] * nb_machines + machines_sorted).ravel()
        flowtime[:] = np.bincount(
            flat_sorted, weights=finish.ravel(), minlength=pop * nb_machines
        ).reshape(pop, nb_machines)

        if rows is not None:
            self._completion[rows] = completion
            self._machine_flowtime[rows] = flowtime

    def makespans(self, rows: np.ndarray | Sequence[int] | None = None) -> np.ndarray:
        """Makespan of every row (or of the ``rows`` subset)."""
        completion = self._completion if rows is None else self._completion[rows]
        return completion.max(axis=1)

    def flowtimes(self, rows: np.ndarray | Sequence[int] | None = None) -> np.ndarray:
        """Flowtime of every row (or of the ``rows`` subset)."""
        flowtime = self._machine_flowtime if rows is None else self._machine_flowtime[rows]
        return flowtime.sum(axis=1)

    def mean_flowtimes(self, rows: np.ndarray | Sequence[int] | None = None) -> np.ndarray:
        """Flowtime divided by the number of machines, per row."""
        return self.flowtimes(rows) / self.nb_machines

    def fitnesses(self, rows: np.ndarray | Sequence[int] | None = None) -> np.ndarray:
        """Scalarized fitness ``λ·makespan + (1−λ)·mean_flowtime`` per row."""
        return self.weight * self.makespans(rows) + (1.0 - self.weight) * self.mean_flowtimes(rows)

    # ------------------------------------------------------------------ #
    # Vectorized neighborhood scan
    # ------------------------------------------------------------------ #
    def score_moves_batch(self, rows: np.ndarray | Sequence[int]) -> np.ndarray:
        """Move scores for a whole row subset, ``(len(rows), jobs, machines)``.

        ``scores[i, j, m]`` is the makespan ``rows[i]`` would have after
        moving job *j* to machine *m* (``+inf`` where the job already sits on
        *m*), for every requested row in one vectorized expression (see
        :func:`repro.engine.scan.score_all_moves_batch`).
        """
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        return scan.score_all_moves_batch(
            self.instance.etc, self._assignments[rows], self._completion[rows]
        )

    # ------------------------------------------------------------------ #
    # Vectorized row-set updates (the resident-population primitives)
    # ------------------------------------------------------------------ #
    def set_rows(
        self, rows: np.ndarray | Sequence[int], assignments: np.ndarray
    ) -> None:
        """Replace a set of rows' assignments and recompute only those rows.

        ``assignments`` must have shape ``(len(rows), jobs)``; row indices
        must be distinct.
        """
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        matrix = np.asarray(assignments, dtype=np.int64)
        if matrix.shape != (rows.shape[0], self.nb_jobs):
            raise ValueError(
                f"assignments must have shape ({rows.shape[0]}, {self.nb_jobs}), "
                f"got {matrix.shape}"
            )
        if matrix.size and (matrix.min() < 0 or matrix.max() >= self.nb_machines):
            raise ValueError(
                f"assignment values must be machine indices in [0, {self.nb_machines})"
            )
        self._assignments[rows] = matrix
        self.recompute(rows)

    def copy_rows(
        self,
        source_rows: np.ndarray | Sequence[int],
        target_rows: np.ndarray | Sequence[int],
    ) -> None:
        """Copy whole rows (assignment + caches) inside the batch, no recompute.

        This is how a resident population replaces a cell with a staged
        offspring row: one fancy-indexed write of three matrices.  Target
        rows must be distinct and must not overlap the source rows.
        """
        source_rows = np.atleast_1d(np.asarray(source_rows, dtype=np.int64))
        target_rows = np.atleast_1d(np.asarray(target_rows, dtype=np.int64))
        self._assignments[target_rows] = self._assignments[source_rows]
        self._completion[target_rows] = self._completion[source_rows]
        self._machine_flowtime[target_rows] = self._machine_flowtime[source_rows]

    def install_row(self, row: int, schedule: Schedule) -> None:
        """Copy a scalar schedule's assignment *and caches* into one row.

        Unlike :meth:`set_rows` this performs no recomputation: the schedule's
        incrementally maintained caches are adopted verbatim, so installing
        an evaluated offspring is a plain ``O(jobs + machines)`` write.
        """
        if schedule.instance is not self.instance:
            raise ValueError("schedule belongs to a different instance")
        self._assignments[row] = schedule.assignment
        self._completion[row] = schedule.completion_times
        self._machine_flowtime[row] = schedule.machine_flowtimes

    def _spt_finish_times(
        self, rows: np.ndarray, machines: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Finish times of the jobs of ``machines[i]`` of ``rows[i]`` in SPT order.

        The batched :func:`~repro.model.schedule.spt_flowtime` before its
        reduction: each row's jobs are read in the instance's precomputed
        SPT column order for its machine, masked to the jobs actually
        assigned there, and run through one cumulative sum.  Returns the
        ``(R, J)`` finish times and the mask; where the mask holds, the
        finish time has the scalar kernel's bits, since adding the 0.0 of a
        masked-out job to a partial sum changes none of them.
        """
        instance = self.instance
        order = instance.spt_order.T[machines]  # (R, J) SPT order per row's machine
        assigned = self._assignments[rows[:, None], order] == machines[:, None]
        times = instance.etc_spt[machines]  # (R, J) contiguous row gather
        running = np.cumsum(times * assigned, axis=1)
        finish = instance.ready_times[machines][:, None] + running
        return finish, assigned

    def _flowtimes_of_machines(
        self, rows: np.ndarray, machines: np.ndarray
    ) -> np.ndarray:
        """Flowtime contribution of ``machines[i]`` of ``rows[i]``, vectorized.

        One sum over each whole masked row, which groups its pairwise
        additions differently from the scalar kernel's sum over the
        machine's jobs alone: it agrees with
        :func:`~repro.model.schedule.spt_flowtime` to rounding (within 1e-12
        relative), not bit for bit.  :meth:`apply_swaps` reduces this way,
        and ``BATCH_GOLDEN`` (``tests/core/test_cma_determinism.py``) pins
        these bits.
        """
        finish, assigned = self._spt_finish_times(rows, machines)
        return (finish * assigned).sum(axis=1)

    def _exact_flowtimes_of_machines(
        self, rows: np.ndarray, machines: np.ndarray
    ) -> np.ndarray:
        """``spt_flowtime`` of ``machines[i]`` of ``rows[i]``, bit for bit.

        The scalar kernel sums a machine's packed finish times with numpy's
        ``sum``, which adds one after another below 8 elements: there the
        flowtime is the last entry of a cumulative sum over the masked row.
        From 8 jobs on numpy sums in 8-way pairwise blocks, so those
        machines (rare on the cMA's batches) are packed and summed by numpy
        itself.  :meth:`move_jobs` reduces this way, and the mutation
        phases' digests in ``tests/core/test_breeding_oracle.py`` pin these
        bits.
        """
        finish, assigned = self._spt_finish_times(rows, machines)
        flowtimes = np.cumsum(finish * assigned, axis=1)[:, -1]
        for i in np.flatnonzero(assigned.sum(axis=1) >= 8):
            flowtimes[i] = finish[i][assigned[i]].sum()
        return flowtimes

    def _touch_machines(
        self, rows: np.ndarray, first: np.ndarray, second: np.ndarray
    ) -> tuple:
        """Snapshot the cache slots a two-machine update is about to dirty.

        A single-job move or a swap touches exactly two machines per row, so
        the pre-update completion times, flowtimes and assignment stay
        restorable from ``O(rows)`` scalars — the cheap undo that lets
        batched local-search steps apply, evaluate and selectively revert
        without full-row snapshots.
        """
        return (
            self._completion[rows, first].copy(),
            self._completion[rows, second].copy(),
            self._machine_flowtime[rows, first].copy(),
            self._machine_flowtime[rows, second].copy(),
        )

    def _restore_machines(
        self,
        rows: np.ndarray,
        first: np.ndarray,
        second: np.ndarray,
        snapshot: tuple,
        mask: np.ndarray,
    ) -> None:
        rows, first, second = rows[mask], first[mask], second[mask]
        completion_first, completion_second, flowtime_first, flowtime_second = snapshot
        self._completion[rows, first] = completion_first[mask]
        self._completion[rows, second] = completion_second[mask]
        self._machine_flowtime[rows, first] = flowtime_first[mask]
        self._machine_flowtime[rows, second] = flowtime_second[mask]

    def _refresh_flowtimes(
        self, rows: np.ndarray, first: np.ndarray, second: np.ndarray
    ) -> None:
        """Recompute the flowtime of two machine columns per row in one pass."""
        count = rows.shape[0]
        both = self._flowtimes_of_machines(
            np.concatenate([rows, rows]), np.concatenate([first, second])
        )
        self._machine_flowtime[rows, first] = both[:count]
        self._machine_flowtime[rows, second] = both[count:]

    def _insertion_deltas(
        self,
        jobs: np.ndarray,
        machines: np.ndarray,
        assignments: np.ndarray,
        removing: bool,
    ) -> np.ndarray:
        """Flowtime change of inserting/removing ``jobs[i]`` on ``machines[i]``.

        Under SPT ordering, inserting job *x* on machine *m* adds *x*'s own
        finish time (``ready + Σ etc of earlier-ranked jobs + etc_x``) and
        delays every later-ranked job by ``etc_x`` — a closed form needing
        only masked reductions over the given ``(rows, jobs)`` assignment
        snapshot, no cumulative sums.  Removal is the same quantity measured
        on a snapshot that still contains *x*.
        """
        instance = self.instance
        ranks_m = instance.etc_ranks.T[machines]  # (R, J) all jobs' ranks on m
        rank_x = instance.etc_ranks[jobs, machines][:, None]
        on_machine = assignments == machines[:, None]
        earlier = on_machine & (ranks_m < rank_x)
        etc_m = instance.etc.T[machines]  # (R, J)
        sum_earlier = (etc_m * earlier).sum(axis=1)
        n_after = on_machine.sum(axis=1) - earlier.sum(axis=1) - (1 if removing else 0)
        etc_x = instance.etc[jobs, machines]
        return instance.ready_times[machines] + sum_earlier + etc_x * (1 + n_after)

    def move_jobs(
        self,
        rows: np.ndarray | Sequence[int],
        jobs: np.ndarray | Sequence[int],
        machines: np.ndarray | Sequence[int],
    ) -> None:
        """``Schedule.move_job(jobs[i], machines[i])`` on each of *rows*, bit for bit.

        The same completion-time arithmetic and the same flowtime bits as
        the move through each row's :meth:`view`
        (:meth:`_exact_flowtimes_of_machines`), for a whole phase of
        mutations at once; a move to the job's own machine changes nothing.
        Rows must be distinct.  Local search moves through
        :meth:`apply_moves` instead, which lands within rounding and can be
        undone.
        """
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        jobs = np.atleast_1d(np.asarray(jobs, dtype=np.int64))
        machines = np.atleast_1d(np.asarray(machines, dtype=np.int64))
        old = self._assignments[rows, jobs]
        moving = old != machines
        if not moving.all():
            rows, jobs, machines, old = rows[moving], jobs[moving], machines[moving], old[moving]
        etc = self.instance.etc
        self._completion[rows, old] -= etc[jobs, old]
        self._completion[rows, machines] += etc[jobs, machines]
        self._assignments[rows, jobs] = machines
        both = self._exact_flowtimes_of_machines(
            np.concatenate([rows, rows]), np.concatenate([old, machines])
        )
        self._machine_flowtime[rows, old] = both[: rows.size]
        self._machine_flowtime[rows, machines] = both[rows.size :]

    def apply_moves(
        self,
        rows: np.ndarray,
        jobs: np.ndarray,
        machines: np.ndarray,
    ) -> tuple:
        """Reassign ``jobs[i]`` of ``rows[i]`` to ``machines[i]``, vectorized.

        A move touches two machines per row, so the caches are updated
        incrementally: ``O(rows)`` completion-time arithmetic plus two
        closed-form flowtime deltas (:meth:`_insertion_deltas`) — never a
        full row recomputation.  Rows must be distinct and ``machines[i]``
        must differ from the job's current machine (apply successive moves
        to the same row one call at a time).  Returns an undo record for
        :meth:`undo_moves`.
        """
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        if rows.size == 0:
            return None
        etc = self.instance.etc
        old = self._assignments[rows, jobs].copy()
        snapshot = self._touch_machines(rows, old, machines)
        assignments = self._assignments[rows]  # snapshot before the write
        self._completion[rows, old] -= etc[jobs, old]
        self._completion[rows, machines] += etc[jobs, machines]
        self._assignments[rows, jobs] = machines
        self._machine_flowtime[rows, old] -= self._insertion_deltas(
            jobs, old, assignments, removing=True
        )
        self._machine_flowtime[rows, machines] += self._insertion_deltas(
            jobs, machines, assignments, removing=False
        )
        return (old, snapshot)

    def undo_moves(
        self,
        rows: np.ndarray,
        jobs: np.ndarray,
        undo: tuple,
        mask: np.ndarray,
    ) -> None:
        """Bit-exact revert of the masked subset of an :meth:`apply_moves` call."""
        old, snapshot = undo
        machines = self._assignments[rows, jobs]
        self._assignments[rows[mask], jobs[mask]] = old[mask]
        self._restore_machines(rows, old, machines, snapshot, mask)

    def apply_swaps(
        self,
        rows: np.ndarray,
        jobs_a: np.ndarray,
        jobs_b: np.ndarray,
    ) -> tuple:
        """Exchange the machines of ``jobs_a[i]``/``jobs_b[i]`` of ``rows[i]``.

        Incremental like :meth:`apply_moves`; rows must be distinct and the
        two jobs must sit on different machines.  Returns an undo record for
        :meth:`undo_swaps`.
        """
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        if rows.size == 0:
            return None
        etc = self.instance.etc
        machines_a = self._assignments[rows, jobs_a].copy()
        machines_b = self._assignments[rows, jobs_b].copy()
        snapshot = self._touch_machines(rows, machines_a, machines_b)
        self._completion[rows, machines_a] += etc[jobs_b, machines_a] - etc[jobs_a, machines_a]
        self._completion[rows, machines_b] += etc[jobs_a, machines_b] - etc[jobs_b, machines_b]
        self._assignments[rows, jobs_a] = machines_b
        self._assignments[rows, jobs_b] = machines_a
        self._refresh_flowtimes(rows, machines_a, machines_b)
        return (machines_a, machines_b, snapshot)

    def undo_swaps(
        self,
        rows: np.ndarray,
        jobs_a: np.ndarray,
        jobs_b: np.ndarray,
        undo: tuple,
        mask: np.ndarray,
    ) -> None:
        """Bit-exact revert of the masked subset of an :meth:`apply_swaps` call."""
        machines_a, machines_b, snapshot = undo
        self._assignments[rows[mask], jobs_a[mask]] = machines_a[mask]
        self._assignments[rows[mask], jobs_b[mask]] = machines_b[mask]
        self._restore_machines(rows, machines_a, machines_b, snapshot, mask)

    def expanded(self, extra_rows: int) -> "BatchEvaluator":
        """A copy of this batch with ``extra_rows`` scratch rows appended.

        The appended rows duplicate row 0 (any valid schedule works — they
        exist to be overwritten by staged offspring), and every cache is
        copied rather than recomputed.  Used to build resident populations:
        ``population rows + offspring scratch rows`` in one state block.
        """
        if extra_rows < 0:
            raise ValueError(f"extra_rows must be non-negative, got {extra_rows}")
        clone = object.__new__(BatchEvaluator)
        clone.instance = self.instance
        clone.weight = self.weight
        pad_rows = np.zeros(extra_rows, dtype=np.int64)
        clone._assignments = np.concatenate(
            [self._assignments, self._assignments[pad_rows]], axis=0
        )
        clone._completion = np.concatenate(
            [self._completion, self._completion[pad_rows]], axis=0
        )
        clone._machine_flowtime = np.concatenate(
            [self._machine_flowtime, self._machine_flowtime[pad_rows]], axis=0
        )
        clone._assign_store = clone._assignments
        clone._completion_store = clone._completion
        clone._flowtime_store = clone._machine_flowtime
        return clone

    # ------------------------------------------------------------------ #
    # Interop with the scalar Schedule API
    # ------------------------------------------------------------------ #
    def view(self, row: int) -> Schedule:
        """Zero-copy :class:`Schedule` over one row of the batch state.

        Mutations made through the view update the batch matrices in place
        (and vice versa).  Create views on demand: a view taken *before* a
        direct batch mutation of the same row must be discarded.
        """
        return Schedule.view_over(
            self.instance,
            self._assignments[row],
            self._completion[row],
            self._machine_flowtime[row],
        )

    def schedule(self, row: int) -> Schedule:
        """Detached (owning) :class:`Schedule` copy of one row."""
        return self.view(row).copy()

    def validate(self) -> None:
        """Check every row's caches against a from-scratch scalar schedule."""
        for row in range(self.population_size):
            reference = Schedule(self.instance, self._assignments[row])
            if not np.allclose(reference.completion_times, self._completion[row]):
                raise AssertionError(f"row {row}: cached completion times are stale")
            if not np.allclose(
                np.asarray([reference.flowtime]), self._machine_flowtime[row].sum()
            ):
                raise AssertionError(f"row {row}: cached flowtimes are stale")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchEvaluator(instance={self.instance.name!r}, "
            f"pop={self.population_size}, jobs={self.nb_jobs}, "
            f"machines={self.nb_machines})"
        )


def perturbed_copies(
    assignment: np.ndarray,
    count: int,
    nb_machines: int,
    perturbation_rate: float,
    rng: RNGLike = None,
) -> np.ndarray:
    """``(count, jobs)`` perturbed copies of one assignment, fully vectorized.

    Each row reassigns the same number of distinct, independently chosen
    jobs (``max(1, round(rate · jobs))``) to uniform random machines — the
    batch equivalent of the paper's "large perturbation" seeding.
    """
    gen = as_generator(rng)
    assignment = np.asarray(assignment, dtype=np.int64)
    nb_jobs = assignment.shape[0]
    changed = min(max(1, int(round(perturbation_rate * nb_jobs))), nb_jobs)
    rows = np.tile(assignment, (count, 1))
    # Distinct jobs per row: the `changed` smallest entries of a random key.
    keys = gen.random((count, nb_jobs))
    jobs = (
        np.argpartition(keys, changed - 1, axis=1)[:, :changed]
        if changed < nb_jobs
        else np.tile(np.arange(nb_jobs), (count, 1))
    )
    machines = gen.integers(0, nb_machines, size=(count, changed))
    np.put_along_axis(rows, jobs, machines, axis=1)
    return rows
