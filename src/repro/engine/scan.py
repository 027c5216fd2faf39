"""Vectorized neighborhood scans over completion-time state.

Every local-search method of the paper ranks candidate moves by the machine
completion times they would produce.  The functions in this module compute
those scores as single numpy expressions over ``(rows, jobs)`` assignments
and ``(rows, machines)`` completion times — no per-candidate ``np.delete``,
no schedule copies.  Every kernel takes a batch of rows: the batched
local-search steps pass a whole resident offspring batch, and the scalar
steps pass their schedule as a one-row batch, so both choose through the
same arithmetic.  The ragged critical-move and critical-swap scans are
padded to the widest row; the swap scan is scored in row blocks under a
fixed cell budget.

The central trick: moving one job touches at most two machine completion
times, so the makespan after the move is the maximum of the two updated
entries and the largest *unchanged* entry.  ETC entries are strictly
positive, so a move's destination ends above its own old completion time:
the largest completion time off the source machine stands in for the
unchanged maximum, and it is among the top two of the row, which
:func:`top_completions_batch` extracts once per row.
"""

from __future__ import annotations

import numpy as np

from repro.utils.arrays import top_completions

__all__ = [
    "top_completions",
    "top_completions_batch",
    "score_all_moves_batch",
    "score_moves_for_jobs_batch",
    "score_critical_moves_batch",
    "score_critical_swaps_batch",
]

#: Cell budget of one block of :func:`score_critical_swaps_batch`.  Rows are
#: scored ``max(1, SWAP_BLOCK_CELLS // (A * jobs))`` at a time, so each
#: padded float tensor stays at most 128 KiB, from the warm service's
#: ~20-job batches (every row in one block) to the paper's 512-job
#: instances (one row per block).
SWAP_BLOCK_CELLS = 1 << 14


def top_completions_batch(
    completion: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`top_completions`: the *k* largest entries per row.

    Returns ``(indices, values)`` of shape ``(rows, k)``, sorted descending
    within each row and padded with ``(-1, -inf)`` when there are fewer than
    *k* columns, so exclusion logic works unchanged on every row at once.
    """
    completion = np.asarray(completion, dtype=float)
    rows, nb_machines = completion.shape
    keep = min(k, nb_machines)
    if keep < nb_machines:
        top = np.argpartition(completion, nb_machines - keep, axis=1)[:, nb_machines - keep:]
    else:
        top = np.tile(np.arange(nb_machines), (rows, 1))
    top_values = np.take_along_axis(completion, top, axis=1)
    order = np.argsort(-top_values, axis=1, kind="stable")
    indices = np.full((rows, k), -1, dtype=np.int64)
    values = np.full((rows, k), -np.inf)
    indices[:, :keep] = np.take_along_axis(top, order, axis=1)
    values[:, :keep] = np.take_along_axis(top_values, order, axis=1)
    return indices, values


def score_all_moves_batch(
    etc: np.ndarray, assignments: np.ndarray, completions: np.ndarray
) -> np.ndarray:
    """Makespan of every single-job move of every row, ``(rows, jobs, machines)``.

    ``scores[r, j, m]`` is the makespan row *r* would have after reassigning
    job *j* to machine *m*; entries with ``m == assignments[r, j]`` (staying
    put is not a move) hold ``+inf``.  One 3-D maximum scores every
    single-job move of every row: ``max(removed, unchanged)`` is folded in
    2-D first, ``unchanged`` being the top completion time ``v1``, or the
    runner-up ``v2`` for jobs on ``v1``'s machine.  That is exact where the
    true unchanged maximum is smaller: a move onto ``v1``'s machine lifts it
    above ``v1``, and a move from it onto ``v2``'s lifts that above ``v2``.
    """
    count = assignments.shape[0]
    rows_2d = np.arange(count)[:, None]
    jobs = np.arange(etc.shape[0])
    chosen = etc[jobs[None, :], assignments]  # (R, J) current-machine ETC
    removed = completions[rows_2d, assignments] - chosen  # (R, J)
    indices, values = top_completions_batch(completions, 2)
    unchanged = np.where(assignments == indices[:, :1], values[:, 1:], values[:, :1])
    scores = completions[:, None, :] + etc[None, :, :]  # (R, J, M) "added"
    np.maximum(scores, np.maximum(removed, unchanged)[:, :, None], out=scores)
    scores[rows_2d, jobs[None, :], assignments] = np.inf
    return scores


def score_moves_for_jobs_batch(
    etc: np.ndarray,
    assignments: np.ndarray,
    completions: np.ndarray,
    jobs: np.ndarray,
) -> np.ndarray:
    """Makespan of moving one chosen job per row to each machine, ``(rows, machines)``.

    ``scores[r, m]`` is the makespan of moving ``jobs[r]`` of row *r* to
    machine *m* (``+inf`` on the job's current machine) — the SLM scan:
    every row's completion vector with its job removed from the source is
    formed once, and its maximum stands in for the machines other than the
    destination (a move onto the maximum's own machine lifts it above).
    """
    rows = np.arange(assignments.shape[0])
    sources = assignments[rows, jobs]
    reduced = completions.astype(float, copy=True)
    reduced[rows, sources] -= etc[jobs, sources]
    scores = np.maximum(reduced.max(axis=1)[:, None], reduced + etc[jobs])
    scores[rows, sources] = np.inf
    return scores


def score_critical_swaps_batch(
    etc: np.ndarray,
    assignments: np.ndarray,
    completions: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every row's best LMCTS pair: a makespan-machine job and its swap partner.

    Swapping job ``a`` on row *r*'s makespan machine ``s`` (``completions[r]
    .argmax()``) with job ``b`` on machine ``m`` scores ``max(new_source,
    new_target)``, the larger of the two affected completion times, with
    ``new_source = (C[s] - etc[a, s]) + etc[b, s]`` and ``new_target =
    (C[m] - etc[b, m]) + etc[a, m]``.  The source jobs are padded to the
    widest row ``A`` and every job is a partner, so the metric is one
    ``(rows, A, jobs)`` tensor in which padding slots and partners on the
    source machine hold ``+inf``; the flat argmin takes each row's first
    minimum (source jobs ascending, then partners ascending).  The per-row
    terms are formed once; the tensor is then built ``max(1,
    SWAP_BLOCK_CELLS // (A * jobs))`` rows at a time, ``A`` narrowed to the
    block's widest row.

    Returns ``(jobs_a, jobs_b, active)``: each row's pair, and a mask of the
    rows that have one (a makespan machine holding no job or every job has
    none; such rows read ``0, 0``).
    """
    count, nb_jobs = assignments.shape
    nb_machines = etc.shape[1]
    jobs_a = np.zeros(count, dtype=np.int64)
    jobs_b = np.zeros(count, dtype=np.int64)
    sources = completions.argmax(axis=1)
    on_source = assignments == sources[:, None]
    counts = on_source.sum(axis=1)
    active = (counts > 0) & (counts < nb_jobs)
    live = np.flatnonzero(active)
    if live.size == 0:
        return jobs_a, jobs_b, active
    sources, on_source, counts = sources[live], on_source[live], counts[live]
    assignments, completions = assignments[live], completions[live]
    source_jobs, valid = _machine_jobs_padded(on_source, counts)
    width = source_jobs.shape[1]
    rows = np.arange(live.size)
    # Gathers go through flat indices (np.take flattens in C order).
    # new_source = (C[s] - etc[a, s]) + etc[b, s]: the first term per source
    # slot (+inf on padding), the second per partner (+inf on the source).
    removed = completions[rows, sources][:, None] - np.take(
        etc, source_jobs * nb_machines + sources[:, None]
    )  # (L, A)
    removed[~valid] = np.inf
    inserted = etc[:, sources].T  # (L, J)
    inserted[on_source] = np.inf
    # new_target = (C[m] - etc[b, m]) + etc[a, m] with m the partner's machine.
    vacated = np.take(completions, (rows * nb_machines)[:, None] + assignments) - np.take(
        etc, np.arange(nb_jobs) * nb_machines + assignments
    )  # (L, J)
    source_offsets = (source_jobs * nb_machines)[:, :, None]  # (L, A, 1)
    step = max(1, SWAP_BLOCK_CELLS // (width * nb_jobs))
    for start in range(0, live.size, step):
        block = slice(start, start + step)
        narrow = int(counts[block].max())
        metric = removed[block, :narrow, None] + inserted[block, None, :]
        target = np.take(etc, source_offsets[block, :narrow] + assignments[block, None, :])
        target += vacated[block, None, :]
        np.maximum(metric, target, out=metric)
        best = metric.reshape(metric.shape[0], -1).argmin(axis=1)
        a_index, b_index = np.divmod(best, nb_jobs)
        jobs_a[live[block]] = source_jobs[block][np.arange(best.size), a_index]
        jobs_b[live[block]] = b_index
    return jobs_a, jobs_b, active


def _machine_jobs_padded(
    on_machine: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row jobs flagged in *on_machine* (*counts* per row), padded.

    Rows hold different numbers of jobs on their machine, so the job sets
    are packed into one ``(rows, A)`` matrix (ascending job order; ``A`` the
    widest row, at least 1).  Returns ``(jobs, valid)``, ``valid`` marking
    the real entries.
    """
    width = max(int(counts.max()), 1)
    order = np.argsort(~on_machine, axis=1, kind="stable")
    return order[:, :width], np.arange(width)[None, :] < counts[:, None]


def score_critical_moves_batch(
    etc: np.ndarray, assignments: np.ndarray, completions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every row's best LMCTM move: a makespan-machine job to another machine.

    Moving job ``a`` off row *r*'s makespan machine ``s`` to machine ``m``
    scores ``max(C[s] - etc[a, s], C[m] + etc[a, m])``, the larger of the
    two affected completion times (the paper's completion-time reduction
    criterion).  The makespan-machine jobs are padded to the widest row
    ``A`` (:func:`_machine_jobs_padded`), so the metric is one ``(rows, A,
    machines)`` tensor in which padding slots and the source column hold
    ``+inf``; the flat argmin takes each row's first minimum (source jobs
    ascending, then machines ascending).

    Returns ``(jobs, targets, active)``: each row's move, and a mask of the
    rows whose makespan machine holds a job (other rows read arbitrary
    entries).
    """
    count, nb_machines = completions.shape
    rows = np.arange(count)
    sources = completions.argmax(axis=1)
    on_source = assignments == sources[:, None]
    counts = on_source.sum(axis=1)
    source_jobs, valid = _machine_jobs_padded(on_source, counts)
    new_source = (
        completions[rows, sources][:, None] - etc[source_jobs, sources[:, None]]
    )  # (R, A)
    new_destination = completions[:, None, :] + etc[source_jobs]  # (R, A, M)
    metric = np.maximum(new_source[:, :, None], new_destination)
    np.put_along_axis(metric, sources[:, None, None], np.inf, axis=2)
    metric[~valid] = np.inf
    a_index, targets = np.divmod(metric.reshape(count, -1).argmin(axis=1), nb_machines)
    return source_jobs[rows, a_index], targets, counts > 0
