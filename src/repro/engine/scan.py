"""Vectorized neighborhood scans over completion-time state.

Every local-search method of the paper ranks candidate moves by the machine
completion times they would produce.  The functions in this module compute
those scores as single numpy expressions over the *current* assignment and
completion arrays — no per-candidate ``np.delete``, no schedule copies.
The kernels exist per row (one solution at a time, consumed by the scalar
local-search steps and the :class:`~repro.model.schedule.Schedule` path)
and, except the ragged critical-swap scan, as ``*_batch`` (a whole
population of rows in one expression, consumed by the batched local-search
steps that improve an entire resident offspring batch per iteration).

The central trick: moving one job touches at most two machine completion
times, so the makespan after the move is the maximum of the two updated
entries and the largest *unchanged* entry.  The latter is always among the
top three completion times of the current state (top two when only one
machine changes), which :func:`top_completions` extracts once per state.
"""

from __future__ import annotations

import numpy as np

from repro.utils.arrays import top_completions

__all__ = [
    "top_completions",
    "top_completions_batch",
    "score_all_moves",
    "score_all_moves_batch",
    "score_moves_for_job",
    "score_moves_for_jobs_batch",
    "score_critical_moves",
    "score_critical_moves_batch",
    "score_critical_swaps",
]


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


def score_all_moves(
    etc: np.ndarray, assignment: np.ndarray, completion: np.ndarray
) -> np.ndarray:
    """Makespan of every single-job move, as a ``(jobs, machines)`` matrix.

    ``scores[j, m]`` is the makespan that would result from reassigning job
    *j* to machine *m*; entries with ``m == assignment[j]`` (staying put is
    not a move) hold ``+inf``.  The whole scan is one vectorized expression:
    the unchanged-machines maximum is resolved from the top three completion
    times, since at most two machines (source and destination) are excluded
    per candidate.
    """
    nb_jobs, nb_machines = etc.shape
    jobs = np.arange(nb_jobs)
    removed = completion[assignment] - etc[jobs, assignment]  # (J,) source after removal
    added = completion[None, :] + etc  # (J, M) destination after insertion
    (i1, i2, _), (v1, v2, v3) = top_completions(completion, 3)
    source = assignment[:, None]
    destination = np.arange(nb_machines)[None, :]
    unchanged = np.where(
        (i1 != source) & (i1 != destination),
        v1,
        np.where((i2 != source) & (i2 != destination), v2, v3),
    )
    scores = np.maximum(np.maximum(unchanged, removed[:, None]), added)
    scores[jobs, assignment] = np.inf
    return scores


def score_all_moves_batch(
    etc: np.ndarray, assignments: np.ndarray, completions: np.ndarray
) -> np.ndarray:
    """:func:`score_all_moves` for a whole batch, ``(rows, jobs, machines)``.

    ``scores[r, j, m]`` is the makespan row *r* would have after reassigning
    job *j* to machine *m*; entries with ``m == assignments[r, j]`` hold
    ``+inf``.  One expression scores every single-job move of every row —
    the kernel behind whole-grid batch local search.

    To keep the number of full ``(rows, jobs, machines)`` passes minimal,
    the kernel first assumes the unchanged-machines maximum is the global
    top completion time ``v1`` (true for every candidate that excludes
    neither ``v1``'s machine as source nor as destination) and then repairs
    the two thin exception slabs — the ``m == top-machine`` column and the
    ``j on top-machine`` rows — with 2-D-sized work.
    """
    count = assignments.shape[0]
    nb_jobs, nb_machines = etc.shape
    rows_2d = np.arange(count)[:, None]
    jobs = np.arange(nb_jobs)
    chosen = etc[jobs[None, :], assignments]  # (R, J) current-machine ETC
    removed = completions[rows_2d, assignments] - chosen  # (R, J)
    indices, values = top_completions_batch(completions, 3)
    i1, i2 = indices[:, 0], indices[:, 1]
    v1, v2, v3 = values[:, 0], values[:, 1], values[:, 2]

    # Main pass: max(removed, v1) folded in 2-D, one 3-D maximum.
    scores = completions[:, None, :] + etc[None, :, :]  # (R, J, M) "added"
    base = np.maximum(removed, v1[:, None])  # (R, J)
    np.maximum(scores, base[:, :, None], out=scores)

    # Fix the destination == top-machine column: v1's machine is excluded,
    # so the unchanged maximum drops to v2 (or v3 when the source is v2's).
    unchanged_col = np.where(assignments != i2[:, None], v2[:, None], v3[:, None])
    added_col = v1[:, None] + etc[:, i1].T  # (R, J)
    scores[rows_2d, jobs[None, :], i1[:, None]] = np.maximum(
        np.maximum(unchanged_col, removed), added_col
    )

    # Fix the source == top-machine rows: moving a job *off* v1's machine
    # excludes it everywhere, so those job rows use v2/v3 across machines.
    row_idx, job_idx = np.nonzero(assignments == i1[:, None])
    if row_idx.size:
        unchanged_rows = np.where(
            np.arange(nb_machines)[None, :] != i2[row_idx, None],
            v2[row_idx, None],
            v3[row_idx, None],
        )  # (K, M)
        added_rows = completions[row_idx] + etc[job_idx]  # (K, M)
        scores[row_idx, job_idx] = np.maximum(
            np.maximum(unchanged_rows, removed[row_idx, job_idx, None]), added_rows
        )

    scores[rows_2d, jobs[None, :], assignments] = np.inf
    return scores


def score_moves_for_job(
    etc: np.ndarray, assignment: np.ndarray, completion: np.ndarray, job: int
) -> np.ndarray:
    """Makespan of moving *job* to each machine, as a ``(machines,)`` vector.

    This is the SLM scan: the completion vector with the job removed from
    its source machine is formed once, its top two entries give the
    excluded-destination maximum in O(1), and the entry for the current
    machine holds ``+inf``.
    """
    source = int(assignment[job])
    reduced = completion.astype(float, copy=True)
    reduced[source] -= etc[job, source]
    (i1, _), (v1, v2) = top_completions(reduced, 2)
    new_destination = reduced + etc[job]  # equals completion + etc off the source machine
    unchanged = np.where(np.arange(completion.shape[0]) == i1, v2, v1)
    scores = np.maximum(unchanged, new_destination)
    scores[source] = np.inf
    return scores


def score_moves_for_jobs_batch(
    etc: np.ndarray,
    assignments: np.ndarray,
    completions: np.ndarray,
    jobs: np.ndarray,
) -> np.ndarray:
    """:func:`score_moves_for_job` for one chosen job per row, ``(rows, machines)``.

    ``scores[r, m]`` is the makespan of moving ``jobs[r]`` of row *r* to
    machine *m* (``+inf`` on the job's current machine) — the batched SLM
    scan: every row's reduced completion vector, its top two entries and the
    destination maxima are formed in one expression.
    """
    rows = np.arange(assignments.shape[0])
    nb_machines = completions.shape[1]
    sources = assignments[rows, jobs]
    reduced = completions.astype(float, copy=True)
    reduced[rows, sources] -= etc[jobs, sources]
    indices, values = top_completions_batch(reduced, 2)
    new_destination = reduced + etc[jobs]  # (R, M)
    unchanged = np.where(
        np.arange(nb_machines)[None, :] == indices[:, 0, None],
        values[:, 1, None],
        values[:, 0, None],
    )
    scores = np.maximum(unchanged, new_destination)
    scores[rows, sources] = np.inf
    return scores


def score_critical_moves(
    etc: np.ndarray,
    completion: np.ndarray,
    source_jobs: np.ndarray,
    source: int,
) -> np.ndarray:
    """LMCTM metric for moving each makespan-machine job anywhere.

    ``metric[a, m] = max(new_source, new_destination)`` for moving
    ``source_jobs[a]`` from the makespan-defining machine *source* to
    machine *m* — the completion-time reduction criterion of the paper.
    Column *source* holds ``+inf``.
    """
    new_source = completion[source] - etc[source_jobs, source]  # (A,)
    new_destination = completion[None, :] + etc[source_jobs, :]  # (A, M)
    metric = np.maximum(new_source[:, None], new_destination)
    metric[:, source] = np.inf
    return metric


def score_critical_swaps(
    etc: np.ndarray,
    assignment: np.ndarray,
    completion: np.ndarray,
    source_jobs: np.ndarray,
    other_jobs: np.ndarray,
    source: int,
) -> np.ndarray:
    """LMCTS metric for swapping makespan-machine jobs with the rest.

    ``metric[a, b] = max(new_source, new_target)`` after exchanging the
    machines of ``source_jobs[a]`` (on the makespan-defining machine
    *source*) and ``other_jobs[b]``, ranking pairs by the larger of the two
    affected completion times.
    """
    other_machines = assignment[other_jobs]
    new_source = (
        completion[source]
        - etc[source_jobs, source][:, None]
        + etc[other_jobs, source][None, :]
    )  # (A, B)
    new_target = (
        (completion[other_machines] - etc[other_jobs, other_machines])[None, :]
        + etc[source_jobs[:, None], other_machines[None, :]]
    )  # (A, B)
    return np.maximum(new_source, new_target)


def score_critical_moves_batch(
    etc: np.ndarray,
    completions: np.ndarray,
    source_jobs: np.ndarray,
    valid: np.ndarray,
    sources: np.ndarray,
) -> np.ndarray:
    """:func:`score_critical_moves` for a whole batch, ``(rows, A, machines)``.

    ``source_jobs`` is a ``(rows, A)`` matrix of per-row makespan-machine
    jobs padded to the widest row, ``valid`` the matching boolean mask and
    ``sources`` the ``(rows,)`` makespan-defining machines.  Padded entries
    and the source-machine column hold ``+inf``.
    """
    rows = np.arange(completions.shape[0])
    new_source = (
        completions[rows, sources][:, None] - etc[source_jobs, sources[:, None]]
    )  # (R, A)
    new_destination = completions[:, None, :] + etc[source_jobs]  # (R, A, M)
    metric = np.maximum(new_source[:, :, None], new_destination)
    np.put_along_axis(metric, sources[:, None, None], np.inf, axis=2)
    metric[~valid] = np.inf
    return metric
