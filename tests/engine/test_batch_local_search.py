"""Parity and exactness tests for the whole-batch local-search machinery.

The resident-grid path rests on three guarantees checked here:

* the batched scan kernels agree with independent oracles: move scores
  with ``Schedule.makespan_if_moved`` to 1e-9, and the LMCTM and LMCTS
  picks with brute-force references in first-minimum order, exactly;
* the incremental ``apply_moves``/``apply_swaps`` cache updates match a
  from-scratch recomputation, and their undo records restore the prior
  state bit for bit;
* every batched local search leaves the engine caches exact and never
  degrades a row's fitness (steps are accepted only on strict improvement).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.local_search import get_local_search, list_local_searches
from repro.engine import BatchEvaluator, scan
from repro.model.fitness import FitnessEvaluator
from repro.model.instance import SchedulingInstance
from repro.model.schedule import Schedule

TOL = 1e-9


def random_instance(seed: int, nb_jobs: int = 24, nb_machines: int = 6) -> SchedulingInstance:
    rng = np.random.default_rng(seed)
    return SchedulingInstance(
        etc=rng.uniform(1.0, 300.0, size=(nb_jobs, nb_machines)),
        ready_times=rng.uniform(0.0, 25.0, size=nb_machines),
        name=f"batch-ls-{seed}",
    )


def checkpoint(batch, rows):
    """Copies of the rows' assignments, completion times and machine flowtimes."""
    return tuple(
        np.array(array[rows])
        for array in (batch.assignments, batch.completion_times, batch.machine_flowtimes)
    )


def moved_makespans(instance, assignment):
    """Every single-job move's makespan from the ``Schedule`` what-if (the oracle)."""
    schedule = Schedule(instance, assignment)
    scores = np.full((instance.nb_jobs, instance.nb_machines), np.inf)
    for job in range(instance.nb_jobs):
        for machine in range(instance.nb_machines):
            if machine != schedule.assignment[job]:
                scores[job, machine] = schedule.makespan_if_moved(job, machine)
    return scores


def per_row_critical_moves(etc, assignments, completions):
    """Each row's LMCTM move by brute force, first minimum in scan order."""
    count = assignments.shape[0]
    jobs = np.zeros(count, dtype=np.int64)
    targets = np.zeros(count, dtype=np.int64)
    active = np.zeros(count, dtype=bool)
    for row in range(count):
        assignment, completion = assignments[row], completions[row]
        source = int(completion.argmax())
        best = np.inf
        for job in np.nonzero(assignment == source)[0]:
            new_source = completion[source] - etc[job, source]
            for machine in range(etc.shape[1]):
                metric = max(new_source, completion[machine] + etc[job, machine])
                if machine != source and metric < best:
                    best, jobs[row], targets[row] = metric, job, machine
                    active[row] = True
    return jobs, targets, active


def per_row_critical_swaps(etc, assignments, completions):
    """Each row's LMCTS pair from a per-row pair scan and its flat argmin."""
    count = assignments.shape[0]
    jobs_a = np.zeros(count, dtype=np.int64)
    jobs_b = np.zeros(count, dtype=np.int64)
    active = np.zeros(count, dtype=bool)
    for row in range(count):
        assignment, completion = assignments[row], completions[row]
        source = int(completion.argmax())
        source_jobs = np.nonzero(assignment == source)[0]
        other_jobs = np.nonzero(assignment != source)[0]
        if source_jobs.size == 0 or other_jobs.size == 0:
            continue
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
        metric = np.maximum(new_source, new_target)
        a_index, b_index = np.unravel_index(int(metric.argmin()), metric.shape)
        jobs_a[row], jobs_b[row] = source_jobs[a_index], other_jobs[b_index]
        active[row] = True
    return jobs_a, jobs_b, active


CRITICAL_CASES = [
    ("real", 0), ("integer_ties", 1), ("degenerate_rows", 2), ("single_row", 3),
    ("one_row_blocks", 4),
]


def critical_batches(case, seed):
    """40 random batches of one case for the critical-move and -swap kernels.

    Integer ETC makes equal metrics common, so the first-minimum tie order
    is exercised; in ``degenerate_rows`` the makespan machine of rows 0, 3,
    ... holds no job and that of rows 1, 4, ... holds every job.
    """
    rng = np.random.default_rng(seed)
    for _ in range(40):
        nb_jobs, nb_machines = int(rng.integers(2, 30)), int(rng.integers(2, 7))
        if case == "real":
            etc = rng.uniform(1.0, 300.0, size=(nb_jobs, nb_machines))
        else:
            etc = rng.integers(1, 4, size=(nb_jobs, nb_machines)).astype(float)
        ready = np.zeros(nb_machines)
        count = 1 if case == "single_row" else int(rng.integers(3, 20))
        assignments = rng.integers(0, nb_machines, size=(count, nb_jobs))
        if case == "degenerate_rows":
            # The last machine's ready time defines every makespan.
            ready[-1] = etc.sum()
            assignments[::3] = rng.integers(0, nb_machines - 1, size=nb_jobs)
            assignments[1::3] = nb_machines - 1
        yield etc, BatchEvaluator(SchedulingInstance(etc=etc, ready_times=ready), assignments)


class TestScanParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_score_moves_batch_matches_makespan_if_moved(self, seed):
        instance = random_instance(seed, *[(24, 6), (17, 3), (12, 2), (30, 8), (16, 4)][seed])
        batch = BatchEvaluator.random(instance, 11, rng=seed + 1)
        rows = np.arange(len(batch))
        expected = np.stack([moved_makespans(instance, batch.assignments[row]) for row in rows])
        np.testing.assert_allclose(
            batch.score_moves_batch(rows), expected, atol=TOL, rtol=0
        )

    def test_score_moves_batch_on_row_subset(self):
        instance = random_instance(7)
        batch = BatchEvaluator.random(instance, 9, rng=3)
        rows = np.array([6, 1, 4])
        scores = batch.score_moves_batch(rows)
        for i, row in enumerate(rows):
            np.testing.assert_allclose(
                scores[i], moved_makespans(instance, batch.assignments[row]), atol=TOL, rtol=0
            )

    @pytest.mark.parametrize("nb_machines", (1, 2, 6))
    @pytest.mark.parametrize("seed", range(3))
    def test_score_moves_for_jobs_batch_matches_makespan_if_moved(self, seed, nb_machines):
        instance = random_instance(seed, nb_machines=nb_machines)
        batch = BatchEvaluator.random(instance, 8, rng=seed)
        rng = np.random.default_rng(seed + 20)
        jobs = rng.integers(0, instance.nb_jobs, size=8)
        scores = scan.score_moves_for_jobs_batch(
            instance.etc, batch.assignments[:], batch.completion_times[:], jobs
        )
        for row in range(8):
            reference = moved_makespans(instance, batch.assignments[row])[jobs[row]]
            np.testing.assert_allclose(scores[row], reference, atol=TOL, rtol=0)

    @pytest.mark.parametrize("case,seed", CRITICAL_CASES[:4])
    def test_critical_moves_batch_matches_per_row_argmin(self, case, seed):
        """Each row's LMCTM move is the brute-force first minimum, exactly."""
        for etc, batch in critical_batches(case, seed):
            jobs, targets, active = scan.score_critical_moves_batch(
                etc, batch.assignments[:], batch.completion_times[:]
            )
            expected_jobs, expected_targets, expected_active = per_row_critical_moves(
                etc, batch.assignments[:], batch.completion_times[:]
            )
            np.testing.assert_array_equal(active, expected_active)
            np.testing.assert_array_equal(jobs[active], expected_jobs[active])
            np.testing.assert_array_equal(targets[active], expected_targets[active])
            if case == "degenerate_rows":
                assert not active[0::3].any() and active[1::3].all()

    @pytest.mark.parametrize("case,seed", CRITICAL_CASES)
    def test_critical_swaps_batch_matches_per_row_argmin(self, case, seed, monkeypatch):
        """The blocked kernel picks each row's per-row pair, bit for bit.

        Degenerate rows, with a makespan machine that holds no job or every
        job, must come back inactive.
        """
        if case == "one_row_blocks":
            monkeypatch.setattr(scan, "SWAP_BLOCK_CELLS", 1)
        for etc, batch in critical_batches(case, seed):
            jobs_a, jobs_b, active = scan.score_critical_swaps_batch(
                etc, batch.assignments[:], batch.completion_times[:]
            )
            expected_a, expected_b, expected_active = per_row_critical_swaps(
                etc, batch.assignments[:], batch.completion_times[:]
            )
            np.testing.assert_array_equal(active, expected_active)
            np.testing.assert_array_equal(jobs_a[active], expected_a[active])
            np.testing.assert_array_equal(jobs_b[active], expected_b[active])
            if case == "degenerate_rows":
                assert not active[0::3].any() and not active[1::3].any()

    def test_top_completions_batch_matches_scalar(self):
        instance = random_instance(11, nb_jobs=10, nb_machines=2)
        batch = BatchEvaluator.random(instance, 5, rng=2)
        indices, values = scan.top_completions_batch(batch.completion_times[:], 3)
        for row in range(5):
            ref_idx, ref_val = scan.top_completions(batch.completion_times[row], 3)
            np.testing.assert_array_equal(indices[row], ref_idx)
            np.testing.assert_array_equal(values[row], ref_val)


class TestRowSetUpdates:
    def test_apply_moves_matches_recompute_and_undoes_exactly(self):
        instance = random_instance(2)
        batch = BatchEvaluator.random(instance, 8, rng=4)
        rng = np.random.default_rng(0)
        rows = np.arange(8)
        for _ in range(60):
            jobs = rng.integers(0, instance.nb_jobs, size=8)
            current = np.asarray(batch.assignments)[rows, jobs]
            targets = (current + rng.integers(1, instance.nb_machines, size=8)) % instance.nb_machines
            before = checkpoint(batch, rows)
            undo = batch.apply_moves(rows, jobs, targets)
            batch.validate()  # incremental caches equal a scalar recomputation
            mask = rng.random(8) < 0.5
            batch.undo_moves(rows, jobs, undo, mask)
            batch.validate()
            after = checkpoint(batch, rows)
            # Reverted rows restored bit for bit.
            np.testing.assert_array_equal(before[0][mask], after[0][mask])
            np.testing.assert_array_equal(before[1][mask], after[1][mask])
            np.testing.assert_array_equal(before[2][mask], after[2][mask])

    def test_apply_swaps_matches_recompute_and_undoes_exactly(self):
        instance = random_instance(5)
        batch = BatchEvaluator.random(instance, 6, rng=9)
        rng = np.random.default_rng(1)
        rows = np.arange(6)
        for _ in range(60):
            assignments = np.asarray(batch.assignments)
            jobs_a = rng.integers(0, instance.nb_jobs, size=6)
            candidates = [
                np.nonzero(assignments[r] != assignments[r, jobs_a[i]])[0]
                for i, r in enumerate(rows)
            ]
            if any(c.size == 0 for c in candidates):
                continue
            jobs_b = np.array([int(rng.choice(c)) for c in candidates])
            before = checkpoint(batch, rows)
            undo = batch.apply_swaps(rows, jobs_a, jobs_b)
            batch.validate()
            mask = rng.random(6) < 0.5
            batch.undo_swaps(rows, jobs_a, jobs_b, undo, mask)
            batch.validate()
            after = checkpoint(batch, rows)
            np.testing.assert_array_equal(before[0][mask], after[0][mask])

    def test_set_rows_copy_rows_and_expanded(self):
        instance = random_instance(6)
        batch = BatchEvaluator.random(instance, 5, rng=3)
        grown = batch.expanded(3)
        assert grown.population_size == 8
        grown.validate()
        replacement = np.zeros((2, instance.nb_jobs), dtype=np.int64)
        grown.set_rows([5, 6], replacement)
        grown.validate()
        np.testing.assert_array_equal(grown.assignments[5], replacement[0])
        grown.copy_rows([0, 1], [6, 7])
        grown.validate()
        np.testing.assert_array_equal(grown.assignments[6], grown.assignments[0])
        with pytest.raises(ValueError):
            grown.set_rows([0], np.full((1, instance.nb_jobs), instance.nb_machines))


class TestBatchedLocalSearches:
    @pytest.mark.parametrize("name", sorted(list_local_searches()))
    def test_improve_batch_keeps_caches_exact_and_never_degrades(self, name):
        instance = random_instance(3)
        evaluator = FitnessEvaluator(0.75)
        batch = BatchEvaluator.random(instance, 10, rng=7)
        rows = np.arange(10)
        before = evaluator.scalarize_batch(batch.makespans(rows), batch.mean_flowtimes(rows))
        search = get_local_search(name, iterations=4)
        improved = search.improve_batch(batch, rows, evaluator, rng=5)
        batch.validate()
        after = evaluator.scalarize_batch(batch.makespans(rows), batch.mean_flowtimes(rows))
        assert improved.shape == (10,)
        assert np.all(after <= before + TOL)
        # An 'improved' row strictly improved; an untouched row is unchanged.
        assert np.all(after[improved] < before[improved])
        np.testing.assert_allclose(after[~improved], before[~improved], atol=TOL, rtol=0)

    def test_improve_batch_counts_no_evaluations(self):
        instance = random_instance(4)
        evaluator = FitnessEvaluator(0.75)
        batch = BatchEvaluator.random(instance, 6, rng=2)
        search = get_local_search("slm", iterations=3)
        search.improve_batch(batch, np.arange(6), evaluator, rng=1)
        assert evaluator.evaluations == 0  # same contract as scalar improve()

    def test_default_step_batch_matches_scalar_steps(self):
        """A custom search without a vectorized override runs via row views."""
        from repro.core.local_search import LocalSearch

        class FirstJobMove(LocalSearch):
            name = "_test_first_job"

            def step(self, schedule, evaluator, rng):
                target = int(rng.integers(0, schedule.instance.nb_machines))
                source = int(schedule.assignment[0])
                if target == source:
                    return False
                before = evaluator.scalarize(schedule.makespan, schedule.mean_flowtime)
                schedule.move_job(0, target)
                after = evaluator.scalarize(schedule.makespan, schedule.mean_flowtime)
                if after < before:
                    return True
                schedule.move_job(0, source)
                return False

        instance = random_instance(8)
        evaluator = FitnessEvaluator(0.75)
        batch = BatchEvaluator.random(instance, 5, rng=6)
        rng = np.random.default_rng(11)
        twin = BatchEvaluator(instance, batch.assignments[:])
        twin_rng = np.random.default_rng(11)
        search = FirstJobMove(iterations=3)
        improved = search.improve_batch(batch, np.arange(5), evaluator, rng)
        batch.validate()  # view mutations kept the engine caches coherent
        # The default improve_batch visits rows with step() in row order, so
        # replaying the same generator against detached views must agree.
        twin_improved = np.zeros(5, dtype=bool)
        for _ in range(3):
            for row in range(5):
                twin_improved[row] |= search.step(twin.view(row), evaluator, twin_rng)
        np.testing.assert_array_equal(improved, twin_improved)
        np.testing.assert_array_equal(batch.assignments, twin.assignments)

    def test_null_search_is_a_no_op(self):
        instance = random_instance(9)
        batch = BatchEvaluator.random(instance, 4, rng=1)
        baseline = batch.assignments[:].copy()
        improved = get_local_search("none", iterations=5).improve_batch(
            batch, np.arange(4), FitnessEvaluator(), rng=0
        )
        assert not improved.any()
        np.testing.assert_array_equal(batch.assignments, baseline)


def improve_every_row(search, batch, rows, evaluator, rng):
    """``improve_batch`` as a plain loop: every step runs on every row."""
    improved = np.zeros(rows.shape[0], dtype=bool)
    for _ in range(search.iterations):
        improved |= search.step_batch(batch, rows, evaluator, rng)
    return improved


def fixed_point_batches():
    """Batches that reach their fixed points at different steps, some rows
    without a candidate, and a one-machine instance."""
    instance = random_instance(21, nb_jobs=18, nb_machines=5)
    batch = BatchEvaluator.random(instance, 12, rng=4)
    stacked = batch.assignments[:].copy()
    stacked[3] = 2  # every job on one machine: no LMCTS partner
    stacked[7] = 0
    yield instance, stacked
    # Machine 0's ready time is the makespan of every row: rows without a
    # job there have no LMCTS or LMCTM candidate.
    ready = SchedulingInstance(
        etc=instance.etc, ready_times=[4_000.0, 0.0, 0.0, 0.0, 0.0], name="ready-heavy"
    )
    mixed = np.random.default_rng(6).integers(1, 5, size=(10, instance.nb_jobs))
    mixed[::3, :4] = 0
    yield ready, mixed
    single = SchedulingInstance(etc=np.arange(1.0, 9.0).reshape(8, 1), name="one-machine")
    yield single, np.zeros((3, 8), dtype=np.int64)


class TestFixedPointRule:
    @pytest.mark.parametrize("name", ["lmcts", "lmctm", "gsm"])
    @pytest.mark.parametrize("iterations", [1, 3, 8])
    def test_matches_every_step_on_every_row(self, name, iterations):
        evaluator = FitnessEvaluator(0.75)
        search = get_local_search(name, iterations=iterations)
        for instance, assignments in fixed_point_batches():
            batch = BatchEvaluator(instance, assignments)
            twin = BatchEvaluator(instance, assignments)
            rows = np.arange(1, assignments.shape[0])[::-1].copy()  # a subset, out of order
            improved = search.improve_batch(batch, rows, evaluator, np.random.default_rng(1))
            expected = improve_every_row(
                search, twin, rows, evaluator, np.random.default_rng(1)
            )
            np.testing.assert_array_equal(improved, expected)
            np.testing.assert_array_equal(batch.assignments, twin.assignments)
            np.testing.assert_array_equal(batch.completion_times, twin.completion_times)
            np.testing.assert_array_equal(batch.machine_flowtimes, twin.machine_flowtimes)

    @staticmethod
    def count_steps(search, monkeypatch):
        """The row sets of every ``step_batch`` call *search* makes."""
        calls = []
        step_batch = search.step_batch

        def counted(batch, rows, evaluator, rng):
            calls.append(rows.copy())
            return step_batch(batch, rows, evaluator, rng)

        monkeypatch.setattr(search, "step_batch", counted)
        return calls

    @pytest.mark.parametrize("name", ["lmcts", "lmctm", "gsm"])
    def test_batch_at_its_fixed_point_costs_one_step(self, name, monkeypatch):
        evaluator = FitnessEvaluator(0.75)
        batch = BatchEvaluator.random(random_instance(22), 6, rng=3)
        rows = np.arange(6)
        search = get_local_search(name, iterations=5)
        while search.improve_batch(batch, rows, evaluator).any():
            pass
        settled = batch.assignments[:].copy()
        calls = self.count_steps(search, monkeypatch)
        assert not search.improve_batch(batch, rows, evaluator).any()
        assert len(calls) == 1 and np.array_equal(calls[0], rows)
        np.testing.assert_array_equal(batch.assignments, settled)

    @pytest.mark.parametrize("name", ["lm", "slm"])
    def test_drawing_searches_step_every_row_every_time(self, name, monkeypatch):
        evaluator = FitnessEvaluator(0.75)
        batch = BatchEvaluator.random(random_instance(23), 6, rng=4)
        rows = np.array([5, 0, 3, 2])
        search = get_local_search(name, iterations=7)
        calls = self.count_steps(search, monkeypatch)
        search.improve_batch(batch, rows, evaluator, rng=2)
        assert len(calls) == 7
        assert all(np.array_equal(call, rows) for call in calls)
