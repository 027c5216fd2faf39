"""Parity and exactness tests for the whole-batch local-search machinery.

The resident-grid path rests on three guarantees checked here to 1e-9:

* ``score_moves_batch(rows)`` equals stacked per-row ``score_moves(row)``
  calls (and the other batched scan kernels equal their scalar twins);
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

TOL = 1e-9


def random_instance(seed: int, nb_jobs: int = 24, nb_machines: int = 6) -> SchedulingInstance:
    rng = np.random.default_rng(seed)
    return SchedulingInstance(
        etc=rng.uniform(1.0, 300.0, size=(nb_jobs, nb_machines)),
        ready_times=rng.uniform(0.0, 25.0, size=nb_machines),
        name=f"batch-ls-{seed}",
    )


def padded_source_jobs(assignments, sources):
    on_source = assignments == sources[:, None]
    counts = on_source.sum(axis=1)
    width = max(int(counts.max()), 1)
    order = np.argsort(~on_source, axis=1, kind="stable")
    return order[:, :width], np.arange(width)[None, :] < counts[:, None], counts


class TestScanParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_score_moves_batch_matches_stacked_score_moves(self, seed):
        instance = random_instance(seed, *[(24, 6), (17, 3), (12, 2), (30, 8), (16, 4)][seed])
        batch = BatchEvaluator.random(instance, 11, rng=seed + 1)
        rows = np.arange(len(batch))
        stacked = np.stack([batch.score_moves(int(row)) for row in rows])
        np.testing.assert_allclose(
            batch.score_moves_batch(rows), stacked, atol=TOL, rtol=0
        )

    def test_score_moves_batch_on_row_subset(self):
        instance = random_instance(7)
        batch = BatchEvaluator.random(instance, 9, rng=3)
        rows = np.array([6, 1, 4])
        scores = batch.score_moves_batch(rows)
        for i, row in enumerate(rows):
            np.testing.assert_allclose(
                scores[i], batch.score_moves(int(row)), atol=TOL, rtol=0
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_score_moves_for_jobs_batch_matches_scalar(self, seed):
        instance = random_instance(seed)
        batch = BatchEvaluator.random(instance, 8, rng=seed)
        rng = np.random.default_rng(seed + 20)
        jobs = rng.integers(0, instance.nb_jobs, size=8)
        scores = scan.score_moves_for_jobs_batch(
            instance.etc, batch.assignments[:], batch.completion_times[:], jobs
        )
        for row in range(8):
            reference = scan.score_moves_for_job(
                instance.etc,
                batch.assignments[row],
                batch.completion_times[row],
                int(jobs[row]),
            )
            np.testing.assert_allclose(scores[row], reference, atol=TOL, rtol=0)

    @pytest.mark.parametrize("seed", range(3))
    def test_critical_kernels_match_scalar(self, seed):
        instance = random_instance(seed, nb_jobs=20, nb_machines=5)
        batch = BatchEvaluator.random(instance, 7, rng=seed)
        assignments = np.asarray(batch.assignments)
        completions = np.asarray(batch.completion_times)
        sources = completions.argmax(axis=1)
        source_jobs, valid, counts = padded_source_jobs(assignments, sources)
        moves = scan.score_critical_moves_batch(
            instance.etc, completions, source_jobs, valid, sources
        )
        for row in range(7):
            jobs_on_source = source_jobs[row][valid[row]]
            assert np.all(np.isinf(moves[row][~valid[row]]))
            if jobs_on_source.size == 0:
                continue
            reference_moves = scan.score_critical_moves(
                instance.etc, completions[row], jobs_on_source, int(sources[row])
            )
            np.testing.assert_allclose(
                moves[row][valid[row]], reference_moves, atol=TOL, rtol=0
            )

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
            before = batch.save_rows(rows)
            undo = batch.apply_moves(rows, jobs, targets)
            batch.validate()  # incremental caches equal a scalar recomputation
            mask = rng.random(8) < 0.5
            batch.undo_moves(rows, jobs, undo, mask)
            batch.validate()
            after = batch.save_rows(rows)
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
            before = batch.save_rows(rows)
            undo = batch.apply_swaps(rows, jobs_a, jobs_b)
            batch.validate()
            mask = rng.random(6) < 0.5
            batch.undo_swaps(rows, jobs_a, jobs_b, undo, mask)
            batch.validate()
            after = batch.save_rows(rows)
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
