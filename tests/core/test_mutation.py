"""Tests for the mutation operators (rebalance, move, swap)."""

import numpy as np
import pytest

from repro.core.mutation import (
    MoveMutation,
    RebalanceMutation,
    RebalanceSwapMutation,
    SwapMutation,
    get_mutation,
    list_mutations,
)
from repro.engine import BatchEvaluator
from repro.model.instance import SchedulingInstance
from repro.model.schedule import Schedule


class TestRegistry:
    def test_names(self):
        assert set(list_mutations()) == {"rebalance", "move", "swap", "rebalance_swap"}

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            get_mutation("scramble")

    def test_kwargs_forwarded(self):
        assert get_mutation("rebalance", underloaded_fraction=0.5).underloaded_fraction == 0.5


class TestRebalanceMutation:
    def test_moves_job_off_the_makespan_machine(self, small_instance):
        schedule = Schedule.random(small_instance, rng=1)
        overloaded = schedule.most_loaded_machine()
        count_before = schedule.machine_jobs(overloaded).size
        makespan_before = schedule.makespan
        RebalanceMutation().mutate(schedule, rng=2)
        schedule.validate()
        # The overloaded machine lost a job (or, in degenerate cases, the
        # schedule changed some other way); its completion cannot increase.
        assert schedule.completion_times[overloaded] <= makespan_before + 1e-9
        assert schedule.machine_jobs(overloaded).size <= count_before

    def test_target_is_an_underloaded_machine(self, small_instance):
        schedule = Schedule.random(small_instance, rng=3)
        before = np.array(schedule.assignment)
        completion_before = schedule.completion_times.copy()
        threshold = np.sort(completion_before)[
            max(0, int(np.ceil(0.25 * small_instance.nb_machines)) - 1)
        ]
        RebalanceMutation().mutate(schedule, rng=4)
        changed = np.nonzero(before != schedule.assignment)[0]
        if changed.size:  # a degenerate fall-back move may pick any machine
            target = int(schedule.assignment[changed[0]])
            source = int(before[changed[0]])
            if completion_before[source] == completion_before.max():
                assert completion_before[target] <= threshold + 1e-9

    def test_changes_exactly_zero_or_one_gene(self, small_instance):
        schedule = Schedule.random(small_instance, rng=5)
        before = np.array(schedule.assignment)
        RebalanceMutation().mutate(schedule, rng=6)
        assert np.count_nonzero(before != schedule.assignment) <= 1

    def test_single_machine_is_noop(self):
        instance = SchedulingInstance(etc=np.arange(1.0, 6.0).reshape(5, 1))
        schedule = Schedule(instance)
        RebalanceMutation().mutate(schedule, rng=0)
        assert set(schedule.assignment.tolist()) == {0}

    def test_uniform_load_falls_back_to_move(self):
        # Two identical machines, two identical jobs: every machine is "overloaded".
        etc = np.full((2, 2), 3.0)
        schedule = Schedule(SchedulingInstance(etc=etc), [0, 1])
        RebalanceMutation().mutate(schedule, rng=1)
        schedule.validate()

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            RebalanceMutation(underloaded_fraction=0.0)


class TestMoveMutation:
    def test_changes_at_most_one_gene(self, tiny_instance):
        schedule = Schedule.random(tiny_instance, rng=1)
        before = np.array(schedule.assignment)
        MoveMutation().mutate(schedule, rng=2)
        assert np.count_nonzero(before != schedule.assignment) <= 1
        schedule.validate()

    def test_deterministic_given_seed(self, tiny_instance):
        a = Schedule.random(tiny_instance, rng=1)
        b = Schedule.random(tiny_instance, rng=1)
        MoveMutation().mutate(a, rng=9)
        MoveMutation().mutate(b, rng=9)
        assert np.array_equal(a.assignment, b.assignment)


class TestSwapMutation:
    def test_preserves_machine_job_counts(self, tiny_instance):
        schedule = Schedule.random(tiny_instance, rng=2)
        counts_before = schedule.machine_job_counts()
        SwapMutation().mutate(schedule, rng=3)
        schedule.validate()
        assert np.array_equal(counts_before, schedule.machine_job_counts())

    def test_changes_exactly_two_genes_or_none(self, tiny_instance):
        schedule = Schedule.random(tiny_instance, rng=4)
        before = np.array(schedule.assignment)
        SwapMutation().mutate(schedule, rng=5)
        assert np.count_nonzero(before != schedule.assignment) in (0, 1, 2)

    def test_single_job_instance_is_safe(self):
        instance = SchedulingInstance(etc=np.array([[1.0, 2.0]]))
        schedule = Schedule(instance, [0])
        SwapMutation().mutate(schedule, rng=0)
        schedule.validate()


class TestRebalanceSwap:
    def test_keeps_schedule_valid(self, small_instance):
        schedule = Schedule.random(small_instance, rng=6)
        RebalanceSwapMutation().mutate(schedule, rng=7)
        schedule.validate()


def rebalance_with_choice(schedule, gen, underloaded_fraction=0.25):
    """The rebalance mutation as it was written with ``Generator.choice``."""
    completion = schedule.completion_times
    nb_machines = completion.shape[0]
    if nb_machines < 2:
        return
    makespan = schedule.makespan
    overloaded = np.nonzero(completion >= makespan)[0]
    count = max(1, int(np.ceil(underloaded_fraction * nb_machines)))
    by_load = np.argsort(completion, kind="stable")[:count]
    underloaded = by_load[completion[by_load] < makespan]
    if underloaded.size == 0:
        MoveMutation().mutate(schedule, gen)
        return
    source = int(gen.choice(overloaded))
    jobs = schedule.machine_jobs(source)
    if jobs.size == 0:
        MoveMutation().mutate(schedule, gen)
        return
    job = int(gen.choice(jobs))
    target = int(gen.choice(underloaded))
    schedule.move_job(job, target)


class TestRebalanceDrawOracle:
    """`RebalanceMutation` against its ``Generator.choice`` version, bit for bit."""

    @staticmethod
    def assert_same(schedule, expected, gen, reference):
        np.testing.assert_array_equal(schedule.assignment, expected.assignment)
        np.testing.assert_array_equal(schedule.completion_times, expected.completion_times)
        np.testing.assert_array_equal(schedule.machine_flowtimes, expected.machine_flowtimes)
        assert gen.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 1.0])
    def test_matches_choice_version_on_schedules_and_views(
        self, small_instance, ready_time_instance, fraction
    ):
        mutation = RebalanceMutation(fraction)
        for instance in (small_instance, ready_time_instance):
            for seed in range(40):
                batch = BatchEvaluator.random(instance, 2, rng=seed)
                twin = BatchEvaluator(instance, batch.assignments[:])
                reference, gen = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(4):  # successive mutations meet new loads and states
                    mutation.mutate(batch.view(0), gen)
                    rebalance_with_choice(twin.view(0), reference, fraction)
                    self.assert_same(batch.view(0), twin.view(0), gen, reference)
                schedule = Schedule.random(instance, rng=seed)
                expected = schedule.copy()
                mutation.mutate(schedule, gen)
                rebalance_with_choice(expected, reference, fraction)
                self.assert_same(schedule, expected, gen, reference)

    def test_matches_choice_version_when_every_load_is_equal(self):
        # No machine is less loaded: both fall back to a random move.
        instance = SchedulingInstance(etc=np.full((4, 2), 3.0))
        for seed in range(20):
            schedule, expected = Schedule(instance, [0, 1, 0, 1]), Schedule(instance, [0, 1, 0, 1])
            reference, gen = np.random.default_rng(seed), np.random.default_rng(seed)
            RebalanceMutation().mutate(schedule, gen)
            rebalance_with_choice(expected, reference)
            self.assert_same(schedule, expected, gen, reference)

    def test_matches_choice_version_when_the_source_holds_no_job(self):
        # Machine 0's ready time alone sets the makespan and no job runs
        # there: both fall back to a random move after drawing the source.
        instance = SchedulingInstance(
            etc=np.arange(1.0, 13.0).reshape(4, 3), ready_times=[100.0, 0.0, 0.0]
        )
        for seed in range(20):
            schedule, expected = Schedule(instance, [1, 2, 1, 2]), Schedule(instance, [1, 2, 1, 2])
            reference, gen = np.random.default_rng(seed), np.random.default_rng(seed)
            RebalanceMutation().mutate(schedule, gen)
            rebalance_with_choice(expected, reference)
            self.assert_same(schedule, expected, gen, reference)

    @staticmethod
    def assert_same_batches(batch, twin, gen, reference):
        np.testing.assert_array_equal(batch.assignments, twin.assignments)
        np.testing.assert_array_equal(batch.completion_times, twin.completion_times)
        np.testing.assert_array_equal(batch.machine_flowtimes, twin.machine_flowtimes)
        assert gen.bit_generator.state == reference.bit_generator.state

    def batch_against_rows(self, instance, assignments, seed, fraction=0.25, rows=None):
        """``mutate_batch`` over *rows* against the choice version row by row."""
        batch = BatchEvaluator(instance, assignments)
        twin = BatchEvaluator(instance, assignments)
        rows = np.arange(batch.population_size) if rows is None else np.asarray(rows)
        gen, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        RebalanceMutation(fraction).mutate_batch(batch, rows, gen)
        for row in rows:
            rebalance_with_choice(twin.view(int(row)), reference, fraction)
        self.assert_same_batches(batch, twin, gen, reference)
        return batch

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 1.0])
    def test_batch_matches_choice_version_row_by_row(
        self, small_instance, ready_time_instance, fraction
    ):
        for instance in (small_instance, ready_time_instance):
            for seed in range(20):
                assignments = BatchEvaluator.random(instance, 9, rng=seed).assignments
                # Every row, and an unordered subset that skips some rows.
                self.batch_against_rows(instance, assignments, seed, fraction)
                self.batch_against_rows(instance, assignments, seed, fraction, [7, 2, 4, 0])

    def test_batch_splits_its_draws_at_shared_makespans(self):
        # Identical machines and integer ETC: rows where two machines share
        # the makespan while a third is less loaded, rows where every load
        # is equal, and random rows, in several orders.
        workloads = np.array([2.0, 2.0, 2.0, 1.0, 1.0, 1.0])
        instance = SchedulingInstance(etc=np.repeat(workloads[:, None], 3, axis=1))
        shared = [0, 0, 1, 1, 1, 2]  # loads 4, 4, 1
        equal = [0, 1, 2, 0, 1, 2]  # loads 3, 3, 3
        rng = np.random.default_rng(3)
        for seed in range(40):
            kinds = [shared, equal, *rng.integers(0, 3, size=(4, 6)), shared, shared]
            assignments = np.array(kinds)[rng.permutation(len(kinds))]
            self.batch_against_rows(instance, assignments, seed)
        ties = BatchEvaluator(instance, [shared, equal]).completion_times
        assert (ties[0] == ties[0].max()).sum() == 2 and ties[0].min() < ties[0].max()
        assert (ties[1] == ties[1].max()).sum() == 3

    def test_batch_matches_choice_version_when_the_source_holds_no_job(self):
        # Machine 0's ready time alone sets the makespan of the first rows;
        # the last row puts a job there.
        instance = SchedulingInstance(
            etc=np.arange(1.0, 13.0).reshape(4, 3), ready_times=[100.0, 0.0, 0.0]
        )
        assignments = [[1, 2, 1, 2], [2, 2, 1, 1], [1, 1, 1, 2], [0, 2, 1, 2]]
        for seed in range(20):
            self.batch_against_rows(instance, assignments, seed)

    def test_batch_on_one_machine_draws_and_changes_nothing(self):
        instance = SchedulingInstance(etc=np.arange(1.0, 6.0).reshape(5, 1))
        batch = BatchEvaluator(instance, np.zeros((3, 5), dtype=np.int64))
        gen = np.random.default_rng(0)
        state = gen.bit_generator.state
        RebalanceMutation().mutate_batch(batch, np.arange(3), gen)
        assert gen.bit_generator.state == state
        assert not batch.assignments.any()

    @pytest.mark.parametrize("name", ["move", "swap", "rebalance_swap"])
    def test_other_operators_mutate_a_batch_row_by_row(self, small_instance, name):
        mutation = get_mutation(name)
        assignments = BatchEvaluator.random(small_instance, 6, rng=4).assignments
        batch = BatchEvaluator(small_instance, assignments)
        twin = BatchEvaluator(small_instance, assignments)
        gen, reference = np.random.default_rng(9), np.random.default_rng(9)
        mutation.mutate_batch(batch, np.arange(6), gen)
        for row in range(6):
            mutation.mutate(twin.view(row), reference)
        self.assert_same_batches(batch, twin, gen, reference)
