"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils import rng as rng_module
from repro.utils.rng import (
    as_generator,
    derive_seed,
    spawn_generators,
    spawn_seed_sequences,
    substream_seed_sequence,
)


class TestAsGenerator:
    def test_none_returns_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_generator(123).integers(0, 1_000_000, size=10)
        b = as_generator(123).integers(0, 1_000_000, size=10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_generator(1).integers(0, 1_000_000, size=20)
        b = as_generator(2).integers(0, 1_000_000, size=20)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(5)
        assert as_generator(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(9)
        assert isinstance(as_generator(seq), np.random.Generator)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            as_generator(-1)

    def test_invalid_type_rejected(self):
        with pytest.raises(TypeError):
            as_generator("not-a-seed")

    def test_numpy_integer_seed_accepted(self):
        gen = as_generator(np.int64(77))
        assert isinstance(gen, np.random.Generator)


class TestSpawnGenerators:
    def test_count(self):
        children = spawn_generators(0, 5)
        assert len(children) == 5

    def test_zero_count(self):
        assert spawn_generators(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_children_are_independent(self):
        children = spawn_generators(11, 2)
        a = children[0].integers(0, 1_000_000, size=50)
        b = children[1].integers(0, 1_000_000, size=50)
        assert not np.array_equal(a, b)

    def test_children_reproducible_from_seed(self):
        first = [g.integers(0, 1000, size=5) for g in spawn_generators(99, 3)]
        second = [g.integers(0, 1000, size=5) for g in spawn_generators(99, 3)]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestSpawnSeedSequences:
    def test_matches_generator_spawn(self):
        # The seed-sequence path must reproduce numpy's Generator.spawn
        # streams exactly: it is what crosses process boundaries while
        # repeat_run materializes generators directly.
        children = spawn_generators(42, 3)
        reference = np.random.default_rng(42).spawn(3)
        for child, ref in zip(children, reference):
            assert np.array_equal(
                child.integers(0, 1_000_000, size=20),
                ref.integers(0, 1_000_000, size=20),
            )

    def test_sequences_materialize_like_generators(self):
        sequences = spawn_seed_sequences(7, 2)
        generators = spawn_generators(7, 2)
        for seq, gen in zip(sequences, generators):
            assert np.array_equal(
                as_generator(seq).integers(0, 1_000_000, size=20),
                gen.integers(0, 1_000_000, size=20),
            )

    def test_seed_sequence_parent_accepted(self):
        parent = np.random.SeedSequence(5)
        children = spawn_seed_sequences(parent, 2)
        assert len(children) == 2

    def test_zero_count(self):
        assert spawn_seed_sequences(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seed_sequences(0, -1)


class TestSubstreamSeedSequence:
    def test_stable_across_calls(self):
        a = as_generator(substream_seed_sequence(1, "u_c_hihi.0", "cma"))
        b = as_generator(substream_seed_sequence(1, "u_c_hihi.0", "cma"))
        assert np.array_equal(
            a.integers(0, 1_000_000, 20), b.integers(0, 1_000_000, 20)
        )

    def test_labels_change_the_stream(self):
        a = as_generator(substream_seed_sequence(1, "u_c_hihi.0", "cma"))
        b = as_generator(substream_seed_sequence(1, "u_c_hihi.0", "struggle_ga"))
        assert not np.array_equal(
            a.integers(0, 1_000_000, 20), b.integers(0, 1_000_000, 20)
        )

    def test_label_order_matters(self):
        a = as_generator(substream_seed_sequence(1, "x", "y"))
        b = as_generator(substream_seed_sequence(1, "y", "x"))
        assert not np.array_equal(
            a.integers(0, 1_000_000, 20), b.integers(0, 1_000_000, 20)
        )

    def test_integer_labels_accepted(self):
        substream_seed_sequence(3, 0, 17)


class TestDeriveSeed:
    def test_in_range(self):
        seed = derive_seed(4, low=10, high=20)
        assert 10 <= seed < 20

    def test_deterministic(self):
        assert derive_seed(123) == derive_seed(123)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            derive_seed(1, low=5, high=5)


def replay_choice(gen, pool, size, rows=None):
    """What *rows* (or one) ``choice(pool, size, replace=False)`` calls return, replayed."""
    draws = rng_module.bounded_draws(gen, rng_module.floyd_bounds(pool, size), rows or 1)
    samples = rng_module.floyd_samples(draws, pool, size)
    return samples if rows else samples[0]


class TestHelpers:
    def test_floyd_samples_are_distinct(self):
        sample = replay_choice(np.random.default_rng(1), 20, 10)
        assert len(set(sample.tolist())) == 10

    def test_floyd_bounds_reject_too_many(self):
        with pytest.raises(ValueError):
            rng_module.floyd_bounds(3, 4)

    def test_floyd_bounds_reject_negative_size(self):
        with pytest.raises(ValueError):
            rng_module.floyd_bounds(3, -1)

    def test_rows_stack_successive_samples(self):
        for pool, size, count in [(9, 3, 3), (13, 5, 4), (7, 7, 2), (5, 0, 3), (20_000, 400, 2)]:
            reference, gen = np.random.default_rng(pool), np.random.default_rng(pool)
            expected = [reference.choice(pool, size, replace=False) for _ in range(count)]
            picks = replay_choice(gen, pool, size, count)
            assert picks.shape == (count, size) and picks.dtype == np.int64
            np.testing.assert_array_equal(picks, np.array(expected).reshape(count, size))
            assert gen.bit_generator.state == reference.bit_generator.state

    def test_bounded_draws_match_one_call_per_element(self):
        # Mixed bounds take numpy's array path, equal ones its scalar path;
        # bounds of 1 draw nothing, and no bounds make no call.
        cases = [[9, 8, 7, 1, 3, 2], [5, 5, 5], [1, 1], [2**31, 3, 2**32 - 1, 2**32, 2**40], []]
        for seed in range(50):
            for bounds in cases:
                reference, gen = np.random.default_rng(seed), np.random.default_rng(seed)
                expected = [[reference.integers(0, bound) for bound in bounds] for _ in range(4)]
                draws = rng_module.bounded_draws(gen, bounds, 4)
                assert draws.shape == (4, len(bounds))
                np.testing.assert_array_equal(draws, np.array(expected).reshape(4, len(bounds)))
                assert gen.bit_generator.state == reference.bit_generator.state


class TestSampleWithoutReplacementOracle:
    """Floyd's replay draws what ``Generator.choice`` draws, state and all.

    Each seed runs one generator pair through every (pool, size) case in
    turn, so every case meets many generator states, and any difference in
    the number of draws shows in the state compared after each pool.
    """

    POOLS = [*range(1, 41), *range(9_990, 10_001)]

    def test_matches_choice_without_replacement(self):
        for seed in range(200):
            reference, gen = np.random.default_rng(seed), np.random.default_rng(seed)
            for pool in self.POOLS:
                for size in range(min(pool, 6) + 1):
                    expected = reference.choice(pool, size, replace=False)
                    got = replay_choice(gen, pool, size)
                    assert np.array_equal(got, expected), (seed, pool, size)
                assert gen.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("pool, size", [(10_001, 250), (20_000, 500), (20_000, 400)])
    def test_matches_choice_past_ten_thousand(self, pool, size):
        if size > pool // 50:
            # choice shuffles a permutation's tail here, with a masked draw.
            assert rng_module.floyd_bounds(pool, size) is None
            return
        reference, gen = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(2):
            expected = reference.choice(pool, size, replace=False)
            assert np.array_equal(replay_choice(gen, pool, size), expected)
        assert gen.bit_generator.state == reference.bit_generator.state

    def test_integer_index_matches_choice_of_an_array(self):
        # The single pick the mutations and tabu search make from an array.
        for seed in range(200):
            reference, gen = np.random.default_rng(seed), np.random.default_rng(seed)
            for size in range(1, 41):
                array = np.arange(size) * 3 + 1
                assert array[gen.integers(array.size)] == reference.choice(array)
            assert gen.bit_generator.state == reference.bit_generator.state
