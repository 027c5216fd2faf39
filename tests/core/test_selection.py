"""Tests for the parent-selection operators."""

import numpy as np
import pytest

from repro.core.individual import Individual
from repro.core.selection import (
    BestSelection,
    LinearRankSelection,
    NTournamentSelection,
    RandomSelection,
    get_selection,
    list_selections,
)
from repro.model.schedule import Schedule


@pytest.fixture
def candidates(tiny_instance, evaluator):
    """Nine evaluated individuals with strictly increasing fitness."""
    pool = []
    for i in range(9):
        individual = Individual(Schedule.random(tiny_instance, rng=i))
        individual.evaluate(evaluator)
        individual.fitness = float(i)  # force a known, strict ordering
        pool.append(individual)
    return pool


class TestRegistry:
    def test_names(self):
        assert set(list_selections()) == {"n_tournament", "random", "best", "linear_rank"}

    def test_kwargs_forwarded(self):
        selection = get_selection("n_tournament", tournament_size=5)
        assert selection.tournament_size == 5

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            get_selection("roulette")


class TestNTournament:
    def test_returns_k_individuals(self, candidates):
        selected = NTournamentSelection(3).select(candidates, 4, rng=1)
        assert len(selected) == 4
        assert all(ind in candidates for ind in selected)

    def test_prefers_better_individuals(self, candidates):
        selection = NTournamentSelection(3)
        picks = [selection.select(candidates, 1, rng=i)[0].fitness for i in range(200)]
        # Expected winner fitness of a 3-tournament over uniform [0..8] is well
        # below the pool mean of 4.
        assert np.mean(picks) < 3.5

    def test_larger_n_increases_pressure(self, candidates):
        gentle = [NTournamentSelection(2).select(candidates, 1, rng=i)[0].fitness for i in range(200)]
        harsh = [NTournamentSelection(7).select(candidates, 1, rng=i)[0].fitness for i in range(200)]
        assert np.mean(harsh) < np.mean(gentle)

    def test_tournament_of_one_is_uniform(self, candidates):
        picks = {
            NTournamentSelection(1).select(candidates, 1, rng=i)[0].fitness
            for i in range(300)
        }
        assert len(picks) == len(candidates)  # every individual eventually picked

    def test_pool_smaller_than_n(self, candidates):
        # Sampling with replacement must still work with a 2-element pool.
        selected = NTournamentSelection(5).select(candidates[:2], 3, rng=0)
        assert len(selected) == 3

    def test_invalid_tournament_size(self):
        with pytest.raises(ValueError):
            NTournamentSelection(0)

    def test_empty_pool_rejected(self, candidates):
        with pytest.raises(ValueError):
            NTournamentSelection(3).select([], 1, rng=0)

    def test_non_positive_k_rejected(self, candidates):
        with pytest.raises(ValueError):
            NTournamentSelection(3).select(candidates, 0, rng=0)


class TestRandomSelection:
    def test_returns_requested_count(self, candidates):
        assert len(RandomSelection().select(candidates, 5, rng=0)) == 5

    def test_no_pressure(self, candidates):
        picks = [RandomSelection().select(candidates, 1, rng=i)[0].fitness for i in range(400)]
        assert abs(np.mean(picks) - 4.0) < 0.6  # close to the uniform mean


class TestBestSelection:
    def test_returns_best_k(self, candidates):
        selected = BestSelection().select(candidates, 3)
        assert [ind.fitness for ind in selected] == [0.0, 1.0, 2.0]

    def test_pads_with_best_when_k_exceeds_pool(self, candidates):
        selected = BestSelection().select(candidates[:2], 4)
        assert len(selected) == 4
        assert selected[-1].fitness == 0.0


class TestLinearRank:
    def test_pressure_parameter_validated(self):
        with pytest.raises(ValueError):
            LinearRankSelection(pressure=3.0)

    def test_prefers_better_individuals(self, candidates):
        picks = [
            LinearRankSelection(1.9).select(candidates, 1, rng=i)[0].fitness
            for i in range(300)
        ]
        assert np.mean(picks) < 4.0

    def test_single_candidate(self, candidates):
        selected = LinearRankSelection().select(candidates[:1], 2, rng=0)
        assert all(ind is candidates[0] for ind in selected)


def handle_selection(selection, candidates, k, gen):
    """The handle-based selection the cMA bred from before row indices:
    tournaments keep the first best entrant (python ``min``), ranking sorts
    the handles stably by fitness."""
    if isinstance(selection, NTournamentSelection):
        size, replace = selection.tournament_size, len(candidates) < selection.tournament_size
        winners = []
        for _ in range(k):
            entrants = gen.choice(len(candidates), size=size, replace=replace)
            winners.append(
                min((candidates[int(i)] for i in entrants), key=lambda ind: ind.fitness)
            )
        return winners
    if isinstance(selection, RandomSelection):
        return [candidates[int(i)] for i in gen.integers(0, len(candidates), size=k)]
    ranked = sorted(candidates, key=lambda individual: individual.fitness)
    if isinstance(selection, BestSelection):
        return ranked[:k] if k <= len(ranked) else ranked + [ranked[0]] * (k - len(ranked))
    ranks = np.empty(len(candidates))
    for rank, individual in enumerate(ranked):
        ranks[next(i for i, c in enumerate(candidates) if c is individual)] = rank
    n = len(candidates)
    weights = selection.pressure - (2.0 * selection.pressure - 2.0) * ranks / max(n - 1, 1)
    probs = np.ones(1) if n == 1 else weights / weights.sum()
    return [candidates[int(i)] for i in gen.choice(n, size=k, p=probs)]


class TestSelectIndices:
    @pytest.mark.parametrize("name", sorted(list_selections()))
    @pytest.mark.parametrize("pool", [1, 2, 9])
    def test_matches_handle_selection_from_equal_generator_states(
        self, candidates, name, pool
    ):
        # Tied fitness values exercise the tie order (first entrant / pool order).
        pool_candidates = candidates[:pool]
        for index, individual in enumerate(pool_candidates):
            individual.fitness = float(index % 3)
        fitness = np.array([individual.fitness for individual in pool_candidates])
        for selection in (get_selection(name), NTournamentSelection(1), NTournamentSelection(5)):
            for k in (1, 3, 12):
                gen_indices, gen_select, gen_handles = (np.random.default_rng(11) for _ in range(3))
                picks = selection.select_indices(fitness, k, gen_indices)
                expected = handle_selection(selection, pool_candidates, k, gen_handles)
                expected_ids = [id(individual) for individual in expected]
                assert [id(pool_candidates[int(i)]) for i in picks] == expected_ids
                selected = selection.select(pool_candidates, k, gen_select)
                assert [id(individual) for individual in selected] == expected_ids
                state = gen_handles.bit_generator.state
                assert gen_indices.bit_generator.state == state
                assert gen_select.bit_generator.state == state

    def test_checks_its_arguments(self):
        with pytest.raises(ValueError):
            RandomSelection().select_indices(np.array([]), 1, rng=0)
        with pytest.raises(ValueError):
            BestSelection().select_indices(np.array([1.0]), 0)


def tournaments_with_choice(fitness, k, tournament_size, gen):
    """The tournament loop as it was written with ``Generator.choice``: one
    call per tournament, the first best entrant wins."""
    replace = len(fitness) < tournament_size
    picks = np.empty(k, dtype=np.int64)
    for i in range(k):
        entrants = gen.choice(len(fitness), size=tournament_size, replace=replace)
        picks[i] = entrants[np.argmin(fitness[entrants])]
    return picks


class TestTournamentDrawOracle:
    @pytest.mark.parametrize("pool", range(1, 14))
    def test_matches_one_choice_call_per_tournament(self, pool):
        # Pools below N sample with replacement; tied fitness values
        # exercise the first-entrant tie rule.
        for tournament_size in range(1, 6):
            selection = NTournamentSelection(tournament_size)
            for k in range(1, 5):
                for seed in range(6):
                    fitness = np.random.default_rng(seed).integers(0, 4, size=pool).astype(float)
                    reference, gen = np.random.default_rng(seed), np.random.default_rng(seed)
                    expected = tournaments_with_choice(fitness, k, tournament_size, reference)
                    picks = selection.select_indices(fitness, k, gen)
                    np.testing.assert_array_equal(picks, expected)
                    assert gen.bit_generator.state == reference.bit_generator.state


class TestLargePoolTournament:
    @pytest.mark.parametrize("pool, tournament_size", [(10_001, 201), (20_000, 400)])
    def test_matches_one_choice_call_per_tournament(self, pool, tournament_size):
        # Past 10,000 candidates with N > pool // 50 choice shuffles a
        # permutation's tail, and the operator calls choice itself; at
        # N = pool // 50 it still replays Floyd's draws.
        selection = NTournamentSelection(tournament_size)
        fitness = np.random.default_rng(pool).integers(0, 50, size=pool).astype(float)
        reference, gen = np.random.default_rng(4), np.random.default_rng(4)
        expected = tournaments_with_choice(fitness, 2, tournament_size, reference)
        np.testing.assert_array_equal(selection.select_indices(fitness, 2, gen), expected)
        assert gen.bit_generator.state == reference.bit_generator.state
        assert (selection.draw_bounds(pool, 2) is None) == (tournament_size > pool // 50)
