"""Parent-selection operators.

Selection in a cellular algorithm happens *inside a neighborhood*: the
candidates passed to an operator are the individuals currently living in the
cells around the one being updated.  The paper uses N-Tournament selection
with N = 3 (Table 1, tuned in Figure 4); additional classic operators are
provided for ablation experiments and for the baseline GAs.
"""

from __future__ import annotations

import abc
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.core.individual import Individual
from repro.utils.rng import (
    RNGLike,
    as_generator,
    bounded_draws,
    floyd_bounds,
    floyd_samples,
)

__all__ = [
    "SelectionOperator",
    "NTournamentSelection",
    "RandomSelection",
    "BestSelection",
    "LinearRankSelection",
    "get_selection",
    "list_selections",
]


class SelectionOperator(abc.ABC):
    """Select ``k`` parents from a pool of candidates.

    Each operator implements its choice once, over the pool's fitness
    values; the cMA breeds from the picked indices (rows of its resident
    grid) and :meth:`select` is a thin wrapper for pools of
    :class:`Individual` objects.

    An operator that draws only bounded integers declares them:
    :meth:`draw_bounds` lists the exclusive upper bounds of the draws one
    :meth:`select_indices` call makes, in order, and
    :meth:`select_from_draws` picks for a whole stack of pools from a
    ``(pools, draws)`` matrix of such draws.  :meth:`select_indices` draws
    the bounds through :func:`~repro.utils.rng.bounded_draws` and runs the
    same method on one pool, so a cMA recombination phase can draw all its
    children's selections in one call.  An operator that draws otherwise
    (doubles) returns ``None`` from :meth:`draw_bounds` and implements
    :meth:`_draw_and_select`.
    """

    #: Registry key; subclasses must override it.
    name: str = ""

    def draw_bounds(self, pool: int, k: int) -> list[int] | None:
        """Exclusive upper bounds of one :meth:`select_indices` call's draws, in order.

        ``None`` when the operator draws anything but bounded integers.
        """
        return None

    def select_from_draws(
        self, fitness: np.ndarray, k: int, draws: np.ndarray
    ) -> np.ndarray:
        """``(pools, k)`` picks, given a ``(pools, pool)`` fitness matrix.

        Row *r* of *draws* holds the draws under :meth:`draw_bounds` that
        pick from row *r* of *fitness*.
        """
        raise NotImplementedError(f"{type(self).__name__} declares no draw bounds")

    def _draw_and_select(
        self, fitness: np.ndarray, k: int, gen: np.random.Generator
    ) -> np.ndarray:
        """:meth:`select_indices` of an operator that declares no draw bounds."""
        raise NotImplementedError(f"{type(self).__name__} declares draw bounds")

    def select_indices(
        self, fitness: np.ndarray, k: int, rng: RNGLike = None
    ) -> np.ndarray:
        """Pool positions of *k* (possibly repeated) picks, given each candidate's fitness."""
        if len(fitness) == 0:
            raise ValueError("cannot select from an empty candidate pool")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        gen = as_generator(rng)
        bounds = self.draw_bounds(len(fitness), k)
        if bounds is None:
            return self._draw_and_select(fitness, k, gen)
        draws = bounded_draws(gen, bounds)
        return self.select_from_draws(np.asarray(fitness)[None, :], k, draws)[0]

    def select(
        self, candidates: Sequence[Individual], k: int, rng: RNGLike = None
    ) -> list[Individual]:
        """Return *k* (possibly repeated) individuals chosen from *candidates*."""
        fitness = np.array([individual.fitness for individual in candidates], dtype=float)
        return [candidates[int(i)] for i in self.select_indices(fitness, k, rng)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class NTournamentSelection(SelectionOperator):
    """N-way tournament: sample N candidates, keep the best; repeat k times.

    ``tournament_size`` is the N of the paper; the tuning of Figure 4
    selected N = 3.  Sampling is done *with* replacement when the pool is
    smaller than N (relevant for the small L5 neighborhood).  Ties go to the
    entrant drawn first.  The draws are those of one ``Generator.choice``
    call per tournament: Floyd's insertions and shuffle swaps per entrant
    set (:func:`~repro.utils.rng.floyd_bounds`), replayed for every set at
    once by :func:`~repro.utils.rng.floyd_samples`; with replacement,
    ``N`` draws of the pool size per set.  Past 10,000 candidates with
    N > pool // 50, ``choice`` shuffles a permutation's tail, so the
    operator declares no bounds there and calls ``choice`` itself.
    """

    name = "n_tournament"

    def __init__(self, tournament_size: int = 3) -> None:
        if tournament_size < 1:
            raise ValueError(f"tournament_size must be >= 1, got {tournament_size}")
        self.tournament_size = int(tournament_size)

    def draw_bounds(self, pool: int, k: int) -> list[int] | None:
        if pool < self.tournament_size:
            return [pool] * (k * self.tournament_size)
        entrants = floyd_bounds(pool, self.tournament_size)
        return None if entrants is None else entrants * k

    def select_from_draws(
        self, fitness: np.ndarray, k: int, draws: np.ndarray
    ) -> np.ndarray:
        pools, pool = fitness.shape
        if pool < self.tournament_size:
            entrants = draws
        else:
            sets = draws.reshape(pools * k, 2 * self.tournament_size - 1)
            entrants = floyd_samples(sets, pool, self.tournament_size)
        return self._winners(fitness, entrants.reshape(pools, k, self.tournament_size))

    def _draw_and_select(
        self, fitness: np.ndarray, k: int, gen: np.random.Generator
    ) -> np.ndarray:
        pool, size = len(fitness), self.tournament_size
        entrants = np.array([gen.choice(pool, size, replace=False) for _ in range(k)])
        return self._winners(np.asarray(fitness)[None, :], entrants[None])[0]

    @staticmethod
    def _winners(fitness: np.ndarray, entrants: np.ndarray) -> np.ndarray:
        """Each ``(pools, k, N)`` entrant set's first best entrant."""
        pools, k, _ = entrants.shape
        rows = np.arange(pools)[:, None]
        best = fitness[rows[..., None], entrants].argmin(axis=2)
        return entrants[rows, np.arange(k), best]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NTournamentSelection(tournament_size={self.tournament_size})"


class RandomSelection(SelectionOperator):
    """Uniformly random selection (no selective pressure)."""

    name = "random"

    def draw_bounds(self, pool: int, k: int) -> list[int]:
        return [pool] * k

    def select_from_draws(
        self, fitness: np.ndarray, k: int, draws: np.ndarray
    ) -> np.ndarray:
        return draws


class BestSelection(SelectionOperator):
    """Deterministically return the k best candidates (maximal pressure).

    Equal fitness keeps pool order.  When k exceeds the pool size the best
    candidate is repeated.
    """

    name = "best"

    def draw_bounds(self, pool: int, k: int) -> list[int]:
        return []

    def select_from_draws(
        self, fitness: np.ndarray, k: int, draws: np.ndarray
    ) -> np.ndarray:
        ranked = np.argsort(fitness, axis=1, kind="stable")
        if k <= ranked.shape[1]:
            return ranked[:, :k]
        repeats = np.repeat(ranked[:, :1], k - ranked.shape[1], axis=1)
        return np.concatenate([ranked, repeats], axis=1)


class LinearRankSelection(SelectionOperator):
    """Linear ranking: probability decreases linearly with the fitness rank.

    It draws through ``Generator.choice`` with probabilities, which takes
    doubles, so it declares no draw bounds and a cMA using it breeds child
    by child.
    """

    name = "linear_rank"

    def __init__(self, pressure: float = 1.5) -> None:
        if not 1.0 <= pressure <= 2.0:
            raise ValueError(f"pressure must be in [1, 2], got {pressure}")
        self.pressure = float(pressure)

    def _draw_and_select(
        self, fitness: np.ndarray, k: int, gen: np.random.Generator
    ) -> np.ndarray:
        n = len(fitness)
        # Rank 0 = best (equal fitness keeps pool order).  Expected
        # offspring count per rank (Baker's formula).
        ranks = np.empty(n, dtype=float)
        ranks[np.argsort(fitness, kind="stable")] = np.arange(n)
        if n == 1:
            probs = np.ones(1)
        else:
            weights = self.pressure - (2.0 * self.pressure - 2.0) * ranks / (n - 1)
            probs = weights / weights.sum()
        return gen.choice(n, size=k, p=probs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LinearRankSelection(pressure={self.pressure})"


_REGISTRY: dict[str, Callable[..., SelectionOperator]] = {
    NTournamentSelection.name: NTournamentSelection,
    RandomSelection.name: RandomSelection,
    BestSelection.name: BestSelection,
    LinearRankSelection.name: LinearRankSelection,
}


def get_selection(name: str, **kwargs) -> SelectionOperator:
    """Instantiate the selection operator registered under *name*.

    Keyword arguments are forwarded to the operator constructor (e.g.
    ``tournament_size`` for ``"n_tournament"``).
    """
    key = name.lower()
    try:
        factory = _REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown selection operator {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)


def list_selections() -> Iterator[str]:
    """Names of all registered selection operators, sorted."""
    return iter(sorted(_REGISTRY))
