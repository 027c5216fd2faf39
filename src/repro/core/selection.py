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
from repro.utils.rng import RNGLike, as_generator, sample_without_replacement

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

    Each operator implements :meth:`select_indices` once, over the pool's
    fitness values; the cMA breeds from those indices (rows of its resident
    grid) and :meth:`select` is a thin wrapper for pools of
    :class:`Individual` objects.
    """

    #: Registry key; subclasses must override it.
    name: str = ""

    @abc.abstractmethod
    def select_indices(
        self, fitness: np.ndarray, k: int, rng: RNGLike = None
    ) -> np.ndarray:
        """Pool positions of *k* (possibly repeated) picks, given each candidate's fitness."""

    def select(
        self, candidates: Sequence[Individual], k: int, rng: RNGLike = None
    ) -> list[Individual]:
        """Return *k* (possibly repeated) individuals chosen from *candidates*."""
        fitness = np.array([individual.fitness for individual in candidates], dtype=float)
        return [candidates[int(i)] for i in self.select_indices(fitness, k, rng)]

    @staticmethod
    def _check(fitness: np.ndarray, k: int) -> None:
        if len(fitness) == 0:
            raise ValueError("cannot select from an empty candidate pool")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class NTournamentSelection(SelectionOperator):
    """N-way tournament: sample N candidates, keep the best; repeat k times.

    ``tournament_size`` is the N of the paper; the tuning of Figure 4
    selected N = 3.  Sampling is done *with* replacement when the pool is
    smaller than N (relevant for the small L5 neighborhood).  Ties go to the
    entrant drawn first.  The k entrant sets come from one bounded-integer
    call (:func:`~repro.utils.rng.sample_without_replacement`), which draws
    what k ``Generator.choice`` calls would draw.
    """

    name = "n_tournament"

    def __init__(self, tournament_size: int = 3) -> None:
        if tournament_size < 1:
            raise ValueError(f"tournament_size must be >= 1, got {tournament_size}")
        self.tournament_size = int(tournament_size)

    def select_indices(
        self, fitness: np.ndarray, k: int, rng: RNGLike = None
    ) -> np.ndarray:
        self._check(fitness, k)
        gen = as_generator(rng)
        pool_size = len(fitness)
        if pool_size < self.tournament_size:
            entrants = gen.integers(0, pool_size, size=(k, self.tournament_size))
        else:
            entrants = sample_without_replacement(gen, pool_size, self.tournament_size, k)
        return entrants[np.arange(k), fitness[entrants].argmin(axis=1)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NTournamentSelection(tournament_size={self.tournament_size})"


class RandomSelection(SelectionOperator):
    """Uniformly random selection (no selective pressure)."""

    name = "random"

    def select_indices(
        self, fitness: np.ndarray, k: int, rng: RNGLike = None
    ) -> np.ndarray:
        self._check(fitness, k)
        return as_generator(rng).integers(0, len(fitness), size=k)


class BestSelection(SelectionOperator):
    """Deterministically return the k best candidates (maximal pressure).

    Equal fitness keeps pool order.  When k exceeds the pool size the best
    candidate is repeated.
    """

    name = "best"

    def select_indices(
        self, fitness: np.ndarray, k: int, rng: RNGLike = None
    ) -> np.ndarray:
        self._check(fitness, k)
        ranked = np.argsort(fitness, kind="stable")
        if k <= ranked.size:
            return ranked[:k]
        return np.concatenate([ranked, np.full(k - ranked.size, ranked[0])])


class LinearRankSelection(SelectionOperator):
    """Linear ranking: probability decreases linearly with the fitness rank."""

    name = "linear_rank"

    def __init__(self, pressure: float = 1.5) -> None:
        if not 1.0 <= pressure <= 2.0:
            raise ValueError(f"pressure must be in [1, 2], got {pressure}")
        self.pressure = float(pressure)

    def select_indices(
        self, fitness: np.ndarray, k: int, rng: RNGLike = None
    ) -> np.ndarray:
        self._check(fitness, k)
        gen = as_generator(rng)
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
