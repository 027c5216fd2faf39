"""Recombination operators on the direct (job → machine) encoding.

The paper's tuned configuration uses **one-point recombination** of two
individuals (Table 1).  Because the template selects ``nb_solutions_to_
recombine`` parents (3 in the tuned configuration), every operator here
accepts an arbitrary number of parent chromosomes and folds them pairwise:
the first two parents are recombined, the result is recombined with the
third parent, and so on.  With exactly two parents this reduces to the
textbook operator.

Two further operators (two-point and uniform crossover) are provided for
the ablation benchmarks.
"""

from __future__ import annotations

import abc
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.utils.rng import (
    RNGLike,
    as_generator,
    bounded_draws,
    floyd_bounds,
    floyd_samples,
)

__all__ = [
    "CrossoverOperator",
    "OnePointCrossover",
    "TwoPointCrossover",
    "UniformCrossover",
    "get_crossover",
    "list_crossovers",
]


class CrossoverOperator(abc.ABC):
    """Combine parent assignment vectors into one offspring assignment.

    An operator that draws only bounded integers declares them:
    :meth:`draw_bounds` lists the exclusive upper bounds of the draws one
    :meth:`recombine` call makes, in order, and :meth:`recombine_from_draws`
    builds a whole stack of children from a ``(children, draws)`` matrix of
    such draws.  :meth:`recombine` draws the bounds through
    :func:`~repro.utils.rng.bounded_draws` and builds one child with the
    same method, so a cMA recombination phase can draw all its children's
    crossovers in one call.  An operator that draws otherwise (doubles)
    returns ``None`` from :meth:`draw_bounds` and implements
    :meth:`_draw_and_recombine`.
    """

    #: Registry key; subclasses must override it.
    name: str = ""

    def draw_bounds(self, nb_parents: int, nb_jobs: int) -> list[int] | None:
        """Exclusive upper bounds of one :meth:`recombine` call's draws, in order.

        ``None`` when the operator draws anything but bounded integers.
        """
        return None

    def recombine_from_draws(self, parents: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """``(children, jobs)`` offspring of a ``(children, parents, jobs)`` stack.

        Row *c* of *draws* holds the draws under :meth:`draw_bounds` that
        fold the parents of child *c*.
        """
        raise NotImplementedError(f"{type(self).__name__} declares no draw bounds")

    def _draw_and_recombine(self, parents: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        """:meth:`recombine` of an operator that declares no draw bounds."""
        raise NotImplementedError(f"{type(self).__name__} declares draw bounds")

    def recombine(
        self, parents: np.ndarray | Sequence[np.ndarray], rng: RNGLike = None
    ) -> np.ndarray:
        """Fold an arbitrary number of parents into a single offspring.

        Parameters
        ----------
        parents:
            A ``(parents, jobs)`` matrix — the cMA passes its selected grid
            rows as they are — or a sequence of equally long assignment
            vectors.  A single parent is returned as a copy (degenerate but
            well-defined).
        """
        matrix = np.asarray(parents, dtype=np.int64)
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise ValueError(
                "recombination requires at least one parent, all of the same length"
            )
        gen = as_generator(rng)
        bounds = self.draw_bounds(*matrix.shape)
        if bounds is None:
            return self._draw_and_recombine(matrix, gen)
        return self.recombine_from_draws(matrix[None], bounded_draws(gen, bounds))[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class OnePointCrossover(CrossoverOperator):
    """Split both chromosomes at one random point and join the halves.

    Each fold draws its cut uniformly from ``1 .. jobs - 1`` (the draw
    plus one); below two jobs there is no cut and the first parent is the
    child.
    """

    name = "one_point"

    def draw_bounds(self, nb_parents: int, nb_jobs: int) -> list[int]:
        return [nb_jobs - 1] * (nb_parents - 1) if nb_jobs >= 2 else []

    def recombine_from_draws(self, parents: np.ndarray, draws: np.ndarray) -> np.ndarray:
        columns = np.arange(parents.shape[2])
        child = parents[:, 0].copy()
        for fold, cuts in enumerate(draws.T, start=1):
            child = np.where(columns >= cuts[:, None] + 1, parents[:, fold], child)
        return child


class TwoPointCrossover(CrossoverOperator):
    """Exchange the segment between two random cut points.

    Each fold draws its two distinct cuts from ``1 .. jobs - 1`` as
    ``Generator.choice(jobs - 1, 2, replace=False) + 1`` draws them (Floyd's
    three bounded draws, :func:`~repro.utils.rng.floyd_bounds`).  Below
    three jobs it is one-point crossover.
    """

    name = "two_point"

    def draw_bounds(self, nb_parents: int, nb_jobs: int) -> list[int]:
        if nb_jobs < 3:
            return _ONE_POINT.draw_bounds(nb_parents, nb_jobs)
        return floyd_bounds(nb_jobs - 1, 2) * (nb_parents - 1)

    def recombine_from_draws(self, parents: np.ndarray, draws: np.ndarray) -> np.ndarray:
        children, nb_parents, nb_jobs = parents.shape
        if nb_jobs < 3:
            return _ONE_POINT.recombine_from_draws(parents, draws)
        cuts = floyd_samples(draws.reshape(-1, 3), nb_jobs - 1, 2)
        cuts = np.sort(cuts + 1, axis=1).reshape(children, nb_parents - 1, 2)
        columns = np.arange(nb_jobs)
        child = parents[:, 0].copy()
        for fold in range(1, nb_parents):
            first, second = cuts[:, fold - 1, :1], cuts[:, fold - 1, 1:]
            segment = (columns >= first) & (columns < second)
            child = np.where(segment, parents[:, fold], child)
        return child


class UniformCrossover(CrossoverOperator):
    """Take every gene independently from either parent with equal probability.

    Its coin flips are doubles, so it declares no draw bounds and a cMA
    using it breeds child by child.
    """

    name = "uniform"

    def __init__(self, bias: float = 0.5) -> None:
        if not 0.0 < bias < 1.0:
            raise ValueError(f"bias must be in (0, 1), got {bias}")
        self.bias = float(bias)

    def _draw_and_recombine(self, parents: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        child = parents[0].copy()
        for other in parents[1:]:
            child = np.where(gen.random(child.shape[0]) < self.bias, child, other)
        return child

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UniformCrossover(bias={self.bias})"


_ONE_POINT = OnePointCrossover()

_REGISTRY: dict[str, Callable[..., CrossoverOperator]] = {
    OnePointCrossover.name: OnePointCrossover,
    TwoPointCrossover.name: TwoPointCrossover,
    UniformCrossover.name: UniformCrossover,
}


def get_crossover(name: str, **kwargs) -> CrossoverOperator:
    """Instantiate the crossover operator registered under *name*."""
    key = name.lower()
    try:
        factory = _REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown crossover operator {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)


def list_crossovers() -> Iterator[str]:
    """Names of all registered crossover operators, sorted."""
    return iter(sorted(_REGISTRY))
