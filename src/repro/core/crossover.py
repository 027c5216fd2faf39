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

from repro.utils.rng import RNGLike, as_generator, sample_without_replacement

__all__ = [
    "CrossoverOperator",
    "OnePointCrossover",
    "TwoPointCrossover",
    "UniformCrossover",
    "get_crossover",
    "list_crossovers",
]


class CrossoverOperator(abc.ABC):
    """Combine parent assignment vectors into one offspring assignment."""

    #: Registry key; subclasses must override it.
    name: str = ""

    @abc.abstractmethod
    def _combine_pair(
        self, parent_a: np.ndarray, parent_b: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Recombine exactly two parents into one offspring."""

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
        child = matrix[0].copy()
        for other in matrix[1:]:
            child = self._combine_pair(child, other, gen)
        return child

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class OnePointCrossover(CrossoverOperator):
    """Split both chromosomes at one random point and join the halves."""

    name = "one_point"

    def _combine_pair(
        self, parent_a: np.ndarray, parent_b: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        length = parent_a.shape[0]
        if length < 2:
            return parent_a.copy()
        cut = int(rng.integers(1, length))
        child = parent_a.copy()
        child[cut:] = parent_b[cut:]
        return child


class TwoPointCrossover(CrossoverOperator):
    """Exchange the segment between two random cut points."""

    name = "two_point"

    def _combine_pair(
        self, parent_a: np.ndarray, parent_b: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        length = parent_a.shape[0]
        if length < 3:
            return OnePointCrossover()._combine_pair(parent_a, parent_b, rng)
        first, second = np.sort(1 + sample_without_replacement(rng, length - 1, 2))
        child = parent_a.copy()
        child[first:second] = parent_b[first:second]
        return child


class UniformCrossover(CrossoverOperator):
    """Take every gene independently from either parent with equal probability."""

    name = "uniform"

    def __init__(self, bias: float = 0.5) -> None:
        if not 0.0 < bias < 1.0:
            raise ValueError(f"bias must be in (0, 1), got {bias}")
        self.bias = float(bias)

    def _combine_pair(
        self, parent_a: np.ndarray, parent_b: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        mask = rng.random(parent_a.shape[0]) < self.bias
        child = parent_a.copy()
        child[~mask] = parent_b[~mask]
        return child

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UniformCrossover(bias={self.bias})"


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
