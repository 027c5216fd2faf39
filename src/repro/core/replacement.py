"""Cell replacement policies.

After an offspring has been produced, locally improved and evaluated, a
replacement policy decides whether it takes over the cell of the individual
it was derived from.  The paper uses the elitist *add only if better* policy
(Table 1); two alternatives are provided for ablations.

Policies expose two equivalent entry points: :meth:`~ReplacementPolicy.
should_replace` compares two :class:`~repro.core.individual.Individual`
objects (the sequential cell-update path), and :meth:`~ReplacementPolicy.
accepts` compares raw fitness values — scalars or whole arrays.  The
resident-grid batch path calls it once per run of distinct cells of a
phase (the whole phase unless it visits a cell twice), so an offspring
still meets the incumbent an earlier offspring of the phase installed;
island migration pairs a whole parcel of immigrants with the worst cells in
one array comparison.
"""

from __future__ import annotations

import abc
from typing import Callable, Iterator

import numpy as np

from repro.core.individual import Individual

__all__ = [
    "ReplacementPolicy",
    "ReplaceIfBetter",
    "ReplaceIfNotWorse",
    "AlwaysReplace",
    "get_replacement",
    "list_replacements",
]


class ReplacementPolicy(abc.ABC):
    """Decide whether an offspring replaces the incumbent of its cell."""

    #: Registry key; subclasses must override it.
    name: str = ""

    @abc.abstractmethod
    def accepts(
        self,
        incumbent_fitness: float | np.ndarray,
        offspring_fitness: float | np.ndarray,
    ) -> bool | np.ndarray:
        """Whether offspring with these fitness values take over their cells.

        Accepts scalars or equally shaped arrays (the batch path compares a
        whole phase's offspring against their cells at once).
        """

    def should_replace(self, incumbent: Individual, offspring: Individual) -> bool:
        """Whether *offspring* should replace *incumbent* in the grid."""
        return bool(self.accepts(incumbent.fitness, offspring.fitness))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ReplaceIfBetter(ReplacementPolicy):
    """Strict elitism: replace only when the offspring has lower fitness."""

    name = "if_better"

    def accepts(self, incumbent_fitness, offspring_fitness):
        return offspring_fitness < incumbent_fitness


class ReplaceIfNotWorse(ReplacementPolicy):
    """Replace on ties as well, which lets the population drift along plateaus."""

    name = "if_not_worse"

    def accepts(self, incumbent_fitness, offspring_fitness):
        return offspring_fitness <= incumbent_fitness


class AlwaysReplace(ReplacementPolicy):
    """Unconditional replacement (no elitism); the weakest policy, for ablations."""

    name = "always"

    def accepts(self, incumbent_fitness, offspring_fitness):
        return np.ones_like(np.asarray(offspring_fitness, dtype=float), dtype=bool) \
            if isinstance(offspring_fitness, np.ndarray) else True


_REGISTRY: dict[str, Callable[[], ReplacementPolicy]] = {
    ReplaceIfBetter.name: ReplaceIfBetter,
    ReplaceIfNotWorse.name: ReplaceIfNotWorse,
    AlwaysReplace.name: AlwaysReplace,
}


def get_replacement(name: str) -> ReplacementPolicy:
    """Instantiate the replacement policy registered under *name*."""
    key = name.lower()
    try:
        return _REGISTRY[key]()
    except KeyError:
        raise KeyError(
            f"unknown replacement policy {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def list_replacements() -> Iterator[str]:
    """Names of all registered replacement policies, sorted."""
    return iter(sorted(_REGISTRY))
