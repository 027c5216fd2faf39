"""Neighborhood patterns on the toroidal cellular grid.

The paper studies five patterns (Figure 1):

* **Panmictic** — every cell is a neighbor of every other cell, which
  removes the structure and degenerates into an ordinary (unstructured) MA;
  included as the control configuration of Figure 3.
* **L5** — the von Neumann cross: the cell plus its four axial neighbors.
* **L9** — the extended cross: the cell plus the axial neighbors at
  distances 1 and 2 (nine cells).
* **C9** — the compact 3×3 Moore block (nine cells); the paper's tuned choice.
* **C13** — the 3×3 block plus the axial neighbors at distance 2 (thirteen
  cells).

The grid wraps around in both dimensions (a torus), so every cell has a full
neighborhood regardless of its position.  Neighborhood size and shape
determine the selective pressure of the cellular algorithm: small, compact
neighborhoods favour exploration, large ones exploitation.
"""

from __future__ import annotations

import abc
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "NeighborhoodPattern",
    "PanmicticNeighborhood",
    "L5Neighborhood",
    "L9Neighborhood",
    "C9Neighborhood",
    "C13Neighborhood",
    "get_neighborhood",
    "list_neighborhoods",
]


class NeighborhoodPattern(abc.ABC):
    """A rule mapping a cell position to the positions of its neighbors.

    Positions are linear indices into a ``height × width`` toroidal grid
    stored in row-major order.  The returned neighborhood always contains
    the centre cell itself (the individual being updated competes with, and
    may recombine with, itself — as in the canonical cellular EA model).
    """

    #: Registry key; subclasses must override it.
    name: str = ""

    @abc.abstractmethod
    def neighbor_offsets(self) -> Sequence[tuple[int, int]]:
        """(row, column) offsets of the neighborhood, centre included.

        Panmictic overrides :meth:`neighbors` and :meth:`table` directly and
        returns an empty offset list here.
        """

    def neighbors(self, position: int, height: int, width: int) -> np.ndarray:
        """Linear indices of the neighbors of *position* on a torus."""
        if not 0 <= position < height * width:
            raise IndexError(f"position {position} outside a {height}x{width} grid")
        row, col = divmod(position, width)
        offsets = self.neighbor_offsets()
        rows = np.fromiter(((row + dr) % height for dr, _ in offsets), dtype=np.int64)
        cols = np.fromiter(((col + dc) % width for _, dc in offsets), dtype=np.int64)
        return rows * width + cols

    def table(self, height: int, width: int) -> np.ndarray:
        """``(cells, neighbors)`` matrix; row *p* is :meth:`neighbors` of *p*.

        The cMA builds it once per run and breeds from its rows instead of
        recomputing a neighborhood per offspring.
        """
        offsets = np.array(self.neighbor_offsets(), dtype=np.int64).reshape(-1, 2)
        rows, cols = np.divmod(np.arange(height * width, dtype=np.int64), width)
        rows = (rows[:, None] + offsets[:, 0]) % height
        cols = (cols[:, None] + offsets[:, 1]) % width
        return rows * width + cols

    def size(self, height: int, width: int) -> int:
        """Number of *distinct* cells in a neighborhood on the given grid.

        On very small grids the toroidal wrap-around can make two offsets
        land on the same cell, so the distinct count can be smaller than the
        number of offsets.
        """
        return int(np.unique(self.neighbors(0, height, width)).size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class PanmicticNeighborhood(NeighborhoodPattern):
    """Every cell is a neighbor of every other cell (unstructured population)."""

    name = "panmictic"

    def neighbor_offsets(self) -> Sequence[tuple[int, int]]:
        return ()

    def neighbors(self, position: int, height: int, width: int) -> np.ndarray:
        if not 0 <= position < height * width:
            raise IndexError(f"position {position} outside a {height}x{width} grid")
        return np.arange(height * width, dtype=np.int64)

    def table(self, height: int, width: int) -> np.ndarray:
        return np.tile(np.arange(height * width, dtype=np.int64), (height * width, 1))


class L5Neighborhood(NeighborhoodPattern):
    """Linear-5 (von Neumann): centre plus the four axial neighbors."""

    name = "l5"

    def neighbor_offsets(self) -> Sequence[tuple[int, int]]:
        return ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))


class L9Neighborhood(NeighborhoodPattern):
    """Linear-9: centre plus axial neighbors at distances one and two."""

    name = "l9"

    def neighbor_offsets(self) -> Sequence[tuple[int, int]]:
        return (
            (0, 0),
            (-1, 0),
            (1, 0),
            (0, -1),
            (0, 1),
            (-2, 0),
            (2, 0),
            (0, -2),
            (0, 2),
        )


class C9Neighborhood(NeighborhoodPattern):
    """Compact-9 (Moore): the full 3×3 block around the centre."""

    name = "c9"

    def neighbor_offsets(self) -> Sequence[tuple[int, int]]:
        return tuple((dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1))


class C13Neighborhood(NeighborhoodPattern):
    """Compact-13: the 3×3 block plus the four axial cells at distance two."""

    name = "c13"

    def neighbor_offsets(self) -> Sequence[tuple[int, int]]:
        block = tuple((dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1))
        return block + ((-2, 0), (2, 0), (0, -2), (0, 2))


_REGISTRY: dict[str, Callable[[], NeighborhoodPattern]] = {
    cls.name: cls
    for cls in (
        PanmicticNeighborhood,
        L5Neighborhood,
        L9Neighborhood,
        C9Neighborhood,
        C13Neighborhood,
    )
}


def get_neighborhood(name: str) -> NeighborhoodPattern:
    """Instantiate the neighborhood registered under *name* (case-insensitive)."""
    key = name.lower()
    try:
        return _REGISTRY[key]()
    except KeyError:
        raise KeyError(
            f"unknown neighborhood {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def list_neighborhoods() -> Iterator[str]:
    """Names of all registered neighborhood patterns, sorted."""
    return iter(sorted(_REGISTRY))
