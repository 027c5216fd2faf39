"""Random-number-generator plumbing.

Every stochastic component of the library accepts either a seed, ``None`` or
an existing :class:`numpy.random.Generator` and normalizes it through
:func:`as_generator`.  Experiments that need several *independent* streams
(one per repetition, one per algorithm, ...) use :func:`spawn_generators`,
which relies on NumPy's ``Generator.spawn`` / ``SeedSequence`` machinery so
streams are statistically independent and reproducible.

Operators that draw only bounded integers draw many calls' worth at once
through :func:`bounded_draws`, and :func:`floyd_bounds` with
:func:`floyd_samples` replay ``Generator.choice`` without replacement from
such draws, so batching them moves no trajectory.
"""

from __future__ import annotations

import zlib
from typing import Sequence

import numpy as np

__all__ = [
    "as_generator",
    "spawn_seed_sequences",
    "spawn_generators",
    "substream_seed_sequence",
    "derive_seed",
    "bounded_draws",
    "floyd_bounds",
    "floyd_samples",
]

#: Type accepted everywhere a source of randomness is expected.
RNGLike = int | np.random.Generator | np.random.SeedSequence | None


def as_generator(rng: RNGLike = None) -> np.random.Generator:
    """Normalize *rng* into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    rng:
        ``None`` (fresh nondeterministic generator), an integer seed, a
        :class:`numpy.random.SeedSequence`, or an existing generator, which
        is returned unchanged.

    Returns
    -------
    numpy.random.Generator
        A generator ready to be used.  Passing the same integer seed twice
        produces generators with identical streams.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, (int, np.integer)):
        if rng < 0:
            raise ValueError(f"seed must be non-negative, got {rng}")
        return np.random.default_rng(int(rng))
    raise TypeError(
        "rng must be None, an int seed, a SeedSequence or a numpy Generator, "
        f"got {type(rng).__name__}"
    )


def spawn_seed_sequences(rng: RNGLike, count: int) -> list[np.random.SeedSequence]:
    """Derive *count* independent child :class:`~numpy.random.SeedSequence`.

    This is the single seed-derivation path of the library: every component
    that fans one stream out into several (the per-repetition seeding of
    ``repeat_run``, the per-island streams of :mod:`repro.islands`) goes
    through ``SeedSequence.spawn`` here, never through ad-hoc seed
    arithmetic.  Seed sequences — unlike generators — are cheap to pickle,
    so they are also what crosses process boundaries; materialize them with
    :func:`as_generator` on the far side.  ``as_generator(child)`` produces
    exactly the stream ``Generator.spawn`` would have produced for the same
    parent, so seed-sequence and generator spawning are interchangeable.

    Parameters
    ----------
    rng:
        Parent source of randomness (seed, seed sequence, generator,
        ``None``).  Spawning advances the parent's spawn counter, exactly
        like ``Generator.spawn``.
    count:
        Number of children, must be non-negative.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if count == 0:
        return []
    if isinstance(rng, np.random.SeedSequence):
        return list(rng.spawn(count))
    return list(as_generator(rng).bit_generator.seed_seq.spawn(count))


def spawn_generators(rng: RNGLike, count: int) -> list[np.random.Generator]:
    """Create *count* statistically independent child generators.

    The parent generator (or seed) is normalized first; the children are
    derived via :func:`spawn_seed_sequences` (NumPy's ``SeedSequence.spawn``
    machinery) so that they do not overlap with the parent stream nor with
    each other.

    Parameters
    ----------
    rng:
        Parent source of randomness (seed, generator, ``None``).
    count:
        Number of child generators, must be non-negative.
    """
    return [as_generator(child) for child in spawn_seed_sequences(rng, count)]


def substream_seed_sequence(seed: int, *labels: str | int) -> np.random.SeedSequence:
    """A reproducible named substream of a root *seed*.

    Experiments that key substreams by names (instance name, algorithm name)
    need a derivation that is stable across processes and Python versions —
    ``hash(str)`` is salted per process and therefore is not.  Each label is
    folded into the seed sequence's entropy through CRC-32, which is stable,
    fast and spreads nearby labels across the 32-bit space.
    """
    entropy = [int(seed)]
    for label in labels:
        data = str(label).encode("utf-8")
        entropy.append(zlib.crc32(data, len(entropy)))
    return np.random.SeedSequence(entropy)


def derive_seed(rng: RNGLike, *, low: int = 0, high: int = 2**31 - 1) -> int:
    """Draw a single integer seed from *rng*.

    Useful when an external component wants a plain integer seed (e.g. to
    store in a result record for later replay) rather than a generator.
    """
    if high <= low:
        raise ValueError("high must be strictly greater than low")
    gen = as_generator(rng)
    return int(gen.integers(low, high))


def bounded_draws(
    rng: np.random.Generator, bounds: Sequence[int], rows: int = 1
) -> np.ndarray:
    """A ``(rows, len(bounds))`` matrix of draws; column *t* is uniform on ``[0, bounds[t])``.

    One ``Generator.integers`` call draws the rows in order and returns what
    *rows* successive calls would return, each drawing *bounds* in order, one
    element at a time, and it leaves the generator in the state they leave.
    numpy draws every element of an ``integers`` call with the same bounded
    routine (Lemire, "Fast random integer generation in an interval", ACM
    TOMACS 2019), whether the bounds come as one scalar or as an array.
    Below 2**32 that routine takes 32-bit words, and the bit generator keeps
    the spare half of a 64-bit word in its own state, not in the call.  A
    bound of 1 draws nothing; no bounds make no call.
    """
    if not bounds or rows == 0:
        return np.zeros((rows, len(bounds)), dtype=np.int64)
    if min(bounds) == max(bounds):
        # The same routine, through numpy's cheaper scalar-bound path.
        return rng.integers(0, bounds[0], size=(rows, len(bounds)))
    return rng.integers(0, bounds, size=(rows, len(bounds)))


def floyd_bounds(pool: int, size: int) -> list[int] | None:
    """Exclusive upper bounds of the draws ``Generator.choice(pool, size, replace=False)`` makes.

    Up to 10,000 items, and beyond while *size* is at most ``pool // 50``,
    ``choice`` runs Floyd's algorithm (Bentley & Floyd, "A sample of
    brilliance", CACM 1987): insertion *t* draws from ``[0, pool - size + t]``,
    then *size* − 1 Fisher–Yates swaps shuffle the sample.  Each is the
    bounded-integer draw ``Generator.integers`` makes per element, so
    :func:`bounded_draws` over these bounds and :func:`floyd_samples` replay
    ``choice``.  Otherwise ``choice`` shuffles a permutation's tail with a
    masked draw, which no bounded draw replays, and this returns ``None``.
    """
    if not 0 <= size <= pool:
        raise ValueError(f"cannot sample {size} distinct items from a pool of {pool}")
    if pool > 10_000 and size > pool // 50:
        return None
    return [*range(pool - size + 1, pool + 1), *range(size, 1, -1)]


def floyd_samples(draws: np.ndarray, pool: int, size: int) -> np.ndarray:
    """The sample ``Generator.choice(pool, size, replace=False)`` returns, per row of *draws*.

    *draws* holds one row of draws under :func:`floyd_bounds` per sample.
    Insertion *t* keeps its draw unless an earlier insertion took it, and
    then takes ``pool - size + t``; swap *s* exchanges position
    ``size - 1 - s`` with its draw.  Each step runs once over all rows.
    """
    rows = draws.shape[0]
    first = pool - size
    samples = np.empty((rows, size), dtype=np.int64)
    for t in range(size):
        value = draws[:, t]
        taken = np.zeros(rows, dtype=bool)
        for earlier in range(t):
            taken |= samples[:, earlier] == value
        samples[:, t] = np.where(taken, first + t, value)
    index = np.arange(rows)
    for position, partner in zip(range(size - 1, 0, -1), draws[:, size:].T):
        swapped = samples[index, partner]
        samples[index, partner] = samples[:, position]
        samples[:, position] = swapped
    return samples
