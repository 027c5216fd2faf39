"""Random-number-generator plumbing.

Every stochastic component of the library accepts either a seed, ``None`` or
an existing :class:`numpy.random.Generator` and normalizes it through
:func:`as_generator`.  Experiments that need several *independent* streams
(one per repetition, one per algorithm, ...) use :func:`spawn_generators`,
which relies on NumPy's ``Generator.spawn`` / ``SeedSequence`` machinery so
streams are statistically independent and reproducible.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = [
    "as_generator",
    "spawn_seed_sequences",
    "spawn_generators",
    "substream_seed_sequence",
    "derive_seed",
    "sample_without_replacement",
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


def sample_without_replacement(
    rng: RNGLike, pool: int, size: int, count: int | None = None
) -> np.ndarray:
    """*size* distinct integers of ``range(pool)``, drawn as ``Generator.choice`` draws them.

    Returns what ``Generator.choice(pool, size, replace=False)`` returns —
    with *count*, a ``(count, size)`` matrix holding what *count* such calls
    return — and leaves the generator in the state those calls leave, so a
    caller can switch to it without moving a trajectory.  Up to 10,000
    items ``choice`` runs Floyd's algorithm (Bentley & Floyd, "A sample of
    brilliance", CACM 1987): draw *t* is uniform on ``[0, pool - size + t]``
    and is replaced by ``pool - size + t`` when already taken; *size* − 1
    Fisher–Yates swaps then shuffle the sample.  Each of those draws is the
    bounded-integer draw ``Generator.integers`` makes per element, so one
    ``integers`` call over all the bounds replaces *count* ``choice`` calls;
    the insertions and swaps run on the drawn values.  Larger pools, where
    ``choice`` may shuffle a tail instead, go through ``choice`` itself.
    """
    gen = as_generator(rng)
    if not 0 <= size <= pool:
        raise ValueError(f"cannot sample {size} distinct items from a pool of {pool}")
    rows = 1 if count is None else count
    if pool > 10_000 and size > pool // 50:
        picks = np.array([gen.choice(pool, size, replace=False) for _ in range(rows)])
    elif size == 0:
        picks = np.empty((rows, 0), dtype=np.int64)
    else:
        first = pool - size
        bounds = [*range(first + 1, pool + 1), *range(size, 1, -1)]
        draws = gen.integers(0, bounds * rows).tolist()
        width = len(bounds)
        picks = []
        for start in range(0, rows * width, width):
            sample = []
            for top, value in zip(range(first, pool), draws[start:start + size]):
                sample.append(top if value in sample else value)
            for i, j in zip(range(size - 1, 0, -1), draws[start + size:start + width]):
                sample[i], sample[j] = sample[j], sample[i]
            picks.append(sample)
        picks = np.array(picks, dtype=np.int64)
    return picks[0] if count is None else picks
