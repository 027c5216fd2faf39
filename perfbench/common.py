"""Helpers shared by the benchmark's workloads: import path, statistics, environment."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import signal
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
#: Everything a run writes (spans, result records, quality pins) lands here.
OUT = ROOT / ".bench_out"


def import_repro() -> None:
    """Put the checkout's ``src/`` first on the import path, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {src}; run from a checkout")
    sys.path.insert(0, str(src))


@dataclass
class Metric:
    """One reported figure; ``note`` says what it was computed from."""

    name: str
    value: float
    unit: str
    note: str = ""


def percentile(values, q: float) -> float:
    """The *q*-th percentile (linear interpolation) of a non-empty sample."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return percentile(values, 50.0)


def timing_note(values, q: float) -> str:
    """Sample count, and how many samples lie beyond the *q*-th percentile."""
    n = len(values)
    return f"p{q:g} of n={n} ({int(n * (1 - q / 100.0))} beyond)"


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reference_round(vector, table: dict[int, int]):
    """One round of a fixed pure-Python + numpy loop; it never changes between commits."""
    import numpy as np

    for key in range(256):
        table[key & 63] = table.get(key & 63, 0) + key
    vector = np.sqrt(vector * 1.0001 + 1.0)
    vector.sort()
    return vector


def reference_rate(seconds: float = 0.5) -> float:
    """Rounds per second of the reference loop.

    Measured just before and after a run, it tells a slower shared box
    apart from a slower program.
    """
    import numpy as np

    vector = np.linspace(0.0, 1.0, 512)
    table: dict[int, int] = {}
    rounds = 0
    start = perf_counter()
    while perf_counter() - start < seconds:
        vector = _reference_round(vector, table)
        rounds += 1
    return rounds / (perf_counter() - start)


#: Reference-loop rounds per second that :class:`BoxSpeed` reads on a quiet
#: vCPU of the 2-core Xeon VM the benchmark was tuned on.  Calibrated
#: timings are seconds on a box whose probe runs at this rate.
NOMINAL_RATE = 40_000.0


class BoxSpeed:
    """Samples how fast the box runs while the program runs, to calibrate timings.

    A shared box's vCPU slows by up to ~1.8x when a neighbour loads its
    sibling hyperthread, in a mix that changes within seconds and over
    minutes, and a program's wall time inherits all of it.  Every
    ``INTERVAL_S`` seconds a ``SIGALRM`` handler interrupts the program
    between bytecodes and times a few rounds of the reference loop (after
    one untimed round that brings the loop back into cache, so the
    program's own footprint barely moves the probe).  :meth:`now` is a
    clock that stops while the probe runs, so the program's timings exclude
    it; :meth:`speed` is the mean probe rate inside given windows of that
    clock, relative to :data:`NOMINAL_RATE`.  Seconds times speed is the
    time the program would have taken on the nominal box.
    """

    INTERVAL_S = 0.02
    ROUNDS = 8

    def __init__(self) -> None:
        self.probe_s = 0.0
        #: (program-clock time, rounds per second) of every probe.
        self.samples: list[tuple[float, float]] = []

    def now(self) -> float:
        return perf_counter() - self.probe_s

    def _probe(self, signum, frame) -> None:
        import numpy as np

        entered = perf_counter()
        table: dict[int, int] = {}
        vector = _reference_round(np.linspace(0.0, 1.0, 512), table)
        start = perf_counter()
        for _ in range(self.ROUNDS):
            vector = _reference_round(vector, table)
        end = perf_counter()
        self.samples.append((entered - self.probe_s, self.ROUNDS / (end - start)))
        self.probe_s += end - entered

    def __enter__(self) -> "BoxSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, windows: list[tuple[float, float]]) -> tuple[float, int]:
        """Mean probe rate inside the (disjoint) *windows* over the nominal, and the probe count.

        Falls back to every probe of the run when no probe lands inside.
        """
        import numpy as np

        times, rates = (np.array(column) for column in zip(*self.samples))
        bounds = np.array(sorted(windows), dtype=float).reshape(-1, 2)
        index = np.searchsorted(bounds[:, 0], times, side="right") - 1
        inside = (index >= 0) & (times <= bounds[np.maximum(index, 0), 1])
        chosen = rates[inside] if inside.any() else rates
        return float(chosen.mean()) / NOMINAL_RATE, int(chosen.size)


def _git_sha() -> str:
    """HEAD's commit from ``.git`` of the checkout, read as files (no subprocess)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_sha() -> str:
    """Digest of the program (``src/``) and the benchmark — their identity without git."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint() -> dict[str, object]:
    import numpy as np

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "code_sha": source_sha(),
    }
