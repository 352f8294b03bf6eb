"""Times a block in reference-speed seconds by sampling the core's speed during it.

The benchmark runs on a shared machine whose single-core speed drifts by
up to 2x within minutes, far more than a regression bound can absorb.
While a block runs, a SIGALRM every SAMPLE_INTERVAL_S runs a fixed
pure-Python snippet that does not touch prefeval and records how long
it took.  The snippet's time is taken out of the block's wall time, and
the rest is rescaled by SNIPPET_REF_S over the snippet's mean time, so a
change to prefeval moves the result and the machine's speed does not.
"""

from __future__ import annotations

import math
import signal
import time

SAMPLE_INTERVAL_S = 0.02
# The reference speed: the snippet's mean time in the fastest periods seen
# on the 2-core Xeon sandbox the benchmark was written on.
SNIPPET_REF_S = 0.0003

_GRADES = {(q, r): (q * 7 + r) % 6 + 1 for q in range(50) for r in range(20)}


def _unit(grade: int) -> float:
    return (6 - grade) / 5.0


def _snippet() -> float:
    """The package's interpreter work mix: calls, tuple-keyed dict
    lookups, small lists and float sums."""
    total = 0.0
    for i in range(80):
        q = i % 50
        rels = [_unit(_GRADES.get((q, r), 6)) for r in range(10)]
        total += math.fsum(v / math.log2(k + 2) for k, v in enumerate(rels))
    return total


class Stopwatch:
    """Context manager; afterwards ``work`` is the block's wall time without
    the samples and ``scale`` converts it, or any part of it, to
    reference-speed seconds.  ``now`` is a clock that excludes the samples,
    for timing parts of the block.  Main thread only; one at a time.
    """

    def __init__(self):
        self.sampled = 0.0
        self.samples = 0

    def now(self) -> float:
        return time.perf_counter() - self.sampled

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        _snippet()
        self.sampled += time.perf_counter() - start
        self.samples += 1

    def __enter__(self) -> "Stopwatch":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self.start = self.now()
        return self

    def __exit__(self, *exc) -> None:
        self.work = self.now() - self.start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self.scale = SNIPPET_REF_S * self.samples / self.sampled
