"""Host speed, measured with a fixed reference kernel.

The hosts this benchmark runs on are shared.  Other tenants slow every
process on the machine, the Python interpreter and NumPy alike, by up to
1.6x for stretches of a minute or more; the fastest repeat of a call
cannot filter out a stretch longer than the run.  So every duration the
benchmark reports is taken at reference speed:

    reported = measured * REF_S / r

where r is the duration of ``reference()`` measured in the same process
shortly before, and REF_S is the reference's duration on an unloaded
2-core x86-64 host of the kind the benchmark was defined on (so reported
times read as that host's).  The reference is benchmark code: a change
to wasserline moves the measured durations and leaves r alone.  Raw
durations and the speed samples are kept in each run's record.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 1.0e-3
# re-measure the host's speed when the last sample is older than this
RESAMPLE_S = 0.1

_SORT_INPUT = np.random.default_rng(0).standard_normal(30_000)
_SMALL = np.linspace(0.0, 1.0, 12)


def reference() -> float:
    """Fastest of three runs of the reference kernel, in seconds: a
    pure-Python loop, NumPy calls on tiny arrays and a NumPy sort, the
    three kinds of work wasserline does."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(2_000):
            acc += i * i
        for _ in range(40):
            a = np.concatenate([[0.0], np.cumsum(_SMALL)])
            acc += int(np.searchsorted(a, 0.5)) + int(np.all(np.diff(a) >= 0.0))
        np.sort(_SORT_INPUT)
        best = min(best, time.perf_counter() - start)
    return best


class Speed:
    """The current factor REF_S / r, re-measured every RESAMPLE_S."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._factor = 1.0
        self._taken = -float("inf")

    def factor(self) -> float:
        now = time.perf_counter()
        if now - self._taken >= RESAMPLE_S:
            r = reference()
            self.samples.append(r)
            self._factor = REF_S / r
            self._taken = time.perf_counter()
        return self._factor
