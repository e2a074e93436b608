"""Machine-speed calibration: a fixed reference kernel timed next to the jobs.

On a shared host the speed of the same code swings by a fifth or more within
a minute (neighbouring load, not CPU steal).  The benchmark times this kernel
right before and after every timed unit (a training round, an evaluation
job) and scales the unit's rate to a nominal machine on which the kernel runs
``NOMINAL_PER_S`` times a second.  The kernel calls nothing in the program, so
a change to the program cannot move it; it mixes interpreted Python with
small NumPy calls, as the program's hot loops do, and stays below the sizes at
which BLAS starts threads.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_PER_S = 180.0  # about what the 2-core reference machine reaches
_rng = np.random.default_rng(20230805)
_W1 = _rng.standard_normal((64, 6))
_W2 = _rng.standard_normal((48, 64))
_X = _rng.standard_normal(6)


def _kernel() -> float:
    acc = 0.0
    for i in range(1000):
        h = np.maximum(_W1 @ _X, 0.0)
        y = np.tanh(_W2 @ h)
        acc += float(y[i % 48])
        row = {"step": i, "value": acc, "flags": (i & 1, i & 2)}
        acc += sum(v for v in (row["step"], *row["flags"]) if v) * 1e-9
    return acc


def speed() -> float:
    """Machine speed now, as a multiple of nominal (one kernel run, ~10 ms)."""
    t0 = time.perf_counter()
    _kernel()
    return 1.0 / (time.perf_counter() - t0) / NOMINAL_PER_S


class Bracket:
    """Speed samples around back-to-back timed units.

    ``begin()`` before a unit and ``end()`` after it; ``end()`` returns the
    mean of the samples on either side, and its sample serves as the next
    unit's first.  With ``enabled`` false (traced runs) nothing is timed and
    the speed reads 1.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._prev = None

    def begin(self) -> None:
        if self.enabled and self._prev is None:
            self._prev = speed()

    def end(self) -> float:
        if not self.enabled:
            return 1.0
        now = speed()
        mean = (self._prev + now) / 2 if self._prev is not None else now
        self._prev = now
        return mean
