"""A machine-speed index, so a timing means the same on a busy box.

The boxes this benchmark runs on are shared virtual machines: over a few
minutes the same code runs up to 1.5x slower and faster again (measured
here: 16-second medians of one unchanged op ranged 318–485 ms), which no
op count or median removes because whole runs land in a slow or a fast
spell.  A small fixed reference kernel that has nothing to do with
``repro`` sees the same spells, so every timed interval is divided by the
kernel's slowdown measured right before and after it.  A reported ``ms`` is
therefore a millisecond *on a machine where the kernel runs at its reference
speed*; a change to ``repro`` moves it exactly as it moves the raw time.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List

import numpy as np

__all__ = ["SpeedProbe"]

#: Reference durations of the two kernel halves (this box, quiet spell).
REF_MEMORY_S = 0.0125
REF_INTERPRETER_S = 0.0028


class SpeedProbe:
    """Times the reference kernel; ``sample()`` > 1 means a slow spell.

    The kernel has a memory-bound half (NumPy arithmetic over a 16 MB array,
    the field's size) and an interpreter-bound half (a pure-Python loop) —
    the two resources the codec's ops divide their time between.  The index
    is the geometric mean of the two slowdowns.
    """

    def __init__(self) -> None:
        self._array = np.random.default_rng(0).random(2_000_000)
        self.samples: List[float] = []
        self.sample()  # first touch of the temporaries is not machine speed
        self.samples.clear()

    def sample(self) -> float:
        array = self._array
        begin = time.perf_counter()
        for _ in range(3):
            (array * array + array).sum()
        middle = time.perf_counter()
        total = 0
        for value in range(60_000):
            total += value * value
        end = time.perf_counter()
        index = math.sqrt((middle - begin) / REF_MEMORY_S * (end - middle) / REF_INTERPRETER_S)
        self.samples.append(index)
        return index

    def median(self) -> float:
        return statistics.median(self.samples)
