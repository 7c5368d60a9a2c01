"""Machine-speed calibration.

The benchmark shares its host with other machines' work, which at times
slows the program by a third or more for a minute or longer.  Each timed
unit (a census pass, one graph) is bracketed by runs of a fixed kernel, and
its measured time is scaled by the reference kernel time over the mean of
the kernel times just before and just after it.  That gives reference
seconds: the time the unit would take at the speed the reference constant
was taken at.  Measured seconds stay in the result file.

The kernel is the benchmark's own code, so a change to the program cannot
change it: a pure-Python arithmetic loop, and a recursive count over
bitmasks of the 3,037 independent sets of a fixed random graph on 24
vertices, the same kind of work as the program's branch and bound.
"""

from __future__ import annotations

import random
from time import perf_counter

# Seconds of one kernel run on the 2-core Xeon VM of the baseline (the tenth
# percentile of 2,000 runs back to back).  Fixed, so that reference seconds
# from different runs and commits compare directly.
REF_KERNEL_S = 0.00084
LOOP_STEPS = 5_000

_rng = random.Random(7)
_N = 24
_ADJ = [0] * _N
for _a in range(_N):
    for _b in range(_a + 1, _N):
        if _rng.random() < 0.3:
            _ADJ[_a] |= 1 << _b
            _ADJ[_b] |= 1 << _a


def _count(cand: int) -> int:
    n = 1
    while cand:
        v = (cand & -cand).bit_length() - 1
        cand &= cand - 1
        n += _count(cand & ~_ADJ[v])
    return n


def kernel_seconds(repeats: int) -> float:
    """Mean seconds of one kernel run over ``repeats`` runs."""
    t0 = perf_counter()
    for _ in range(repeats):
        acc = 0
        for i in range(LOOP_STEPS):
            acc += i * i % 7
        _count((1 << _N) - 1)
    return (perf_counter() - t0) / repeats


class Speed:
    """Scale factors for consecutive timed units: the reference kernel time
    over the mean of the kernel times just before and just after the unit."""

    def __init__(self, repeats: int) -> None:
        self.repeats = repeats
        self.last = kernel_seconds(repeats)

    def factor(self) -> float:
        now = kernel_seconds(self.repeats)
        f = REF_KERNEL_S / ((self.last + now) / 2)
        self.last = now
        return f
