"""A fixed reference loop that measures how fast the machine runs right now.

On a shared virtual machine the speed of one core drifts by tens of
percent over a few seconds as neighbours come and go, and it moves every
timing with it.
The benchmark therefore times this loop next to every operation it measures
and reports each operation's wall time rescaled to the speed at which the
loop takes ``NOMINAL_S``:

    rescaled = wall * NOMINAL_S / (mean of the loop times just before and after)

The loop does the kind of work qsign does, Fraction arithmetic (Python-level
method calls on small objects) and a few hundred bits of integer
arithmetic, and it never calls qsign, so a change to the program cannot
move it.  Of the loops tried, this one followed the drift best: across
seeds it cut the spread of the rescaled times to 2-3% where a loop of bare
integer arithmetic left 10%.  The report line
keeps the raw wall times as well.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

#: about the loop's time on a quiet core of a 2 GHz x86-64 virtual machine
#: with Python 3.11; it only sets the scale of the rescaled times
NOMINAL_S = 0.001


def _loop() -> float:
    t0 = perf_counter()
    f, x, m = Fraction(0), 3 ** 120, 10 ** 60 + 7
    for k in range(1, 250):
        f += Fraction(k, k + 1)
        x = (x * x + k) % m
    return perf_counter() - t0


def probe(reps: int = 1) -> float:
    """Median wall time of `reps` runs of the reference loop, in seconds.

    One run takes about a millisecond; operations of a second or more take
    more runs so that the probe's own jitter does not show in their times.
    """
    return statistics.median(_loop() for _ in range(reps))


def rescale(wall_times: list[float], probes: list[float]) -> float:
    """Sum of wall times, each rescaled by the probes on either side of it.

    ``probes`` has one entry more than ``wall_times``: probe i ran just
    before operation i, and the last one after the last operation.
    """
    return sum(t * 2 * NOMINAL_S / (before + after)
               for t, before, after in zip(wall_times, probes, probes[1:]))
