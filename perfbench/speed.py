"""Scaling measured times to a reference machine speed.

On a shared machine the speed of one core changes by up to about 1.5x over
seconds to minutes, as other tenants load the core's sibling and caches,
while CPU time stays equal to wall time.  A fixed pure-integer loop, which
allocates nothing the program's heap could slow down, is timed between jobs;
a job's time is scaled by the loop's reference time over the mean of its
times just before and just after the job.  The result is the job's time at
reference speed, in seconds.
"""

from __future__ import annotations

from time import perf_counter

LOOPS = 200_000
# the loop's time on an idle core of the machine the benchmark was written
# on (Intel Xeon at 2.0 GHz, CPython 3.11)
REFERENCE_S = 0.013


def loop_seconds():
    t0 = perf_counter()
    s = 0
    for i in range(LOOPS):
        s += i * i
    return perf_counter() - t0


class Scaler:
    """Turns times measured between successive calls into reference seconds."""

    def __init__(self):
        self.last = loop_seconds()
        self.factors = []

    def factor(self):
        """Speed factor of the interval since the previous call."""
        now = loop_seconds()
        f = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(f)
        return f
