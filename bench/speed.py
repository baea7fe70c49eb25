"""A fixed pure-Python loop that measures how fast this machine runs right now.

On a shared machine the speed of a core drifts by tens of percent within
seconds, with other tenants' load.  A job's time divided by the time of this
loop, run just before and just after it, drifts far less: over 2,120 job
runs in four minutes on a 2-core machine, the IQR of a job's time fell from
23% of its median to 10%.  The loop mixes integer arithmetic with what the
package's evaluators do (small tuples of floats, sorting, sets, generator
expressions): on its own, the integer part under-corrects and the tuple part
over-corrects the package's drift.  Multiplied by ``NOMINAL_S``, a ratio
reads as seconds at that machine's typical speed.
"""

import random
import time

NOMINAL_S = 0.007  # a typical time of reference_loop() on the 2-core machine the budgets were sized on

_rng = random.Random(7)
_TUPLES = [tuple(_rng.random() for _ in range(5)) for _ in range(64)]


def reference_loop() -> float:
    """Seconds taken by a fixed amount of integer, tuple, sort and set work."""
    start = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i
    gaps = 0.0
    for _ in range(16):
        for t in _TUPLES:
            s = sorted(set(t))
            gaps += max(s[i + 1] - s[i] for i in range(len(s) - 1))
            gaps += len(set(t[:2] + (0.5,) + t[3:]))
    return time.perf_counter() - start


def at_nominal_speed(seconds: float, reference: float) -> float:
    """``seconds`` measured next to a ``reference`` loop time, at nominal speed."""
    return seconds / reference * NOMINAL_S
