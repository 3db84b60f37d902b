"""A fixed reference task: the yardstick for the host's speed.

On a shared virtual machine the speed of a CPU changes by up to 2x for
seconds or minutes at a time, as other tenants come and go.  A run
therefore times this task, which no change to the program can move,
interleaved with the program's work, and scales each window's figures
to the reference speed::

    time at reference speed = measured time * REFERENCE_S / reference time

where the reference time is the median of the task's samples taken in
the same window on the same CPU (rates scale the other way).

The task is pure Python with the program's kind of work: a vector-clock
pass over a fixed message pattern (list and tuple churn, dict inserts,
element-wise maxima).  Interleaved with single-pair queries in one
process on a 2-core x86_64 host, over 2-s windows, the pair time varied
with a coefficient of variation of 0.14 and its ratio to this task's
time with 0.04.
"""

from __future__ import annotations

import random
import time

_NODES = 16
_rng = random.Random(1998)
_MESSAGES = [(_rng.randrange(_NODES), _rng.randrange(_NODES)) for _ in range(200)]
del _rng

#: A round figure near the task's median time beside the program's work
#: on the host the benchmark was tuned on (0.4-0.6 ms in the analyzer and
#: the service processes; 2-core x86_64 VM, Python 3.11.7).  A constant,
#: so that scaled figures stay comparable between runs and commits.
REFERENCE_S = 0.5e-3


def _work() -> int:
    clocks = [[0] * _NODES for _ in range(_NODES)]
    history = {}
    for k, (a, b) in enumerate(_MESSAGES):
        ca = clocks[a]
        ca[a] += 1
        history[(a, k)] = tuple(ca)
        cb = clocks[b]
        cb[:] = [x if x > y else y for x, y in zip(cb, ca)]
        cb[b] += 1
    return len(history)


def sample() -> float:
    """One timed run of the task, in seconds."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def factor(samples: list[float]) -> float:
    """``REFERENCE_S`` over the median of ``samples``: multiply a time
    measured alongside them by this to get it at reference speed."""
    xs = sorted(samples)
    n = len(xs)
    mid = xs[n // 2] if n % 2 else (xs[n // 2 - 1] + xs[n // 2]) / 2
    return REFERENCE_S / mid
