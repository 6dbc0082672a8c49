"""A fixed reference loop that measures how fast the host is right now.

Shared machines change speed from one second to the next: on the 2-vCPU
host this benchmark was built on, the same job took anywhere from 0.37 s to
0.76 s across 25 back-to-back runs, and a fixed loop swung between two
levels about 1.45x apart along with it. The benchmark runs this loop
between every two timed pieces of work and scales each one's host time by
``REF_NOMINAL_S`` over the mean of the two loop times around it: the result
is host seconds at the speed where the loop takes ``REF_NOMINAL_S``. The
loop touches nothing of the program, so a change to the program cannot move
the scale.
"""

from __future__ import annotations

import time

import numpy as np

REF_NOMINAL_S = 0.010

_rng = np.random.default_rng(0)
_ARRAY = _rng.random(200_000)
_KEYS = list(range(100_000))


def reference_s() -> float:
    """Wall time of one pass of the reference loop (about 10 ms).

    Interpreter work (dict updates, integer arithmetic), small-array numpy
    calls and a few passes over arrays and dicts larger than a core's cache:
    the mix the simulator's hot paths run, so that the loop slows down with
    the host the way the jobs do.
    """
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(12_000):
        counts[i % 97] = counts.get(i % 97, 0) + i * i
    a = np.linspace(0.0, 1.0, 256)
    for _ in range(300):
        a = np.sqrt(a * a + 1e-3)
    table = {k: k for k in _KEYS[::4]}
    sum(table.get(k, 0) for k in _KEYS[::8])
    b = _ARRAY
    for _ in range(4):
        b = np.sqrt(b * 1.0001)
    return time.perf_counter() - t0
