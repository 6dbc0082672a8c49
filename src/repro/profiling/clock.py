"""The profiler's sanctioned host-clock helper.

``repro.profiling`` is in the simulated-packages scope of check REP002 of
``tests/test_source_invariants.py``, so raw ``time.*`` calls inside it
fail tier-1. Host-clock reads are the profiler's entire job, though, so
this module concentrates every one of them behind a single call site,
the test's one allowlisted REP002 site. Every other module (and every
instrumented simulation module, e.g. the greedy planner's Fig-21
wall-time stats) must call :func:`host_clock_s` instead of touching
``time`` directly. That keeps "who reads the host clock" greppable to one
line while the check still guards against accidental wall-clock use
leaking into simulated results.
"""

from __future__ import annotations

import time as _time


def host_clock_s() -> float:
    """Monotonic host seconds for profiling/instrumentation only.

    Never feed this into simulated time or costs — results must stay
    machine-independent. It is safe for wall-time *reporting* (frame
    durations, planner decision latency) because nothing downstream
    branches on it.
    """
    return _time.perf_counter()
