"""Deterministic hot-path profiling: phases, flamegraphs, perf diffs.

The process-global default is a :class:`NullProfiler`, so the
``profile_phase(...)`` hooks on the planner/profiler/scheduler/executor hot
paths cost one attribute check until a caller installs a real
:class:`Profiler`::

    from repro.profiling import Profiler, get_profiler, set_profiler

    prof = Profiler()
    set_profiler(prof)
    ...  # run jobs; planner/scheduler/storage frames aggregate as they go
    set_profiler(None)

or, scoped, via :class:`repro.runs.Instruments` (what the ``--profile``
flag of ``repro train``, ``tune`` and ``workflow`` uses). Like telemetry,
profiling is strictly observational: it never consumes randomness and
never branches simulation logic, so simulated results are bit-identical
with the profiler installed or not.

Instrumentation sites open *phases*::

    with profile_phase("planner/spend_remainder") as ph:
        ...
        ph.add("candidates_evaluated", n)   # counter per call path

and the aggregate (wall time per call path, call counts, counters, and —
with ``sample_memory=True`` — tracemalloc peaks) exports as a
``repro-profile/v1`` capture, a collapsed-stack flamegraph, or extra
frames in the telemetry Chrome trace. ``repro profile --diff A.json
B.json`` compares two captures frame by frame through the one compare
engine, :func:`repro.runs.compare.compare`.

REP002 note: this package is in the simulated-packages scope of
``tests/test_source_invariants.py``; the only sanctioned host-clock call
site is :func:`repro.profiling.clock.host_clock_s`.
"""

from __future__ import annotations

from repro.profiling.capture import (
    capture_payload,
    load_capture,
    render_capture,
    to_json,
    validate_capture,
)
from repro.profiling.clock import host_clock_s
from repro.profiling.core import NULL_PHASE, FrameStat, NullProfiler, Profiler
from repro.profiling.flamegraph import augment_chrome_trace, to_collapsed

_NULL_PROFILER = NullProfiler()
_profiler = _NULL_PROFILER


def get_profiler():
    """The process-global profiler (a no-op unless installed)."""
    return _profiler


def set_profiler(profiler) -> None:
    """Install (or, with ``None``, uninstall) the global profiler."""
    global _profiler
    _profiler = profiler if profiler is not None else _NULL_PROFILER


def profile_phase(name: str):
    """A context manager timing one frame of the installed profiler.

    When profiling is off this returns a shared no-op phase, so
    instrumented hot paths pay one call and one attribute check. The
    yielded phase exposes ``add(counter, amount)`` to credit work to the
    frame's call path.
    """
    p = _profiler
    if not p.enabled:
        return NULL_PHASE
    return p.phase(name)


__all__ = [
    "FrameStat",
    "NullProfiler",
    "Profiler",
    "augment_chrome_trace",
    "capture_payload",
    "get_profiler",
    "host_clock_s",
    "load_capture",
    "profile_phase",
    "render_capture",
    "set_profiler",
    "to_collapsed",
    "to_json",
    "validate_capture",
]
