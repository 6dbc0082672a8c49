"""Simulated-time metrics pipeline: series, dashboard, diffs, anomalies.

The process-global default is a :class:`NullSampler`, so the sampling
hooks on the platform/scheduler/tuning/SLO/billing paths cost one
attribute check until a caller installs a real :class:`TimeSeriesSampler`::

    from repro.timeseries import TimeSeriesSampler, get_sampler, set_sampler

    ts = TimeSeriesSampler()
    set_sampler(ts)
    ...  # run jobs; concurrency/warm-pool/cost series accumulate
    set_sampler(None)

or, scoped, via :class:`repro.runs.Instruments` (what the CLI's
``--timeseries`` flag and ``repro dash`` use). Like telemetry
and profiling, sampling is strictly observational: it never consumes
randomness and never branches simulation logic, so simulated results are
bit-identical with the sampler installed or not.

Instrumentation sites record points against their own simulation clock::

    ts = get_sampler()
    if ts.enabled:
        ts.sample("platform.warm_pool", sim.now, float(pool.total_warm(sim.now)))

and the collected series export as a ``repro-timeseries/v1`` capture —
delta-encoded timestamps, run-length-compressed values, per-series
high-water marks — which ``repro dash`` renders as a terminal dashboard,
``repro timeseries diff`` compares series by series (through
:func:`repro.runs.compare.compare`), and
:func:`repro.timeseries.anomaly.detect_anomalies` scans for warm-pool
collapse, storage saturation, concurrency plateaus and budget-burn knees
(surfaced through ``repro diagnose``).

REP002 note: this package is in the simulated-packages scope of
``tests/test_source_invariants.py``; it contains no host-clock call
sites at all — every timestamp is handed in by the instrumented layer.
"""

from __future__ import annotations

from repro.timeseries.anomaly import Anomaly, detect_anomalies
from repro.timeseries.capture import (
    capture_payload,
    decode_series,
    load_capture,
    render_capture,
    to_json,
    validate_capture,
)
from repro.timeseries.core import (
    Marker,
    NullSampler,
    SeriesBuffer,
    TimeSeriesSampler,
)
from repro.timeseries.dashboard import render_dashboard

_NULL_SAMPLER = NullSampler()
_sampler = _NULL_SAMPLER


def get_sampler():
    """The process-global sampler (a no-op unless installed)."""
    return _sampler


def set_sampler(sampler) -> None:
    """Install (or, with ``None``, uninstall) the global sampler."""
    global _sampler
    _sampler = sampler if sampler is not None else _NULL_SAMPLER


__all__ = [
    "Anomaly",
    "Marker",
    "NullSampler",
    "SeriesBuffer",
    "TimeSeriesSampler",
    "capture_payload",
    "decode_series",
    "detect_anomalies",
    "get_sampler",
    "load_capture",
    "render_capture",
    "render_dashboard",
    "set_sampler",
    "to_json",
    "validate_capture",
]
