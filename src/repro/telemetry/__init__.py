"""Live telemetry: metrics registry, span tracing, exporters.

The process-global defaults are no-ops (:class:`NullRegistry`,
:class:`NullTracer`), so instrumented hot paths cost ~nothing until a
caller installs real collectors::

    from repro.telemetry import MetricsRegistry, Tracer, set_registry, set_tracer

    registry, tracer = MetricsRegistry(), Tracer()
    set_registry(registry)
    set_tracer(tracer)
    ...  # run jobs; platform/scheduler/planner/storage record as they go
    print(to_prometheus_text(registry.snapshot()))

or, scoped, via :class:`repro.runs.Instruments` (what the CLI's
``--telemetry`` / ``--trace`` flags use). Instrumentation components
capture the globals at *construction* time, so install collectors before
building platforms/schedulers (``run_training`` et al. construct everything
per call, which makes this automatic).

Telemetry is strictly observational: it never consumes randomness and never
branches simulation logic, so results are bit-identical with collectors
installed or not.
"""

from __future__ import annotations

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricSnapshot,
    MetricsRegistry,
    NullRegistry,
    Sample,
)
from repro.telemetry.spans import NullTracer, Tracer
from repro.telemetry.exporters import (
    from_json_payload,
    to_json,
    to_prometheus_text,
)

_NULL_REGISTRY = NullRegistry()
_NULL_TRACER = NullTracer()
_registry = _NULL_REGISTRY
_tracer = _NULL_TRACER


def get_registry():
    """The process-global metrics registry (a no-op unless installed)."""
    return _registry


def set_registry(registry) -> None:
    """Install (or, with ``None``, uninstall) the global metrics registry."""
    global _registry
    _registry = registry if registry is not None else _NULL_REGISTRY


def get_tracer():
    """The process-global span tracer (a no-op unless installed)."""
    return _tracer


def set_tracer(tracer) -> None:
    """Install (or, with ``None``, uninstall) the global span tracer."""
    global _tracer
    _tracer = tracer if tracer is not None else _NULL_TRACER


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricSnapshot",
    "MetricsRegistry",
    "NullRegistry",
    "NullTracer",
    "Sample",
    "Tracer",
    "from_json_payload",
    "get_registry",
    "get_tracer",
    "set_registry",
    "set_tracer",
    "to_json",
    "to_prometheus_text",
]
