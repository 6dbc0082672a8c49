"""Exporters: Prometheus text exposition and JSON.

The Chrome trace-event export lives on :class:`repro.faas.trace.TraceRecorder`
(reached through ``Tracer.to_chrome_trace``); this module covers the metric
side. ``to_prometheus_text`` follows the text exposition format 0.0.4
(HELP/TYPE comment lines, ``_bucket``/``_sum``/``_count`` histogram series
with cumulative ``le`` buckets); ``to_json`` / ``from_json_payload`` is the
lossless round-trip format ``repro diagnose`` and ``repro slo`` read.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.common.jsontext import indented_json
from repro.common.meta import coerce_meta
from repro.common.validation import is_number
from repro.telemetry.metrics import MetricSnapshot

JSON_SCHEMA = "repro-telemetry/v1"


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in merged.items()
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _le_str(bound: float) -> str:
    return _format_value(bound) if bound != float("inf") else "+Inf"


def to_prometheus_text(snapshots: Iterable[MetricSnapshot]) -> str:
    """Render metric snapshots in the Prometheus text exposition format."""
    lines: list[str] = []
    for snap in snapshots:
        if snap.help:
            lines.append(f"# HELP {snap.name} {snap.help}")
        lines.append(f"# TYPE {snap.name} {snap.type}")
        for sample in snap.samples:
            if snap.type == "histogram":
                cumulative = 0
                for bound, n in zip(
                    list(snap.bucket_bounds) + [float("inf")], sample.buckets
                ):
                    cumulative += n
                    labels = _format_labels(sample.labels, {"le": _le_str(bound)})
                    lines.append(f"{snap.name}_bucket{labels} {cumulative}")
                labels = _format_labels(sample.labels)
                lines.append(f"{snap.name}_sum{labels} {_format_value(sample.sum)}")
                lines.append(f"{snap.name}_count{labels} {sample.count}")
            else:
                labels = _format_labels(sample.labels)
                lines.append(f"{snap.name}{labels} {_format_value(sample.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def snapshots_to_payload(snapshots: Iterable[MetricSnapshot]) -> list[dict]:
    """JSON-ready structure for a list of metric snapshots."""
    out = []
    for snap in snapshots:
        entry: dict = {
            "name": snap.name,
            "type": snap.type,
            "help": snap.help,
            "labelnames": list(snap.labelnames),
            "samples": [],
        }
        if snap.type == "histogram":
            entry["bucket_bounds"] = list(snap.bucket_bounds)
        for sample in snap.samples:
            if snap.type == "histogram":
                entry["samples"].append(
                    {
                        "labels": dict(sample.labels),
                        "sum": sample.sum,
                        "count": sample.count,
                        "buckets": list(sample.buckets),
                    }
                )
            else:
                entry["samples"].append(
                    {"labels": dict(sample.labels), "value": sample.value}
                )
        out.append(entry)
    return out


def to_json(
    snapshots: Iterable[MetricSnapshot],
    run: dict | None = None,
    meta: dict | None = None,
) -> str:
    """Serialize a telemetry capture: metrics plus the run summary."""
    payload = {
        "schema": JSON_SCHEMA,
        "meta": coerce_meta(meta),
        "run": dict(run or {}),
        "metrics": snapshots_to_payload(snapshots),
    }
    return indented_json(payload)


def from_json_payload(text: str) -> dict:
    """Parse and validate a telemetry JSON document."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError(
            f"telemetry document must be a JSON object, got {type(payload).__name__}"
        )
    if payload.get("schema") != JSON_SCHEMA:
        raise ValueError(
            f"unsupported telemetry schema {payload.get('schema')!r}; "
            f"expected {JSON_SCHEMA!r}"
        )
    _validate_payload(payload)
    return payload


#: Run-summary fields readers do arithmetic on; ``None`` marks the ones a
#: run may leave unset (a QoS-constrained run has no budget).
_RUN_NUMBERS = {
    "jct_s": False, "cost_usd": False, "comm_overhead_s": False,
    "scheduling_overhead_s": False, "storage_cost_usd": False,
    "n_epochs": False, "n_restarts": False, "n_stages": False,
    "budget_usd": True, "qos_s": True,
}

_METRIC_TYPES = ("counter", "gauge", "histogram")


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise ValueError(f"malformed telemetry document: {what}")


def _validate_payload(payload: dict) -> None:
    """Check the shapes every reader of a capture relies on."""
    meta, run = payload.get("meta", {}), payload.get("run", {})
    _require(isinstance(meta, dict), "'meta' must be an object")
    _require(isinstance(run, dict), "'run' must be an object")
    for key, nullable in _RUN_NUMBERS.items():
        value = run.get(key)
        if key in run and not (nullable and value is None):
            _require(is_number(value), f"run {key!r} must be a number, got {value!r}")
    _require(
        run.get("objective") is None or isinstance(run["objective"], str),
        "run 'objective' must be a string",
    )
    metrics = payload.get("metrics", [])
    _require(isinstance(metrics, list), "'metrics' must be a list")
    for entry in metrics:
        _require(isinstance(entry, dict), "each metric must be an object")
        name = entry.get("name")
        _require(isinstance(name, str), f"metric name must be a string, got {name!r}")
        _require(entry.get("type") in _METRIC_TYPES, f"metric {name!r} has an unknown type")
        _require(isinstance(entry.get("help", ""), str), f"metric {name!r} help must be a string")
        labelnames = entry.get("labelnames", [])
        _require(
            isinstance(labelnames, list) and all(isinstance(n, str) for n in labelnames),
            f"metric {name!r} labelnames must be a list of strings",
        )
        bounds = entry.get("bucket_bounds", [])
        _require(
            isinstance(bounds, list) and all(is_number(b) for b in bounds),
            f"metric {name!r} bucket_bounds must be a list of numbers",
        )
        samples = entry.get("samples", [])
        _require(isinstance(samples, list), f"metric {name!r} samples must be a list")
        for sample in samples:
            _validate_sample(name, entry["type"], labelnames, sample)


def _validate_sample(name: str, kind: str, labelnames: list, sample: object) -> None:
    _require(isinstance(sample, dict), f"metric {name!r} sample must be an object")
    labels = sample.get("labels")
    _require(
        isinstance(labels, dict)
        and sorted(labels) == sorted(labelnames)
        and all(isinstance(v, str) for v in labels.values()),
        f"metric {name!r} sample labels must map its labelnames to strings",
    )
    if kind != "histogram":
        _require(is_number(sample.get("value")), f"metric {name!r} sample value must be a number")
        return
    buckets = sample.get("buckets")
    _require(
        is_number(sample.get("sum"))
        and isinstance(sample.get("count"), int)
        and isinstance(buckets, list)
        and all(isinstance(n, int) for n in buckets),
        f"metric {name!r} histogram sample needs a numeric sum, integer count and buckets",
    )
