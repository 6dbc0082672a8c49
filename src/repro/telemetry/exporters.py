"""Exporters: Prometheus text exposition and JSON.

The Chrome trace-event export lives on :class:`repro.faas.trace.TraceRecorder`
(reached through ``Tracer.to_chrome_trace``); this module covers the metric
side. ``to_prometheus_text`` follows the text exposition format 0.0.4
(HELP/TYPE comment lines, ``_bucket``/``_sum``/``_count`` histogram series
with cumulative ``le`` buckets); ``to_json`` / ``from_json_payload`` is the
lossless round-trip format the ``repro report`` subcommand reads.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.common.meta import coerce_meta
from repro.telemetry.metrics import MetricSnapshot, Sample

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


def payload_to_snapshots(metrics: list[dict]) -> list[MetricSnapshot]:
    """Inverse of :func:`snapshots_to_payload`."""
    out = []
    for entry in metrics:
        samples = []
        for s in entry.get("samples", []):
            if entry["type"] == "histogram":
                samples.append(
                    Sample(
                        labels=dict(s["labels"]),
                        sum=float(s["sum"]),
                        count=int(s["count"]),
                        buckets=tuple(int(n) for n in s["buckets"]),
                    )
                )
            else:
                samples.append(
                    Sample(labels=dict(s["labels"]), value=float(s["value"]))
                )
        out.append(
            MetricSnapshot(
                name=entry["name"],
                type=entry["type"],
                help=entry.get("help", ""),
                labelnames=tuple(entry.get("labelnames", [])),
                bucket_bounds=tuple(entry.get("bucket_bounds", [])),
                samples=tuple(samples),
            )
        )
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
    return json.dumps(payload, indent=2, sort_keys=True)


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
    return payload
