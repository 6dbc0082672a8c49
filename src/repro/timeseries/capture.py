"""The versioned ``repro-timeseries/v1`` capture: build, save, load, render.

A capture is the byte-stable JSON form of one sampler's series — each
series delta-encoded (``t0_s`` plus a list of timestamp deltas) with its
run-length-compressed values, raw sample count, drop count and high-water
mark — plus the run's timeline markers and document totals. Every
timestamp is simulated time handed in by the instrumented layer, so for a
fixed (workload, seed, plan) the whole document is deterministic, which is
what makes captures replayable (``repro dash --replay``) and diffable
(``repro timeseries diff``).
"""

from __future__ import annotations

import json

from repro.common.errors import ValidationError
from repro.common.jsontext import indented_json
from repro.common.meta import coerce_meta
from repro.common.schemas import SCHEMA_KEYS
from repro.common.validation import is_finite, require_numbers
from repro.timeseries.core import TimeSeriesSampler

JSON_SCHEMA = "repro-timeseries/v1"

_SERIES_KEYS = frozenset(
    {"name", "t0_s", "dt_s", "values", "n_samples", "dropped", "high_water"}
)

_MARKER_KEYS = frozenset({"kind", "t_s", "label", "seq"})


def capture_payload(sampler: TimeSeriesSampler, meta: dict | None = None) -> dict:
    """The ``repro-timeseries/v1`` document for ``sampler``'s series."""
    series = []
    for name in sorted(sampler.series):
        buf = sampler.series[name]
        deltas = [
            round(buf.times[i] - buf.times[i - 1], 9)
            for i in range(1, len(buf.times))
        ]
        series.append(
            {
                "name": name,
                "t0_s": round(buf.times[0], 9) if buf.times else 0.0,
                "dt_s": deltas,
                "values": [round(v, 9) for v in buf.values],
                "n_samples": buf.n_samples,
                "dropped": buf.dropped,
                "high_water": round(buf.high_water, 9) if buf.values else 0.0,
            }
        )
    markers = [
        {
            "kind": m.kind,
            "t_s": round(m.t_s, 9),
            "label": m.label,
            "seq": seq,
        }
        for seq, m in enumerate(sampler.markers)
    ]
    return {
        "schema": JSON_SCHEMA,
        "meta": coerce_meta(meta),
        "series": series,
        "markers": markers,
        "totals": {
            "n_series": len(series),
            "n_points": sum(len(s["values"]) for s in series),
            "n_samples": sum(s["n_samples"] for s in series),
            "dropped": sum(s["dropped"] for s in series)
            + sampler.dropped_markers,
        },
    }


def decode_series(entry: dict) -> tuple[list[float], list[float]]:
    """Expand one capture series entry back to (times, values) lists."""
    values = list(entry["values"])
    if not values:
        return [], []
    times = [entry["t0_s"]]
    for dt in entry["dt_s"]:
        times.append(times[-1] + dt)
    return times, values


def to_json(payload: dict) -> str:
    """Byte-stable serialization (sorted keys, trailing newline)."""
    return indented_json(payload) + "\n"


def load_capture(text: str) -> dict:
    """Parse and validate a ``repro-timeseries/v1`` document."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"capture is not valid JSON: {exc}") from exc
    validate_capture(payload)
    return payload


def validate_capture(payload: dict) -> None:
    """Raise :class:`ValidationError` unless ``payload`` matches the schema,
    field types included."""
    if not isinstance(payload, dict):
        raise ValidationError("capture must be a JSON object")
    schema = payload.get("schema")
    if schema != JSON_SCHEMA:
        raise ValidationError(
            f"expected schema {JSON_SCHEMA!r}, got {schema!r}"
        )
    keys = SCHEMA_KEYS[JSON_SCHEMA]
    if set(payload) != keys:
        raise ValidationError(
            f"capture top-level keys {sorted(payload)} do not match the "
            f"{JSON_SCHEMA} contract {sorted(keys)}"
        )
    if not isinstance(payload["meta"], dict):
        raise ValidationError("capture 'meta' must be an object")
    require_numbers(payload["totals"], ("n_series", "n_points", "n_samples"),
                    "capture 'totals'")
    for part, key_set, label in (
        ("series", _SERIES_KEYS, "name"), ("markers", _MARKER_KEYS, "kind"),
    ):
        if not isinstance(payload[part], list):
            raise ValidationError(f"capture {part!r} must be a list")
        for entry in payload[part]:
            if not isinstance(entry, dict) or not isinstance(entry.get(label), str):
                raise ValidationError(
                    f"capture {part} must be objects with a string {label!r}"
                )
            missing = key_set - set(entry)
            if missing:
                raise ValidationError(
                    f"capture {part} entry {entry[label]!r} lacks keys "
                    f"{sorted(missing)}"
                )
    for entry in payload["series"]:
        name = f"series {entry['name']!r}"
        require_numbers(entry, ("t0_s", "n_samples", "dropped", "high_water"), name)
        for key in ("dt_s", "values"):
            if not (isinstance(entry[key], list) and all(map(is_finite, entry[key]))):
                raise ValidationError(f"{name}: {key!r} must be a list of finite numbers")
        if len(entry["dt_s"]) != max(0, len(entry["values"]) - 1):
            raise ValidationError(
                f"{name}: {len(entry['values'])} values need "
                f"{max(0, len(entry['values']) - 1)} deltas, "
                f"got {len(entry['dt_s'])}"
            )
    for marker in payload["markers"]:
        require_numbers(marker, ("t_s", "seq"), f"marker {marker['kind']!r}")
        if not isinstance(marker["label"], str):
            raise ValidationError(f"marker {marker['kind']!r}: 'label' must be a string")


def render_capture(payload: dict) -> str:
    """One summary line per series (sorted by name), then marker counts."""
    totals = payload["totals"]
    lines = [
        f"timeseries: {totals['n_series']} series, {totals['n_points']} "
        f"stored point(s) from {totals['n_samples']} sample(s)",
    ]
    for entry in payload["series"]:
        times, values = decode_series(entry)
        span = times[-1] - times[0] if times else 0.0
        last = values[-1] if values else 0.0
        lines.append(
            f"  {entry['name']:42s} {entry['n_samples']:>6d} samples "
            f"{len(values):>5d} pts  span={span:.3f}s  last={last:g}  "
            f"peak={entry['high_water']:g}"
        )
    if payload["markers"]:
        kinds: dict[str, int] = {}
        for m in payload["markers"]:
            kinds[m["kind"]] = kinds.get(m["kind"], 0) + 1
        parts = ", ".join(f"{k}={kinds[k]}" for k in sorted(kinds))
        lines.append(f"  markers: {parts}")
    if totals.get("dropped"):
        lines.append(
            f"(point cap hit: {totals['dropped']} sample(s)/marker(s) not "
            "stored; counts and high-water marks are complete)"
        )
    return "\n".join(lines)
