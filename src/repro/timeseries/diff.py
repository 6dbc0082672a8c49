"""Cross-run capture diffing: per-series drift classification.

``repro timeseries diff A B`` compares two ``repro-timeseries/v1``
captures series by series and classifies each into exactly one bucket:

* ``identical`` — byte-equal points (same timestamps, same values).
* ``added`` / ``missing`` — present in only one capture.
* ``divergent`` — both mean and peak moved beyond the threshold.
* ``level_shift`` — the mean moved beyond the threshold, the peak held.
* ``peak_shift`` — the peak moved beyond the threshold, the mean held.
* ``resampled`` — stats within threshold but point/sample counts differ
  (e.g. a run that took more epochs to converge at the same levels).
* ``jitter`` — same shape, sub-threshold numeric wiggle.

Means are taken over the stored (run-length-compressed) points, which is
deterministic and biased toward step *edges* — exactly the transitions a
drift check cares about. ``added``/``missing``/``divergent``/
``level_shift``/``peak_shift`` count as drift; ``has_drift`` (and the
CLI's exit code) keys off those. The report itself is a versioned
``repro-timeseries-diff/v1`` document.
"""

from __future__ import annotations

import json

from repro.common.meta import coerce_meta
from repro.timeseries.capture import validate_capture

DIFF_SCHEMA = "repro-timeseries-diff/v1"

#: Top-level keys — must match the schema registry entry in
#: ``repro.common.schemas.SCHEMA_KEYS``.
_TOP_KEYS = frozenset({"schema", "meta", "base", "target", "series", "summary"})

#: Relative change in a series' mean or peak that counts as drift.
DEFAULT_THRESHOLD = 0.05

_DRIFT_CLASSES = frozenset(
    {"added", "missing", "divergent", "level_shift", "peak_shift"}
)


def _stats(entry: dict) -> dict:
    values = entry["values"]
    return {
        "n_samples": entry["n_samples"],
        "n_points": len(values),
        "mean": sum(values) / len(values) if values else 0.0,
        "peak": entry["high_water"],
        "last": values[-1] if values else 0.0,
    }


def _rel_delta(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale <= 0:
        return 0.0
    return abs(a - b) / scale


def _classify(base: dict, target: dict, threshold: float) -> tuple[str, dict]:
    b, t = _stats(base), _stats(target)
    deltas = {
        "mean_rel_delta": round(_rel_delta(b["mean"], t["mean"]), 9),
        "peak_rel_delta": round(_rel_delta(b["peak"], t["peak"]), 9),
    }
    if (
        base["t0_s"] == target["t0_s"]
        and base["dt_s"] == target["dt_s"]
        and base["values"] == target["values"]
    ):
        return "identical", deltas
    mean_moved = deltas["mean_rel_delta"] > threshold
    peak_moved = deltas["peak_rel_delta"] > threshold
    if mean_moved and peak_moved:
        return "divergent", deltas
    if mean_moved:
        return "level_shift", deltas
    if peak_moved:
        return "peak_shift", deltas
    if b["n_points"] != t["n_points"] or b["n_samples"] != t["n_samples"]:
        return "resampled", deltas
    return "jitter", deltas


def diff_captures(
    base: dict,
    target: dict,
    threshold: float = DEFAULT_THRESHOLD,
    meta: dict | None = None,
) -> dict:
    """The ``repro-timeseries-diff/v1`` report for two captures."""
    validate_capture(base)
    validate_capture(target)
    base_series = {entry["name"]: entry for entry in base["series"]}
    target_series = {entry["name"]: entry for entry in target["series"]}
    rows = []
    counts: dict[str, int] = {}
    for name in sorted(set(base_series) | set(target_series)):
        b = base_series.get(name)
        t = target_series.get(name)
        if b is None:
            cls, deltas = "added", {}
        elif t is None:
            cls, deltas = "missing", {}
        else:
            cls, deltas = _classify(b, t, threshold)
        counts[cls] = counts.get(cls, 0) + 1
        row = {
            "name": name,
            "class": cls,
            "base": _round_stats(_stats(b)) if b is not None else None,
            "target": _round_stats(_stats(t)) if t is not None else None,
        }
        row.update(deltas)
        rows.append(row)
    drifted = sorted(
        row["name"] for row in rows if row["class"] in _DRIFT_CLASSES
    )
    return {
        "schema": DIFF_SCHEMA,
        "meta": coerce_meta(meta),
        "base": dict(base.get("meta") or {}),
        "target": dict(target.get("meta") or {}),
        "series": rows,
        "summary": {
            "threshold": threshold,
            "n_series": len(rows),
            "classes": {cls: counts[cls] for cls in sorted(counts)},
            "drifted": drifted,
        },
    }


def _round_stats(stats: dict) -> dict:
    return {
        key: round(value, 9) if isinstance(value, float) else value
        for key, value in stats.items()
    }


def diff_to_json(report: dict) -> str:
    """Byte-stable serialization (sorted keys, trailing newline)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def has_drift(report: dict) -> bool:
    """True when any series drifted (added/missing/shifted/divergent)."""
    return bool(report["summary"]["drifted"])


def render_diff(report: dict) -> str:
    """Human-readable report: summary line, then one row per series."""
    summary = report["summary"]
    class_bits = ", ".join(
        f"{cls}={summary['classes'][cls]}" for cls in sorted(summary["classes"])
    )
    lines = [
        f"timeseries diff: {summary['n_series']} series "
        f"(threshold {summary['threshold']:g}): {class_bits or 'none'}",
    ]
    for row in report["series"]:
        detail = ""
        if row["class"] in ("added", "missing"):
            side = row["target"] if row["class"] == "added" else row["base"]
            if side is not None:
                detail = f"  ({side['n_samples']} samples)"
        elif row["base"] is not None and row["target"] is not None:
            detail = (
                f"  mean {row['base']['mean']:g} -> {row['target']['mean']:g}"
                f"  peak {row['base']['peak']:g} -> {row['target']['peak']:g}"
            )
        lines.append(f"  {row['class']:>11s}  {row['name']}{detail}")
    lines.append(
        "drift detected: "
        + (", ".join(summary["drifted"]) if summary["drifted"] else "no")
    )
    return "\n".join(lines)
