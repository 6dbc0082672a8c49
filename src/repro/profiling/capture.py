"""The versioned ``repro-profile/v1`` capture: build, save, load, render.

A capture is the byte-stable JSON form of one profiler's aggregates —
frames sorted by call path with inclusive/self time, call counts and
attributed counters, plus document totals. Frame *timings* are host
wall-clock and therefore machine-dependent; everything else (paths, call
counts, counters, ordering) is deterministic for a fixed (workload, seed),
which is what makes two captures diffable (``repro profile --diff``).
"""

from __future__ import annotations

import json

from repro.common.errors import ValidationError
from repro.common.jsontext import indented_json
from repro.common.meta import coerce_meta
from repro.common.schemas import SCHEMA_KEYS
from repro.common.validation import require_numbers
from repro.profiling.core import Profiler

JSON_SCHEMA = "repro-profile/v1"

_FRAME_KEYS = frozenset(
    {"path", "depth", "n_calls", "total_s", "self_s", "counters"}
)

PATH_SEP = ";"


def capture_payload(profiler: Profiler, meta: dict | None = None) -> dict:
    """The ``repro-profile/v1`` document for ``profiler``'s aggregates."""
    stats = profiler.frames
    child_time: dict[tuple[str, ...], float] = {path: 0.0 for path in stats}
    for path, stat in stats.items():
        parent = path[:-1]
        if parent in child_time:
            child_time[parent] += stat.total_s
    frames = []
    for path in sorted(stats):
        stat = stats[path]
        frame = {
            "path": PATH_SEP.join(path),
            "depth": len(path),
            "n_calls": stat.n_calls,
            "total_s": round(stat.total_s, 9),
            "self_s": round(max(0.0, stat.total_s - child_time[path]), 9),
            "counters": {
                name: stat.counters[name] for name in sorted(stat.counters)
            },
        }
        if profiler.sample_memory:
            frame["peak_bytes"] = stat.peak_bytes
        frames.append(frame)
    top_wall = sum(f["total_s"] for f in frames if f["depth"] == 1)
    return {
        "schema": JSON_SCHEMA,
        "meta": coerce_meta(meta),
        "frames": frames,
        "totals": {
            "wall_s": round(top_wall, 9),
            "n_frames": len(frames),
            "n_calls": sum(f["n_calls"] for f in frames),
            "dropped_events": profiler.dropped_events,
        },
    }


def to_json(payload: dict) -> str:
    """Byte-stable serialization (sorted keys, trailing newline)."""
    return indented_json(payload) + "\n"


def load_capture(text: str) -> dict:
    """Parse and validate a ``repro-profile/v1`` document."""
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
    require_numbers(payload["totals"], ("wall_s", "n_frames", "n_calls"),
                    "capture 'totals'")
    if not isinstance(payload["frames"], list):
        raise ValidationError("capture 'frames' must be a list")
    for frame in payload["frames"]:
        if not isinstance(frame, dict) or not isinstance(frame.get("path"), str):
            raise ValidationError("capture frames must be objects with a string 'path'")
        missing = _FRAME_KEYS - set(frame)
        if missing:
            raise ValidationError(
                f"capture frame {frame['path']!r} lacks keys {sorted(missing)}"
            )
        name = f"capture frame {frame['path']!r}"
        require_numbers(frame, ("depth", "n_calls", "total_s", "self_s"), name)
        for key in ("depth", "n_calls"):
            if not isinstance(frame[key], int):
                raise ValidationError(
                    f"{name} field {key!r} must be an integer, got {frame[key]!r:.40}"
                )
        if "peak_bytes" in frame:
            require_numbers(frame, ("peak_bytes",), name)
        if not isinstance(frame["counters"], dict):
            raise ValidationError(f"{name}: 'counters' must be an object")
        require_numbers(frame["counters"], sorted(frame["counters"]), f"{name} counters")


def _format_rate(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.2f}M/s"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k/s"
    return f"{value:.1f}/s"


def render_capture(payload: dict, top: int = 0) -> str:
    """Human-readable per-frame table, widest frames first.

    ``top`` limits the number of rows (0 = all). Counters are shown with
    their per-call-path rate (counter / frame inclusive seconds).
    """
    totals = payload["totals"]
    frames = sorted(
        payload["frames"], key=lambda f: (-f["total_s"], f["path"])
    )
    if top:
        frames = frames[:top]
    wall = totals["wall_s"]
    lines = [
        f"profile: {totals['n_frames']} frame(s), {totals['n_calls']} "
        f"call(s), {wall:.3f} s attributed wall",
        f"{'path':52s} {'calls':>7s} {'total':>9s} {'self':>9s} {'%':>6s}",
    ]
    for f in frames:
        pct = 100.0 * f["total_s"] / wall if wall > 0 else 0.0
        row = (
            f"{f['path']:52s} {f['n_calls']:>7d} {f['total_s']:>8.3f}s "
            f"{f['self_s']:>8.3f}s {pct:>5.1f}%"
        )
        extras = [
            f"{name}={value:g} ({_format_rate(value / f['total_s'])})"
            if f["total_s"] > 0 else f"{name}={value:g}"
            for name, value in sorted(f["counters"].items())
        ]
        if "peak_bytes" in f and f["peak_bytes"]:
            extras.append(f"peak_mem={f['peak_bytes'] / 1e6:.1f}MB")
        if extras:
            row += "  " + " ".join(extras)
        lines.append(row)
    if totals.get("dropped_events"):
        lines.append(
            f"(raw-event cap hit: {totals['dropped_events']} frame entries "
            "not kept for trace augmentation; aggregates are complete)"
        )
    return "\n".join(lines)
