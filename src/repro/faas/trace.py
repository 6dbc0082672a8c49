"""Execution tracing for the platform simulator.

Records what the simulated platform did — invocations, cold starts, phase
boundaries, restarts — and exports the timeline in Chrome's trace-event
JSON format (load it at ``chrome://tracing`` or in Perfetto) for debugging
scheduler behaviour visually.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.common.errors import ValidationError


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One timeline span (seconds, simulated time)."""

    name: str
    category: str
    start_s: float
    duration_s: float
    track: str  # e.g. "group:10fn/1769MB/vmps" or "scheduler"
    args: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duration_s < 0:
            raise ValidationError(f"duration must be >= 0, got {self.duration_s}")


class TraceRecorder:
    """Collects trace events and renders them."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self.instants: list[TraceEvent] = []

    def record(
        self,
        name: str,
        category: str,
        start_s: float,
        duration_s: float,
        track: str,
        **args,
    ) -> TraceEvent:
        event = TraceEvent(
            name=name, category=category, start_s=start_s,
            duration_s=duration_s, track=track, args=dict(args),
        )
        self.events.append(event)
        return event

    def instant(
        self, name: str, category: str, t_s: float, track: str, **args
    ) -> TraceEvent:
        """Record one zero-duration marker (Chrome 'i' instant event)."""
        event = TraceEvent(
            name=name, category=category, start_s=t_s,
            duration_s=0.0, track=track, args=dict(args),
        )
        self.instants.append(event)
        return event

    def spans(self, category: str | None = None) -> list[TraceEvent]:
        """Events, optionally filtered by category, in start order."""
        out = [
            e for e in self.events if category is None or e.category == category
        ]
        return sorted(out, key=lambda e: (e.start_s, e.track))

    def total_time(self, category: str) -> float:
        """Summed duration of one category's spans."""
        return sum(e.duration_s for e in self.spans(category))

    def to_chrome_trace(self) -> str:
        """Chrome trace-event JSON ('X' complete events, µs timestamps)."""
        tracks = {
            t: i + 1
            for i, t in enumerate(
                sorted({e.track for e in self.events} | {e.track for e in self.instants})
            )
        }
        payload = [
            {
                "name": e.name,
                "cat": e.category,
                "ph": "X",
                "ts": e.start_s * 1e6,
                "dur": e.duration_s * 1e6,
                "pid": 1,
                "tid": tracks[e.track],
                "args": e.args,
            }
            for e in self.spans()
        ]
        meta = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": track},
            }
            for track, tid in tracks.items()
        ]
        marks = [
            {
                "name": e.name,
                "cat": e.category,
                "ph": "i",
                "ts": e.start_s * 1e6,
                "s": "t",
                "pid": 1,
                "tid": tracks[e.track],
                "args": e.args,
            }
            for e in sorted(self.instants, key=lambda e: (e.start_s, e.track, e.name))
        ]
        return json.dumps({"traceEvents": meta + payload + marks})

    def summary(self) -> dict[str, float]:
        """Total duration per category."""
        out: dict[str, float] = {}
        for e in self.events:
            out[e.category] = out.get(e.category, 0.0) + e.duration_s
        return out

