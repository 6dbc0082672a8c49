"""Execution tracing for the platform simulator.

Records what the simulated platform did — invocations, cold starts, phase
boundaries, restarts — and exports the timeline in Chrome's trace-event
JSON format (load it at ``chrome://tracing`` or in Perfetto) for debugging
scheduler behaviour visually.

An epoch's per-worker spans are kept as one columnar block (the track, the
start and duration arrays and the warm count), not one event per worker;
they become one Chrome row per worker only when the trace is written, and
one :class:`TraceEvent` each when a reader asks for events.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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


class WorkerBlock(NamedTuple):
    """One epoch's worker spans: rank r ran ``durations[r]`` seconds from
    ``starts[r]`` on ``track``; ranks from ``n_warm`` on started cold."""

    track: str
    starts: np.ndarray
    durations: np.ndarray
    n_warm: int

    def expand(self) -> list[TraceEvent]:
        track, n_warm = self.track, self.n_warm
        return [
            TraceEvent(
                f"worker-{rank}", "worker", begin, took, track,
                {"rank": rank, "cold": rank >= n_warm},
            )
            for rank, (begin, took) in enumerate(
                zip(self.starts.tolist(), self.durations.tolist())
            )
        ]

    def rows(self, tid: int) -> list[str]:
        """The block's Chrome rows, byte-equal to ``json.dumps`` of each
        expanded event's row dict (``json`` writes floats with ``repr``)."""
        ts = self.starts * 1e6
        bits = ts.view(np.int64)
        if (bits == bits[0]).all():  # one start for the gang (fault-free epochs)
            ts_text = [repr(float(ts[0]))] * len(ts)
        else:
            ts_text = map(repr, ts.tolist())
        dur_text = map(repr, (self.durations * 1e6).tolist())
        return [
            head + t + ', "dur": ' + d + tail
            for (head, tail), t, d in zip(
                _worker_frame(tid, len(ts), self.n_warm), ts_text, dur_text
            )
        ]


@functools.lru_cache(maxsize=1024)
def _worker_frame(tid: int, n: int, n_warm: int) -> tuple[tuple[str, str], ...]:
    """The constant text before each worker row's ts and after its dur."""
    return tuple(
        (
            f'{{"name": "worker-{rank}", "cat": "worker", "ph": "X", "ts": ',
            f', "pid": 1, "tid": {tid}, "args": {{"rank": {rank}, '
            f'"cold": {"true" if rank >= n_warm else "false"}}}}}',
        )
        for rank in range(n)
    )


class TraceRecorder:
    """Collects trace events and renders them."""

    def __init__(self) -> None:
        # Spans in record order: each a TraceEvent or a WorkerBlock.
        self._items: list[TraceEvent | WorkerBlock] = []
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
        self._items.append(event)
        return event

    def record_workers(self, track: str, starts, durations, n_warm: int) -> None:
        """Record one ``worker``-category span per rank as one block."""
        # Copies: the block must not alias arrays the caller goes on using.
        starts = np.array(starts, dtype=float)
        durations = np.array(durations, dtype=float)
        if starts.shape != durations.shape or starts.ndim != 1:
            raise ValidationError("worker starts and durations must be equal-length 1-d arrays")
        if not (np.isfinite(starts).all() and np.isfinite(durations).all()):
            raise ValidationError("worker span times must be finite")
        if (durations < 0).any():
            raise ValidationError(f"duration must be >= 0, got {durations.min()!r}")
        if len(starts):  # an empty block would still name its track
            self._items.append(WorkerBlock(track, starts, durations, int(n_warm)))

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

    def _expand(self, category: str | None = None) -> list[TraceEvent]:
        out: list[TraceEvent] = []
        for item in self._items:
            if isinstance(item, TraceEvent):
                if category is None or item.category == category:
                    out.append(item)
            elif category is None or category == "worker":
                out.extend(item.expand())
        return out

    @property
    def events(self) -> list[TraceEvent]:
        """Every span in record order, worker blocks expanded."""
        return self._expand()

    def spans(self, category: str | None = None) -> list[TraceEvent]:
        """Events, optionally filtered by category, in start order."""
        return sorted(self._expand(category), key=lambda e: (e.start_s, e.track))

    def to_chrome_trace(self) -> str:
        """Chrome trace-event JSON ('X' complete events, µs timestamps).

        Spans are ordered by (start, track), ties in record order; tids
        follow the sorted track names, so ordering by tid is ordering by
        track.
        """
        items = self._items
        tracks = {
            t: i + 1
            for i, t in enumerate(
                sorted({it.track for it in items} | {e.track for e in self.instants})
            )
        }
        starts: list = []
        tids: list = []
        rows: list[str] = []
        for item in items:
            tid = tracks[item.track]
            if isinstance(item, TraceEvent):
                starts.append((item.start_s,))
                tids.append((tid,))
                rows.append(json.dumps({
                    "name": item.name,
                    "cat": item.category,
                    "ph": "X",
                    "ts": item.start_s * 1e6,
                    "dur": item.duration_s * 1e6,
                    "pid": 1,
                    "tid": tid,
                    "args": item.args,
                }))
            else:
                starts.append(item.starts)
                tids.append(np.full(len(item.starts), tid))
                rows.extend(item.rows(tid))
        meta = [
            json.dumps({
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": track},
            })
            for track, tid in tracks.items()
        ]
        if rows:
            # lexsort is stable: equal (start, tid) keys keep record order.
            order = np.lexsort((np.concatenate(tids), np.concatenate(starts)))
            rows = [rows[i] for i in order.tolist()]
        marks = [
            json.dumps({
                "name": e.name,
                "cat": e.category,
                "ph": "i",
                "ts": e.start_s * 1e6,
                "s": "t",
                "pid": 1,
                "tid": tracks[e.track],
                "args": e.args,
            })
            for e in sorted(self.instants, key=lambda e: (e.start_s, e.track, e.name))
        ]
        return '{"traceEvents": [' + ", ".join(meta + rows + marks) + "]}"

    def summary(self) -> dict[str, float]:
        """Total duration per category, added left to right in record order."""
        out: dict[str, float] = {}
        for item in self._items:
            if isinstance(item, TraceEvent):
                out[item.category] = out.get(item.category, 0.0) + item.duration_s
            else:
                total = out.get("worker", 0.0)
                for took in item.durations.tolist():
                    total += took
                out["worker"] = total
        return out
