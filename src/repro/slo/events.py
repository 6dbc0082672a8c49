"""Structured run events: the hook bus and the append-only event log.

Executors, schedulers and planners publish milestone events (plan chosen,
epoch done, restart begun/hidden, predictor shift, SHA stage done) into a
process-global bus. The default bus is a no-op (:class:`NullEventBus`), so
the publish sites cost ~nothing until a caller installs a live
:class:`EventBus` — the same collector pattern ``repro.telemetry`` uses,
and the same contract: emitting never consumes randomness and never
branches simulation logic.

Subscribed sinks include the :class:`EventLog`, which serializes the run
as a versioned JSONL document (schema ``repro-events/v1``: one header
line, then one line per event in emission order), and the SLO guard
(:class:`repro.slo.guard.SLOGuard`), which folds the stream into burn-rate
accounting and alerts. Timestamps are the *emitter's* simulated job-time
clock — never the host wall clock — so the log is byte-identical across
same-seed runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from repro.common.errors import SLOError
from repro.common.meta import coerce_meta
from repro.common.validation import is_number

EVENTS_SCHEMA = "repro-events/v1"

#: Every kind the bus accepts; an unknown kind is a programming error.
EVENT_KINDS = (
    "plan_chosen",
    "epoch_done",
    "stage_done",
    "restart_begun",
    "restart_hidden",
    "predictor_update",
    "predictor_shift",
    "phase_done",
    "alert_fired",
    "alert_resolved",
    "fault_injected",
    "retry_exhausted",
    "checkpoint_restore",
    "degraded_allocation",
)


@dataclass(frozen=True, slots=True)
class Event:
    """One structured milestone in a run's life.

    Attributes:
        kind: one of :data:`EVENT_KINDS`.
        t_s: the emitter's job-time clock, seconds of simulated time.
        scope: which sub-job emitted it ("train", "tune", "workflow", or an
            alert's budget dimension).
        data: kind-specific JSON-serializable payload.
    """

    kind: str
    t_s: float
    scope: str = ""
    data: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise SLOError(f"unknown event kind {self.kind!r}")
        if self.t_s < 0:
            raise SLOError(f"event time must be >= 0, got {self.t_s}")


class EventBus:
    """Delivers emitted events to every subscriber, in subscription order."""

    def __init__(self) -> None:
        self._subscribers: list = []

    @property
    def enabled(self) -> bool:
        return True

    def subscribe(self, callback) -> None:
        """Register ``callback(event)`` for every subsequent emission."""
        self._subscribers.append(callback)

    def emit(self, kind: str, t_s: float, scope: str = "", **data) -> Event:
        """Build one :class:`Event` and deliver it to every subscriber."""
        event = Event(kind=kind, t_s=t_s, scope=scope, data=dict(data))
        for callback in self._subscribers:
            callback(event)
        return event


class NullEventBus:
    """The default process-global bus: publishing is a no-op."""

    @property
    def enabled(self) -> bool:
        return False

    def subscribe(self, callback) -> None:
        raise SLOError("cannot subscribe to the null event bus; install an EventBus")

    def emit(self, kind: str, t_s: float, scope: str = "", **data) -> None:
        return None


_NULL_BUS = NullEventBus()
_bus = _NULL_BUS


def get_event_bus():
    """The process-global event bus (a no-op unless installed)."""
    return _bus


def set_event_bus(bus) -> None:
    """Install (or, with ``None``, uninstall) the global event bus."""
    global _bus
    _bus = bus if bus is not None else _NULL_BUS


class EventLog:
    """Append-only sink that serializes events as ``repro-events/v1`` JSONL.

    Line 1 is a header carrying the schema id and run metadata; every
    following line is one event with a ``seq`` number assigned from its
    position, so the document is self-describing and diffable.
    """

    def __init__(self, meta: dict | None = None) -> None:
        self.meta = coerce_meta(meta)
        self.events: list[Event] = []

    def record(self, event: Event) -> None:
        """Subscriber entry point: append one event."""
        self.events.append(event)

    def append(self, kind: str, t_s: float, scope: str = "", **data) -> Event:
        """Append a locally built event (bypasses the bus)."""
        event = Event(kind=kind, t_s=t_s, scope=scope, data=dict(data))
        self.events.append(event)
        return event

    def __len__(self) -> int:
        return len(self.events)

    def to_jsonl(self) -> str:
        """The versioned JSONL document, deterministic byte for byte."""
        header = {"schema": EVENTS_SCHEMA, "meta": dict(sorted(self.meta.items()))}
        lines = [json.dumps(header, sort_keys=True)]
        for seq, event in enumerate(self.events):
            lines.append(
                # t_s is written at full precision — JSON floats round-trip
                # exactly, so a replayed log reproduces the live guard's
                # arithmetic bit for bit.
                json.dumps(
                    {
                        "seq": seq,
                        "t_s": event.t_s,
                        "kind": event.kind,
                        "scope": event.scope,
                        "data": event.data,
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "EventLog":
        """Parse a document written by :meth:`to_jsonl`."""
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise SLOError("empty event log document")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise SLOError(f"event log header is not valid JSON: {exc}") from exc
        if not isinstance(header, dict):
            raise SLOError(
                f"event log header must be an object, got {type(header).__name__}"
            )
        if header.get("schema") != EVENTS_SCHEMA:
            raise SLOError(
                f"expected schema {EVENTS_SCHEMA!r}, got {header.get('schema')!r}"
            )
        meta = header.get("meta", {})
        if not isinstance(meta, dict):
            raise SLOError("event log header 'meta' must be an object")
        log = cls(meta=meta)
        for i, line in enumerate(lines[1:], start=2):
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SLOError(f"event log line {i} is truncated or malformed: {exc}") from exc
            log.events.append(_event_from_row(row, i))
        return log


def _event_from_row(row: object, line: int) -> Event:
    """One :class:`Event` from a parsed log line; raises :class:`SLOError`
    naming the line when a field is missing or has the wrong shape."""
    if not isinstance(row, dict):
        raise SLOError(f"event log line {line} must be an object, got {type(row).__name__}")
    kind, t_s = row.get("kind"), row.get("t_s")
    scope, data = row.get("scope", ""), row.get("data", {})
    if not isinstance(kind, str):
        raise SLOError(f"event log line {line} needs a string 'kind', got {kind!r}")
    if not (is_number(t_s) and math.isfinite(t_s)):
        raise SLOError(f"event log line {line} needs a finite number 't_s', got {t_s!r}")
    if not isinstance(scope, str):
        raise SLOError(f"event log line {line} 'scope' must be a string, got {scope!r}")
    if not isinstance(data, dict):
        raise SLOError(f"event log line {line} 'data' must be an object, got {data!r}")
    return Event(kind=kind, t_s=float(t_s), scope=scope, data=data)
