"""The fault/recovery ledger and its versioned report.

Every injected fault and every recovery action appends one
:class:`FaultRecord`, in simulated-time order, to a :class:`FaultLedger`.
The ledger renders as a human table or serializes as the versioned
``repro-faults-report/v1`` JSON document, and its aggregate split —
seconds lost *to faults* vs. seconds spent *recovering* — feeds the
``repro diagnose`` attribution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.errors import ValidationError
from repro.common.jsontext import indented_json
from repro.common.meta import coerce_meta
from repro.common.validation import (
    number_field, require_field, require_list, require_numbers, require_object,
)

REPORT_SCHEMA = "repro-faults-report/v1"

#: Record kinds describing an injected fault (time in ``lost_s`` was
#: destroyed by the fault itself)...
FAULT_KINDS = (
    "crash",
    "timeout",
    "cold-start-failure",
    "storage-transient",
    "storage-throttle",
    "permanent-loss",
)
#: ...and kinds describing the resilience layer's response (time in
#: ``lost_s`` is recovery overhead: backoffs, restores, re-planning).
RECOVERY_KINDS = (
    "retry",
    "retry-exhausted",
    "checkpoint-restore",
    "degraded-allocation",
)
RECORD_KINDS = FAULT_KINDS + RECOVERY_KINDS

#: Summary fields ``repro diagnose`` does arithmetic on: a saved report's
#: summary must hold a finite number under each one it carries.
SUMMARY_NUMBERS = (
    "n_faults", "fault_time_s", "recovery_time_s", "checkpoint_restores",
    "restore_overhead_s", "degraded_allocations",
)


@dataclass(frozen=True, slots=True)
class FaultRecord:
    """One fault or recovery action on the simulated clock.

    Attributes:
        kind: one of :data:`RECORD_KINDS`.
        t_s: simulated time the record was written.
        scope: "train", "tune", or "workflow".
        epoch: the executor's epoch (or SHA stage) index; -1 when N/A.
        rank: the worker rank involved; -1 for gang/storage-level records.
        attempt: the retry attempt (0-based); -1 when N/A.
        lost_s: simulated seconds attributed to this record.
        detail: short free-text context.
    """

    kind: str
    t_s: float
    scope: str = ""
    epoch: int = -1
    rank: int = -1
    attempt: int = -1
    lost_s: float = 0.0
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in RECORD_KINDS:
            raise ValidationError(f"unknown fault record kind {self.kind!r}")

    def to_payload(self) -> dict:
        return {
            "kind": self.kind,
            "t_s": self.t_s,
            "scope": self.scope,
            "epoch": self.epoch,
            "rank": self.rank,
            "attempt": self.attempt,
            "lost_s": self.lost_s,
            "detail": self.detail,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FaultRecord":
        name = "fault record"
        kind = require_field(payload, "kind", name)
        for key in ("scope", "detail"):
            if not isinstance(payload.get(key, ""), str):
                raise ValidationError(f"{name} field {key!r} must be a string")
        return cls(
            kind=kind,
            t_s=number_field(payload, "t_s", name),
            scope=payload.get("scope", ""),
            epoch=int(number_field(payload, "epoch", name, -1)),
            rank=int(number_field(payload, "rank", name, -1)),
            attempt=int(number_field(payload, "attempt", name, -1)),
            lost_s=number_field(payload, "lost_s", name, 0.0),
            detail=payload.get("detail", ""),
        )


@dataclass
class FaultLedger:
    """Append-only record of everything the injector did to one run."""

    plan_name: str = ""
    records: list[FaultRecord] = field(default_factory=list)

    def record(
        self,
        kind: str,
        t_s: float,
        *,
        scope: str = "",
        epoch: int = -1,
        rank: int = -1,
        attempt: int = -1,
        lost_s: float = 0.0,
        detail: str = "",
    ) -> FaultRecord:
        """Append one record; returns it."""
        rec = FaultRecord(
            kind=kind, t_s=t_s, scope=scope, epoch=epoch, rank=rank,
            attempt=attempt, lost_s=lost_s, detail=detail,
        )
        self.records.append(rec)
        return rec

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------ aggregates
    def counts(self) -> dict[str, int]:
        """Record count per kind (only kinds that occurred)."""
        out: dict[str, int] = {}
        for rec in self.records:
            out[rec.kind] = out.get(rec.kind, 0) + 1
        return dict(sorted(out.items()))

    @property
    def fault_time_s(self) -> float:
        """Simulated seconds destroyed by injected faults."""
        return sum(r.lost_s for r in self.records if r.kind in FAULT_KINDS)

    @property
    def recovery_time_s(self) -> float:
        """Simulated seconds spent recovering (backoffs, restores, replans)."""
        return sum(r.lost_s for r in self.records if r.kind in RECOVERY_KINDS)

    def summary(self) -> dict:
        """The aggregate view embedded in reports and ``JobResult.extra``."""
        counts = self.counts()
        return {
            "plan": self.plan_name,
            "n_records": len(self.records),
            "n_faults": sum(
                n for kind, n in counts.items() if kind in FAULT_KINDS
            ),
            "n_recoveries": sum(
                n for kind, n in counts.items() if kind in RECOVERY_KINDS
            ),
            "fault_time_s": self.fault_time_s,
            "recovery_time_s": self.recovery_time_s,
            "by_kind": counts,
        }

    def recovery_counts(self) -> dict:
        """The training executor's recovery totals, read from the records
        alone: checkpoint restores, their overhead, and degraded
        allocations. A saved report therefore reproduces them exactly."""
        restores = [r.lost_s for r in self.records if r.kind == "checkpoint-restore"]
        return {
            "checkpoint_restores": len(restores),
            "restore_overhead_s": sum(restores, 0.0),
            "degraded_allocations": sum(
                1 for r in self.records if r.kind == "degraded-allocation"
            ),
        }

    def extend(self, other: "FaultLedger") -> None:
        """Append another ledger's records (workflow = tune + train)."""
        self.records.extend(other.records)

    @classmethod
    def merged(cls, *ledgers: "FaultLedger | None") -> "FaultLedger":
        """One ledger combining every non-None input, in argument order."""
        names = [led.plan_name for led in ledgers if led is not None and led.plan_name]
        out = cls(plan_name=names[0] if names else "")
        for led in ledgers:
            if led is not None:
                out.extend(led)
        return out

    # ------------------------------------------------------------------ rendering
    def render(self) -> str:
        """Human-readable table plus the aggregate split."""
        lines = [
            f"fault ledger · plan={self.plan_name or '-'} · "
            f"{len(self.records)} record(s)",
            f"{'t_s':>10}  {'kind':<20} {'scope':<6} {'ep':>4} {'rank':>4} "
            f"{'try':>3}  {'lost_s':>9}  detail",
        ]
        for rec in self.records:
            lines.append(
                f"{rec.t_s:>10.2f}  {rec.kind:<20} {rec.scope:<6} "
                f"{rec.epoch if rec.epoch >= 0 else '-':>4} "
                f"{rec.rank if rec.rank >= 0 else '-':>4} "
                f"{rec.attempt if rec.attempt >= 0 else '-':>3}  "
                f"{rec.lost_s:>9.3f}  {rec.detail}"
            )
        s = self.summary()
        lines.append(
            f"total: {s['n_faults']} fault(s) ({s['fault_time_s']:.2f} s lost), "
            f"{s['n_recoveries']} recovery action(s) "
            f"({s['recovery_time_s']:.2f} s overhead)"
        )
        return "\n".join(lines)

    def to_payload(self, plan_payload: dict | None = None,
                   meta: dict | None = None) -> dict:
        """The ``repro-faults-report/v1`` document."""
        return {
            "schema": REPORT_SCHEMA,
            "meta": dict(sorted(coerce_meta(meta).items())),
            "plan": plan_payload or {},
            "summary": self.summary(),
            "records": [r.to_payload() for r in self.records],
        }

    def to_json(self, plan_payload: dict | None = None,
                meta: dict | None = None) -> str:
        return indented_json(self.to_payload(plan_payload, meta)) + "\n"

    @classmethod
    def from_payload(cls, payload: dict) -> "FaultLedger":
        """Parse a report document written by :meth:`to_payload`."""
        if not isinstance(payload, dict):
            raise ValidationError(
                f"fault report must be a JSON object, got {type(payload).__name__}"
            )
        if payload.get("schema") != REPORT_SCHEMA:
            raise ValidationError(
                f"expected schema {REPORT_SCHEMA!r}, got {payload.get('schema')!r}"
            )
        require_object(payload.get("meta") or {}, "fault report 'meta'")
        require_object(payload.get("plan") or {}, "fault report 'plan'")
        summary = require_object(payload.get("summary", {}), "fault report 'summary'")
        require_numbers(summary, [k for k in SUMMARY_NUMBERS if k in summary],
                        "fault report summary")
        ledger = cls(plan_name=summary.get("plan", ""))
        for rec in require_list(payload.get("records", []), "fault report 'records'"):
            ledger.records.append(FaultRecord.from_payload(rec))
        return ledger

    @classmethod
    def load(cls, path: str | Path) -> tuple["FaultLedger", dict]:
        """Read a saved report: the ledger and the checked document. A
        malformed file raises :class:`ValueError`."""
        payload = json.loads(Path(path).read_text())
        return cls.from_payload(payload), payload
