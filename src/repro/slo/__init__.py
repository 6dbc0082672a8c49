"""Online QoS/SLO guard: specs, burn-rate accounting, alerts, event log.

The package watches whether a run is *on track* to meet its deadline and
budget while it executes, instead of reporting misses post-mortem:

* :mod:`repro.slo.spec` — declarative :class:`SLOSpec` (``repro-slo/v1``);
* :mod:`repro.slo.events` — the hook bus executors publish into, and the
  append-only ``repro-events/v1`` JSONL :class:`EventLog`;
* :mod:`repro.slo.guard` — :class:`SLOGuard`: error-budget accounting in
  simulated time, projected completion from the online predictor, and
  threshold + burn-rate alerts with a deterministic fire/resolve
  lifecycle, all judged by one status ladder
  (:class:`repro.runs.Instruments` installs it around a run);
* :mod:`repro.slo.report` — ``repro-slo-report/v1`` evaluation reports.

Everything runs on simulated clocks only; a guard-off run is byte-
identical to one where this package does not exist.
"""

from repro.slo.events import (
    EVENT_KINDS,
    EVENTS_SCHEMA,
    Event,
    EventBus,
    EventLog,
    NullEventBus,
    get_event_bus,
    set_event_bus,
)
from repro.slo.guard import RULES, STATUSES, Alert, BudgetState, SLOGuard
from repro.slo.report import (
    REPORT_SCHEMA,
    SLOReport,
    error_budget_findings,
    evaluate_guard,
    evaluate_summary,
    replay_events,
)
from repro.slo.spec import SLO_SCHEMA, SLOSpec

__all__ = [
    "EVENT_KINDS",
    "EVENTS_SCHEMA",
    "REPORT_SCHEMA",
    "RULES",
    "SLO_SCHEMA",
    "STATUSES",
    "Alert",
    "BudgetState",
    "Event",
    "EventBus",
    "EventLog",
    "NullEventBus",
    "SLOGuard",
    "SLOReport",
    "SLOSpec",
    "error_budget_findings",
    "evaluate_guard",
    "evaluate_summary",
    "get_event_bus",
    "replay_events",
    "set_event_bus",
]
