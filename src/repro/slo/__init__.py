"""Online QoS/SLO guard: specs, burn-rate accounting, alerts, event log.

The package watches whether a run is *on track* to meet its deadline and
budget while it executes, instead of reporting misses post-mortem:

* :mod:`repro.slo.spec` — declarative :class:`SLOSpec` (``repro-slo/v1``);
* :mod:`repro.slo.events` — the hook bus executors publish into, and the
  append-only ``repro-events/v1`` JSONL :class:`EventLog`;
* :mod:`repro.slo.burnrate` — error-budget accounting in simulated time
  with projected completion from the online predictor;
* :mod:`repro.slo.alerts` — threshold + burn-rate rules with a
  deterministic fire/resolve lifecycle;
* :mod:`repro.slo.guard` — :class:`SLOGuard` wires it together
  (:class:`repro.runs.Instruments` installs it around a run);
* :mod:`repro.slo.report` — ``repro-slo-report/v1`` evaluation reports.

Everything runs on simulated clocks only; a guard-off run is byte-
identical to one where this package does not exist.
"""

from repro.slo.alerts import RULES, Alert, AlertEngine, AlertRule
from repro.slo.burnrate import STATUSES, BudgetState, BurnRateAccountant
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
from repro.slo.guard import SLOGuard
from repro.slo.report import (
    REPORT_SCHEMA,
    ObjectiveResult,
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
    "AlertEngine",
    "AlertRule",
    "BudgetState",
    "BurnRateAccountant",
    "Event",
    "EventBus",
    "EventLog",
    "NullEventBus",
    "ObjectiveResult",
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
