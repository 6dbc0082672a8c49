"""The live SLO guard: event stream in, accounting + alerts out.

:class:`SLOGuard` subscribes to the run-event bus and folds each event
into the burn-rate accountant, then re-evaluates the alert engine at the
event's simulated timestamp. Alert transitions are mirrored three ways:
appended to the guard's own event log (``alert_fired`` /
``alert_resolved`` lines), counted in the telemetry metrics registry
(lazily created ``repro_slo_alerts_total`` family, so a run with zero
alerts leaves the metrics snapshot byte-identical to a guard-off run),
and marked as Chrome-trace instant events when a tracer is live.

The guard is installed around a run by :class:`repro.runs.Instruments`,
which subscribes it to a fresh :class:`~repro.slo.events.EventBus`.
"""

from __future__ import annotations

from repro.slo.alerts import Alert, AlertEngine
from repro.slo.burnrate import STATUSES, BurnRateAccountant
from repro.slo.events import Event, EventLog
from repro.slo.spec import SLOSpec
from repro.telemetry import get_registry, get_tracer
from repro.timeseries import get_sampler


class SLOGuard:
    """Folds the run-event stream into budget states and alerts."""

    def __init__(self, spec: SLOSpec, log: EventLog | None = None) -> None:
        self.spec = spec
        self.accountant = BurnRateAccountant(spec)
        self.engine = AlertEngine(spec)
        self.log = log if log is not None else EventLog()
        # Captured at construction: Instruments installs the registry and
        # tracer before it builds the guard.
        self._registry = get_registry()
        self._tracer = get_tracer()
        self._m_alerts = None
        self._epoch = 0
        self._initial_prediction: float | None = None
        self._last_drift: float | None = None
        self._last_slowdown: float | None = None

    @property
    def alerts(self) -> tuple[Alert, ...]:
        """Every alert the engine has fired, in firing order."""
        return self.engine.alerts

    def on_event(self, event: Event) -> None:
        """Bus subscriber entry point: account one event, re-check rules."""
        self.log.record(event)
        if event.scope in ("train", "tune"):
            self.accountant.observe_clock(event.scope, event.t_s)
        data = event.data
        if event.kind == "epoch_done":
            self._epoch = int(data.get("epoch", self._epoch + 1))
            self.accountant.on_epoch(
                float(data.get("wall_s", 0.0)), float(data.get("cost_usd", 0.0))
            )
            slowdown = data.get("straggler_slowdown")
            if slowdown is not None:
                self._last_slowdown = float(slowdown)
        elif event.kind == "stage_done":
            self.accountant.on_stage(
                int(data.get("stage", 0)), float(data.get("cost_usd", 0.0))
            )
        elif event.kind in ("plan_chosen", "predictor_update", "predictor_shift"):
            predicted = data.get("predicted_total_epochs")
            if predicted is not None:
                predicted = float(predicted)
                if self._initial_prediction is None:
                    self._initial_prediction = predicted
                elif self._initial_prediction > 0:
                    self._last_drift = (
                        abs(predicted - self._initial_prediction)
                        / self._initial_prediction
                    )
                self.accountant.on_prediction(predicted)
        self._evaluate(event.t_s)

    def _evaluate(self, t_s: float) -> None:
        states = self.accountant.states()
        ts = get_sampler()
        if ts.enabled:
            # The worst rung any budget dimension sits on, as an index
            # into the ladder (0=ok .. 3=exhausted).
            level = max(
                (STATUSES.index(s.status) for s in states), default=0
            )
            ts.sample("slo.burn_level", t_s, float(level))
        fired, resolved = self.engine.evaluate(
            t_s,
            states,
            epoch=self._epoch,
            predictor_drift=self._last_drift,
            straggler_slowdown=self._last_slowdown,
        )
        for alert in fired:
            self._mirror(alert, "fired", t_s)
        for alert in resolved:
            self._mirror(alert, "resolved", t_s)

    def _mirror(self, alert: Alert, state: str, t_s: float) -> None:
        # Append directly (not via the bus) — re-emitting would re-enter
        # on_event and loop.
        self.log.append(
            f"alert_{state}",
            t_s,
            scope=alert.scope,
            rule=alert.rule,
            severity=alert.severity,
            message=alert.message,
            epoch=self._epoch,
        )
        if self._m_alerts is None:
            # Lazy: a zero-alert run must not add an (empty) metric family
            # to the registry snapshot.
            self._m_alerts = self._registry.counter(
                "repro_slo_alerts_total",
                "SLO guard alert transitions by rule and state",
                labelnames=("rule", "state"),
            )
        self._m_alerts.labels(rule=alert.rule, state=state).inc()
        self._tracer.instant(
            f"alert:{alert.rule}",
            "slo",
            t_s,
            "slo",
            rule=alert.rule,
            scope=alert.scope,
            severity=alert.severity,
            state=state,
        )

