"""The SLO guard as it stood before its three modules became one.

A verbatim copy of the burn-rate accountant (``slo/burnrate.py``), the
alert engine (``slo/alerts.py``), the guard that wired them
(``slo/guard.py``) and the report builder that read their states
(``ObjectiveResult``, ``SLOReport`` and ``evaluate_guard`` from
``slo/report.py``). Only the imports between those modules are merged.
``test_guard_reference.py`` feeds the same random event streams to this
guard and to :class:`repro.slo.SLOGuard` and asserts identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.common.meta import coerce_meta
from repro.slo.events import Event, EventLog
from repro.slo.spec import SLOSpec
from repro.telemetry import get_registry, get_tracer
from repro.timeseries import get_sampler

# ---------------------------------------------------------------- burnrate.py
#: Budget states, in increasing order of concern.
STATUSES = ("ok", "warn", "critical", "exhausted")


@dataclass(frozen=True, slots=True)
class BudgetState:
    """One dimension's error-budget position at a point in the run.

    ``limit``/``consumed``/``projected`` share the dimension's unit
    (seconds for ``deadline``, USD for ``budget`` and ``stage:N``).
    """

    dimension: str
    limit: float
    consumed: float
    projected: float | None
    burn_rate: float | None
    status: str

    @property
    def fraction(self) -> float:
        """Consumed fraction of the limit."""
        return self.consumed / self.limit if self.limit > 0 else 0.0


@dataclass
class BurnRateAccountant:
    """Folds run events into live :class:`BudgetState`s for one spec.

    Attributes:
        spec: the SLO being accounted against.
        window: trailing epochs used for the projection's per-epoch rate.
        min_burn_fraction: consumption fraction below which the windowed
            burn-rate signal is ignored (early-run noise suppression).
    """

    spec: SLOSpec
    window: int = 5
    min_burn_fraction: float = 0.1

    def __post_init__(self) -> None:
        self.billed_usd = 0.0
        self.epochs_done = 0
        self.predicted_total_epochs: float | None = None
        self._clock_s: dict[str, float] = {}
        self._stage_spend_usd: dict[int, float] = {}
        self._recent_wall_s: list[float] = []
        self._recent_cost_usd: list[float] = []

    # ------------------------------------------------------------------ intake
    @property
    def elapsed_s(self) -> float:
        """Total simulated job time: the sum of each scope's clock high-water
        mark (a workflow's tuning and training phases keep separate clocks)."""
        return sum(self._clock_s[scope] for scope in sorted(self._clock_s))

    def observe_clock(self, scope: str, t_s: float) -> None:
        """Advance one scope's job-time high-water mark."""
        self._clock_s[scope] = max(self._clock_s.get(scope, 0.0), t_s)

    def on_epoch(self, wall_s: float, cost_usd: float) -> None:
        """Account one finished training epoch."""
        self.epochs_done += 1
        self.billed_usd += cost_usd
        self._recent_wall_s.append(wall_s)
        self._recent_cost_usd.append(cost_usd)
        del self._recent_wall_s[: -self.window]
        del self._recent_cost_usd[: -self.window]

    def on_stage(self, stage: int, cost_usd: float) -> None:
        """Account one finished SHA tuning stage."""
        self.billed_usd += cost_usd
        self._stage_spend_usd[stage] = (
            self._stage_spend_usd.get(stage, 0.0) + cost_usd
        )

    def on_prediction(self, predicted_total_epochs: float) -> None:
        """Adopt the online predictor's latest total-epoch horizon."""
        self.predicted_total_epochs = float(predicted_total_epochs)

    # ------------------------------------------------------------------ derived
    @property
    def remaining_epochs(self) -> float | None:
        """Epochs the predictor still expects, or None before any estimate."""
        if self.predicted_total_epochs is None:
            return None
        return max(0.0, self.predicted_total_epochs - self.epochs_done)

    @property
    def progress(self) -> float | None:
        """Fraction of the predicted horizon already completed."""
        if self.predicted_total_epochs is None or self.predicted_total_epochs <= 0:
            return None
        return min(1.0, self.epochs_done / self.predicted_total_epochs)

    def projected_jct_s(self) -> float | None:
        """Forecast completion time: elapsed + remaining x recent epoch rate."""
        remaining = self.remaining_epochs
        if remaining is None or not self._recent_wall_s:
            return None
        mean_wall = sum(self._recent_wall_s) / len(self._recent_wall_s)
        return self.elapsed_s + remaining * mean_wall

    def projected_cost_usd(self) -> float | None:
        """Forecast total spend: billed + remaining x recent epoch cost."""
        remaining = self.remaining_epochs
        if remaining is None or not self._recent_cost_usd:
            return None
        mean_cost = sum(self._recent_cost_usd) / len(self._recent_cost_usd)
        return self.billed_usd + remaining * mean_cost

    def _burn_rate(self, consumed: float, limit: float) -> float | None:
        """Budget fraction consumed per unit of predicted progress; a value
        above 1 means the run is on pace to overshoot the limit."""
        progress = self.progress
        if progress is None or progress <= 0 or limit <= 0:
            return None
        return (consumed / limit) / progress

    def _classify(
        self,
        consumed: float,
        limit: float,
        projected: float | None,
        burn_rate: float | None,
    ) -> str:
        if consumed >= limit:
            return "exhausted"
        if projected is not None and projected > limit:
            return "critical"
        if consumed > self.spec.warn_ratio * limit:
            return "warn"
        if (
            burn_rate is not None
            and burn_rate > 1.0
            and consumed >= self.min_burn_fraction * limit
        ):
            return "warn"
        return "ok"

    def states(self) -> tuple[BudgetState, ...]:
        """Current :class:`BudgetState` per declared dimension, in the fixed
        order deadline, budget, stage sub-budgets by index."""
        out: list[BudgetState] = []
        if self.spec.deadline_s is not None:
            consumed = self.elapsed_s
            projected = self.projected_jct_s()
            rate = self._burn_rate(consumed, self.spec.deadline_s)
            out.append(
                BudgetState(
                    dimension="deadline",
                    limit=self.spec.deadline_s,
                    consumed=consumed,
                    projected=projected,
                    burn_rate=rate,
                    status=self._classify(
                        consumed, self.spec.deadline_s, projected, rate
                    ),
                )
            )
        if self.spec.budget_usd is not None:
            consumed = self.billed_usd
            projected = self.projected_cost_usd()
            rate = self._burn_rate(consumed, self.spec.budget_usd)
            out.append(
                BudgetState(
                    dimension="budget",
                    limit=self.spec.budget_usd,
                    consumed=consumed,
                    projected=projected,
                    burn_rate=rate,
                    status=self._classify(
                        consumed, self.spec.budget_usd, projected, rate
                    ),
                )
            )
        for stage, limit_usd in self.spec.stage_budgets_usd:
            consumed = self._stage_spend_usd.get(stage, 0.0)
            out.append(
                BudgetState(
                    dimension=f"stage:{stage}",
                    limit=limit_usd,
                    consumed=consumed,
                    projected=None,
                    burn_rate=None,
                    status=self._classify(consumed, limit_usd, None, None),
                )
            )
        return tuple(out)


# ------------------------------------------------------------------ alerts.py
@dataclass(frozen=True, slots=True)
class AlertRule:
    """One named condition the engine watches."""

    name: str
    severity: str
    description: str


#: The full rule catalogue, in evaluation order.
RULES: tuple[AlertRule, ...] = (
    AlertRule(
        "deadline-exhausted",
        "critical",
        "Elapsed simulated time has passed the deadline; the QoS target is missed.",
    ),
    AlertRule(
        "deadline-projected-miss",
        "critical",
        "Projected completion (predictor horizon x recent epoch rate) "
        "overshoots the deadline.",
    ),
    AlertRule(
        "deadline-burn",
        "warning",
        "Deadline consumption passed the warn ratio, or the windowed burn "
        "rate exceeds 1x.",
    ),
    AlertRule(
        "budget-exhausted",
        "critical",
        "Billed spend has passed the budget; the cost SLO is violated.",
    ),
    AlertRule(
        "budget-projected-overrun",
        "critical",
        "Projected total spend overshoots the budget.",
    ),
    AlertRule(
        "budget-burn",
        "warning",
        "Budget consumption passed the warn ratio, or the windowed burn "
        "rate exceeds 1x.",
    ),
    AlertRule(
        "stage-budget-overrun",
        "warning",
        "One SHA tuning stage spent more than its declared sub-budget.",
    ),
    AlertRule(
        "predictor-drift",
        "warning",
        "The online predictor's horizon drifted past the spec threshold "
        "relative to the initially planned horizon.",
    ),
    AlertRule(
        "straggler",
        "warning",
        "A gang's slowest worker exceeded the straggler slowdown threshold "
        "vs. the gang median.",
    ),
)


@dataclass(slots=True)
class Alert:
    """One fired (and possibly later resolved) rule instance."""

    rule: str
    scope: str
    severity: str
    message: str
    fired_t_s: float
    fired_epoch: int
    resolved_t_s: float | None = None
    resolved_epoch: int | None = None

    @property
    def active(self) -> bool:
        """True while the underlying condition still holds."""
        return self.resolved_t_s is None

    @property
    def key(self) -> tuple[str, str]:
        """The structural dedup key."""
        return (self.rule, self.scope)

    def to_payload(self) -> dict:
        """JSON-serializable view used by SLO reports."""
        return {
            "rule": self.rule,
            "scope": self.scope,
            "severity": self.severity,
            "message": self.message,
            "fired_t_s": round(self.fired_t_s, 9),
            "fired_epoch": self.fired_epoch,
            "resolved_t_s": (
                None if self.resolved_t_s is None else round(self.resolved_t_s, 9)
            ),
            "resolved_epoch": self.resolved_epoch,
        }


@dataclass
class AlertEngine:
    """Evaluates the rule catalogue against budget states, with lifecycle."""

    spec: SLOSpec
    history: list[Alert] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._severity = {rule.name: rule.severity for rule in RULES}
        self._active: dict[tuple[str, str], Alert] = {}

    @property
    def alerts(self) -> tuple[Alert, ...]:
        """Every alert ever fired, in firing order."""
        return tuple(self.history)

    def evaluate(
        self,
        t_s: float,
        states: tuple[BudgetState, ...],
        epoch: int = 0,
        predictor_drift: float | None = None,
        straggler_slowdown: float | None = None,
    ) -> tuple[list[Alert], list[Alert]]:
        """Re-check every rule; returns (newly fired, newly resolved).

        Conditions are independent predicates rather than status equality,
        so e.g. ``deadline-burn`` stays active (instead of bouncing) while
        the dimension escalates through critical to exhausted.
        """
        checks: list[tuple[str, str, bool, str]] = []
        for st in states:
            if st.dimension == "deadline":
                checks.append(
                    (
                        "deadline-exhausted",
                        st.dimension,
                        st.consumed >= st.limit,
                        f"elapsed {st.consumed:.3f} s passed the deadline "
                        f"{st.limit:.3f} s",
                    )
                )
                checks.append(
                    (
                        "deadline-projected-miss",
                        st.dimension,
                        st.projected is not None and st.projected > st.limit,
                        (
                            f"projected completion "
                            f"{st.projected if st.projected is not None else 0.0:.3f} s "
                            f"overshoots the deadline {st.limit:.3f} s"
                        ),
                    )
                )
                checks.append(
                    (
                        "deadline-burn",
                        st.dimension,
                        self._burning(st),
                        f"deadline budget {st.fraction * 100.0:.1f}% consumed"
                        + (
                            f", burn rate {st.burn_rate:.2f}x"
                            if st.burn_rate is not None
                            else ""
                        ),
                    )
                )
            elif st.dimension == "budget":
                checks.append(
                    (
                        "budget-exhausted",
                        st.dimension,
                        st.consumed >= st.limit,
                        f"billed {st.consumed:.6f} USD passed the budget "
                        f"{st.limit:.6f} USD",
                    )
                )
                checks.append(
                    (
                        "budget-projected-overrun",
                        st.dimension,
                        st.projected is not None and st.projected > st.limit,
                        (
                            f"projected spend "
                            f"{st.projected if st.projected is not None else 0.0:.6f} USD "
                            f"overshoots the budget {st.limit:.6f} USD"
                        ),
                    )
                )
                checks.append(
                    (
                        "budget-burn",
                        st.dimension,
                        self._burning(st),
                        f"spend budget {st.fraction * 100.0:.1f}% consumed"
                        + (
                            f", burn rate {st.burn_rate:.2f}x"
                            if st.burn_rate is not None
                            else ""
                        ),
                    )
                )
            else:
                checks.append(
                    (
                        "stage-budget-overrun",
                        st.dimension,
                        st.consumed >= st.limit,
                        f"{st.dimension} spent {st.consumed:.6f} USD of its "
                        f"{st.limit:.6f} USD sub-budget",
                    )
                )
        drift_limit = self.spec.predictor_drift_threshold
        drift_hit = (
            drift_limit is not None
            and predictor_drift is not None
            and predictor_drift > drift_limit
        )
        checks.append(
            (
                "predictor-drift",
                "predictor",
                drift_hit,
                (
                    f"predictor horizon drifted {predictor_drift * 100.0:.1f}% "
                    f"(threshold {drift_limit * 100.0:.1f}%)"
                    if drift_hit
                    else ""
                ),
            )
        )
        slow_limit = self.spec.straggler_slowdown
        slow_hit = (
            slow_limit is not None
            and straggler_slowdown is not None
            and straggler_slowdown >= slow_limit
        )
        checks.append(
            (
                "straggler",
                "workers",
                slow_hit,
                (
                    f"slowest worker at {straggler_slowdown:.2f}x the gang "
                    f"median (threshold {slow_limit:.2f}x)"
                    if slow_hit
                    else ""
                ),
            )
        )

        fired: list[Alert] = []
        resolved: list[Alert] = []
        for rule, scope, condition, message in checks:
            key = (rule, scope)
            live = self._active.get(key)
            if condition and live is None:
                alert = Alert(
                    rule=rule,
                    scope=scope,
                    severity=self._severity[rule],
                    message=message,
                    fired_t_s=t_s,
                    fired_epoch=epoch,
                )
                self._active[key] = alert
                self.history.append(alert)
                fired.append(alert)
            elif not condition and live is not None:
                live.resolved_t_s = t_s
                live.resolved_epoch = epoch
                del self._active[key]
                resolved.append(live)
        return fired, resolved

    def _burning(self, st: BudgetState) -> bool:
        """The shared warn-tier predicate for deadline/budget burn rules."""
        if st.consumed > self.spec.warn_ratio * st.limit:
            return True
        return (
            st.burn_rate is not None
            and st.burn_rate > 1.0
            and st.consumed >= 0.1 * st.limit
        )


# ------------------------------------------------------------------- guard.py
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


# ------------------------------------------------------------------ report.py
REPORT_SCHEMA = "repro-slo-report/v1"


def _r(value: float | None, digits: int = 9) -> float | None:
    return None if value is None else round(value, digits)


@dataclass(frozen=True, slots=True)
class ObjectiveResult:
    """Final judgement for one SLO dimension."""

    dimension: str
    limit: float
    consumed: float
    projected: float | None
    burn_rate: float | None
    status: str
    violated: bool


@dataclass(frozen=True, slots=True)
class SLOReport:
    """One spec evaluated against one run."""

    meta: dict
    spec: SLOSpec
    objectives: tuple[ObjectiveResult, ...]
    alerts: tuple[Alert, ...]

    @property
    def violated(self) -> bool:
        """True if any declared objective ended violated."""
        return any(o.violated for o in self.objectives)

    @property
    def violations(self) -> tuple[str, ...]:
        """The violated dimensions, in report order."""
        return tuple(o.dimension for o in self.objectives if o.violated)

    def to_payload(self) -> dict:
        """The ``repro-slo-report/v1`` JSON document."""
        return {
            "schema": REPORT_SCHEMA,
            "meta": dict(sorted(self.meta.items())),
            "spec": self.spec.to_payload(),
            "objectives": [
                {
                    "dimension": o.dimension,
                    "limit": _r(o.limit),
                    "consumed": _r(o.consumed),
                    "projected": _r(o.projected),
                    "burn_rate": _r(o.burn_rate),
                    "status": o.status,
                    "violated": o.violated,
                }
                for o in self.objectives
            ],
            "alerts": [a.to_payload() for a in self.alerts],
            "verdict": {
                "violated": self.violated,
                "violations": list(self.violations),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        """Human-readable table."""
        lines = [f"SLO report — spec {self.spec.name!r}"]
        for key in sorted(self.meta):
            lines.append(f"  {key}: {self.meta[key]}")
        lines.append("")
        lines.append(
            f"  {'dimension'.ljust(12)}  {'consumed'.rjust(14)}  "
            f"{'limit'.rjust(14)}  {'projected'.rjust(14)}  "
            f"{'burn'.rjust(6)}  status"
        )
        for o in self.objectives:
            unit = "s" if o.dimension == "deadline" else "USD"
            projected = f"{o.projected:.3f} {unit}" if o.projected is not None else "-"
            burn = f"{o.burn_rate:.2f}x" if o.burn_rate is not None else "-"
            status = o.status.upper() if o.violated else o.status
            lines.append(
                f"  {o.dimension.ljust(12)}  "
                f"{f'{o.consumed:.3f} {unit}'.rjust(14)}  "
                f"{f'{o.limit:.3f} {unit}'.rjust(14)}  "
                f"{projected.rjust(14)}  {burn.rjust(6)}  {status}"
            )
        if self.alerts:
            lines.append("")
            lines.append(f"  alerts ({len(self.alerts)}):")
            for a in self.alerts:
                tail = (
                    f"resolved at {a.resolved_t_s:.3f} s"
                    if a.resolved_t_s is not None
                    else "still active"
                )
                lines.append(
                    f"    [{a.severity}] {a.rule} ({a.scope}) fired at "
                    f"{a.fired_t_s:.3f} s, {tail}: {a.message}"
                )
        lines.append("")
        if self.violated:
            lines.append(f"  verdict: VIOLATED ({', '.join(self.violations)})")
        else:
            lines.append("  verdict: met")
        return "\n".join(lines)


def evaluate_guard(guard: SLOGuard, meta: dict | None = None) -> SLOReport:
    """Judge a spec from a guard's final budget states."""
    objectives = tuple(
        ObjectiveResult(
            dimension=st.dimension,
            limit=st.limit,
            consumed=st.consumed,
            projected=st.projected,
            burn_rate=st.burn_rate,
            status=st.status,
            violated=st.consumed >= st.limit,
        )
        for st in guard.accountant.states()
    )
    return SLOReport(
        meta=coerce_meta(meta),
        spec=guard.spec,
        objectives=objectives,
        alerts=guard.alerts,
    )
