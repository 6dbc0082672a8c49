"""The live SLO guard: event stream in, budget states and alerts out.

:class:`SLOGuard` subscribes to the run-event bus and folds each event
into error-budget accounting in simulated time: elapsed job time against
the deadline, billed USD against the budget, per-SHA-stage spend against
sub-budgets. Projection uses the online predictor's total-epoch horizon
(published by the adaptive scheduler through ``plan_chosen`` /
``predictor_update`` events) times the mean wall time, or cost, of the
last :data:`WINDOW` epochs, so a deadline miss is forecast *while the
run can still react*, not post-mortem.

One function, :func:`predicates`, judges a dimension: exhausted
(consumed >= limit), projected over the limit, and burning (consumption
past ``warn_ratio``, or a windowed burn rate above 1x with at least
:data:`MIN_BURN_FRACTION` consumed). The same three booleans give the
dimension's rung on the :data:`STATUSES` ladder (strongest wins), the
conditions of its three alert rules, the ``slo.burn_level`` sample and
the summary-level judgement of :func:`repro.slo.report.evaluate_summary`.

An alert fires when its condition turns true and resolves when it turns
false; there is one live alert per ``(rule, scope)``, so a condition that
holds for many epochs is one alert. Rules are re-checked after every
event that changes one of their inputs, and a message is formatted only
when its alert fires. Transitions are mirrored three ways: appended to
the guard's event log (``alert_fired`` / ``alert_resolved`` lines),
counted in the telemetry registry (the ``repro_slo_alerts_total`` family
is created at the first alert, so a run with none leaves the metrics
snapshot byte-identical to a guard-off run), and marked as Chrome-trace
instant events when a tracer is live.

Nothing here reads the host clock or consumes randomness. The ``t_s``
values folded into the per-scope high-water marks are readings of the
kernel's *job clock* (``EventKernel.job_clock_s``: overhead-credited job
time, the quantity SLOs are written against), not its *event clock*; see
docs/kernel.md for the two clock domains. The guard is installed around
a run by :class:`repro.runs.Instruments`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.slo.events import Event, EventLog
from repro.slo.spec import SLOSpec
from repro.telemetry import get_registry, get_tracer
from repro.timeseries import get_sampler

#: Budget states, in increasing order of concern.
STATUSES = ("ok", "warn", "critical", "exhausted")

#: Trailing epochs whose mean wall time and cost price the remaining ones.
WINDOW = 5

#: Consumed fraction below which a burn rate above 1x is early-run noise.
MIN_BURN_FRACTION = 0.1

#: Every rule and its severity, in evaluation order (docs/slo.md has the
#: rule table).
RULES = {
    "deadline-exhausted": "critical",
    "deadline-projected-miss": "critical",
    "deadline-burn": "warning",
    "budget-exhausted": "critical",
    "budget-projected-overrun": "critical",
    "budget-burn": "warning",
    "stage-budget-overrun": "warning",
    "predictor-drift": "warning",
    "straggler": "warning",
}

#: The rules a dimension's three predicates drive, in predicate order.
_DIMENSION_RULES = {
    "deadline": ("deadline-exhausted", "deadline-projected-miss", "deadline-burn"),
    "budget": ("budget-exhausted", "budget-projected-overrun", "budget-burn"),
}
_STAGE_RULES = ("stage-budget-overrun", None, None)

_MESSAGES = {
    "deadline-exhausted": "elapsed {consumed:.3f} s passed the deadline {limit:.3f} s",
    "deadline-projected-miss": (
        "projected completion {projected:.3f} s overshoots the deadline {limit:.3f} s"
    ),
    "deadline-burn": "deadline budget {percent:.1f}% consumed{burn}",
    "budget-exhausted": "billed {consumed:.6f} USD passed the budget {limit:.6f} USD",
    "budget-projected-overrun": (
        "projected spend {projected:.6f} USD overshoots the budget {limit:.6f} USD"
    ),
    "budget-burn": "spend budget {percent:.1f}% consumed{burn}",
    "stage-budget-overrun": (
        "{scope} spent {consumed:.6f} USD of its {limit:.6f} USD sub-budget"
    ),
    "predictor-drift": (
        "predictor horizon drifted {consumed:.1f}% (threshold {limit:.1f}%)"
    ),
    "straggler": (
        "slowest worker at {consumed:.2f}x the gang median (threshold {limit:.2f}x)"
    ),
}


def predicates(
    consumed: float,
    limit: float,
    projected: float | None,
    burn_rate: float | None,
    warn_ratio: float,
) -> tuple[bool, bool, bool]:
    """One dimension's (exhausted, projected over the limit, burning)."""
    return (
        consumed >= limit,
        projected is not None and projected > limit,
        consumed > warn_ratio * limit
        or (
            burn_rate is not None
            and burn_rate > 1.0
            and consumed >= MIN_BURN_FRACTION * limit
        ),
    )


def _rung(hits: tuple[bool, bool, bool]) -> int:
    """The strongest :data:`STATUSES` index the predicates reach."""
    exhausted, over, burning = hits
    return 3 if exhausted else 2 if over else 1 if burning else 0


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

    @classmethod
    def judge(
        cls,
        dimension: str,
        limit: float,
        consumed: float,
        projected: float | None,
        burn_rate: float | None,
        warn_ratio: float,
    ) -> "BudgetState":
        """The state whose status :func:`predicates` gives."""
        hits = predicates(consumed, limit, projected, burn_rate, warn_ratio)
        return cls(
            dimension, limit, consumed, projected, burn_rate, STATUSES[_rung(hits)]
        )

    @property
    def violated(self) -> bool:
        """True once the dimension is exhausted: the promise is broken."""
        return self.status == "exhausted"


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


class SLOGuard:
    """Folds the run-event stream into budget states and alerts."""

    def __init__(self, spec: SLOSpec, log: EventLog | None = None) -> None:
        self.spec = spec
        self.log = log if log is not None else EventLog()
        # Captured at construction: Instruments installs the registry and
        # tracer before it builds the guard.
        self._registry = get_registry()
        self._tracer = get_tracer()
        self._m_alerts = None
        self.history: list[Alert] = []
        self._active: dict[tuple[str, str], Alert] = {}
        self._level = 0
        self._epoch = 0
        self.epochs_done = 0
        self.billed_usd = 0.0
        self.predicted_total_epochs: float | None = None
        self._clock_s: dict[str, float] = {}
        #: Total simulated job time (an int 0 until a clock is seen, as
        #: the sum of no clocks is).
        self.elapsed_s: float = 0
        self._stage_spend_usd: dict[int, float] = {}
        self._recent_wall_s: list[float] = []
        self._recent_cost_usd: list[float] = []
        self._initial_prediction: float | None = None
        self._last_drift: float | None = None
        self._last_slowdown: float | None = None

    @property
    def alerts(self) -> tuple[Alert, ...]:
        """Every alert ever fired, in firing order."""
        return tuple(self.history)

    # ------------------------------------------------------------------ intake
    def on_event(self, event: Event) -> None:
        """Bus subscriber entry point: account one event, re-check rules."""
        self.log.record(event)
        t_s, data = event.t_s, event.data
        changed = False
        scope = event.scope
        if scope in ("train", "tune"):
            mark = self._clock_s.get(scope)
            clock = self._clock_s[scope] = max(0.0 if mark is None else mark, t_s)
            if clock != mark:
                # The sum of each scope's high-water mark: a workflow's
                # tuning and training phases keep separate clocks.
                self.elapsed_s = sum(
                    self._clock_s[key] for key in sorted(self._clock_s)
                )
                changed = True
        kind = event.kind
        if kind == "epoch_done":
            self._epoch = int(data.get("epoch", self._epoch + 1))
            self._on_epoch(
                float(data.get("wall_s", 0.0)), float(data.get("cost_usd", 0.0))
            )
            slowdown = data.get("straggler_slowdown")
            if slowdown is not None:
                self._last_slowdown = float(slowdown)
            changed = True
        elif kind == "stage_done":
            stage = int(data.get("stage", 0))
            cost_usd = float(data.get("cost_usd", 0.0))
            self.billed_usd += cost_usd
            self._stage_spend_usd[stage] = (
                self._stage_spend_usd.get(stage, 0.0) + cost_usd
            )
            changed = True
        elif kind in ("plan_chosen", "predictor_update", "predictor_shift"):
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
                changed = predicted != self.predicted_total_epochs or changed
                self.predicted_total_epochs = predicted
        if changed:
            self._check(t_s)
        sampler = get_sampler()
        if sampler.enabled:
            # The worst rung any budget dimension sits on, as an index
            # into the ladder (0=ok .. 3=exhausted).
            sampler.sample("slo.burn_level", t_s, float(self._level))

    def _on_epoch(self, wall_s: float, cost_usd: float) -> None:
        self.epochs_done += 1
        self.billed_usd += cost_usd
        self._recent_wall_s.append(wall_s)
        self._recent_cost_usd.append(cost_usd)
        del self._recent_wall_s[:-WINDOW]
        del self._recent_cost_usd[:-WINDOW]

    # ------------------------------------------------------------------ derived
    @property
    def remaining_epochs(self) -> float | None:
        """Epochs the predictor still expects, or None before any estimate."""
        if self.predicted_total_epochs is None:
            return None
        return max(0.0, self.predicted_total_epochs - self.epochs_done)

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

    def _dimensions(self):
        """(dimension, limit, consumed, projected, burn rate) per declared
        dimension, in the fixed order deadline, budget, stages by index."""
        spec = self.spec
        predicted = self.predicted_total_epochs
        progress = None
        if predicted is not None and predicted > 0:
            progress = min(1.0, self.epochs_done / predicted)
        for dimension, limit, consumed, projected in (
            ("deadline", spec.deadline_s, self.elapsed_s, self.projected_jct_s),
            ("budget", spec.budget_usd, self.billed_usd, self.projected_cost_usd),
        ):
            if limit is None:
                continue
            # Budget fraction consumed per unit of predicted progress; a
            # value above 1 means the run is on pace to overshoot the limit.
            burn = (
                None
                if progress is None or progress <= 0 or limit <= 0
                else (consumed / limit) / progress
            )
            yield dimension, limit, consumed, projected(), burn
        for stage, limit_usd in spec.stage_budgets_usd:
            yield (
                f"stage:{stage}", limit_usd,
                self._stage_spend_usd.get(stage, 0.0), None, None,
            )

    def states(self) -> tuple[BudgetState, ...]:
        """Current :class:`BudgetState` per declared dimension."""
        warn_ratio = self.spec.warn_ratio
        return tuple(
            BudgetState.judge(*dim, warn_ratio) for dim in self._dimensions()
        )

    # ------------------------------------------------------------------ rules
    def _check(self, t_s: float) -> None:
        """Re-check every rule; mirror what fired, then what resolved."""
        spec, active = self.spec, self._active
        fired: list[Alert] = []
        resolved: list[Alert] = []
        level = 0
        for dimension, limit, consumed, projected, burn in self._dimensions():
            hits = predicates(consumed, limit, projected, burn, spec.warn_ratio)
            level = max(level, _rung(hits))
            rules = _DIMENSION_RULES.get(dimension, _STAGE_RULES)
            for rule, hit in zip(rules, hits):
                if rule is not None and hit != ((rule, dimension) in active):
                    self._flip(
                        rule, dimension, t_s, fired, resolved,
                        consumed=consumed, limit=limit, projected=projected,
                        percent=consumed / limit * 100.0,
                        burn="" if burn is None else f", burn rate {burn:.2f}x",
                    )
        self._level = level
        drift, drift_limit = self._last_drift, spec.predictor_drift_threshold
        hit = drift_limit is not None and drift is not None and drift > drift_limit
        if hit != (("predictor-drift", "predictor") in active):
            self._flip(
                "predictor-drift", "predictor", t_s, fired, resolved,
                consumed=drift * 100.0, limit=drift_limit * 100.0,
            )
        slowdown, slow_limit = self._last_slowdown, spec.straggler_slowdown
        hit = slow_limit is not None and slowdown is not None and slowdown >= slow_limit
        if hit != (("straggler", "workers") in active):
            self._flip(
                "straggler", "workers", t_s, fired, resolved,
                consumed=slowdown, limit=slow_limit,
            )
        for alert in fired:
            self._mirror(alert, "fired", t_s)
        for alert in resolved:
            self._mirror(alert, "resolved", t_s)

    def _flip(
        self, rule: str, scope: str, t_s: float,
        fired: list[Alert], resolved: list[Alert], **values,
    ) -> None:
        """Fire ``rule`` for ``scope``, or resolve its live alert; ``values``
        fill the message of an alert that fires."""
        alert = self._active.pop((rule, scope), None)
        if alert is not None:
            alert.resolved_t_s = t_s
            alert.resolved_epoch = self._epoch
            resolved.append(alert)
            return
        alert = self._active[(rule, scope)] = Alert(
            rule=rule,
            scope=scope,
            severity=RULES[rule],
            message=_MESSAGES[rule].format(scope=scope, **values),
            fired_t_s=t_s,
            fired_epoch=self._epoch,
        )
        self.history.append(alert)
        fired.append(alert)

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
