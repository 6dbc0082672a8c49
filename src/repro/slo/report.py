"""SLO evaluation reports (schema ``repro-slo-report/v1``).

Three builders cover the ways a spec can be judged:

* :func:`evaluate_guard` — read the final budget states straight off a
  live :class:`~repro.slo.guard.SLOGuard`;
* :func:`replay_events` — rebuild a guard by replaying a saved
  ``repro-events/v1`` log through fresh accounting (alert lines in the
  saved log are skipped so replay never double-counts);
* :func:`evaluate_summary` — coarse final-state check from just a JCT and
  a cost, for telemetry captures that carry no event log.

The report renders as a table or as deterministic JSON; the ``verdict``
block is what drives the CLI's 0/1 exit code. The diagnostics bridge
(:func:`error_budget_findings`) restates budget consumption as findings
attributed to critical-path components so ``repro diagnose`` can show
*where* the error budget went.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.common.errors import SLOError
from repro.common.meta import coerce_meta
from repro.slo.events import EventLog
from repro.slo.guard import Alert, BudgetState, SLOGuard
from repro.slo.spec import SLOSpec

REPORT_SCHEMA = "repro-slo-report/v1"


def _r(value: float | None, digits: int = 9) -> float | None:
    return None if value is None else round(value, digits)


@dataclass(frozen=True, slots=True)
class SLOReport:
    """One spec evaluated against one run."""

    meta: dict
    spec: SLOSpec
    objectives: tuple[BudgetState, ...]
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
    return SLOReport(
        meta=coerce_meta(meta),
        spec=guard.spec,
        objectives=guard.states(),
        alerts=guard.alerts,
    )


def replay_events(
    spec: SLOSpec, log: EventLog | str, meta: dict | None = None
) -> SLOReport:
    """Judge a spec by replaying a saved event log through a fresh guard.

    Saved ``alert_fired`` / ``alert_resolved`` lines are skipped — the
    replayed guard re-derives its own alerts, so a log that already went
    through a guard round-trips instead of double-counting.
    """
    if isinstance(log, str):
        log = EventLog.from_jsonl(log)
    guard = SLOGuard(spec)
    for seq, event in enumerate(log.events):
        if event.kind in ("alert_fired", "alert_resolved"):
            continue
        try:
            guard.on_event(event)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise SLOError(
                f"event {seq} ({event.kind}) has a malformed data field: {exc}"
            ) from exc
    return evaluate_guard(guard, meta={**log.meta, **(meta or {})})


def evaluate_summary(
    spec: SLOSpec, jct_s: float, cost_usd: float | None, meta: dict | None = None
) -> SLOReport:
    """Coarse final-state judgement from a run summary (no event stream).

    Only the end-to-end deadline and budget can be checked — per-stage
    splits, projections and burn rates need the event log. A spec of which
    the summary can judge nothing is an :class:`SLOError`, not a pass.
    """
    objectives = []
    if spec.deadline_s is not None:
        objectives.append(BudgetState.judge(
            "deadline", spec.deadline_s, jct_s, None, None, spec.warn_ratio
        ))
    if spec.budget_usd is not None and cost_usd is not None:
        objectives.append(BudgetState.judge(
            "budget", spec.budget_usd, cost_usd, None, None, spec.warn_ratio
        ))
    if not objectives:
        raise SLOError(
            "a run summary can judge none of this spec's objectives: stage "
            "sub-budgets, and a budget without a billed cost, need the run's "
            "event log (write it with --events PATH)"
        )
    return SLOReport(
        meta=coerce_meta(meta),
        spec=spec,
        objectives=tuple(objectives),
        alerts=(),
    )


def error_budget_findings(spec, critical_path, jct_s, cost_usd):
    """Diagnostics bridge: budget consumption as critical-path findings.

    Returns ``repro.diagnostics`` ``Finding``s (kind ``"slo"``) that state
    what fraction of each declared error budget the run consumed and which
    critical-path components that consumption is attributable to.
    """
    from repro.diagnostics.engine import Finding

    findings = []
    if spec.deadline_s is not None and jct_s is not None:
        fraction = jct_s / spec.deadline_s
        shares = ", ".join(
            f"{c.component} {c.seconds / spec.deadline_s * 100.0:.1f}%"
            for c in critical_path.components
            if c.seconds > 0
        )
        findings.append(
            Finding(
                kind="slo",
                severity="warning" if fraction > 1.0 else "info",
                message=(
                    f"deadline budget {fraction * 100.0:.1f}% consumed "
                    f"({jct_s:.3f} s of {spec.deadline_s:.3f} s); "
                    f"attribution: {shares}"
                ),
                data={
                    "dimension": "deadline",
                    "consumed_fraction": round(fraction, 9),
                    "attribution": {
                        c.component: round(c.seconds / spec.deadline_s, 9)
                        for c in critical_path.components
                        if c.seconds > 0
                    },
                },
            )
        )
    if spec.budget_usd is not None and cost_usd is not None:
        fraction = cost_usd / spec.budget_usd
        findings.append(
            Finding(
                kind="slo",
                severity="warning" if fraction > 1.0 else "info",
                message=(
                    f"spend budget {fraction * 100.0:.1f}% consumed "
                    f"({cost_usd:.6f} USD of {spec.budget_usd:.6f} USD)"
                ),
                data={
                    "dimension": "budget",
                    "consumed_fraction": round(fraction, 9),
                },
            )
        )
    return tuple(findings)
