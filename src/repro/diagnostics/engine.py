"""The diagnostics engine: one observation in, structured findings out.

:func:`diagnose` runs the four analyses — critical path, stragglers,
model drift, ex-post regret — over a :class:`RunObservation` and distills
them into ranked :class:`Finding`s, next to the run's :class:`Breakdown`
of cost, activity and peaks. The result serializes to a versioned JSON
document (schema ``repro-diagnostics/v4``) and renders as a terminal
table, both deterministic: same run, same report, byte for byte. No
timestamps, no environment — diffable across commits, so CI can treat a
diagnosis as an artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.analytical.pareto import ProfiledAllocation
from repro.common.errors import ConstraintError
from repro.common.jsontext import indented_json
from repro.diagnostics.critical_path import (
    COMPONENT_ORDER,
    CriticalPathAnalysis,
    analyze_critical_path,
)
from repro.diagnostics.drift import DriftAudit, audit_model_drift
from repro.diagnostics.regret import RegretAudit, audit_regret
from repro.diagnostics.stragglers import StragglerAnalysis, detect_stragglers
from repro.diagnostics.timeline import RunObservation
from repro.ml.models import Workload, workload as lookup_workload

JSON_SCHEMA = "repro-diagnostics/v4"

#: Eq. (4)'s billed components, reported even at zero so breakdowns stay
#: comparable; any other observed component follows, sorted.
COST_COMPONENTS = ("invocation", "compute", "storage")

#: The breakdown's activity counters: (key, label, telemetry family).
ACTIVITY = (
    ("invocations", "invocations", "repro_faas_invocations_total"),
    ("cold_starts", "cold starts", "repro_faas_cold_starts_total"),
    ("warm_pool_hits", "warm-pool hits", "repro_faas_warm_pool_hits_total"),
    ("warm_pool_evictions", "warm-pool evictions",
     "repro_faas_warm_pool_evictions_total"),
    ("billed_gb_seconds", "billed GB-seconds", "repro_faas_billed_gb_seconds_total"),
    ("scheduler_reallocations", "scheduler reallocations",
     "repro_scheduler_reallocations_total"),
    ("planner_candidates_evaluated", "planner candidates evaluated",
     "repro_planner_candidates_evaluated_total"),
)

#: The breakdown's high-water marks: (key, label, platform gauge).
PEAKS = (
    ("concurrency", "peak concurrency in use", "repro_faas_concurrency_peak_in_use"),
    ("warm_pool", "peak warm pool", "repro_faas_warm_pool_peak"),
)

#: Finding severities, in increasing order of concern.
SEVERITIES = ("info", "warning")


@dataclass(frozen=True, slots=True)
class Finding:
    """One structured diagnostic conclusion."""

    kind: str  # bottleneck | restart | straggler | model-drift | regret
    severity: str  # one of SEVERITIES
    message: str
    data: dict = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class Breakdown:
    """Where the money went, what the platform did, and its peaks."""

    cost_usd: float
    cost: dict[str, float]  # billed USD by component, in report order
    activity: dict[str, float]  # ACTIVITY key -> count
    peaks: dict[str, float]  # PEAKS key -> high-water mark

    @classmethod
    def of(cls, obs: RunObservation) -> "Breakdown":
        billed = obs.billed_usd
        components = list(COST_COMPONENTS) + sorted(set(billed) - set(COST_COMPONENTS))
        return cls(
            cost_usd=float(
                obs.cost_usd if obs.cost_usd is not None else sum(billed.values())
            ),
            cost={c: billed.get(c, 0.0) for c in components},
            activity={key: obs.metrics.get(name, 0.0) for key, _, name in ACTIVITY},
            peaks={key: obs.metrics.get(name, 0.0) for key, _, name in PEAKS},
        )

    def share(self, usd: float) -> float | None:
        """``usd`` as a fraction of the run's cost (None when it cost 0)."""
        return usd / self.cost_usd if self.cost_usd > 0 else None

    def to_payload(self) -> dict:
        return {
            "cost_usd": _r(self.cost_usd),
            "cost": [
                {"component": c, "usd": _r(usd), "share": _r(self.share(usd))}
                for c, usd in self.cost.items()
            ],
            "activity": {k: _r(v) for k, v in self.activity.items()},
            "peaks": {k: _r(v) for k, v in self.peaks.items()},
        }

    def render(self) -> list[str]:
        rows = [
            (f"{c} cost", f"${usd:.6f}", self.share(usd))
            for c, usd in self.cost.items()
        ]
        rows += [(label, f"{self.activity[key]:12.1f}", None) for key, label, _ in ACTIVITY]
        rows += [
            (label, f"{self.peaks[key]:12.1f}", None) for key, label, _ in PEAKS
        ]
        width = max(len(label) for label, _, _ in rows)
        lines = [f"breakdown (cost ${self.cost_usd:.6f})"]
        for label, value, share in rows:
            tail = f"  ({share * 100.0:5.1f}%)" if share is not None else ""
            lines.append(f"  {label.ljust(width)}  {value}{tail}")
        return lines


@dataclass
class DiagnosticsReport:
    """Everything :func:`diagnose` learned about one run."""

    meta: dict
    critical_path: CriticalPathAnalysis
    stragglers: StragglerAnalysis
    drift: DriftAudit | None
    regret: RegretAudit | None
    findings: tuple[Finding, ...]
    breakdown: Breakdown

    # ------------------------------------------------------------------ export
    def to_payload(self) -> dict:
        cp = self.critical_path
        payload: dict = {
            "schema": JSON_SCHEMA,
            "meta": dict(sorted(self.meta.items())),
            "critical_path": {
                "jct_s": _r(cp.jct_s),
                "accounted_s": _r(cp.accounted_s),
                "components": [
                    {"component": c.component, "seconds": _r(c.seconds), "share": _r(c.share)}
                    for c in cp.components
                ],
                "bottlenecks": [
                    {
                        "epoch": b.epoch,
                        "component": b.component,
                        "allocation": b.allocation,
                        "seconds": _r(b.seconds),
                        "share": _r(b.share),
                    }
                    for b in cp.bottlenecks
                ],
                "restart": {
                    "hidden_s": _r(cp.restart.hidden_s),
                    "visible_s": _r(cp.restart.visible_s),
                    "hidden_share": _r(cp.restart.hidden_share),
                },
                "n_restarts": cp.n_restarts,
            },
            "stragglers": {
                "z_threshold": _r(self.stragglers.z_threshold),
                "epochs_checked": self.stragglers.epochs_checked,
                "workers_checked": self.stragglers.workers_checked,
                "findings": [
                    {
                        "epoch": f.epoch,
                        "rank": f.rank,
                        "allocation": f.allocation,
                        "duration_s": _r(f.duration_s),
                        "gang_median_s": _r(f.gang_median_s),
                        "deviation_sigma": _r(f.deviation_sigma),
                        "slowdown": _r(f.slowdown),
                    }
                    for f in self.stragglers.findings
                ],
            },
            "breakdown": self.breakdown.to_payload(),
            "drift": None,
            "regret": None,
            "findings": [
                {
                    "kind": f.kind,
                    "severity": f.severity,
                    "message": f.message,
                    "data": f.data,
                }
                for f in self.findings
            ],
        }
        if self.drift is not None:
            d = self.drift
            payload["drift"] = {
                "threshold": _r(d.threshold),
                "drifting": d.drifting,
                "mean_time_residual": _r(d.mean_time_residual),
                "max_time_residual": _r(d.max_time_residual),
                "mean_cost_residual": _r(d.mean_cost_residual),
                "max_cost_residual": _r(d.max_cost_residual),
                "aggregate_time_residual": _r(d.aggregate_time_residual),
                "aggregate_cost_residual": _r(d.aggregate_cost_residual),
                "outlier_epochs": [p.epoch for p in d.flagged],
                "skipped_epochs": d.skipped_epochs,
                "refit_compute_s_per_mb": _r(d.refit_compute_s_per_mb),
                "configured_compute_s_per_mb": _r(d.configured_compute_s_per_mb),
                "points": [
                    {
                        "epoch": p.epoch,
                        "allocation": p.allocation,
                        "predicted_time_s": _r(p.predicted_time_s),
                        "actual_time_s": _r(p.actual_time_s),
                        "time_residual": _r(p.time_residual),
                        "predicted_cost_usd": _r(p.predicted_cost_usd),
                        "actual_cost_usd": _r(p.actual_cost_usd),
                        "cost_residual": _r(p.cost_residual),
                    }
                    for p in d.points
                ],
            }
        if self.regret is not None:
            r = self.regret
            payload["regret"] = {
                "objective": r.objective.value,
                "decisions_total": r.decisions_total,
                "decisions_optimal": r.decisions_optimal,
                "skipped": r.skipped,
                "total_time_regret_s": _r(r.total_time_regret_s),
                "total_cost_regret_usd": _r(r.total_cost_regret_usd),
                "points": [
                    {
                        "decided_before_epoch": p.decided_before_epoch,
                        "segment_epochs": p.segment_epochs,
                        "remaining_epochs": p.remaining_epochs,
                        "chosen": p.chosen,
                        "hindsight_best": p.hindsight_best,
                        "time_regret_s": _r(p.time_regret_s),
                        "cost_regret_usd": _r(p.cost_regret_usd),
                    }
                    for p in r.points
                ],
            }
        return payload

    def to_json(self) -> str:
        return indented_json(self.to_payload()) + "\n"

    # ------------------------------------------------------------------ rendering
    def render(self) -> str:
        lines: list[str] = []
        header = " ".join(
            f"{k}={self.meta[k]}"
            for k in ("workload", "method", "seed")
            if k in self.meta and self.meta[k] != ""
        )
        lines.append(f"diagnostics{': ' + header if header else ''}")
        cp = self.critical_path
        lines.append("")
        lines.append(f"critical path (JCT {cp.jct_s:.3f} s)")
        width = max(len(name) for name in COMPONENT_ORDER)
        for c in cp.components:
            lines.append(
                f"  {c.component.ljust(width)}  {c.seconds:12.3f} s  ({c.share * 100.0:5.1f}%)"
            )
        if cp.accounted_s < cp.jct_s - 5e-4:
            lines.append(
                f"  accounted {cp.accounted_s:.3f} s of {cp.jct_s:.3f} s"
                " (load and compute come only from the epochs of an --events log)"
            )
        lines.append(
            f"  restarts: {cp.n_restarts}  overhead hidden {cp.restart.hidden_s:.3f} s"
            f" / visible {cp.restart.visible_s:.3f} s"
            f"  ({cp.restart.hidden_share * 100.0:.1f}% hidden)"
        )
        if cp.bottlenecks:
            lines.append("")
            lines.append("top bottleneck spans")
            for b in cp.bottlenecks:
                lines.append(
                    f"  epoch {b.epoch:4d}  {b.component.ljust(width)}"
                    f"  {b.seconds:10.3f} s  ({b.share * 100.0:5.1f}%)  {b.allocation}"
                )
        lines.append("")
        lines.extend(self.breakdown.render())
        lines.append("")
        s = self.stragglers
        lines.append(
            f"stragglers: {len(s.findings)} flagged"
            f" ({s.workers_checked} workers over {s.epochs_checked} epochs, z={s.z_threshold:g})"
        )
        for f in s.findings[:10]:
            lines.append(
                f"  epoch {f.epoch:4d}  rank {f.rank:3d}  {f.duration_s:.3f} s"
                f" vs median {f.gang_median_s:.3f} s  ({f.slowdown:.2f}x, {f.deviation_sigma:.1f}σ)"
            )
        if len(s.findings) > 10:
            lines.append(f"  ... and {len(s.findings) - 10} more")
        if self.drift is not None:
            d = self.drift
            lines.append("")
            lines.append(
                f"model drift (δ={d.threshold:g}):"
                f" aggregate residual time {d.aggregate_time_residual * 100.0:.2f}%"
                f" / cost {d.aggregate_cost_residual * 100.0:.2f}%"
                f"  [per-epoch mean time {d.mean_time_residual * 100.0:.2f}%,"
                f" cost {d.mean_cost_residual * 100.0:.2f}%]"
            )
            if d.flagged:
                lines.append(
                    f"  {len(d.flagged)} outlier epoch(s) beyond δ: "
                    + ", ".join(str(p.epoch) for p in d.flagged[:12])
                )
            if d.refit_compute_s_per_mb is not None:
                lines.append(
                    f"  suggested recalibration: compute_s_per_mb"
                    f" {d.configured_compute_s_per_mb:.6f} -> {d.refit_compute_s_per_mb:.6f}"
                )
        if self.regret is not None:
            r = self.regret
            lines.append("")
            lines.append(
                f"ex-post regret ({r.objective.value}):"
                f" {r.decisions_optimal}/{r.decisions_total} decisions hindsight-optimal,"
                f" time regret {r.total_time_regret_s:+.3f} s,"
                f" cost regret {r.total_cost_regret_usd:+.6f} USD"
            )
            for p in r.points:
                mark = "=" if p.optimal else "≠"
                lines.append(
                    f"  epoch {p.decided_before_epoch:4d} ({p.segment_epochs} epochs)"
                    f"  chose {p.chosen} {mark} best {p.hindsight_best}"
                )
        lines.append("")
        lines.append(f"findings ({len(self.findings)})")
        for f in self.findings:
            lines.append(f"  [{f.severity}] {f.kind}: {f.message}")
        return "\n".join(lines)


# ---------------------------------------------------------------------- engine
def diagnose(
    obs: RunObservation,
    workload: Workload | str | None = None,
    platform: PlatformConfig = DEFAULT_PLATFORM,
    candidates: list[ProfiledAllocation] | None = None,
    top_k: int = 5,
    z: float = 4.0,
    drift_threshold: float = 0.15,
    slo_spec=None,
    faults: dict | None = None,
    timeseries: dict | None = None,
) -> DiagnosticsReport:
    """Run every applicable analysis over one observation.

    Analyses degrade gracefully: drift needs a workload (named in the
    observation or passed explicitly), regret additionally needs an
    objective and a candidate set (re-profiled from the workload when not
    supplied). Critical path and straggler detection always run. With an
    ``slo_spec`` (:class:`repro.slo.SLOSpec`), error-budget consumption is
    attributed to critical-path components as extra findings. With a
    ``faults`` summary (a fault ledger's :meth:`~repro.faults.FaultLedger.
    summary`, e.g. ``result.extra["faults"]``), the JCT lost to injected
    faults versus spent on recovery is attributed as findings too. With a
    ``timeseries`` capture (a ``repro-timeseries/v1`` document), the
    EWMA/MAD anomaly rules — storage saturation, warm-pool collapse,
    concurrency plateau, budget-burn knee — contribute their findings.
    """
    if isinstance(workload, str):
        workload = lookup_workload(workload)
    elif workload is None and obs.workload_name:
        workload = lookup_workload(obs.workload_name)

    critical_path = analyze_critical_path(obs, top_k=top_k)
    stragglers = detect_stragglers(obs, z=z)

    drift: DriftAudit | None = None
    if workload is not None and obs.epochs:
        drift = audit_model_drift(
            obs, workload=workload, platform=platform, threshold=drift_threshold
        )

    regret: RegretAudit | None = None
    if obs.objective is not None and obs.epochs:
        if candidates is None and workload is not None:
            from repro.workflow.runner import profile_workload

            candidates = profile_workload(workload, platform=platform).candidates
        if candidates:
            try:
                regret = audit_regret(
                    obs, candidates, workload=workload, platform=platform
                )
            except ConstraintError:
                regret = None

    findings = _distill(obs, critical_path, stragglers, drift, regret)
    extra: tuple[Finding, ...] = ()
    if faults:
        extra += _fault_findings(faults, obs.jct_s)
    if slo_spec is not None:
        from repro.slo.report import error_budget_findings

        extra += error_budget_findings(
            slo_spec, critical_path, obs.jct_s, obs.cost_usd
        )
    if timeseries is not None:
        from repro.timeseries import detect_anomalies

        extra += tuple(
            Finding(
                kind="anomaly",
                severity=a.severity,
                message=a.message,
                data={
                    "rule": a.rule,
                    "series": a.series,
                    "t_s": _r(a.t_s),
                    **a.data,
                },
            )
            for a in detect_anomalies(timeseries)
        )
    if extra:
        order = {"warning": 0, "info": 1}
        findings = tuple(
            sorted(
                findings + extra,
                key=lambda f: (order[f.severity], f.kind, f.message),
            )
        )
    return DiagnosticsReport(
        meta=dict(obs.meta),
        critical_path=critical_path,
        stragglers=stragglers,
        drift=drift,
        regret=regret,
        findings=findings,
        breakdown=Breakdown.of(obs),
    )


def _fault_findings(summary: dict, jct_s: float) -> tuple[Finding, ...]:
    """Attribute JCT lost to injected faults vs spent on recovery."""
    findings: list[Finding] = []
    n_faults = int(summary.get("n_faults", 0))
    lost_s = float(summary.get("fault_time_s", 0.0))
    recovery_s = float(summary.get("recovery_time_s", 0.0))
    share = (lost_s + recovery_s) / jct_s if jct_s > 0 else 0.0
    findings.append(
        Finding(
            kind="faults",
            severity="warning" if share > 0.25 else "info",
            message=(
                f"{n_faults} injected fault(s): {lost_s:.3f} s of work lost "
                f"to faults plus {recovery_s:.3f} s of recovery overhead "
                f"(cumulative across workers; {share * 100.0:.1f}% of "
                "wall-clock JCT)"
            ),
            data={k: v for k, v in sorted(summary.items()) if k != "records"},
        )
    )
    restores = int(summary.get("checkpoint_restores", 0))
    if restores:
        findings.append(
            Finding(
                kind="faults",
                severity="info",
                message=(
                    f"{restores} checkpoint restore(s) re-ran only the lost "
                    f"epoch(s), {float(summary.get('restore_overhead_s', 0.0)):.3f} s "
                    "of restore overhead"
                ),
                data={"checkpoint_restores": restores},
            )
        )
    degraded = int(summary.get("degraded_allocations", 0))
    if degraded:
        findings.append(
            Finding(
                kind="faults",
                severity="warning",
                message=(
                    f"permanent capacity loss forced {degraded} re-selection(s) "
                    "from the Pareto boundary (degraded allocation)"
                ),
                data={"degraded_allocations": degraded},
            )
        )
    return tuple(findings)


def _distill(
    obs: RunObservation,
    cp: CriticalPathAnalysis,
    stragglers: StragglerAnalysis,
    drift: DriftAudit | None,
    regret: RegretAudit | None,
) -> tuple[Finding, ...]:
    """Turn the raw analyses into ranked findings (warnings first)."""
    findings: list[Finding] = []
    if obs.epochs:
        dom = cp.dominant
        findings.append(
            Finding(
                kind="bottleneck",
                severity="info",
                message=(
                    f"{dom.component} dominates the critical path"
                    f" ({dom.seconds:.3f} s, {dom.share * 100.0:.1f}% of JCT)"
                ),
                data={"component": dom.component, "share": _r(dom.share)},
            )
        )
        sched = next(c for c in cp.components if c.component == "scheduling")
        if sched.share > 0.10:
            findings.append(
                Finding(
                    kind="bottleneck",
                    severity="warning",
                    message=(
                        f"scheduling overhead is {sched.share * 100.0:.1f}% of JCT"
                        " — consider Pareto pruning or a larger δ"
                    ),
                    data={"share": _r(sched.share)},
                )
            )
    if cp.restart.total_s > 0:
        severity = "info" if cp.restart.hidden_share >= 0.5 else "warning"
        findings.append(
            Finding(
                kind="restart",
                severity=severity,
                message=(
                    f"{cp.n_restarts} restart(s): {cp.restart.hidden_share * 100.0:.1f}%"
                    " of switch overhead hidden by delayed restart"
                ),
                data={
                    "hidden_s": _r(cp.restart.hidden_s),
                    "visible_s": _r(cp.restart.visible_s),
                },
            )
        )
    for rank in stragglers.affected_ranks:
        hits = [f for f in stragglers.findings if f.rank == rank]
        worst = max(hits, key=lambda f: f.slowdown)
        findings.append(
            Finding(
                kind="straggler",
                severity="warning",
                message=(
                    f"worker rank {rank} straggled in {len(hits)} epoch(s),"
                    f" up to {worst.slowdown:.2f}x the gang median"
                    f" ({worst.deviation_sigma:.1f}σ)"
                ),
                data={"rank": rank, "epochs": [f.epoch for f in hits]},
            )
        )
    if drift is not None and drift.points:
        if drift.drifting:
            msg = (
                f"analytical model drifts beyond δ={drift.threshold:g}:"
                f" aggregate residual time"
                f" {drift.aggregate_time_residual * 100.0:.2f}% /"
                f" cost {drift.aggregate_cost_residual * 100.0:.2f}%"
            )
            if drift.refit_compute_s_per_mb is not None:
                msg += (
                    f"; refit suggests compute_s_per_mb ="
                    f" {drift.refit_compute_s_per_mb:.6f}"
                )
            findings.append(
                Finding(
                    kind="model-drift",
                    severity="warning",
                    message=msg,
                    data={
                        "aggregate_time_residual": _r(drift.aggregate_time_residual),
                        "aggregate_cost_residual": _r(drift.aggregate_cost_residual),
                        "refit_compute_s_per_mb": _r(drift.refit_compute_s_per_mb),
                    },
                )
            )
        else:
            findings.append(
                Finding(
                    kind="model-drift",
                    severity="info",
                    message=(
                        f"analytical models track measurements: aggregate"
                        f" residual time"
                        f" {drift.aggregate_time_residual * 100.0:.2f}% /"
                        f" cost {drift.aggregate_cost_residual * 100.0:.2f}%"
                        " (within the Fig. 19/20 validation bands)"
                    ),
                    data={
                        "aggregate_time_residual": _r(drift.aggregate_time_residual),
                        "aggregate_cost_residual": _r(drift.aggregate_cost_residual),
                    },
                )
            )
        if drift.flagged:
            findings.append(
                Finding(
                    kind="model-drift",
                    severity="info",
                    message=(
                        f"{len(drift.flagged)}/{len(drift.points)} outlier"
                        f" epoch(s) beyond δ={drift.threshold:g}"
                        " (noise spikes, not systematic drift)"
                    ),
                    data={"epochs": [p.epoch for p in drift.flagged]},
                )
            )
    if regret is not None and regret.points:
        jct = obs.jct_s if obs.jct_s > 0 else 1e-12
        regret_share = max(0.0, regret.total_time_regret_s) / jct
        severity = "warning" if regret_share > 0.05 else "info"
        findings.append(
            Finding(
                kind="regret",
                severity=severity,
                message=(
                    f"{regret.decisions_optimal}/{regret.decisions_total}"
                    " allocation decisions were hindsight-optimal;"
                    f" time regret {regret.total_time_regret_s:+.3f} s"
                    f" ({regret_share * 100.0:.1f}% of JCT),"
                    f" cost regret {regret.total_cost_regret_usd:+.6f} USD"
                ),
                data={
                    "time_regret_s": _r(regret.total_time_regret_s),
                    "cost_regret_usd": _r(regret.total_cost_regret_usd),
                },
            )
        )
    order = {"warning": 0, "info": 1}
    findings.sort(key=lambda f: (order[f.severity], f.kind, f.message))
    return tuple(findings)


def _r(value: float | None, digits: int = 9) -> float | None:
    """Round for the JSON payload; 9 digits keeps sub-ns time resolution
    while making the document stable under benign float formatting."""
    return None if value is None else round(value, digits)
