"""Model-drift audit: replay Eq. (2)-(5) against what actually happened.

For every executed epoch the audit re-evaluates the analytical time and
cost models on the epoch's allocation θ and compares against the measured
breakdown — the same predicted-vs-actual check the paper runs once, for
Fig. 19 (time) and Fig. 20 (cost), turned into a reusable regression
gate. Residuals beyond the drift threshold δ flag the epoch; a drifting
model means the scheduler's selections were made on stale estimates.

The audit compares against :attr:`EpochObservation.model_time_s`
(load + compute + sync), *not* wall time: cold starts are a platform
effect the analytical t'(θ) deliberately does not model.

When drift is found, the audit also refits the workload's compute
constant from the observed epochs
(:func:`repro.analytical.calibration.fit_compute_constant_from_epochs`),
so the finding comes with an actionable recalibration suggestion.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import InfeasibleAllocationError
from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.analytical.calibration import fit_compute_constant_from_epochs
from repro.analytical.costmodel import epoch_cost
from repro.analytical.timemodel import epoch_time
from repro.diagnostics.timeline import RunObservation
from repro.ml.models import Workload, workload as lookup_workload


@dataclass(frozen=True, slots=True)
class DriftPoint:
    """Predicted-vs-actual residuals for one epoch."""

    epoch: int
    allocation: str
    predicted_time_s: float
    actual_time_s: float
    predicted_cost_usd: float
    actual_cost_usd: float | None

    @property
    def time_residual(self) -> float:
        """Relative time error |actual - predicted| / predicted (Fig. 19)."""
        return abs(self.actual_time_s - self.predicted_time_s) / max(
            self.predicted_time_s, 1e-12
        )

    @property
    def cost_residual(self) -> float | None:
        """Relative cost error |actual - predicted| / predicted (Fig. 20)."""
        if self.actual_cost_usd is None:
            return None
        return abs(self.actual_cost_usd - self.predicted_cost_usd) / max(
            self.predicted_cost_usd, 1e-12
        )


@dataclass(frozen=True, slots=True)
class DriftAudit:
    """The full model-validation picture for one run."""

    points: tuple[DriftPoint, ...]
    threshold: float
    mean_time_residual: float
    max_time_residual: float
    mean_cost_residual: float
    max_cost_residual: float
    # Residuals of the run-level totals: |Σ actual − Σ predicted| / Σ pred.
    # Jitter averages out here, so these are the Fig. 19/20-comparable
    # numbers and what the drift verdict is based on; single-epoch
    # residuals flag *outlier epochs*, not model drift.
    aggregate_time_residual: float = 0.0
    aggregate_cost_residual: float = 0.0
    flagged: tuple[DriftPoint, ...] = ()
    skipped_epochs: int = 0
    # Recalibration suggestion, present when the run drifted: the compute
    # constant refit from the observed epochs, and the configured value it
    # would replace.
    refit_compute_s_per_mb: float | None = None
    configured_compute_s_per_mb: float | None = None

    @property
    def drifting(self) -> bool:
        """True when the *systematic* (aggregate) residual exceeds δ."""
        return (
            self.aggregate_time_residual > self.threshold
            or self.aggregate_cost_residual > self.threshold
        )


def audit_model_drift(
    obs: RunObservation,
    workload: Workload | str | None = None,
    platform: PlatformConfig = DEFAULT_PLATFORM,
    threshold: float = 0.15,
) -> DriftAudit:
    """Replay each epoch's allocation through the analytical models.

    ``workload`` defaults to the one named in the observation's metadata.
    Epochs without an allocation or whose allocation is infeasible under
    ``platform`` are counted in ``skipped_epochs`` rather than silently
    dropped.
    """
    if workload is None:
        if not obs.workload_name:
            raise ValueError("observation names no workload; pass one explicitly")
        workload = obs.workload_name
    if isinstance(workload, str):
        workload = lookup_workload(workload)
    points: list[DriftPoint] = []
    skipped = 0
    for e in obs.epochs:
        if e.allocation is None or e.model_time_s <= 0:
            skipped += 1
            continue
        try:
            t_pred = epoch_time(workload, e.allocation, platform)
            c_pred = epoch_cost(workload, e.allocation, platform=platform)
        except InfeasibleAllocationError:
            skipped += 1
            continue
        points.append(
            DriftPoint(
                epoch=e.index,
                allocation=e.alloc_label,
                predicted_time_s=t_pred.total_s,
                actual_time_s=e.model_time_s,
                predicted_cost_usd=c_pred.total_usd,
                actual_cost_usd=e.cost_usd,
            )
        )
    time_residuals = [p.time_residual for p in points]
    cost_residuals = [r for p in points if (r := p.cost_residual) is not None]
    pred_t = sum(p.predicted_time_s for p in points)
    act_t = sum(p.actual_time_s for p in points)
    agg_time = abs(act_t - pred_t) / max(pred_t, 1e-12)
    with_cost = [p for p in points if p.actual_cost_usd is not None]
    pred_c = sum(p.predicted_cost_usd for p in with_cost)
    act_c = sum(p.actual_cost_usd for p in with_cost)
    agg_cost = abs(act_c - pred_c) / max(pred_c, 1e-12) if with_cost else 0.0
    flagged = tuple(
        p
        for p in points
        if p.time_residual > threshold
        or (p.cost_residual is not None and p.cost_residual > threshold)
    )
    refit = configured = None
    if agg_time > threshold or agg_cost > threshold:
        calib = fit_compute_constant_from_epochs(
            workload,
            [(e.allocation, e.compute_s) for e in obs.epochs if e.allocation],
            platform=platform,
        )
        if calib is not None:
            refit = calib.compute_s_per_mb
            configured = workload.profile.compute_s_per_mb
    return DriftAudit(
        points=tuple(points),
        threshold=threshold,
        mean_time_residual=_mean(time_residuals),
        max_time_residual=max(time_residuals, default=0.0),
        mean_cost_residual=_mean(cost_residuals),
        max_cost_residual=max(cost_residuals, default=0.0),
        aggregate_time_residual=agg_time,
        aggregate_cost_residual=agg_cost,
        flagged=flagged,
        skipped_epochs=skipped,
        refit_compute_s_per_mb=refit,
        configured_compute_s_per_mb=configured,
    )


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0
