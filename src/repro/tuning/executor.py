"""Executes a hyperparameter-tuning job under a partitioning plan.

Couples the SHA learning engine (which trials live or die) with the resource
side (how long each stage takes and costs under its allocation θ_i). Stage
durations and costs are the analytical estimates perturbed by the platform's
compute/network noise — the same noise model the training executor's
discrete-event runs use — so measured results deviate from planner
predictions realistically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ValidationError
from repro.common.rng import stream_for
from repro.common.types import Allocation
from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.tuning.plan import PartitionPlan, stage_waves
from repro.tuning.sha import SHAEngine, StageShape, Trial
from repro.ml.models import Workload
from repro.profiling import profile_phase
from repro.telemetry import get_tracer
from repro.timeseries import get_sampler
from repro.slo.events import get_event_bus


@dataclass(frozen=True, slots=True)
class StageRecord:
    """Measured outcome of one SHA stage."""

    stage: int
    n_trials: int
    epochs_per_trial: int
    allocation: Allocation
    jct_s: float
    cost_usd: float
    sync_s: float
    waves: int

@dataclass
class TuningRunResult:
    """Measured outcome of a full tuning job."""

    jct_s: float
    cost_usd: float
    stages: list[StageRecord] = field(default_factory=list)
    winner: Trial | None = None
    scheduling_overhead_s: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def comm_overhead_s(self) -> float:
        return sum(s.sync_s for s in self.stages)


@dataclass
class TuningExecutor:
    """Runs SHA stage by stage under a plan, with measurement noise."""

    workload: Workload
    spec: StageShape
    platform: PlatformConfig = field(default_factory=lambda: DEFAULT_PLATFORM)
    seed: int = 0
    # A repro.faults.FaultInjector (scope "tune"), or None. Stage-grained:
    # storage transients and throttle windows stretch a stage's JCT; the
    # per-worker crash/retry machinery lives in the training executor's
    # discrete-event epochs.
    fault_injector: object | None = None

    def run(
        self,
        plan: PartitionPlan,
        scheduling_overhead_s: float = 0.0,
        engine: SHAEngine | None = None,
    ) -> TuningRunResult:
        """Execute the tuning job; returns measured JCT/cost and the winner.

        ``scheduling_overhead_s`` (planner wall time) is added to the JCT,
        matching the paper's note that all results include it. A custom
        ``engine`` (e.g. a BOHB engine with model-sampled configurations)
        may replace the default SHA engine; it must match the spec's shape.
        """
        with profile_phase("tune/run"):
            return self._run(plan, scheduling_overhead_s, engine)

    def _run(
        self,
        plan: PartitionPlan,
        scheduling_overhead_s: float,
        engine: SHAEngine | None,
    ) -> TuningRunResult:
        if len(plan.stages) != self.spec.n_stages:
            raise ValidationError(
                f"plan has {len(plan.stages)} stages, spec needs {self.spec.n_stages}"
            )
        rng = stream_for(self.seed, "tuning-exec", self.workload.name)
        if engine is None:
            engine = SHAEngine(self.spec, self.workload, seed=self.seed)
        elif engine.spec is not self.spec:
            raise ValidationError("custom engine must share the executor's spec")
        records: list[StageRecord] = []
        bus = get_event_bus()
        ts = get_sampler()
        total_jct = scheduling_overhead_s
        total_cost = 0.0
        for i, point in enumerate(plan.stages):
            with profile_phase("tune/stage") as ph:
                q = self.spec.trials_in_stage(i)
                r = self.spec.epochs_in_stage(i)
                ph.add("trials", q)
                waves = stage_waves(
                    q, point.allocation.n_functions, self.platform
                )
                # Stage wall time: r epochs at the profiled per-epoch time
                # with network/compute jitter, serialized over concurrency
                # waves.
                time_noise = float(
                    rng.lognormal(0.0, self.platform.network_noise_sigma)
                )
                stage_jct = r * point.time_s * waves * time_noise
                cost_noise = rng.lognormal(
                    0.0, self.platform.compute_noise_sigma, size=q
                )
                stage_cost = float(r * point.cost_usd * cost_noise.sum())
                sync_s = r * point.time.sync_s * waves * time_noise
                if self.fault_injector is not None:
                    penalty = self.fault_injector.stage_penalty(
                        i, point.allocation.storage.value, total_jct, stage_jct
                    )
                    if penalty.extra_s > 0.0:
                        stage_jct += penalty.extra_s
                        sync_s += penalty.extra_s
                        if bus.enabled:
                            bus.emit(
                                "fault_injected", total_jct + stage_jct,
                                scope="tune", stage=i,
                                n_faults=penalty.n_transient
                                + (1 if penalty.throttled_s else 0),
                                overhead_s=penalty.extra_s,
                            )
                records.append(
                    StageRecord(
                        stage=i,
                        n_trials=q,
                        epochs_per_trial=r,
                        allocation=point.allocation,
                        jct_s=stage_jct,
                        cost_usd=stage_cost,
                        sync_s=sync_s,
                        waves=waves,
                    )
                )
                get_tracer().span(
                    "stage", "stage", total_jct, stage_jct, "stages",
                    stage=i, trials=q, epochs_per_trial=r, waves=waves,
                    allocation=point.allocation.describe(), cost_usd=stage_cost,
                )
                total_jct += stage_jct
                total_cost += stage_cost
                if bus.enabled:
                    bus.emit(
                        "stage_done", total_jct, scope="tune",
                        stage=i, n_trials=q, epochs_per_trial=r,
                        jct_s=stage_jct, cost_usd=stage_cost,
                        allocation=point.allocation.describe(),
                    )
                if ts.enabled:
                    # Stage-boundary samples on the tuning job's clock:
                    # SHA's surviving-trial ladder, what each stage's
                    # synchronization cost, and the cumulative bill.
                    ts.sample("tune.survivors", total_jct, float(q))
                    ts.sample("tune.stage_sync_s", total_jct, sync_s)
                    ts.sample("tune.cost_usd", total_jct, total_cost)
                engine.run_stage()
        winner = engine.winner()
        extra: dict = {}
        if self.fault_injector is not None:
            extra["faults"] = self.fault_injector.ledger.summary()
        return TuningRunResult(
            jct_s=total_jct,
            cost_usd=total_cost,
            stages=records,
            winner=winner,
            scheduling_overhead_s=scheduling_overhead_s,
            extra=extra,
        )
