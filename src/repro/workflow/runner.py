"""Unified entry points: run one training or tuning job under any method.

``run_training`` / ``run_tuning`` hide the wiring between profiler,
scheduler/planner, executor and ablation switches, so experiments and users
compare methods with one call per (workload, method, constraint):

>>> from repro.workflow import run_training
>>> from repro.tuning.plan import Objective
>>> result = run_training("lr-higgs", method="ce-scaling",
...                       objective=Objective.MIN_JCT_GIVEN_BUDGET,
...                       budget_usd=2.0, seed=0)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import PurePath

from repro.common.errors import ValidationError
from repro.common.types import JobResult, StorageKind
from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.analytical.profiler import ParetoProfiler, ProfileResult
from repro.analytical.space import AllocationSpace, default_space
from repro.baselines.cirrus import CirrusScheduler, cirrus_tuning_plan
from repro.baselines.fixed import fixed_tuning_plan
from repro.baselines.lambdaml import LambdaMLScheduler, lambdaml_tuning_plan
from repro.baselines.siren import SirenScheduler, siren_tuning_plan
from repro.ml.models import Workload, workload as lookup_workload
from repro.training.adaptive_scheduler import AdaptiveScheduler
from repro.training.delayed_restart import DelayedRestartPlanner
from repro.training.executor import TrainingExecutor, TrainingJobSpec
from repro.tuning.executor import TuningExecutor, TuningRunResult
from repro.tuning.greedy_planner import GreedyHeuristicPlanner
from repro.tuning.plan import Objective, PartitionPlan
from repro.tuning.sha import SHASpec
from repro.timeseries import get_sampler

TRAINING_METHODS = ("ce-scaling", "siren", "cirrus", "cirrus-static", "lambdaml")
TUNING_METHODS = ("ce-scaling", "lambdaml", "siren", "cirrus", "fixed")


def _resolve_workload(w: Workload | str) -> Workload:
    return lookup_workload(w) if isinstance(w, str) else w


def _make_injector(fault_plan, seed: int, scope: str):
    """A FaultInjector for a non-empty plan, else None (exact no-op path)."""
    if fault_plan is None:
        return None
    from repro.faults import FaultInjector, FaultPlan

    if isinstance(fault_plan, (str, PurePath)):
        fault_plan = FaultPlan.load(fault_plan)
    if fault_plan.is_empty:
        return None
    return FaultInjector(fault_plan, seed=seed, scope=scope)


def workload_profiler(
    platform: PlatformConfig = DEFAULT_PLATFORM,
    space: AllocationSpace | None = None,
    storage_pin: StorageKind | None = None,
    use_pareto: bool = True,
) -> ParetoProfiler:
    """The profiler of a workload's allocation space (optionally
    storage-pinned)."""
    space = space or default_space()
    if storage_pin is not None:
        space = space.restrict_storage(storage_pin)
    return ParetoProfiler(platform=platform, space=space, use_pareto=use_pareto)


def profile_workload(
    w: Workload | str,
    platform: PlatformConfig = DEFAULT_PLATFORM,
    space: AllocationSpace | None = None,
    storage_pin: StorageKind | None = None,
    use_pareto: bool = True,
) -> ProfileResult:
    """Profile a workload's allocation space (optionally storage-pinned)."""
    profiler = workload_profiler(platform, space, storage_pin, use_pareto)
    return profiler.profile(_resolve_workload(w))


@dataclass
class TrainingRun:
    """A training job's result plus the context needed to interpret it."""

    method: str
    result: JobResult
    profile: ProfileResult
    scheduler: object
    # Constraint context, carried so downstream analysis (the diagnostics
    # engine's ex-post regret audit) can re-evaluate decisions without
    # re-deriving what the job was asked to optimize.
    workload: Workload | None = None
    objective: Objective | None = None
    budget_usd: float | None = None
    qos_s: float | None = None
    seed: int = 0
    # The fault/recovery ledger when the run had a fault plan, else None.
    fault_ledger: object | None = None


def make_training_scheduler(
    method: str,
    w: Workload,
    profile: ProfileResult,
    objective: Objective,
    budget_usd: float | None,
    qos_s: float | None,
    seed: int,
    delta: float = 0.1,
):
    """Instantiate the scheduler for a method (CE-scaling or a baseline).

    Storage-pinned baselines (Siren: S3, Cirrus: VM-PS) draw from the
    Pareto front *within their own storage's feasible points* — a pinned
    storage may be entirely dominated on the global boundary.
    """
    candidates = profile.candidates
    if method == "siren":
        candidates = profile.front(StorageKind.S3) or profile.all_points
    elif method in ("cirrus", "cirrus-static"):
        candidates = profile.front(StorageKind.VMPS) or profile.all_points
    common = dict(
        workload=w,
        candidates=candidates,
        objective=objective,
        budget_usd=budget_usd,
        qos_s=qos_s,
        seed=seed,
    )
    if method == "ce-scaling":
        return AdaptiveScheduler(delta=delta, **common)
    if method == "siren":
        return SirenScheduler(**common)
    if method == "cirrus":
        return CirrusScheduler(modified=True, delta=delta, **common)
    if method == "cirrus-static":
        return CirrusScheduler(modified=False, **common)
    if method == "lambdaml":
        return LambdaMLScheduler(**common)
    raise ValidationError(f"unknown training method {method!r}; use {TRAINING_METHODS}")


def run_training(
    w: Workload | str,
    method: str = "ce-scaling",
    objective: Objective = Objective.MIN_JCT_GIVEN_BUDGET,
    budget_usd: float | None = None,
    qos_s: float | None = None,
    seed: int = 0,
    platform: PlatformConfig = DEFAULT_PLATFORM,
    storage_pin: StorageKind | None = None,
    use_pareto: bool = True,
    delayed_restart: bool | None = None,
    delta: float = 0.1,
    max_epochs: int = 400,
    profile: ProfileResult | None = None,
    straggler_factors: dict[int, float] | None = None,
    fault_plan: object | None = None,
    journal: object | None = None,
) -> TrainingRun:
    """Run one model-training job end to end.

    Ablation switches: ``use_pareto=False`` searches the full feasible space
    (WO-pa); ``delayed_restart=False`` puts restart costs on the critical
    path (WO-dr). By default delayed restart is enabled only for CE-scaling
    (baselines lack the mechanism).

    ``fault_plan`` (a :class:`repro.faults.FaultPlan`, or a path to its
    JSON document) turns on fault injection plus the resilience layer; an
    empty plan — or None — keeps the run byte-identical to the pre-fault
    execution path.

    ``journal`` (a :class:`repro.kernel.RunJournal`) records every epoch
    boundary to the crash-consistent write-ahead log; in resume mode the
    journaled prefix is validated instead (``repro resume``).
    """
    w = _resolve_workload(w)
    injector = _make_injector(fault_plan, seed, "train")
    if profile is None:
        profile = profile_workload(
            w, platform=platform, storage_pin=storage_pin, use_pareto=use_pareto
        )
    scheduler = make_training_scheduler(
        method, w, profile, objective, budget_usd, qos_s, seed, delta=delta
    )
    if delayed_restart is None:
        delayed_restart = method == "ce-scaling"
    spec = TrainingJobSpec(
        workload=w,
        objective=objective,
        budget_usd=budget_usd,
        qos_s=qos_s,
        max_epochs=max_epochs,
        seed=seed,
    )
    executor = TrainingExecutor(
        spec=spec,
        scheduler=scheduler,
        platform_config=platform,
        restart_planner=DelayedRestartPlanner(platform=platform, enabled=delayed_restart),
        straggler_factors=dict(straggler_factors or {}),
        fault_injector=injector,
        journal=journal,
    )
    return TrainingRun(
        method=method, result=executor.run(), profile=profile, scheduler=scheduler,
        workload=w, objective=objective, budget_usd=budget_usd, qos_s=qos_s,
        seed=seed, fault_ledger=injector.ledger if injector else None,
    )


@dataclass
class TuningRun:
    """A tuning job's result plus its plan and planner statistics."""

    method: str
    result: TuningRunResult
    plan: PartitionPlan
    profile: ProfileResult
    planner_stats: object | None = None
    # The fault/recovery ledger when the run had a fault plan, else None.
    fault_ledger: object | None = None


def make_tuning_plan(
    method: str,
    profile: ProfileResult,
    spec: SHASpec,
    objective: Objective,
    budget_usd: float | None,
    qos_s: float | None,
    delta: float = 0.001,
    platform: PlatformConfig = DEFAULT_PLATFORM,
) -> tuple[PartitionPlan, object | None, float]:
    """Build the per-method plan; returns (plan, stats, planning_overhead_s).

    Planning overhead is the simulated scheduling cost added to JCT: the
    measured planner wall time for CE-scaling (search-proportional), and a
    single static-selection pass for the baselines.
    """
    candidates = profile.candidates
    if method == "ce-scaling":
        planner = GreedyHeuristicPlanner(delta=delta, platform=platform)
        res = planner.plan(
            candidates, spec, objective, budget_usd=budget_usd, qos_s=qos_s
        )
        # Simulated planning overhead: per-candidate estimation (profiling
        # a configuration on the platform) is what costs time in the real
        # system — hence Pareto pruning's ~69% overhead cut (Fig. 21a).
        overhead = 0.05 * len(candidates)
        return res.plan, res.stats, overhead
    if method == "lambdaml":
        plan = lambdaml_tuning_plan(
            candidates, spec, objective, budget_usd=budget_usd, qos_s=qos_s
        )
        return plan, None, 0.05 * len(candidates)
    if method == "siren":
        pinned = profile.front(StorageKind.S3)
        plan = siren_tuning_plan(
            pinned or candidates, spec, objective, budget_usd=budget_usd, qos_s=qos_s
        )
        return plan, None, 0.05 * len(pinned or candidates)
    if method == "cirrus":
        pinned = profile.front(StorageKind.VMPS)
        plan = cirrus_tuning_plan(
            pinned or candidates, spec, objective, budget_usd=budget_usd, qos_s=qos_s
        )
        return plan, None, 0.05 * len(pinned or candidates)
    if method == "fixed":
        if budget_usd is None:
            raise ValidationError("the fixed baseline needs budget_usd")
        plan = fixed_tuning_plan(candidates, spec, budget_usd)
        return plan, None, 0.05 * len(candidates)
    raise ValidationError(f"unknown tuning method {method!r}; use {TUNING_METHODS}")


def run_tuning(
    w: Workload | str,
    spec: SHASpec,
    method: str = "ce-scaling",
    objective: Objective = Objective.MIN_JCT_GIVEN_BUDGET,
    budget_usd: float | None = None,
    qos_s: float | None = None,
    seed: int = 0,
    platform: PlatformConfig = DEFAULT_PLATFORM,
    storage_pin: StorageKind | None = None,
    use_pareto: bool = True,
    delta: float = 0.001,
    profile: ProfileResult | None = None,
    fault_plan: object | None = None,
) -> TuningRun:
    """Run one hyperparameter-tuning job end to end.

    ``fault_plan`` behaves as in :func:`run_training` (stage-grained:
    storage transients and throttle windows stretch stage JCTs).
    """
    w = _resolve_workload(w)
    injector = _make_injector(fault_plan, seed, "tune")
    if profile is None:
        profile = profile_workload(
            w, platform=platform, storage_pin=storage_pin, use_pareto=use_pareto
        )
    plan, stats, overhead = make_tuning_plan(
        method, profile, spec, objective, budget_usd, qos_s, delta=delta,
        platform=platform,
    )
    ts = get_sampler()
    if ts.enabled and overhead > 0:
        # Planner throughput: candidate (allocation, partition) points
        # examined per second of scheduling overhead, stamped at the end
        # of the search (the job clock starts at `overhead`).
        evaluated = float(
            getattr(stats, "candidates_evaluated", 0)
            or len(profile.candidates)
        )
        ts.sample(
            "planner.candidate_throughput_per_s", overhead,
            evaluated / overhead,
        )
    executor = TuningExecutor(
        workload=w, spec=spec, platform=platform, seed=seed,
        fault_injector=injector,
    )
    result = executor.run(plan, scheduling_overhead_s=overhead)
    return TuningRun(
        method=method, result=result, plan=plan, profile=profile,
        planner_stats=stats,
        fault_ledger=injector.ledger if injector else None,
    )
