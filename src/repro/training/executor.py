"""Runs a model-training job end to end on the simulated platform.

The executor glues together:

* a **scheduler** (CE-scaling's :class:`AdaptiveScheduler` or a baseline)
  that decides the allocation before each epoch;
* the **loss provider**, which draws each epoch's loss from the
  workload's stochastic convergence curve;
* the **FaaS platform simulator**, which executes each epoch (cold starts,
  jittered phases, barrier) and bills it;
* the **delayed-restart planner**, which hides allocation-switch overhead.

Training stops when the loss reaches the workload's target, the epoch cap
is hit, or the budget is exhausted beyond tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Protocol

from repro.common.errors import FaultError, RetryExhaustedError, ValidationError
from repro.common.types import EpochCostBreakdown, EpochRecord, JobResult
from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.analytical.costmodel import function_price_per_second, storage_cost
from repro.analytical.pareto import ProfiledAllocation
from repro.analytical.timemodel import epoch_time
from repro.faas.platform import EpochExecution, FaaSPlatform
from repro.ml.curves import LossCurveSampler
from repro.ml.models import Workload
from repro.tuning.plan import Objective
from repro.training.delayed_restart import DelayedRestartPlanner
from repro.profiling import profile_phase
from repro.telemetry import get_registry, get_tracer
from repro.timeseries import get_sampler
from repro.slo.events import get_event_bus


class SurrogateLossProvider:
    """Loss from the workload's stochastic convergence curve.

    The statistical trajectory is allocation-independent (BSP keeps the
    effective global batch fixed), matching the paper's model where θ only
    changes *how fast* epochs run, not how many are needed.
    """

    def __init__(self, workload: Workload, seed: int = 0) -> None:
        self._sampler = LossCurveSampler(
            workload.curve_params(),
            seed=seed,
            run_label=("train", workload.name),
            anchor_target=workload.target_loss,
        )

    def epoch_loss(self) -> float:
        return self._sampler.next_loss()


@dataclass(frozen=True)
class TrainingJobSpec:
    """A model-training job (one bar of Fig. 12/13).

    Attributes:
        workload: the (model, dataset) pair with Table IV hyperparameters.
        objective: JCT-min given budget, or cost-min given QoS.
        budget_usd / qos_s: the constraint.
        max_epochs: hard stop.
        seed: randomness root for noise and loss trajectories.
    """

    workload: Workload
    objective: Objective
    budget_usd: float | None = None
    qos_s: float | None = None
    max_epochs: int = 400
    seed: int = 0

    def __post_init__(self) -> None:
        if self.objective is Objective.MIN_JCT_GIVEN_BUDGET and self.budget_usd is None:
            raise ValidationError("JCT minimization needs budget_usd")
        if self.objective is Objective.MIN_COST_GIVEN_QOS and self.qos_s is None:
            raise ValidationError("cost minimization needs qos_s")


def _gang_slowdown(worker_durations_s: tuple[float, ...] | list[float]) -> float:
    """Slowest worker over the gang median (1.0 for degenerate gangs)."""
    durations = sorted(worker_durations_s)
    if not durations:
        return 1.0
    mid = len(durations) // 2
    if len(durations) % 2:
        median = durations[mid]
    else:
        median = (durations[mid - 1] + durations[mid]) / 2.0
    return max(durations) / median if median > 0 else 1.0


class TrainingScheduler(Protocol):
    """The protocol CE-scaling's scheduler and all baselines implement."""

    def initial_decision(self): ...

    def on_epoch_end(self, loss: float, epoch_cost_usd: float, epoch_time_s: float): ...


@dataclass
class TrainingExecutor:
    """Executes one training job under one scheduler."""

    spec: TrainingJobSpec
    scheduler: TrainingScheduler
    platform_config: PlatformConfig = field(default_factory=lambda: DEFAULT_PLATFORM)
    restart_planner: DelayedRestartPlanner | None = None
    budget_overrun_tolerance: float = 1.5
    # Fault seeding forwarded to the platform: rank -> compute slowdown.
    straggler_factors: dict[int, float] = field(default_factory=dict)
    # A repro.faults.FaultInjector, or None for the exact pre-fault path.
    fault_injector: object | None = None
    # A repro.kernel.RunJournal, or None. When set, every epoch boundary
    # is journaled (fresh mode) or validated against the journaled prefix
    # (resume mode) — see docs/kernel.md.
    journal: object | None = None

    def __post_init__(self) -> None:
        if self.restart_planner is None:
            self.restart_planner = DelayedRestartPlanner(platform=self.platform_config)

    def run(self) -> JobResult:
        """Run to convergence (or cap/budget exhaustion); returns the result."""
        with profile_phase("train/run"):
            return self._run()

    def _run(self) -> JobResult:
        spec = self.spec
        w = spec.workload
        platform = FaaSPlatform(
            platform=self.platform_config,
            seed=spec.seed,
            straggler_factors=self.straggler_factors,
            fault_injector=self.fault_injector,
        )
        injector = self.fault_injector
        # The kernel owns the run's job clock (JCT); the executor credits
        # every overhead in occurrence order instead of keeping a private
        # accumulator, so the job clock is bit-reproducible.
        kernel = platform.sim
        journal = self.journal
        checkpoints = None
        if injector is not None:
            from repro.faults.resilience import CheckpointStore

            checkpoints = CheckpointStore()
        excluded_allocations: set = set()
        provider = SurrogateLossProvider(w, seed=spec.seed)
        registry = get_registry()
        tracer = get_tracer()
        bus = get_event_bus()
        ts = get_sampler()
        m_hidden = registry.counter(
            "repro_scheduler_restart_hidden_seconds_total",
            "Restart lead time overlapped with running epochs (Fig. 8)",
        )
        m_visible = registry.counter(
            "repro_scheduler_restart_visible_seconds_total",
            "Restart lead time left on the critical path",
        )
        decision = self.scheduler.initial_decision()
        point: ProfiledAllocation = decision.point
        generation = 0
        jct = kernel.credit_job_time(decision.search_overhead_s)
        sched_overhead = decision.search_overhead_s
        if decision.search_overhead_s:
            tracer.span(
                "initial-search", "scheduling", platform.sim.now,
                decision.search_overhead_s, "scheduler",
            )
            tracer.advance(decision.search_overhead_s)
        if bus.enabled:
            bus.emit(
                "plan_chosen", jct, scope="train",
                allocation=point.allocation.describe(),
                predicted_total_epochs=getattr(
                    decision, "predicted_total_epochs", None
                ),
                search_overhead_s=decision.search_overhead_s,
            )
        cost = 0.0
        records: list[EpochRecord] = []
        n_restarts = 0
        converged = False
        loss = float("inf")
        prewarmed_group: str | None = None

        for epoch_idx in range(1, spec.max_epochs + 1):
            epoch_attempt = 0
            while True:
                alloc = point.allocation
                group = f"{alloc.describe()}#g{generation}"
                base = epoch_time(w, alloc, self.platform_config)
                epoch_start = platform.sim.now
                try:
                    with profile_phase("train/execute_epoch") as ph:
                        ph.add("functions", alloc.n_functions)
                        result = platform.execute_epoch(
                            EpochExecution(
                                group=group,
                                n_functions=alloc.n_functions,
                                memory_mb=alloc.memory_mb,
                                load_s=base.load_s,
                                compute_s=base.compute_s,
                                sync_s=base.sync_s,
                                prewarmed=(group == prewarmed_group),
                                epoch_index=epoch_idx,
                                storage=alloc.storage.value,
                                incarnation=epoch_attempt,
                            )
                        )
                    break
                except RetryExhaustedError:
                    # The gang (or its storage sync) burned through the
                    # retry budget: restore the epoch-boundary checkpoint
                    # and re-run only this epoch on a fresh generation.
                    epoch_attempt += 1
                    lost_s = platform.sim.now - epoch_start
                    jct = kernel.credit_job_time(lost_s)
                    # Restore = one model transfer from the allocation's
                    # storage; CheckpointError ends the job when the
                    # restore budget itself is exhausted.
                    from repro.faults.resilience import restore_overhead_s

                    restore_s = checkpoints.restore(
                        epoch_idx,
                        restore_overhead_s(
                            w.model_mb, alloc.storage, self.platform_config
                        ),
                        scope="train", t_s=jct,
                    )
                    jct = kernel.credit_job_time(restore_s)
                    tracer.span(
                        "checkpoint-restore", "fault",
                        platform.sim.now, restore_s, "scheduler",
                        epoch=epoch_idx,
                    )
                    tracer.advance(restore_s)
                    platform.retire(group)
                    generation += 1
                    prewarmed_group = None
                    injector.record(
                        "checkpoint-restore", jct, epoch=epoch_idx,
                        lost_s=restore_s,
                        detail=f"re-running epoch {epoch_idx} "
                               f"(attempt {epoch_attempt + 1})",
                    )
                    if bus.enabled:
                        bus.emit(
                            "retry_exhausted", jct, scope="train",
                            epoch=epoch_idx, lost_s=lost_s,
                            allocation=alloc.describe(),
                        )
                        bus.emit(
                            "checkpoint_restore", jct, scope="train",
                            epoch=epoch_idx, restore_s=restore_s,
                            attempt=epoch_attempt,
                        )
                except FaultError as exc:
                    # Permanent function loss: this allocation can no
                    # longer field a full gang. Degrade gracefully —
                    # re-select from the surviving Pareto points.
                    epoch_attempt += 1
                    lost_s = platform.sim.now - epoch_start
                    jct = kernel.credit_job_time(lost_s)
                    excluded_allocations.add(alloc)
                    point = self._degrade_allocation(
                        exc, alloc, epoch_idx, jct, cost,
                        excluded_allocations, lost_s, bus,
                    )
                    platform.retire(group)
                    generation += 1
                    prewarmed_group = None
                    n_restarts += 1
            epoch_wall = result.wall_time_s
            stor_usd = storage_cost(w, alloc, epoch_wall, self.platform_config)
            platform.meter.bill_storage(stor_usd)
            epoch_cost = result.billed_usd + stor_usd
            loss = provider.epoch_loss()
            jct = kernel.credit_job_time(epoch_wall)
            cost += epoch_cost
            if journal is not None:
                # Crash-consistency boundary: the epoch's outcome plus
                # every RNG cursor is fsynced before the run moves on, so
                # a host SIGKILL loses at most the epoch in flight.
                journal.record_epoch(
                    epoch=epoch_idx,
                    attempt=epoch_attempt,
                    job_clock_s=jct,
                    event_clock_s=platform.sim.now,
                    events_processed=platform.sim.events_processed,
                    noise_draws=platform.noise_draws,
                    fault_records=len(injector.ledger) if injector else 0,
                    loss=loss,
                    cost_usd=cost,
                    allocation=alloc.describe(),
                )
            if checkpoints is not None:
                # Epoch-boundary checkpoint: the model state this epoch
                # produced is durable in storage; a later failure re-runs
                # only its own epoch, never this one.
                checkpoints.save(epoch_idx)
                if bus.enabled and result.n_faults:
                    bus.emit(
                        "fault_injected", jct, scope="train",
                        epoch=epoch_idx, n_faults=result.n_faults,
                        overhead_s=result.fault_overhead_s,
                        allocation=alloc.describe(),
                    )
            tracer.span(
                "epoch", "epoch", epoch_start, epoch_wall, "epochs",
                epoch=epoch_idx, allocation=alloc.describe(), loss=loss,
                cost_usd=epoch_cost,
            )
            record = EpochRecord(
                index=epoch_idx,
                allocation=alloc,
                time=result.time,
                cost=EpochCostBreakdown(
                    invocation_usd=alloc.n_functions
                    * self.platform_config.pricing.usd_per_invocation,
                    compute_usd=result.billed_usd
                    - alloc.n_functions
                    * self.platform_config.pricing.usd_per_invocation,
                    storage_usd=stor_usd,
                ),
                loss=loss,
                cold_start_s=result.cold_start_s,
                worker_durations_s=result.worker_durations_s,
            )
            records.append(record)
            if bus.enabled:
                # The epoch's record, as far as it is known here; its
                # restart fields ride on the plan_chosen / restart_begun
                # rows that follow (diagnostics.timeline.read_epochs).
                bus.emit(
                    "epoch_done", jct, scope="train",
                    epoch=epoch_idx, wall_s=epoch_wall, cost_usd=epoch_cost,
                    loss=loss, allocation=alloc.describe(),
                    straggler_slowdown=_gang_slowdown(result.worker_durations_s),
                    load_s=record.time.load_s,
                    compute_s=record.time.compute_s,
                    sync_s=record.time.sync_s,
                    cold_start_s=record.cold_start_s,
                    invocation_usd=record.cost.invocation_usd,
                    compute_usd=record.cost.compute_usd,
                    storage_usd=record.cost.storage_usd,
                    worker_durations_s=record.worker_durations_s,
                )
            if ts.enabled:
                # Epoch-boundary samples on the scheduler's job-time clock:
                # the active allocation (m workers x s MB), what each
                # barrier sync cost, and the cumulative bill.
                ts.sample("train.allocation.m", jct, float(alloc.n_functions))
                ts.sample("train.allocation.s_mb", jct, float(alloc.memory_mb))
                ts.sample("train.sync_s", jct, result.time.sync_s)
                ts.sample("train.cost_usd", jct, cost)
            if loss <= w.target_loss:
                converged = True
                break
            if (
                spec.budget_usd is not None
                and cost > spec.budget_usd * self.budget_overrun_tolerance
            ):
                break

            decision = self.scheduler.on_epoch_end(loss, epoch_cost, epoch_wall)
            if (
                excluded_allocations
                and decision.point.allocation in excluded_allocations
            ):
                # A scheduler without exclusion support re-selected an
                # allocation with permanently lost instances; hold the
                # degraded allocation instead.
                decision = replace(decision, point=point, restart=False)
            jct = kernel.credit_job_time(decision.search_overhead_s)
            sched_overhead += decision.search_overhead_s
            if decision.search_overhead_s:
                tracer.span(
                    "search", "scheduling", platform.sim.now,
                    decision.search_overhead_s, "scheduler", epoch=epoch_idx,
                )
                tracer.advance(decision.search_overhead_s)
            if bus.enabled and decision.search_overhead_s:
                bus.emit(
                    "plan_chosen", jct, scope="train",
                    epoch=epoch_idx,
                    allocation=decision.point.allocation.describe(),
                    predicted_total_epochs=getattr(
                        decision, "predicted_total_epochs", None
                    ),
                    search_overhead_s=decision.search_overhead_s,
                )
            if decision.restart:
                n_restarts += 1
                new_alloc = decision.point.allocation
                if ts.enabled:
                    ts.mark("reallocation", jct, new_alloc.describe())
                plan = self.restart_planner.plan_restart(w, new_alloc, epoch_wall)
                jct = kernel.credit_job_time(plan.visible_overhead_s)
                sched_overhead += plan.visible_overhead_s
                m_hidden.inc(plan.hidden_overhead_s)
                m_visible.inc(plan.visible_overhead_s)
                if plan.hidden_overhead_s > 0:
                    # The new functions started during the epoch that just
                    # ran, timed to finish loading as it ended (Fig. 8); the
                    # offset already includes this epoch's search overhead,
                    # so subtract it to land the window inside the epoch.
                    overlap = min(plan.hidden_overhead_s, epoch_wall)
                    tracer.span(
                        "restart-overlap", "scheduling",
                        platform.sim.now - overlap - decision.search_overhead_s,
                        overlap, "scheduler",
                        epoch=epoch_idx, hidden=True,
                        target=new_alloc.describe(),
                    )
                if plan.visible_overhead_s > 0:
                    tracer.span(
                        "restart", "scheduling", platform.sim.now,
                        plan.visible_overhead_s, "scheduler",
                        epoch=epoch_idx, target=new_alloc.describe(),
                    )
                    tracer.advance(plan.visible_overhead_s)
                platform.retire(group)
                generation += 1
                new_group = f"{new_alloc.describe()}#g{generation}"
                if plan.hidden_overhead_s > 0:
                    platform.prewarm(new_group, new_alloc.n_functions)
                    prewarmed_group = new_group
                else:
                    prewarmed_group = None
                records[-1].restarted = True
                records[-1].scheduling_overhead_s = (
                    decision.search_overhead_s + plan.visible_overhead_s
                )
                records[-1].hidden_restart_overlap_s = plan.hidden_overhead_s
                if bus.enabled:
                    bus.emit(
                        "restart_begun", jct, scope="train",
                        epoch=epoch_idx, visible_s=plan.visible_overhead_s,
                        hidden_s=plan.hidden_overhead_s,
                        target=new_alloc.describe(),
                    )
                    if plan.hidden_overhead_s > 0:
                        bus.emit(
                            "restart_hidden", jct, scope="train",
                            epoch=epoch_idx, hidden_s=plan.hidden_overhead_s,
                            target=new_alloc.describe(),
                        )
            point = decision.point

        extra: dict = {}
        if injector is not None:
            ledger = injector.ledger
            extra["faults"] = {**ledger.summary(), **ledger.recovery_counts()}
        return JobResult(
            jct_s=jct,
            cost_usd=cost,
            epochs=records,
            converged=converged,
            final_loss=loss,
            scheduling_overhead_s=sched_overhead,
            n_restarts=n_restarts,
            extra=extra,
        )

    def _degrade_allocation(
        self, exc, alloc, epoch_idx: int, jct: float, cost: float,
        excluded, lost_s: float, bus,
    ):
        """Pick a surviving Pareto point after permanent function loss.

        Mirrors Algorithm 2's ``select_best_allocation`` over the
        candidate set minus every allocation that has lost instances;
        re-raises the original fault when no scheduler candidates exist
        or nothing survives.
        """
        from repro.common.errors import ConstraintError
        from repro.faults.resilience import select_degraded_allocation

        scheduler = self.scheduler
        exclude = getattr(scheduler, "exclude_allocation", None)
        if exclude is not None:
            exclude(alloc)
        candidates = getattr(scheduler, "candidates", None)
        if not candidates:
            raise exc
        horizon = float(
            getattr(scheduler, "predicted_total_epochs", 0.0) or (epoch_idx + 1)
        )
        remaining = max(1.0, horizon - (epoch_idx - 1))
        spec = self.spec
        budget = (
            None if spec.budget_usd is None else max(0.0, spec.budget_usd - cost)
        )
        qos = None if spec.qos_s is None else max(0.0, spec.qos_s - jct)
        try:
            new_point = select_degraded_allocation(
                candidates, excluded, spec.objective, remaining,
                budget_usd=budget, qos_s=qos,
            )
        except ConstraintError:
            raise exc from None
        if hasattr(scheduler, "current"):
            scheduler.current = new_point
        self.fault_injector.record(
            "degraded-allocation", jct, epoch=epoch_idx, lost_s=lost_s,
            detail=f"{alloc.describe()} -> {new_point.allocation.describe()}",
        )
        ts = get_sampler()
        if ts.enabled:
            ts.mark(
                "reallocation", jct,
                f"degraded:{new_point.allocation.describe()}",
            )
        if bus.enabled:
            bus.emit(
                "degraded_allocation", jct, scope="train", epoch=epoch_idx,
                lost=alloc.describe(),
                replacement=new_point.allocation.describe(),
                lost_s=lost_s,
            )
        return new_point
