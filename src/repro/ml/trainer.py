"""The integrated fine-grained trainer: every layer wired together.

Where :mod:`repro.training.executor` drives epochs with analytical phase
durations (fast, used by the experiments), this trainer runs the whole
substrate stack at iteration granularity for the linear models:

* gradients come from genuine numpy SGD (:class:`DistributedSGD`);
* every BSP round's aggregation is routed through a *real* simulated
  storage service's K/V plane (:class:`BSPSynchronizer`) — the bytes the
  optimizer consumes actually crossed the simulated network;
* storage faults come from a :class:`repro.faults.FaultInjector`, the
  same fault model the platform uses: each epoch's sync pays its
  transient and throttle penalty;
* compute time follows the platform's memory-proportional CPU model and
  the billing meter charges functions and storage like CloudWatch would.

Intended for validation, debugging and demonstration — it is orders of
magnitude slower than the epoch-level executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import RetryExhaustedError, ValidationError
from repro.common.types import Allocation
from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.analytical.timemodel import check_feasible, compute_speedup
from repro.faas.billing import BillingMeter
from repro.faults.injector import FaultInjector
from repro.ml.models import Workload
from repro.ml.sgd import DistributedSGD, SGDConfig
from repro.storage.catalog import make_service
from repro.storage.sync import BSPSynchronizer


@dataclass(slots=True)
class IntegratedEpochReport:
    """Measured outcome of one fine-grained epoch."""

    epoch: int
    loss: float
    wall_time_s: float
    compute_time_s: float
    sync_time_s: float
    storage_requests: int
    billed_usd: float


@dataclass
class IntegratedTrainer:
    """Trains a linear workload through the full simulated stack.

    Attributes:
        workload: must be LR or SVM (real SGD).
        allocation: θ = (n, memory, storage) to run under.
        iterations_per_epoch: BSP rounds per epoch (defaults to the
            workload's k, capped for tractability).
        faults: storage-fault process; each epoch's sync time gains
            its :meth:`~repro.faults.FaultInjector.sync_penalty`.
    """

    workload: Workload
    allocation: Allocation
    platform: PlatformConfig = field(default_factory=lambda: DEFAULT_PLATFORM)
    seed: int = 0
    iterations_per_epoch: int | None = None
    rows_per_worker: int = 400
    faults: FaultInjector | None = None

    def __post_init__(self) -> None:
        if not self.workload.profile.family.is_linear:
            raise ValidationError(
                "IntegratedTrainer needs a linear model (LR/SVM); surrogate "
                "models have no real gradients to route through storage"
            )
        check_feasible(self.workload, self.allocation, self.platform)
        self.service = make_service(self.allocation.storage, self.platform)
        self.synchronizer = BSPSynchronizer(
            self.service, self.allocation.n_functions
        )
        self.meter = BillingMeter(platform=self.platform)
        self._sync_time_epoch = 0.0

        def reducer(grads: list[np.ndarray]) -> np.ndarray:
            merged, report = self.synchronizer.run_round(grads)
            self._sync_time_epoch += report.wall_time_s
            return merged

        self.sgd = DistributedSGD(
            self.workload,
            self.allocation.n_functions,
            SGDConfig(
                batch_size=self.workload.batch_size,
                learning_rate=self.workload.learning_rate,
                rows_per_worker=self.rows_per_worker,
            ),
            seed=self.seed,
            reducer=reducer,
        )
        self.reports: list[IntegratedEpochReport] = []

    def _iterations(self) -> int:
        if self.iterations_per_epoch is not None:
            return self.iterations_per_epoch
        return min(
            50, self.workload.iterations_per_epoch(self.allocation.n_functions)
        )

    def run_epoch(self) -> IntegratedEpochReport:
        """One epoch: k BSP rounds of real SGD through real (simulated) storage."""
        k = self._iterations()
        self._sync_time_epoch = 0.0
        loss = self.sgd.run_epoch(iterations=k)
        # Compute time from the platform CPU model: per-iteration batch MB
        # at the memory-scaled rate, per worker (workers run in parallel).
        batch_mb = (
            self.sgd.local_batch
            * self.workload.dataset.n_features
            * 8.0
            / 2**20
        )
        speed = compute_speedup(self.workload, self.allocation.memory_mb, self.platform)
        compute_s = k * batch_mb * self.workload.profile.compute_s_per_mb / speed
        sync_s = self._sync_time_epoch
        if self.faults is not None:
            start_s = sum(r.wall_time_s for r in self.reports)
            penalty = self.faults.sync_penalty(
                self.sgd.epoch, self.allocation.storage.value, start_s, sync_s
            )
            if penalty.exhausted:
                raise RetryExhaustedError(
                    f"epoch {self.sgd.epoch} failed: storage sync retries exhausted",
                    scope=self.faults.scope, t_s=start_s,
                )
            sync_s += penalty.extra_s
        wall = compute_s + sync_s
        billed = self.meter.bill_gang(
            self.allocation.memory_mb, np.full(self.allocation.n_functions, wall)
        )
        self.service.accrue_provisioned(wall)
        report = IntegratedEpochReport(
            epoch=self.sgd.epoch,
            loss=loss,
            wall_time_s=wall,
            compute_time_s=compute_s,
            sync_time_s=sync_s,
            storage_requests=self.service.metrics.requests,
            billed_usd=billed,
        )
        self.reports.append(report)
        return report

    def run_to_target(self, max_epochs: int = 100) -> list[IntegratedEpochReport]:
        """Epochs until the workload's target loss (or the cap)."""
        for _ in range(max_epochs):
            report = self.run_epoch()
            if report.loss <= self.workload.target_loss:
                break
        return self.reports

    @property
    def total_cost_usd(self) -> float:
        """Functions + storage, CloudWatch-style."""
        return self.meter.total_usd + self.service.cost_usd()
