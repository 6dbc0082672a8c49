"""Tests for the integrated fine-grained trainer."""

import numpy as np
import pytest

from repro.common.errors import RetryExhaustedError, ValidationError
from repro.common.types import Allocation, StorageKind
from repro.ml.models import workload
from repro.ml.trainer import IntegratedTrainer
from repro.faults import FaultInjector, FaultPlan, RetrySpec, StorageFaultSpec


def _trainer(storage=StorageKind.VMPS, n=4, seed=0, **kw):
    return IntegratedTrainer(
        workload=workload("lr-higgs"),
        allocation=Allocation(n, 1769, storage),
        seed=seed,
        iterations_per_epoch=10,
        rows_per_worker=200,
        **kw,
    )


class TestIntegratedTrainer:
    def test_rejects_surrogate_models(self):
        with pytest.raises(ValidationError):
            IntegratedTrainer(
                workload=workload("mobilenet-cifar10"),
                allocation=Allocation(4, 2048, StorageKind.S3),
            )

    def test_rejects_infeasible_allocation(self):
        with pytest.raises(Exception):
            IntegratedTrainer(
                workload=workload("bert-imdb"),
                allocation=Allocation(4, 512, StorageKind.S3),
            )

    def test_epoch_report_fields(self):
        t = _trainer()
        r = t.run_epoch()
        assert r.epoch == 1
        assert r.wall_time_s == pytest.approx(r.compute_time_s + r.sync_time_s)
        assert r.storage_requests > 0
        assert r.billed_usd > 0

    def test_loss_decreases_through_storage(self):
        """SGD whose gradients travel the storage plane still learns."""
        t = _trainer(seed=1)
        losses = [t.run_epoch().loss for _ in range(6)]
        assert losses[-1] < losses[0]

    def test_matches_in_memory_training(self):
        """Routing aggregation through storage must not change the math."""
        from repro.ml.sgd import DistributedSGD, SGDConfig

        t = _trainer(seed=3)
        for _ in range(3):
            t.run_epoch()
        reference = DistributedSGD(
            workload("lr-higgs"), 4,
            SGDConfig(batch_size=10_000, learning_rate=0.01, rows_per_worker=200),
            seed=3,
        )
        for _ in range(3):
            reference.run_epoch(iterations=10)
        np.testing.assert_allclose(t.sgd.weights, reference.weights, rtol=1e-10)

    def test_storage_kind_affects_sync_time(self):
        slow = _trainer(StorageKind.S3, seed=0).run_epoch()
        fast = _trainer(StorageKind.VMPS, seed=0).run_epoch()
        assert fast.sync_time_s < slow.sync_time_s

    def test_total_cost_includes_storage(self):
        t = _trainer(StorageKind.VMPS)
        t.run_epoch()
        assert t.total_cost_usd > t.meter.total_usd  # VM-PS minutes billed

    def test_run_to_target_stops(self):
        t = _trainer(seed=2)
        reports = t.run_to_target(max_epochs=4)
        assert 1 <= len(reports) <= 4

    def test_with_faulty_storage(self):
        """Training survives a flaky service; faults only add time."""
        plan = FaultPlan(
            name="flaky-sync",
            storage={"*": StorageFaultSpec(transient_prob=1.0, max_errors=2)},
        )
        injector = FaultInjector(plan, seed=4)
        t_faulty = _trainer(StorageKind.VMPS, seed=5, faults=injector)
        t_clean = _trainer(StorageKind.VMPS, seed=5)
        r_faulty = t_faulty.run_epoch()
        r_clean = t_clean.run_epoch()
        assert r_faulty.loss == pytest.approx(r_clean.loss)  # same math
        assert r_faulty.sync_time_s > r_clean.sync_time_s  # fault penalty
        kinds = [rec.kind for rec in injector.ledger.records]
        assert "storage-transient" in kinds

    def test_exhausted_storage_retries_raise(self):
        plan = FaultPlan(
            name="dead-sync",
            storage={"*": StorageFaultSpec(transient_prob=1.0, max_errors=4)},
            retry=RetrySpec(max_attempts=1),
        )
        t = _trainer(StorageKind.VMPS, faults=FaultInjector(plan, seed=0))
        with pytest.raises(RetryExhaustedError):
            t.run_epoch()
