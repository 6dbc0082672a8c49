"""Checkpoint/restore accounting and graceful degradation selection."""

import pytest

from repro.common.errors import (
    CheckpointError,
    ConstraintError,
    FaultError,
    ReproError,
    RetryExhaustedError,
)
from repro.common.types import StorageKind
from repro.config import DEFAULT_PLATFORM
from repro.faults.resilience import (
    CheckpointStore,
    restore_overhead_s,
    select_degraded_allocation,
)
from repro.training.adaptive_scheduler import select_best_allocation
from repro.tuning.plan import Objective


class TestErrorHierarchy:
    def test_fault_errors_are_repro_errors(self):
        assert issubclass(FaultError, ReproError)
        assert issubclass(RetryExhaustedError, FaultError)
        assert issubclass(CheckpointError, FaultError)

    def test_fault_error_carries_context(self):
        exc = RetryExhaustedError("gang failed", scope="train", t_s=12.5)
        assert exc.scope == "train"
        assert exc.t_s == 12.5


class TestCheckpointStore:
    def test_save_and_restore_accounting(self):
        store = CheckpointStore()
        store.save(1)
        store.save(2)
        assert store.last_epoch == 2
        assert store.restore(3, 1.25) == 1.25
        assert store.n_restores == 1
        assert store.restore_overhead_total_s == pytest.approx(1.25)

    def test_restore_budget_exhaustion(self):
        store = CheckpointStore(max_restores=2)
        store.restore(1, 0.5)
        store.restore(1, 0.5)
        with pytest.raises(CheckpointError) as exc_info:
            store.restore(2, 0.5, scope="train", t_s=40.0)
        assert exc_info.value.scope == "train"
        assert store.n_restores == 2  # the refused restore is not counted

    def test_restore_overhead_is_one_model_transfer(self):
        cfg = DEFAULT_PLATFORM.storage_config(StorageKind.S3)
        expected = cfg.latency_s + 100.0 / cfg.bandwidth_mb_s
        assert restore_overhead_s(100.0, StorageKind.S3) == pytest.approx(expected)


class TestDegradedSelection:
    def test_reselects_surviving_point(self, lr_profile):
        candidates = list(lr_profile.pareto)
        budget = 10.0 * max(p.cost_usd for p in candidates)
        best = select_best_allocation(
            candidates, Objective.MIN_JCT_GIVEN_BUDGET, 10.0, budget_usd=budget
        )
        degraded = select_degraded_allocation(
            candidates, {best.allocation}, Objective.MIN_JCT_GIVEN_BUDGET,
            10.0, budget_usd=budget,
        )
        assert degraded.allocation != best.allocation
        assert degraded.allocation in {p.allocation for p in candidates}

    def test_all_lost_raises_constraint_error(self, lr_profile):
        candidates = list(lr_profile.pareto)
        everything = {p.allocation for p in candidates}
        with pytest.raises(ConstraintError):
            select_degraded_allocation(
                candidates, everything, Objective.MIN_JCT_GIVEN_BUDGET,
                10.0, budget_usd=100.0,
            )
