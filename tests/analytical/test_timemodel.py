"""Tests for the execution-time model (paper Eq. 2-3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import InfeasibleAllocationError
from repro.common.types import Allocation, StorageKind
from repro.config import DEFAULT_PLATFORM
from repro.analytical.timemodel import (
    check_feasible,
    compute_speedup,
    epoch_time,
    is_feasible,
    sync_time_per_iteration,
)
from repro.ml.models import WORKLOADS


def _fig5_transfers(kind: StorageKind, n: int) -> int:
    """Walk one BSP round of Fig. 5 and count its model-sized transfers.

    Rank 0 aggregates. A VM parameter server merges the gradients itself;
    a passive store needs rank 0 to pull them, merge and publish the result.
    """
    puts = gets = 0
    for _rank in range(1, n):
        puts += 1  # each other rank sends its gradient
    if kind is not StorageKind.VMPS:
        for _rank in range(1, n):
            gets += 1  # rank 0 pulls each gradient
        puts += 1  # rank 0 publishes the merged model
    for _rank in range(1, n):
        gets += 1  # each other rank pulls the merged model
    return puts + gets


class TestFeasibility:
    def test_feasible_baseline(self, lr_higgs):
        assert is_feasible(lr_higgs, Allocation(10, 1769, StorageKind.S3))

    def test_memory_floor(self, bert):
        # BERT needs several GB of working set.
        assert not is_feasible(bert, Allocation(10, 1024, StorageKind.S3))
        assert is_feasible(bert, Allocation(10, 8192, StorageKind.S3))

    def test_concurrency_limit(self, lr_higgs):
        assert not is_feasible(lr_higgs, Allocation(5000, 1769, StorageKind.S3))

    def test_dynamodb_object_cap(self, mobilenet, lr_higgs):
        """MobileNet's 12 MB model exceeds DynamoDB's 400 KB items (Table II N/A)."""
        assert not is_feasible(mobilenet, Allocation(10, 1769, StorageKind.DYNAMODB))
        assert is_feasible(lr_higgs, Allocation(10, 1769, StorageKind.DYNAMODB))

    def test_check_feasible_raises_with_reason(self, mobilenet):
        with pytest.raises(InfeasibleAllocationError, match="object limit"):
            check_feasible(mobilenet, Allocation(10, 1769, StorageKind.DYNAMODB))

    def test_epoch_time_rejects_infeasible(self, mobilenet):
        with pytest.raises(InfeasibleAllocationError):
            epoch_time(mobilenet, Allocation(10, 1769, StorageKind.DYNAMODB))


class TestSpeedup:
    def test_linear_below_one_vcpu(self, lr_higgs):
        assert compute_speedup(lr_higgs, 1769) == pytest.approx(1.0)
        assert compute_speedup(lr_higgs, 884) == pytest.approx(884 / 1769, rel=0.01)

    def test_capped_by_model(self, lr_higgs, bert):
        # LR cannot use more than 2 vCPUs worth.
        assert compute_speedup(lr_higgs, 10240) == pytest.approx(2.0)
        # BERT scales further.
        assert compute_speedup(bert, 10240) > 4.0


class TestSyncTime:
    def test_vmps_cheaper_than_s3(self, lr_higgs):
        s3 = sync_time_per_iteration(lr_higgs, Allocation(10, 1769, StorageKind.S3))
        vmps = sync_time_per_iteration(lr_higgs, Allocation(10, 1769, StorageKind.VMPS))
        assert vmps < s3

    @given(
        name=st.sampled_from(sorted(WORKLOADS)),
        kind=st.sampled_from(list(StorageKind)),
        n=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_transfer_counts_eq3(self, name, kind, n):
        """Sync time is Fig. 5's transfer count times one model transfer."""
        w = WORKLOADS[name]
        cfg = DEFAULT_PLATFORM.storage_config(kind)
        per_transfer = w.model_mb / cfg.bandwidth_mb_s + cfg.latency_s
        t = sync_time_per_iteration(w, Allocation(n, 1769, kind))
        assert t == pytest.approx(_fig5_transfers(kind, n) * per_transfer)
        if kind is StorageKind.VMPS and n == 1:
            assert t == 0.0

    def test_single_function_vmps_no_sync(self, lr_higgs):
        assert sync_time_per_iteration(
            lr_higgs, Allocation(1, 1769, StorageKind.VMPS)
        ) == 0.0


class TestEpochTime:
    def test_breakdown_positive(self, lr_higgs):
        t = epoch_time(lr_higgs, Allocation(10, 1769, StorageKind.S3))
        assert t.load_s > 0 and t.compute_s > 0 and t.sync_s > 0

    def test_load_scales_inverse_n(self, lr_higgs):
        t10 = epoch_time(lr_higgs, Allocation(10, 1769, StorageKind.S3))
        t20 = epoch_time(lr_higgs, Allocation(20, 1769, StorageKind.S3))
        assert t20.load_s == pytest.approx(t10.load_s / 2)

    def test_compute_scales_inverse_n(self, lr_higgs):
        t10 = epoch_time(lr_higgs, Allocation(10, 1769, StorageKind.S3))
        t20 = epoch_time(lr_higgs, Allocation(20, 1769, StorageKind.S3))
        assert t20.compute_s == pytest.approx(t10.compute_s / 2, rel=0.01)

    def test_more_memory_faster_compute(self, mobilenet):
        slow = epoch_time(mobilenet, Allocation(10, 1769, StorageKind.S3))
        fast = epoch_time(mobilenet, Allocation(10, 4096, StorageKind.S3))
        assert fast.compute_s < slow.compute_s

    def test_memory_beyond_cap_no_gain(self, lr_higgs):
        """LR saturates at 2 vCPUs (3538 MB): more memory only costs more."""
        a = epoch_time(lr_higgs, Allocation(10, 4096, StorageKind.S3))
        b = epoch_time(lr_higgs, Allocation(10, 10240, StorageKind.S3))
        assert b.compute_s == pytest.approx(a.compute_s)

    def test_big_model_sync_dominates_s3(self, bert):
        """BERT's 340 MB model over S3 is communication-bound (Fig. 12)."""
        t = epoch_time(bert, Allocation(10, 6144, StorageKind.S3))
        assert t.sync_s > t.compute_s
