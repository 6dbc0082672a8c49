"""Unit tests for repro.common.types."""

import pytest

from repro.common.errors import ValidationError
from repro.common.types import (
    Allocation,
    EpochCostBreakdown,
    EpochRecord,
    EpochTimeBreakdown,
    JobResult,
    StorageKind,
)


class TestAllocation:
    def test_valid_construction(self):
        a = Allocation(10, 1769, StorageKind.S3)
        assert a.n_functions == 10
        assert a.memory_mb == 1769
        assert a.storage is StorageKind.S3

    def test_rejects_zero_functions(self):
        with pytest.raises(ValidationError):
            Allocation(0, 1769, StorageKind.S3)

    def test_rejects_negative_functions(self):
        with pytest.raises(ValidationError):
            Allocation(-3, 1769, StorageKind.S3)

    def test_rejects_tiny_memory(self):
        with pytest.raises(ValidationError):
            Allocation(1, 64, StorageKind.S3)

    def test_rejects_non_storage(self):
        with pytest.raises(ValidationError):
            Allocation(1, 1769, "s3")  # type: ignore[arg-type]

    def test_describe(self):
        assert Allocation(10, 1769, StorageKind.S3).describe() == "10fn/1769MB/s3"

    def test_is_hashable_and_eq(self):
        a = Allocation(10, 1769, StorageKind.S3)
        b = Allocation(10, 1769, StorageKind.S3)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestStorageKind:
    def test_vmps_is_not_passive(self):
        assert not StorageKind.VMPS.is_passive

    def test_others_are_passive(self):
        for kind in (StorageKind.S3, StorageKind.DYNAMODB, StorageKind.ELASTICACHE):
            assert kind.is_passive

    def test_short_labels_match_paper(self):
        shorts = {k.short for k in StorageKind}
        assert shorts == {"S", "D", "E", "V"}


class TestBreakdowns:
    def test_time_total(self):
        t = EpochTimeBreakdown(load_s=1.0, compute_s=2.0, sync_s=3.0)
        assert t.total_s == pytest.approx(6.0)

    def test_time_scaled(self):
        t = EpochTimeBreakdown(1.0, 2.0, 3.0).scaled(0.5)
        assert t.total_s == pytest.approx(3.0)
        assert t.sync_s == pytest.approx(1.5)

    def test_cost_total(self):
        c = EpochCostBreakdown(invocation_usd=0.1, compute_usd=0.2, storage_usd=0.3)
        assert c.total_usd == pytest.approx(0.6)


class TestJobResult:
    def _record(self, sync_s: float, storage_usd: float) -> EpochRecord:
        return EpochRecord(
            index=1,
            allocation=Allocation(1, 512, StorageKind.S3),
            time=EpochTimeBreakdown(1.0, 1.0, sync_s),
            cost=EpochCostBreakdown(0.0, 0.01, storage_usd),
            loss=0.5,
        )

    def test_comm_overhead_sums_sync(self):
        r = JobResult(jct_s=10, cost_usd=1, epochs=[self._record(2.0, 0.0)] * 3)
        assert r.comm_overhead_s == pytest.approx(6.0)

    def test_storage_cost_sums(self):
        r = JobResult(jct_s=10, cost_usd=1, epochs=[self._record(0.0, 0.2)] * 4)
        assert r.storage_cost_usd == pytest.approx(0.8)

    def test_empty_job(self):
        r = JobResult(jct_s=0, cost_usd=0)
        assert r.comm_overhead_s == 0.0
        assert r.storage_cost_usd == 0.0
