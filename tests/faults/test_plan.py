"""Fault-plan schema: validation, round-trips, and the empty identity."""

import json

import pytest

from repro.common.errors import ValidationError
from repro.faults.plan import (
    ANY_STORAGE,
    FAULTS_SCHEMA,
    FaultPlan,
    PermanentLoss,
    RetrySpec,
    StorageFaultSpec,
    ThrottleWindow,
)


class TestValidation:
    def test_probabilities_bounded(self):
        with pytest.raises(ValidationError):
            FaultPlan(crash_prob=1.5)
        with pytest.raises(ValidationError):
            FaultPlan(crash_mid_fraction=-0.1)
        with pytest.raises(ValidationError):
            FaultPlan(cold_start_failure_prob=2.0)

    def test_timeout_must_be_positive(self):
        with pytest.raises(ValidationError):
            FaultPlan(invocation_timeout_s=0.0)
        assert FaultPlan(invocation_timeout_s=None).invocation_timeout_s is None

    def test_unknown_storage_backend_rejected(self):
        with pytest.raises(ValidationError):
            FaultPlan(storage={"floppy": StorageFaultSpec()})

    def test_retry_spec_bounds(self):
        with pytest.raises(ValidationError):
            RetrySpec(max_attempts=0)
        with pytest.raises(ValidationError):
            RetrySpec(base_backoff_s=-1.0)
        with pytest.raises(ValidationError):
            RetrySpec(backoff_factor=0.5)

    def test_throttle_window_bounds(self):
        with pytest.raises(ValidationError):
            ThrottleWindow(start_s=-1.0, duration_s=10.0)
        with pytest.raises(ValidationError):
            ThrottleWindow(start_s=0.0, duration_s=0.0)
        with pytest.raises(ValidationError):
            ThrottleWindow(start_s=0.0, duration_s=10.0, slowdown=0.9)

    def test_permanent_loss_bounds(self):
        with pytest.raises(ValidationError):
            PermanentLoss(epoch=0)
        with pytest.raises(ValidationError):
            PermanentLoss(epoch=1, rank=-1)


class TestEmptyIdentity:
    def test_default_plan_is_empty(self):
        assert FaultPlan().is_empty

    def test_each_knob_breaks_emptiness(self):
        assert not FaultPlan(crash_prob=0.1).is_empty
        assert not FaultPlan(invocation_timeout_s=60.0).is_empty
        assert not FaultPlan(cold_start_failure_prob=0.1).is_empty
        assert not FaultPlan(
            storage={ANY_STORAGE: StorageFaultSpec(transient_prob=0.1)}
        ).is_empty
        assert not FaultPlan(permanent_loss=(PermanentLoss(epoch=1),)).is_empty

    def test_empty_storage_spec_keeps_plan_empty(self):
        assert FaultPlan(storage={"s3": StorageFaultSpec()}).is_empty

    def test_default_profile_is_not_empty(self):
        assert not FaultPlan.default_profile().is_empty


class TestStorageLookup:
    def test_exact_key_wins_over_wildcard(self):
        exact = StorageFaultSpec(transient_prob=0.3)
        wild = StorageFaultSpec(transient_prob=0.1)
        plan = FaultPlan(storage={"s3": exact, ANY_STORAGE: wild})
        assert plan.storage_spec("s3") is exact
        assert plan.storage_spec("dynamodb") is wild

    def test_no_wildcard_means_none(self):
        plan = FaultPlan(storage={"s3": StorageFaultSpec(transient_prob=0.3)})
        assert plan.storage_spec("dynamodb") is None


class TestBackoffMath:
    def test_backoff_grows_geometrically(self):
        retry = RetrySpec(base_backoff_s=0.5, backoff_factor=2.0)
        assert retry.backoff_s(0) == 0.0
        assert retry.backoff_s(1) == 0.5
        assert retry.backoff_s(3) == pytest.approx(2.0)

    def test_throttle_overlap(self):
        w = ThrottleWindow(start_s=60.0, duration_s=120.0, slowdown=2.0)
        assert w.overlap_s(0.0, 10.0) == 0.0
        assert w.overlap_s(200.0, 10.0) == 0.0
        assert w.overlap_s(100.0, 10.0) == 10.0
        assert w.overlap_s(50.0, 20.0) == pytest.approx(10.0)
        assert w.overlap_s(170.0, 40.0) == pytest.approx(10.0)


class TestSerialization:
    def test_round_trip(self):
        plan = FaultPlan.default_profile()
        again = FaultPlan.from_payload(plan.to_payload())
        assert again == plan

    def test_json_round_trip(self):
        plan = FaultPlan.default_profile()
        payload = json.loads(plan.to_json())
        assert payload["schema"] == FAULTS_SCHEMA
        assert FaultPlan.from_payload(payload) == plan

    def test_load(self, tmp_path):
        path = tmp_path / "plan.json"
        plan = FaultPlan.default_profile()
        path.write_text(plan.to_json())
        assert FaultPlan.load(path) == plan

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            FaultPlan.load(path)

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValidationError):
            FaultPlan.from_payload({"schema": "repro-faults/v99"})
        with pytest.raises(ValidationError):
            FaultPlan.from_payload([1, 2, 3])
