"""SLOSpec validation, normalization, and JSON round-trips."""

import pytest

from repro.common.errors import SLOError
from repro.slo import SLO_SCHEMA, SLOSpec


class TestValidation:
    def test_needs_at_least_one_objective(self):
        with pytest.raises(SLOError, match="at least one objective"):
            SLOSpec(name="empty")

    def test_single_objective_suffices(self):
        assert SLOSpec(deadline_s=10.0).budget_usd is None
        assert SLOSpec(budget_usd=1.0).deadline_s is None
        assert SLOSpec(stage_budgets_usd={0: 0.5}).deadline_s is None

    @pytest.mark.parametrize("field,value", [
        ("deadline_s", 0.0),
        ("deadline_s", -5.0),
        ("budget_usd", -1.0),
        ("warn_ratio", 0.0),
        ("warn_ratio", 1.0),
        ("predictor_drift_threshold", 0.0),
        ("straggler_slowdown", 1.0),
    ])
    def test_out_of_range_rejected(self, field, value):
        kwargs = {"deadline_s": 10.0, field: value}
        with pytest.raises(SLOError):
            SLOSpec(**kwargs)

    def test_bad_stage_budgets_rejected(self):
        with pytest.raises(SLOError, match="stage indices"):
            SLOSpec(stage_budgets_usd={-1: 0.5})
        with pytest.raises(SLOError, match="positive"):
            SLOSpec(stage_budgets_usd={0: 0.0})
        with pytest.raises(SLOError, match="duplicate"):
            SLOSpec(stage_budgets_usd=((0, 0.5), (0, 0.6)))

    def test_empty_name_rejected(self):
        with pytest.raises(SLOError, match="name"):
            SLOSpec(name="", deadline_s=10.0)

    def test_stage_budget_dict_normalized_to_sorted_pairs(self):
        spec = SLOSpec(stage_budgets_usd={2: 0.3, 0: 0.1})
        assert spec.stage_budgets_usd == ((0, 0.1), (2, 0.3))
        assert dict(spec.stage_budgets_usd).get(2) == 0.3
        assert dict(spec.stage_budgets_usd).get(1) is None


class TestRoundTrip:
    def test_json_round_trip(self):
        spec = SLOSpec(
            name="rt", deadline_s=120.0, budget_usd=2.0,
            stage_budgets_usd={0: 0.5, 3: 0.25}, warn_ratio=0.9,
        )
        again = SLOSpec.from_json(spec.to_json())
        assert again == spec
        assert again.to_json() == spec.to_json()

    def test_payload_carries_schema(self):
        assert SLOSpec(deadline_s=1.0).to_payload()["schema"] == SLO_SCHEMA

    def test_load_save(self, tmp_path):
        path = tmp_path / "spec.json"
        spec = SLOSpec(name="disk", budget_usd=3.0)
        spec.save(path)
        assert SLOSpec.load(path) == spec

    def test_unknown_key_rejected(self):
        payload = SLOSpec(deadline_s=1.0).to_payload()
        payload["surprise"] = 1
        with pytest.raises(SLOError, match="unknown key"):
            SLOSpec.from_payload(payload)

    def test_wrong_schema_rejected(self):
        payload = SLOSpec(deadline_s=1.0).to_payload()
        payload["schema"] = "repro-slo/v0"
        with pytest.raises(SLOError, match="schema"):
            SLOSpec.from_payload(payload)

    def test_invalid_json_rejected(self):
        with pytest.raises(SLOError, match="not valid JSON"):
            SLOSpec.from_json("{truncated")
