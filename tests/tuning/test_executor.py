"""Tests for the tuning executor (SHA + resource side)."""

import pytest

from repro.common.errors import ValidationError
from repro.ml.models import workload
from repro.tuning.executor import TuningExecutor
from repro.tuning.plan import PartitionPlan, evaluate_plan
from repro.tuning.sha import SHASpec


@pytest.fixture(scope="module")
def spec():
    return SHASpec(32, 2, 2)


@pytest.fixture(scope="module")
def plan(lr_profile, spec):
    return PartitionPlan.uniform(lr_profile.pareto[len(lr_profile.pareto) // 2],
                                 spec.n_stages)


class TestTuningExecutor:
    def test_runs_all_stages(self, lr_higgs, spec, plan):
        result = TuningExecutor(lr_higgs, spec, seed=0).run(plan)
        assert len(result.stages) == spec.n_stages
        assert result.winner is not None

    def test_jct_close_to_prediction(self, lr_higgs, spec, plan):
        result = TuningExecutor(lr_higgs, spec, seed=0).run(plan)
        predicted = evaluate_plan(plan, spec)
        assert result.jct_s == pytest.approx(predicted.jct_s, rel=0.5)
        assert result.cost_usd == pytest.approx(predicted.cost_usd, rel=0.3)

    def test_overhead_added_to_jct(self, lr_higgs, spec, plan):
        base = TuningExecutor(lr_higgs, spec, seed=0).run(plan)
        with_oh = TuningExecutor(lr_higgs, spec, seed=0).run(
            plan, scheduling_overhead_s=100.0
        )
        assert with_oh.jct_s == pytest.approx(base.jct_s + 100.0)

    def test_deterministic(self, lr_higgs, spec, plan):
        a = TuningExecutor(lr_higgs, spec, seed=5).run(plan)
        b = TuningExecutor(lr_higgs, spec, seed=5).run(plan)
        assert a.jct_s == b.jct_s
        assert a.cost_usd == b.cost_usd
        assert a.winner.index == b.winner.index

    def test_seed_changes_measurement(self, lr_higgs, spec, plan):
        a = TuningExecutor(lr_higgs, spec, seed=1).run(plan)
        b = TuningExecutor(lr_higgs, spec, seed=2).run(plan)
        assert a.jct_s != b.jct_s

    def test_stage_records_consistent(self, lr_higgs, spec, plan):
        result = TuningExecutor(lr_higgs, spec, seed=0).run(plan)
        for i, rec in enumerate(result.stages):
            assert rec.n_trials == spec.trials_in_stage(i)
            assert rec.epochs_per_trial == spec.epochs_in_stage(i)

    def test_comm_overhead_positive(self, lr_higgs, spec, plan):
        result = TuningExecutor(lr_higgs, spec, seed=0).run(plan)
        assert 0 < result.comm_overhead_s < result.jct_s

    def test_wrong_plan_length_rejected(self, lr_higgs, spec, lr_profile):
        bad = PartitionPlan.uniform(lr_profile.pareto[0], spec.n_stages + 1)
        with pytest.raises(ValidationError):
            TuningExecutor(lr_higgs, spec, seed=0).run(bad)
