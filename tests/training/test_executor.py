"""Integration tests for the training executor."""

import pytest

from repro.common.errors import ValidationError
from repro.ml.models import workload
from repro.tuning.plan import Objective
from repro.training.adaptive_scheduler import AdaptiveScheduler
from repro.training.delayed_restart import DelayedRestartPlanner
from repro.training.executor import (
    TrainingExecutor,
    TrainingJobSpec,
)
from repro.workflow.job import training_envelope


@pytest.fixture(scope="module")
def budget(mobilenet, mobilenet_profile):
    return training_envelope(mobilenet, mobilenet_profile).budget(2.5)


def _run(mobilenet, mobilenet_profile, budget, seed=0, **sched_kw):
    sched = AdaptiveScheduler(
        workload=mobilenet,
        candidates=mobilenet_profile.pareto,
        objective=Objective.MIN_JCT_GIVEN_BUDGET,
        budget_usd=budget,
        seed=seed,
        **sched_kw,
    )
    spec = TrainingJobSpec(
        workload=mobilenet,
        objective=Objective.MIN_JCT_GIVEN_BUDGET,
        budget_usd=budget,
        seed=seed,
    )
    return TrainingExecutor(spec=spec, scheduler=sched).run()


class TestSpecValidation:
    def test_jct_min_needs_budget(self, mobilenet):
        with pytest.raises(ValidationError):
            TrainingJobSpec(mobilenet, Objective.MIN_JCT_GIVEN_BUDGET)

    def test_cost_min_needs_qos(self, mobilenet):
        with pytest.raises(ValidationError):
            TrainingJobSpec(mobilenet, Objective.MIN_COST_GIVEN_QOS)


class TestExecution:
    def test_converges(self, mobilenet, mobilenet_profile, budget):
        result = _run(mobilenet, mobilenet_profile, budget)
        assert result.converged
        assert result.final_loss <= mobilenet.target_loss

    def test_deterministic(self, mobilenet, mobilenet_profile, budget):
        a = _run(mobilenet, mobilenet_profile, budget, seed=3)
        b = _run(mobilenet, mobilenet_profile, budget, seed=3)
        assert a.jct_s == b.jct_s
        assert a.cost_usd == b.cost_usd
        assert len(a.epochs) == len(b.epochs)

    def test_epochs_recorded(self, mobilenet, mobilenet_profile, budget):
        result = _run(mobilenet, mobilenet_profile, budget)
        assert len(result.epochs) >= 5
        assert all(e.time.total_s > 0 for e in result.epochs)
        assert all(e.cost.total_usd > 0 for e in result.epochs)

    def test_losses_reach_target(self, mobilenet, mobilenet_profile, budget):
        result = _run(mobilenet, mobilenet_profile, budget)
        assert result.epochs[-1].loss <= mobilenet.target_loss
        assert result.epochs[0].loss > mobilenet.target_loss

    def test_breakdowns_consistent(self, mobilenet, mobilenet_profile, budget):
        result = _run(mobilenet, mobilenet_profile, budget)
        assert 0 < result.comm_overhead_s < result.jct_s
        assert 0 < result.storage_cost_usd < result.cost_usd

    def test_scheduling_overhead_counted(self, mobilenet, mobilenet_profile, budget):
        result = _run(mobilenet, mobilenet_profile, budget)
        assert result.scheduling_overhead_s > 0

    def test_max_epochs_cap(self, mobilenet, mobilenet_profile, budget):
        sched = AdaptiveScheduler(
            workload=mobilenet, candidates=mobilenet_profile.pareto,
            objective=Objective.MIN_JCT_GIVEN_BUDGET, budget_usd=budget, seed=0,
        )
        spec = TrainingJobSpec(
            workload=mobilenet, objective=Objective.MIN_JCT_GIVEN_BUDGET,
            budget_usd=budget, max_epochs=3, seed=0,
        )
        result = TrainingExecutor(spec=spec, scheduler=sched).run()
        assert len(result.epochs) == 3
        assert not result.converged

    def test_restarts_marked_in_records(self, mobilenet, mobilenet_profile, budget):
        result = _run(mobilenet, mobilenet_profile, budget, delta=0.01)
        if result.n_restarts:
            assert any(e.restarted for e in result.epochs)

    def test_delayed_restart_reduces_overhead(
        self, mobilenet, mobilenet_profile, budget
    ):
        import numpy as np

        def total(enabled):
            vals = []
            for seed in range(4):
                sched = AdaptiveScheduler(
                    workload=mobilenet, candidates=mobilenet_profile.pareto,
                    objective=Objective.MIN_JCT_GIVEN_BUDGET,
                    budget_usd=budget, seed=seed, delta=0.05,
                )
                spec = TrainingJobSpec(
                    workload=mobilenet, objective=Objective.MIN_JCT_GIVEN_BUDGET,
                    budget_usd=budget, seed=seed,
                )
                result = TrainingExecutor(
                    spec=spec, scheduler=sched,
                    restart_planner=DelayedRestartPlanner(enabled=enabled),
                ).run()
                vals.append(result.scheduling_overhead_s)
            return float(np.mean(vals))

        assert total(True) < total(False)
