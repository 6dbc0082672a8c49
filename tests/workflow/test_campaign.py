"""Tests for the end-to-end tune-then-train workflow."""

import pytest

from repro.common.errors import ValidationError
from repro.ml.models import workload
from repro.tuning.sha import SHASpec
from repro.workflow.campaign import effective_workload, run_workflow
from repro.workflow.job import tuning_envelope
from repro.workflow.runner import profile_workload
from tests.tuning.test_sha import run_to_completion


@pytest.fixture(scope="module")
def budget(mobilenet_profile):
    spec = SHASpec(16, 2, 1)
    env = tuning_envelope(mobilenet_profile, spec)
    # Enough for tuning plus a real training phase.
    return env.budget(1.5) + 15.0


class TestEffectiveWorkload:
    def test_good_config_shrinks_horizon(self, mobilenet):
        from repro.tuning.sha import SHAEngine

        eng = SHAEngine(SHASpec(16, 2, 1), mobilenet, seed=0)
        winner = run_to_completion(eng)
        w2 = effective_workload(mobilenet, winner)
        assert w2.learning_rate == winner.learning_rate
        assert w2.nominal_epochs >= mobilenet.nominal_epochs

    def test_perfect_config_keeps_nominal(self, mobilenet):
        from repro.tuning.sha import SHAEngine

        eng = SHAEngine(SHASpec(16, 2, 1), mobilenet, seed=0)
        winner = run_to_completion(eng)
        object.__setattr__(winner, "quality", 1.0)
        w2 = effective_workload(mobilenet, winner)
        assert w2.nominal_epochs == pytest.approx(mobilenet.nominal_epochs)


class TestRunWorkflow:
    def test_end_to_end(self, mobilenet, budget):
        result = run_workflow(
            mobilenet, SHASpec(16, 2, 1), budget_usd=budget, seed=0
        )
        assert result.tuning.winner is not None
        assert result.training.converged
        assert result.total_jct_s == pytest.approx(
            result.tuning.jct_s + result.training.jct_s
        )
        assert result.total_cost_usd == pytest.approx(
            result.tuning.cost_usd + result.training.cost_usd
        )

    def test_workload_by_name(self, budget):
        result = run_workflow(
            "mobilenet-cifar10", SHASpec(16, 2, 1), budget_usd=budget, seed=1
        )
        assert result.winner is not None

    def test_deterministic(self, mobilenet, budget):
        a = run_workflow(mobilenet, SHASpec(16, 2, 1), budget_usd=budget, seed=2)
        b = run_workflow(mobilenet, SHASpec(16, 2, 1), budget_usd=budget, seed=2)
        assert a.total_jct_s == b.total_jct_s
        assert a.winner.index == b.winner.index

    def test_tuning_fraction_validated(self, mobilenet, budget):
        with pytest.raises(ValidationError):
            run_workflow(mobilenet, SHASpec(16, 2, 1), budget_usd=budget,
                         tuning_fraction=0.0)
        with pytest.raises(ValidationError):
            run_workflow(mobilenet, SHASpec(16, 2, 1), budget_usd=-1.0)

    def test_tuning_fraction_tradeoff(self, mobilenet, budget):
        """More tuning budget means more spent tuning (trivially), and the
        training phase still converges on the remainder."""
        lean = run_workflow(mobilenet, SHASpec(16, 2, 1), budget_usd=budget,
                            tuning_fraction=0.2, seed=3)
        rich = run_workflow(mobilenet, SHASpec(16, 2, 1), budget_usd=budget,
                            tuning_fraction=0.7, seed=3)
        assert rich.tuning.cost_usd > lean.tuning.cost_usd
        assert lean.training.converged and rich.training.converged
