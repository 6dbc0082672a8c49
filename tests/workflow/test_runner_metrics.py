"""Tests for the workflow runners, job envelopes and reporting helpers."""

import pytest

from repro.common.errors import ValidationError
from repro.common.types import StorageKind
from repro.ml.models import workload
from repro.tuning.plan import Objective
from repro.tuning.sha import SHASpec
from repro.workflow.job import TABLE_IV, training_envelope, tuning_envelope
from repro.workflow.metrics import ComparisonTable, normalize
from repro.workflow.runner import (
    TRAINING_METHODS,
    TUNING_METHODS,
    profile_workload,
    run_training,
    run_tuning,
)


class TestJobEnvelopes:
    def test_table_iv_contents(self):
        assert TABLE_IV["lr-higgs"]["batch_size"] == 10_000
        assert TABLE_IV["bert-imdb"]["target_loss"] == 0.6
        assert len(TABLE_IV) == 7

    def test_training_envelope_ordering(self, lr_higgs, lr_profile):
        env = training_envelope(lr_higgs, lr_profile)
        assert env.min_cost_usd < env.max_cost_usd
        assert env.min_jct_s < env.max_jct_s
        assert env.budget(2.0) == pytest.approx(2 * env.min_cost_usd)
        assert env.qos(2.0) == pytest.approx(2 * env.min_jct_s)

    def test_tuning_envelope(self, lr_profile):
        spec = SHASpec(64, 2, 2)
        env = tuning_envelope(lr_profile, spec)
        assert env.min_cost_usd > 0
        assert env.min_jct_s > 0


class TestMetrics:
    def test_normalize(self):
        out = normalize({"a": 2.0, "b": 4.0}, base="a")
        assert out == {"a": 1.0, "b": 2.0}

    def test_normalize_missing_base(self):
        with pytest.raises(ValidationError):
            normalize({"a": 1.0}, base="z")

    def test_normalize_zero_base(self):
        with pytest.raises(ValidationError):
            normalize({"a": 0.0}, base="a")

    def test_table_rendering(self):
        t = ComparisonTable(columns=["name", "value"], title="T")
        t.add_row("x", 1.5)
        text = t.render()
        assert "name" in text and "x" in text and "1.5" in text

    def test_table_row_arity_checked(self):
        t = ComparisonTable(columns=["a", "b"])
        with pytest.raises(ValidationError):
            t.add_row(1)

class TestRunners:
    def test_unknown_training_method(self, mobilenet):
        with pytest.raises(ValidationError):
            run_training(mobilenet, method="magic", budget_usd=1.0)

    def test_unknown_tuning_method(self, mobilenet):
        with pytest.raises(ValidationError):
            run_tuning(mobilenet, SHASpec(8, 2, 1), method="magic", budget_usd=1.0)

    def test_workload_by_name(self, mobilenet_profile):
        run = run_training(
            "mobilenet-cifar10", budget_usd=10.0, seed=0, max_epochs=3,
            profile=mobilenet_profile,
        )
        assert run.method == "ce-scaling"
        assert len(run.result.epochs) >= 1

    def test_storage_pin_respected(self):
        run = run_training(
            "mobilenet-cifar10", budget_usd=10.0, seed=0, max_epochs=3,
            storage_pin=StorageKind.ELASTICACHE,
        )
        assert all(
            e.allocation.storage is StorageKind.ELASTICACHE
            for e in run.result.epochs
        )

    @pytest.mark.parametrize("method", TRAINING_METHODS)
    def test_every_training_method_runs(self, method, mobilenet, mobilenet_profile):
        from repro.workflow.job import training_envelope

        budget = training_envelope(mobilenet, mobilenet_profile).budget(2.5)
        run = run_training(
            mobilenet, method=method, budget_usd=budget, seed=0, max_epochs=10,
            profile=mobilenet_profile,
        )
        assert len(run.result.epochs) >= 1
        assert run.result.cost_usd > 0

    @pytest.mark.parametrize("method", TUNING_METHODS)
    def test_every_tuning_method_runs(self, method, mobilenet, mobilenet_profile):
        spec = SHASpec(16, 2, 1)
        env = tuning_envelope(mobilenet_profile, spec)
        run = run_tuning(
            mobilenet, spec, method=method, budget_usd=env.budget(1.5),
            seed=0, profile=mobilenet_profile,
        )
        assert run.result.winner is not None
        assert run.result.jct_s > 0

    def test_training_deterministic_across_calls(self, mobilenet, mobilenet_profile):
        kw = dict(budget_usd=10.0, seed=4, max_epochs=5, profile=mobilenet_profile)
        a = run_training(mobilenet, **kw).result
        b = run_training(mobilenet, **kw).result
        assert a.jct_s == b.jct_s

    def test_siren_pinned_even_when_s3_dominated(self, lr_higgs):
        """lr-higgs's global front can contain no S3 point; the Siren
        baseline must still get a usable (pinned) candidate set."""
        run = run_training(
            lr_higgs, method="siren", budget_usd=5.0, seed=0, max_epochs=3,
        )
        assert all(
            e.allocation.storage is StorageKind.S3 for e in run.result.epochs
        )
