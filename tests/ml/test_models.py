"""Unit tests for the model zoo / workload registry (Table IV)."""

import pytest

from repro.common.errors import ValidationError
from repro.ml.models import MODELS, WORKLOADS, ModelFamily, workload


class TestProfiles:
    def test_all_families_present(self):
        assert set(MODELS) == set(ModelFamily)

    def test_fixed_model_sizes_match_paper(self):
        assert MODELS[ModelFamily.MOBILENET].fixed_model_mb == 12.0
        assert MODELS[ModelFamily.RESNET50].fixed_model_mb == 89.0
        assert MODELS[ModelFamily.BERT].fixed_model_mb == 340.0

    def test_linear_model_size_scales_with_features(self):
        lr = workload("lr-higgs")
        lr_yfcc = workload("lr-yfcc")
        assert lr_yfcc.model_mb > lr.model_mb
        # 4096 features * 8 bytes = 32 KB
        assert lr_yfcc.model_mb == pytest.approx(4096 * 8 / 2**20)


class TestWorkloads:
    def test_table_iv_rows_exist(self):
        for name in ("lr-higgs", "svm-higgs", "lr-yfcc", "svm-yfcc",
                     "mobilenet-cifar10", "resnet50-cifar10", "bert-imdb"):
            assert name in WORKLOADS

    def test_table_iv_hyperparameters(self):
        w = workload("lr-higgs")
        assert w.batch_size == 10_000
        assert w.learning_rate == 0.01
        assert w.target_loss == 0.66
        b = workload("bert-imdb")
        assert b.batch_size == 32
        assert b.learning_rate == pytest.approx(5e-5)
        assert b.target_loss == 0.6

    def test_unknown_workload(self):
        with pytest.raises(ValidationError):
            workload("vgg-imagenet")

    def test_iterations_per_epoch(self):
        w = workload("lr-higgs")
        # k = D / (n * b_z) = 11e6 / (10 * 10k) = 110
        assert w.iterations_per_epoch(10) == 110

    def test_iterations_at_least_one(self):
        w = workload("bert-imdb")
        assert w.iterations_per_epoch(10_000) == 1

    def test_min_memory_grows_with_model(self):
        assert workload("bert-imdb").min_memory_mb(10) > workload(
            "mobilenet-cifar10"
        ).min_memory_mb(10) > workload("lr-higgs").min_memory_mb(10)

    def test_curve_params_hit_target_at_nominal(self):
        for w in WORKLOADS.values():
            params = w.curve_params()
            assert params.loss_at(w.nominal_epochs) == pytest.approx(
                w.target_loss, rel=1e-6
            )

    def test_name_format(self):
        assert workload("lr-higgs").name == "lr-higgs"
