"""Unit tests for the synthetic dataset generators."""

import pytest

from repro.common.errors import ValidationError
from repro.ml.datasets import CIFAR10, DATASETS, HIGGS, IMDB, YFCC, DatasetSpec


class TestSpecs:
    def test_registry_contains_paper_datasets(self):
        assert set(DATASETS) == {"higgs", "yfcc", "cifar10", "imdb"}

    def test_higgs_shape_matches_paper(self):
        assert HIGGS.n_samples == 11_000_000
        assert HIGGS.n_features == 28

    def test_yfcc_dimensionality(self):
        assert YFCC.n_features == 4096

    def test_cifar_flattened_images(self):
        assert CIFAR10.n_features == 32 * 32 * 3
        assert CIFAR10.n_samples == 60_000

    def test_size_mb_positive_and_ordered(self):
        assert HIGGS.size_mb > CIFAR10.size_mb > IMDB.size_mb > 0

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValidationError):
            DatasetSpec(name="bad", n_samples=0, n_features=5)
