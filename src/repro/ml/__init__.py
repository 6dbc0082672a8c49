"""ML substrate: dataset shapes, model zoo and convergence curves."""

from repro.ml.curves import CurveParams, LossCurveSampler, inverse_power_law
from repro.ml.datasets import CIFAR10, DATASETS, HIGGS, IMDB, YFCC, DatasetSpec
from repro.ml.models import (
    MODELS,
    WORKLOADS,
    ModelFamily,
    ModelProfile,
    Workload,
    workload,
)

__all__ = [
    "CIFAR10",
    "CurveParams",
    "DATASETS",
    "HIGGS",
    "IMDB",
    "LossCurveSampler",
    "MODELS",
    "ModelFamily",
    "ModelProfile",
    "WORKLOADS",
    "Workload",
    "YFCC",
    "DatasetSpec",
    "inverse_power_law",
    "workload",
]
