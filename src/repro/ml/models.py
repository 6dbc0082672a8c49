"""Model zoo and workload registry (paper §IV-A, Table IV).

A :class:`ModelProfile` captures the resource-facing characteristics of a
model family (parameter size, compute intensity, intra-function parallel
scalability). A :class:`Workload` binds a model to a dataset plus the
training hyperparameters of the paper's Table IV, and carries the calibrated
convergence-curve parameters used by the surrogate loss sampler, which
produces every model's training loss (DESIGN.md §2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.errors import ValidationError
from repro.ml.curves import CurveParams
from repro.ml.datasets import CIFAR10, HIGGS, IMDB, YFCC, DatasetSpec


class ModelFamily(enum.Enum):
    """The five model families evaluated in the paper."""

    LR = "lr"
    SVM = "svm"
    MOBILENET = "mobilenet"
    RESNET50 = "resnet50"
    BERT = "bert"


@dataclass(frozen=True, slots=True)
class ModelProfile:
    """Resource-facing characteristics of a model family.

    Attributes:
        family: which family this profiles.
        fixed_model_mb: parameter size M in MB, or None for linear models
            whose size is 8 bytes per input feature (paper §IV-A).
        compute_s_per_mb: seconds to process 1 MB of training data
            (forward+backward) on one full vCPU — the calibration constant
            behind u(m) in Eq. (2).
        max_speedup: cap on intra-function parallel speedup from extra
            vCPUs (Lambda grants ~m/1769 vCPUs).
        base_memory_mb: runtime + framework memory floor.
    """

    family: ModelFamily
    fixed_model_mb: float | None
    compute_s_per_mb: float
    max_speedup: float
    base_memory_mb: int

    def model_mb(self, dataset: DatasetSpec) -> float:
        """Parameter size M for this model on ``dataset`` (MB)."""
        if self.fixed_model_mb is not None:
            return self.fixed_model_mb
        return dataset.n_features * 8.0 / 2**20


MODELS: dict[ModelFamily, ModelProfile] = {
    ModelFamily.LR: ModelProfile(
        family=ModelFamily.LR,
        fixed_model_mb=None,
        compute_s_per_mb=0.32,
        max_speedup=2.0,
        base_memory_mb=256,
    ),
    ModelFamily.SVM: ModelProfile(
        family=ModelFamily.SVM,
        fixed_model_mb=None,
        compute_s_per_mb=0.30,
        max_speedup=2.0,
        base_memory_mb=256,
    ),
    ModelFamily.MOBILENET: ModelProfile(
        family=ModelFamily.MOBILENET,
        fixed_model_mb=12.0,
        compute_s_per_mb=4.5,
        max_speedup=4.0,
        base_memory_mb=1024,
    ),
    ModelFamily.RESNET50: ModelProfile(
        family=ModelFamily.RESNET50,
        fixed_model_mb=89.0,
        compute_s_per_mb=26.0,
        max_speedup=5.5,
        base_memory_mb=2048,
    ),
    ModelFamily.BERT: ModelProfile(
        family=ModelFamily.BERT,
        fixed_model_mb=340.0,
        compute_s_per_mb=400.0,
        max_speedup=5.5,
        base_memory_mb=3072,
    ),
}


@dataclass(frozen=True, slots=True)
class Workload:
    """A (model, dataset, hyperparameters) triple — one row of Table IV.

    Attributes:
        profile: the model profile.
        dataset: the dataset spec.
        batch_size: SGD mini-batch size b_z.
        learning_rate: SGD step size.
        target_loss: training stops when the loss reaches this value.
        nominal_epochs: calibrated epochs-to-target on the noise-free
            convergence curve (anchors the surrogate sampler).
        init_loss / floor_loss: endpoints of the convergence curve.
    """

    profile: ModelProfile
    dataset: DatasetSpec
    batch_size: int
    learning_rate: float
    target_loss: float
    nominal_epochs: float
    init_loss: float
    floor_loss: float

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValidationError(f"learning_rate must be > 0, got {self.learning_rate}")

    @property
    def name(self) -> str:
        return f"{self.profile.family.value}-{self.dataset.name}"

    @property
    def model_mb(self) -> float:
        """Parameter size M (MB)."""
        return self.profile.model_mb(self.dataset)

    @property
    def dataset_mb(self) -> float:
        """Dataset size D (MB)."""
        return self.dataset.size_mb

    def iterations_per_epoch(self, n_functions: int) -> int:
        """k = D / (n * b_z) in samples (paper §III-B.1), at least 1."""
        return max(1, round(self.dataset.n_samples / (n_functions * self.batch_size)))

    def min_memory_mb(self, n_functions: int) -> int:
        """Memory floor: runtime + model working set (params, grads,
        optimizer state ~4x) + one mini-batch of features."""
        batch_mb = self.batch_size * self.dataset.n_features * 8.0 / 2**20
        return int(
            self.profile.base_memory_mb + 4.0 * self.model_mb + batch_mb
        )

    def curve_params(self) -> CurveParams:
        """Convergence-curve parameters calibrated to ``nominal_epochs``."""
        return CurveParams.solve_alpha(
            init_loss=self.init_loss,
            floor_loss=self.floor_loss,
            target_loss=self.target_loss,
            nominal_epochs=self.nominal_epochs,
        )


def _w(
    family: ModelFamily,
    dataset: DatasetSpec,
    batch_size: int,
    learning_rate: float,
    target_loss: float,
    nominal_epochs: float,
    init_loss: float,
    floor_loss: float,
) -> Workload:
    return Workload(
        profile=MODELS[family],
        dataset=dataset,
        batch_size=batch_size,
        learning_rate=learning_rate,
        target_loss=target_loss,
        nominal_epochs=nominal_epochs,
        init_loss=init_loss,
        floor_loss=floor_loss,
    )


# Paper Table IV, with curve endpoints calibrated per model family.
WORKLOADS: dict[str, Workload] = {
    "lr-higgs": _w(ModelFamily.LR, HIGGS, 10_000, 0.01, 0.66, 40.0, 0.6931, 0.630),
    "svm-higgs": _w(ModelFamily.SVM, HIGGS, 10_000, 0.01, 0.48, 36.0, 1.0, 0.44),
    "lr-yfcc": _w(ModelFamily.LR, YFCC, 800, 0.01, 50.0, 50.0, 400.0, 30.0),
    "svm-yfcc": _w(ModelFamily.SVM, YFCC, 800, 0.01, 50.0, 45.0, 400.0, 30.0),
    "mobilenet-cifar10": _w(
        ModelFamily.MOBILENET, CIFAR10, 128, 0.01, 0.2, 60.0, 2.303, 0.12
    ),
    "resnet50-cifar10": _w(
        ModelFamily.RESNET50, CIFAR10, 32, 0.01, 0.4, 50.0, 2.303, 0.25
    ),
    "bert-imdb": _w(ModelFamily.BERT, IMDB, 32, 5e-5, 0.6, 12.0, 0.6931, 0.45),
}


def workload(name: str) -> Workload:
    """Look up a Table IV workload by name (e.g. ``"lr-higgs"``)."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValidationError(
            f"unknown workload {name!r}; available: {sorted(WORKLOADS)}"
        ) from None
