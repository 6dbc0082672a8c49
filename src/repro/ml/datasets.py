"""Shapes of the paper's datasets (§IV-A).

The paper evaluates on Higgs (11M x 28), YFCC100M feature vectors
(4096-dim), Cifar10 (60k 32x32x3 images) and IMDb (25k sentences). We cannot
ship those datasets, and no run needs their rows: each is represented by a
:class:`DatasetSpec` with the same cardinality and dimensionality, which is
all the time and cost models read.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ValidationError


@dataclass(frozen=True, slots=True)
class DatasetSpec:
    """Shape and storage footprint of a training dataset.

    Attributes:
        name: dataset identifier.
        n_samples: number of training rows.
        n_features: feature dimensionality (flattened for images).
        bytes_per_value: storage width of one feature value.
    """

    name: str
    n_samples: int
    n_features: int
    bytes_per_value: int = 4

    def __post_init__(self) -> None:
        if self.n_samples < 1 or self.n_features < 1:
            raise ValidationError(
                f"dataset {self.name!r} must have positive shape, got "
                f"({self.n_samples}, {self.n_features})"
            )

    @property
    def size_mb(self) -> float:
        """On-storage dataset size D in MB (features + 1 label column)."""
        return self.n_samples * (self.n_features + 1) * self.bytes_per_value / 2**20


HIGGS = DatasetSpec(name="higgs", n_samples=11_000_000, n_features=28)
YFCC = DatasetSpec(name="yfcc", n_samples=200_000, n_features=4096)
CIFAR10 = DatasetSpec(name="cifar10", n_samples=60_000, n_features=3072, bytes_per_value=1)
IMDB = DatasetSpec(name="imdb", n_samples=25_000, n_features=292 * 2, bytes_per_value=4)

DATASETS: dict[str, DatasetSpec] = {
    d.name: d for d in (HIGGS, YFCC, CIFAR10, IMDB)
}
