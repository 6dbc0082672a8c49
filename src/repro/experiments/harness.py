"""Shared experiment infrastructure: scales, result container, helpers."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ValidationError
from repro.common.rng import iter_seeds
from repro.tuning.sha import SHASpec
from repro.workflow.metrics import ComparisonTable


@dataclass(frozen=True)
class Scale:
    """How big an experiment runs.

    ``small`` keeps every experiment minutes-fast on a laptop; ``paper``
    matches the paper's headline configuration (16384 trials, 10 runs,
    all five models).
    """

    name: str
    sha_trials: int
    sha_epochs_per_stage: int
    n_seeds: int
    workloads: tuple[str, ...]

    def sha_spec(self) -> SHASpec:
        return SHASpec(
            n_trials=self.sha_trials,
            reduction_factor=2,
            epochs_per_stage=self.sha_epochs_per_stage,
        )

    def seeds(self, base: int = 0) -> list[int]:
        return list(iter_seeds(base, self.n_seeds))


SCALES: dict[str, Scale] = {
    "tiny": Scale(
        name="tiny",
        sha_trials=64,
        sha_epochs_per_stage=2,
        n_seeds=2,
        workloads=("lr-higgs", "mobilenet-cifar10"),
    ),
    "small": Scale(
        name="small",
        sha_trials=256,
        sha_epochs_per_stage=2,
        n_seeds=3,
        workloads=("lr-higgs", "svm-higgs", "mobilenet-cifar10", "bert-imdb"),
    ),
    "paper": Scale(
        name="paper",
        sha_trials=16384,
        sha_epochs_per_stage=2,
        n_seeds=10,
        workloads=(
            "lr-higgs",
            "svm-higgs",
            "lr-yfcc",
            "svm-yfcc",
            "mobilenet-cifar10",
            "resnet50-cifar10",
            "bert-imdb",
        ),
    ),
}


def get_scale(scale: str | Scale) -> Scale:
    if isinstance(scale, Scale):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        raise ValidationError(
            f"unknown scale {scale!r}; available: {sorted(SCALES)}"
        ) from None


@dataclass
class ExperimentResult:
    """Output of one experiment reproduction.

    Attributes:
        experiment: id, e.g. ``"fig09"``.
        title: what the paper's figure/table shows.
        tables: rendered rows/series (what the benchmark prints).
        series: raw numbers for programmatic assertions.
        notes: caveats (scale-downs, known deviations).
    """

    experiment: str
    title: str
    tables: list[ComparisonTable] = field(default_factory=list)
    series: dict = field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        parts = [f"=== {self.experiment}: {self.title} ==="]
        for t in self.tables:
            parts.append(t.render())
            parts.append("")
        if self.notes:
            parts.append(f"notes: {self.notes}")
        return "\n".join(parts)
