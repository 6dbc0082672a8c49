"""Successive Halving (SHA) hyperparameter tuning (paper §II-A, Fig. 2).

SHA runs trials in stages: every trial trains ``r_i`` epochs per stage, the
trials are ranked by validation score, and the bottom ``1 - 1/eta`` fraction
is terminated. The paper's headline configuration is 16384 trials with a
reduction factor of 2 (14 stages, 2 epochs per stage); experiments here
default to a scaled version with identical structure.

Each trial owns a hyperparameter configuration (learning rate, momentum)
whose distance from a hidden optimum determines its convergence speed — so
SHA's ranking has signal, early stages genuinely weed out bad configs, and
the "winner" is meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.common.errors import ValidationError
from repro.common.rng import stream_for
from repro.ml.curves import LossCurveSampler
from repro.ml.models import Workload


@runtime_checkable
class StageShape(Protocol):
    """The stage-shape protocol the planner/executor/evaluator consume.

    Both :class:`SHASpec` and HyperBand's
    :class:`~repro.tuning.hyperband.BracketSpec` satisfy it, which is what
    lets Algorithm 1 partition any early-stopping tuner's stages.
    """

    n_trials: int

    @property
    def n_stages(self) -> int: ...

    def trials_in_stage(self, stage: int) -> int: ...

    def epochs_in_stage(self, stage: int) -> int: ...

    def total_trial_epochs(self) -> int: ...


@dataclass(frozen=True, slots=True)
class SHASpec:
    """Shape of a Successive Halving run.

    Attributes:
        n_trials: trial count in the first stage.
        reduction_factor: eta — the survivor fraction between stages is 1/eta.
        epochs_per_stage: r_i (the paper uses a constant 2).
    """

    n_trials: int
    reduction_factor: int = 2
    epochs_per_stage: int = 2

    def __post_init__(self) -> None:
        if self.n_trials < 2:
            raise ValidationError(f"n_trials must be >= 2, got {self.n_trials}")
        if self.reduction_factor < 2:
            raise ValidationError(
                f"reduction_factor must be >= 2, got {self.reduction_factor}"
            )
        if self.epochs_per_stage < 1:
            raise ValidationError(
                f"epochs_per_stage must be >= 1, got {self.epochs_per_stage}"
            )

    @property
    def n_stages(self) -> int:
        """Stages until <= reduction_factor trials remain, then one winner pick."""
        return max(1, int(math.floor(math.log(self.n_trials, self.reduction_factor))))

    def trials_in_stage(self, stage: int) -> int:
        """q_i: surviving trials entering stage ``stage`` (0-based)."""
        if not 0 <= stage < self.n_stages:
            raise ValidationError(f"stage must be in [0, {self.n_stages}), got {stage}")
        return max(2, self.n_trials // self.reduction_factor**stage)

    def epochs_in_stage(self, stage: int) -> int:
        """r_i: epochs each surviving trial trains during stage ``stage``."""
        if not 0 <= stage < self.n_stages:
            raise ValidationError(f"stage must be in [0, {self.n_stages}), got {stage}")
        return self.epochs_per_stage

    def total_trial_epochs(self) -> int:
        """Σ q_i * r_i — total epoch-trials executed (the cost driver)."""
        return sum(
            self.trials_in_stage(i) * self.epochs_in_stage(i)
            for i in range(self.n_stages)
        )

    @staticmethod
    def paper_headline() -> "SHASpec":
        """The paper's §IV-B configuration: 16384 trials, eta=2, 2 epochs."""
        return SHASpec(n_trials=16384, reduction_factor=2, epochs_per_stage=2)


@dataclass(slots=True)
class Trial:
    """One hyperparameter configuration being tuned."""

    index: int
    learning_rate: float
    momentum: float
    quality: float  # in (0, 1]; 1 = at the hidden optimum
    sampler: LossCurveSampler = field(repr=False)
    losses: list[float] = field(default_factory=list)
    alive: bool = True
    epochs_trained: int = 0

    @property
    def score(self) -> float:
        """Validation score used for ranking (higher = better)."""
        return -self.losses[-1] if self.losses else -float("inf")

    def train_epochs(self, n: int) -> None:
        """Advance the trial by ``n`` epochs."""
        for _ in range(n):
            self.losses.append(self.sampler.next_loss())
        self.epochs_trained += n


class SHAEngine:
    """Drives a Successive Halving run over simulated trials.

    The engine owns only the *learning* side (trial losses, rankings,
    terminations); the *resource* side (how long a stage takes, what it
    costs) lives in :mod:`repro.tuning.executor`.
    """

    def __init__(self, spec: SHASpec, workload: Workload, seed: int = 0) -> None:
        self.spec = spec
        self.workload = workload
        self.seed = seed
        self._rng = stream_for(seed, "sha", workload.name)
        self._curve = workload.curve_params()
        self.trials = [self._make_trial(i) for i in range(spec.n_trials)]
        self.stage = 0

    def _make_trial(self, index: int) -> Trial:
        """Sample a hyperparameter config and derive its convergence quality.

        Quality decays with log-distance from a hidden optimal learning rate
        and distance from an optimal momentum; the trial's loss curve decays
        ``quality`` times as fast as the workload's nominal curve.
        """
        rng = self._rng
        lr = float(10 ** rng.uniform(-5, -0.5))
        momentum = float(rng.uniform(0.0, 0.99))
        opt_lr = self.workload.learning_rate
        lr_dist = abs(math.log10(lr) - math.log10(opt_lr))
        mom_dist = abs(momentum - 0.9)
        quality = min(max(math.exp(-0.6 * lr_dist - 0.8 * mom_dist), 0.05), 1.0)
        sampler = LossCurveSampler(
            self._curve,
            seed=self.seed,
            run_label=("trial", index),
            anchor_target=self.workload.target_loss,
        )
        sampler.alpha *= quality  # slower decay for poor configs
        return Trial(
            index=index,
            learning_rate=lr,
            momentum=momentum,
            quality=quality,
            sampler=sampler,
        )

    @property
    def alive_trials(self) -> list[Trial]:
        return [t for t in self.trials if t.alive]

    @property
    def finished(self) -> bool:
        return self.stage >= self.spec.n_stages

    def run_stage(self) -> list[Trial]:
        """Train survivors for this stage's epochs, halve, advance.

        Returns the trials that were *terminated* at the end of the stage.
        """
        if self.finished:
            raise ValidationError("SHA run already finished")
        survivors = self.alive_trials
        r = self.spec.epochs_in_stage(self.stage)
        for t in survivors:
            t.train_epochs(r)
        self.stage += 1
        if self.stage >= self.spec.n_stages:
            keep = 1
        else:
            keep = self.spec.trials_in_stage(self.stage)
        ranked = sorted(survivors, key=lambda t: t.score, reverse=True)
        terminated = ranked[keep:]
        for t in terminated:
            t.alive = False
        return terminated

    def winner(self) -> Trial:
        """The surviving trial after the final stage."""
        if not self.finished:
            raise ValidationError("SHA run has not finished yet")
        alive = self.alive_trials
        return max(alive, key=lambda t: t.score)
