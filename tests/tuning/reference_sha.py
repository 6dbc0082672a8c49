"""The SHA engine as it stood when every trial owned its own sampler.

A verbatim copy of ``Trial`` and ``SHAEngine`` from ``tuning/sha.py`` and of
``BOHBEngine``'s constructor, ``_make_trial`` and ``report_to_sampler``
from ``tuning/bohb.py``, from before the engine held its trials as
columns. Each trial here owns a :class:`LossCurveSampler`, and so a seeded
``Generator``. ``test_sha_columns.py`` runs the same shapes, workloads and
seeds through this engine and through :class:`repro.tuning.sha.SHAEngine`
and asserts identical trials, losses, terminations and winners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.common.errors import ValidationError
from repro.common.rng import stream_for
from repro.ml.curves import LossCurveSampler
from repro.ml.models import Workload
from repro.tuning.bohb import TPESampler
from repro.tuning.hyperband import BracketSpec
from repro.tuning.sha import SHASpec


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


class BOHBEngine(SHAEngine):
    """An SHA engine whose trial configurations come from a TPE sampler."""

    def __init__(
        self,
        spec: BracketSpec,
        workload: Workload,
        sampler: TPESampler,
        seed: int = 0,
    ) -> None:
        self._sampler_model = sampler  # must exist before _make_trial runs
        super().__init__(spec, workload, seed=seed)

    def _make_trial(self, index: int) -> Trial:
        lr, momentum = self._sampler_model.sample()
        opt_lr = self.workload.learning_rate
        lr_dist = abs(math.log10(lr) - math.log10(opt_lr))
        mom_dist = abs(momentum - 0.9)
        quality = min(max(math.exp(-0.6 * lr_dist - 0.8 * mom_dist), 0.05), 1.0)
        sampler = LossCurveSampler(
            self._curve,
            seed=self.seed,
            run_label=("bohb-trial", self.spec.bracket_index, index),
            anchor_target=self.workload.target_loss,
        )
        sampler.alpha *= quality
        return Trial(
            index=index,
            learning_rate=lr,
            momentum=momentum,
            quality=quality,
            sampler=sampler,
        )

    def report_to_sampler(self) -> None:
        """Feed every scored trial back into the TPE model."""
        for t in self.trials:
            if t.losses:
                self._sampler_model.observe(t.learning_rate, t.momentum, t.score)
