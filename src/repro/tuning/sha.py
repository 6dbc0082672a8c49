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

The engine holds its trials as columns: configuration, quality, curve
exponent, AR(1) noise state, a trials × epochs loss matrix and an alive
mask, the population-of-curves layout of LC-net. Trial ``i`` follows the
curve a :class:`~repro.ml.curves.LossCurveSampler` labelled ``("trial", i)``
would emit, draw for draw: one array pass
(:func:`~repro.common.rng.seeded_pcg64_states`) seeds every trial's stream,
and one shared PCG64, loaded with each seeded state in turn, draws that
trial's normals. A :class:`Trial` is built only when one is asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.common.errors import ValidationError
from repro.common.rng import seeded_pcg64_states, stream_for
from repro.ml.models import Workload

#: ``LossCurveSampler``'s defaults, which every trial's curve uses: the
#: run-level lognormal sigma, the epoch noise sigma and its AR(1) rho.
_RUN_SIGMA, _NOISE_SIGMA, _RHO = 0.15, 0.02, 0.6
_AR_GAIN = math.sqrt(1.0 - _RHO**2)


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
    """One hyperparameter configuration being tuned: a row of the engine's
    columns, copied out."""

    index: int
    learning_rate: float
    momentum: float
    quality: float  # in (0, 1]; 1 = at the hidden optimum
    losses: list[float] = field(default_factory=list)
    alive: bool = True
    epochs_trained: int = 0

    @property
    def score(self) -> float:
        """Validation score used for ranking (higher = better)."""
        return -self.losses[-1] if self.losses else -float("inf")


class SHAEngine:
    """Drives a Successive Halving run over simulated trials.

    The engine owns only the *learning* side (trial losses, rankings,
    terminations); the *resource* side (how long a stage takes, what it
    costs) lives in :mod:`repro.tuning.executor`.
    """

    def __init__(self, spec: StageShape, workload: Workload, seed: int = 0) -> None:
        self.spec = spec
        self.workload = workload
        self.seed = seed
        self._rng = stream_for(seed, "sha", workload.name)
        n = spec.n_trials
        lrs, momenta = self._sample_configs(n)
        # Quality decays with log-distance from a hidden optimal learning
        # rate and distance from an optimal momentum.
        log_opt = math.log10(workload.learning_rate)
        quality = [
            min(max(math.exp(-0.6 * abs(math.log10(lr) - log_opt) - 0.8 * abs(m - 0.9)),
                    0.05), 1.0)
            for lr, m in zip(lrs, momenta)
        ]
        self.learning_rate = np.array(lrs)
        self.momentum = np.array(momenta)
        self.quality = np.array(quality)
        horizon = sum(spec.epochs_in_stage(s) for s in range(spec.n_stages))
        # Column 0 sets each run's speed, column 1 + e its epoch-e noise.
        self._z = _curve_normals(seed, [self._curve_label(i) for i in range(n)], 1 + horizon)
        # LossCurveSampler's anchored run: the run reaches the target after
        # epochs_to(target) * lognormal(0, run_sigma) epochs. The trial's
        # curve then decays ``quality`` times as fast (slower for poor configs).
        curve = workload.curve_params()
        target = workload.target_loss
        nominal = curve.epochs_to(target)
        log_ratio = math.log(curve.amplitude / (target - curve.floor_loss))
        self.alpha = np.array([
            log_ratio / math.log(max(1.0, nominal * math.exp(_RUN_SIGMA * z)) + 1.0) * q
            for z, q in zip(self._z[:, 0].tolist(), quality)
        ])
        self._amplitude = curve.amplitude
        self._floor = curve.floor_loss
        self._ar = np.zeros(n)
        self.losses = np.zeros((n, horizon))
        self.epochs_trained = np.zeros(n, dtype=np.int64)
        self.alive = np.ones(n, dtype=bool)
        self.stage = 0

    def _sample_configs(self, n: int) -> tuple[list[float], list[float]]:
        """(learning rates, momenta): log-uniform lr in [1e-5, 10^-0.5] and
        uniform momentum in [0, 0.99], drawn alternately (numpy's
        ``uniform`` is ``low + (high - low) * u``)."""
        u = self._rng.random(2 * n).tolist()
        return [10 ** (-5.0 + 4.5 * x) for x in u[0::2]], [0.99 * x for x in u[1::2]]

    def _curve_label(self, index: int) -> tuple:
        return ("trial", index)

    def _trial(self, i: int) -> Trial:
        k = int(self.epochs_trained[i])
        return Trial(
            index=i,
            learning_rate=float(self.learning_rate[i]),
            momentum=float(self.momentum[i]),
            quality=float(self.quality[i]),
            losses=self.losses[i, :k].tolist(),
            alive=bool(self.alive[i]),
            epochs_trained=k,
        )

    @property
    def trials(self) -> list[Trial]:
        return [self._trial(i) for i in range(self.spec.n_trials)]

    @property
    def alive_trials(self) -> list[Trial]:
        return [self._trial(i) for i in np.flatnonzero(self.alive).tolist()]

    @property
    def finished(self) -> bool:
        return self.stage >= self.spec.n_stages

    def run_stage(self) -> list[int]:
        """Train survivors for this stage's epochs, halve, advance.

        Returns the indices of the trials terminated at the end of the
        stage, best first.
        """
        if self.finished:
            raise ValidationError("SHA run already finished")
        idx = np.flatnonzero(self.alive)
        start = int(self.epochs_trained[idx[0]])  # every survivor trained alike
        end = start + self.spec.epochs_in_stage(self.stage)
        alpha = (-self.alpha[idx]).tolist()
        ar = self._ar[idx]
        # LossCurveSampler.next_loss: gap-relative AR(1) noise. pow and exp
        # stay per-element math calls, as the sampler makes them.
        for e in range(start, end):
            base = e + 2.0
            gap = self._amplitude * np.array([base**a for a in alpha])
            ar = _RHO * ar + _AR_GAIN * (_NOISE_SIGMA * self._z[idx, 1 + e])
            noise = np.array([math.exp(x) for x in ar.tolist()])
            self.losses[idx, e] = self._floor + gap * noise
        self._ar[idx] = ar
        self.epochs_trained[idx] = end
        self.stage += 1
        keep = 1 if self.finished else self.spec.trials_in_stage(self.stage)
        # Lowest last loss first, ties in trial order.
        ranked = idx[np.argsort(self.losses[idx, end - 1], kind="stable")]
        terminated = ranked[keep:]
        self.alive[terminated] = False
        return terminated.tolist()

    def winner(self) -> Trial:
        """The surviving trial after the final stage."""
        if not self.finished:
            raise ValidationError("SHA run has not finished yet")
        idx = np.flatnonzero(self.alive)
        last = self.losses[idx, self.epochs_trained[idx[0]] - 1]
        return self._trial(int(idx[np.argmin(last)]))


def _curve_normals(seed: int, labels: list, k: int) -> np.ndarray:
    """The first ``k`` standard normals of ``stream_for(seed, "loss-curve",
    label)`` for each label, one row per label."""
    states, incs = seeded_pcg64_states(seed, ("loss-curve",), labels)
    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    z = np.empty((len(labels), k))
    for row, state, inc in zip(z, states, incs):
        bit_gen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.standard_normal(out=row)
    return z
