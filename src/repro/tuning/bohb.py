"""BOHB-style model-based hyperparameter tuning over HyperBand brackets.

BOHB [20] replaces HyperBand's random configuration sampling with a
TPE-style density model: completed trials are split into "good" and "bad"
sets by score, each modelled with a kernel density estimate, and new
configurations are drawn to maximize the good/bad density ratio.

This module provides the sampler and a bracket runner that (a) seeds each
bracket's trials from the model and (b) partitions each bracket's stages
with CE-scaling's greedy planner — demonstrating the paper's claim that
its partitioning applies beyond plain SHA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ValidationError
from repro.common.rng import stream_for
from repro.analytical.pareto import ProfiledAllocation
from repro.ml.models import Workload
from repro.tuning.executor import TuningExecutor, TuningRunResult
from repro.tuning.greedy_planner import GreedyHeuristicPlanner
from repro.tuning.hyperband import BracketSpec, HyperBandSpec
from repro.tuning.plan import Objective
from repro.tuning.sha import SHAEngine, Trial


@dataclass
class TPESampler:
    """Tree-structured-Parzen-style sampler over (log lr, momentum).

    Observations are (config, score) pairs; the best ``gamma`` fraction
    forms the "good" KDE. New configs maximize good/bad density ratio over
    ``n_candidates`` random proposals. Falls back to the prior (log-uniform
    lr, uniform momentum) until enough observations exist.
    """

    seed: int = 0
    gamma: float = 0.25
    min_observations: int = 8
    n_candidates: int = 32

    def __post_init__(self) -> None:
        self._rng = stream_for(self.seed, "tpe")
        self._configs: list[tuple[float, float]] = []  # (log10 lr, momentum)
        self._scores: list[float] = []

    def observe(self, learning_rate: float, momentum: float, score: float) -> None:
        """Record a finished trial's score (higher is better)."""
        if learning_rate <= 0:
            raise ValidationError(f"learning_rate must be > 0, got {learning_rate}")
        self._configs.append((math.log10(learning_rate), momentum))
        self._scores.append(float(score))

    @property
    def n_observations(self) -> int:
        return len(self._scores)

    def _prior_sample(self) -> tuple[float, float]:
        return (
            float(10 ** self._rng.uniform(-5, -0.5)),
            float(self._rng.uniform(0.0, 0.99)),
        )

    def sample(self) -> tuple[float, float]:
        """A new (learning_rate, momentum) configuration."""
        if self.n_observations < self.min_observations:
            return self._prior_sample()
        data = np.asarray(self._configs)
        scores = np.asarray(self._scores)
        n_good = max(2, int(self.gamma * len(scores)))
        order = np.argsort(scores)[::-1]
        good, bad = data[order[:n_good]], data[order[n_good:]]
        if len(bad) < 2:
            return self._prior_sample()
        # Imported here: scipy.stats costs about a second at import time,
        # and only a BOHB run with enough observations needs it.
        from scipy.stats import gaussian_kde

        try:
            kde_good = gaussian_kde(good.T)
            kde_bad = gaussian_kde(bad.T)
        except (np.linalg.LinAlgError, ValueError):
            return self._prior_sample()
        proposals = kde_good.resample(self.n_candidates, seed=self._rng)
        ratios = kde_good(proposals) / np.maximum(kde_bad(proposals), 1e-12)
        log_lr, momentum = proposals[:, int(np.argmax(ratios))]
        log_lr = float(np.clip(log_lr, -5.0, -0.5))
        momentum = float(np.clip(momentum, 0.0, 0.99))
        return 10**log_lr, momentum


class BOHBEngine(SHAEngine):
    """An SHA engine whose trial configurations come from a TPE sampler."""

    def __init__(
        self,
        spec: BracketSpec,
        workload: Workload,
        sampler: TPESampler,
        seed: int = 0,
    ) -> None:
        self._sampler_model = sampler  # must exist before the configs are sampled
        super().__init__(spec, workload, seed=seed)

    def _sample_configs(self, n: int) -> tuple[list[float], list[float]]:
        configs = [self._sampler_model.sample() for _ in range(n)]
        return [lr for lr, _ in configs], [m for _, m in configs]

    def _curve_label(self, index: int) -> tuple:
        return ("bohb-trial", self.spec.bracket_index, index)

    def report_to_sampler(self) -> None:
        """Feed every scored trial back into the TPE model."""
        for t in self.trials:
            if t.losses:
                self._sampler_model.observe(t.learning_rate, t.momentum, t.score)


@dataclass
class BOHBResult:
    """Outcome of a full BOHB run."""

    jct_s: float
    cost_usd: float
    best_trial: Trial
    bracket_results: list[TuningRunResult] = field(default_factory=list)


@dataclass
class BOHBRunner:
    """Runs BOHB with CE-scaling's per-bracket resource partitioning.

    The total budget is split across brackets proportionally to their
    trial-epoch volume; each bracket's stages are then partitioned by the
    greedy heuristic planner, exactly as for plain SHA.
    """

    workload: Workload
    spec: HyperBandSpec
    candidates: list[ProfiledAllocation]
    budget_usd: float
    seed: int = 0
    delta: float = 0.001

    def run(self) -> BOHBResult:
        sampler = TPESampler(seed=self.seed)
        planner = GreedyHeuristicPlanner(delta=self.delta)
        brackets = self.spec.brackets()
        volumes = [b.total_trial_epochs() for b in brackets]
        total_volume = sum(volumes)
        jct = 0.0
        cost = 0.0
        best: Trial | None = None
        results = []
        for bracket, volume in zip(brackets, volumes):
            share = self.budget_usd * volume / total_volume
            planned = planner.plan(
                self.candidates,
                bracket,
                Objective.MIN_JCT_GIVEN_BUDGET,
                budget_usd=share,
            )
            engine = BOHBEngine(bracket, self.workload, sampler, seed=self.seed)
            executor = TuningExecutor(
                workload=self.workload, spec=bracket, seed=self.seed
            )
            # The executor drives resources and the BOHB engine's learning
            # side together: model-sampled configs, planned partitions.
            result = executor.run(planned.plan, engine=engine)
            engine.report_to_sampler()
            winner = result.winner
            jct += result.jct_s
            cost += result.cost_usd
            results.append(result)
            if best is None or winner.score > best.score:
                best = winner
        return BOHBResult(
            jct_s=jct, cost_usd=cost, best_trial=best, bracket_results=results
        )
