"""Stochastic perturbation of compute and network phases.

The simulator multiplies every phase duration by a lognormal factor
(median 1.0). Compute jitter is small (co-located CPU variation); network
jitter is larger and occasionally spikes — the paper attributes its largest
model-validation error to "network instability" at high function counts
(Fig. 19), which the spike term reproduces.
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import stream_for
from repro.config import DEFAULT_PLATFORM, PlatformConfig


class NoiseModel:
    """Per-run noise streams, deterministic in (seed, label)."""

    def __init__(
        self,
        seed: int,
        label: object = "noise",
        platform: PlatformConfig = DEFAULT_PLATFORM,
        spike_prob: float = 0.02,
        spike_scale: float = 2.5,
    ) -> None:
        self._rng = stream_for(seed, "noise", label)
        self.compute_sigma = platform.compute_noise_sigma
        self.network_sigma = platform.network_noise_sigma
        self.cold_start_sigma = platform.cold_start_noise_sigma
        self.spike_prob = spike_prob
        self.spike_scale = spike_scale
        # RNG cursor: how many values this stream has produced. The run
        # journal records it at every epoch boundary, so a resumed replay
        # can verify it is drawing the same noise sequence.
        self.draws = 0

    def network_factor(self) -> float:
        """Multiplicative jitter for a network phase, with rare spikes."""
        base = float(self._rng.lognormal(0.0, self.network_sigma))
        self.draws += 2
        if self._rng.random() < self.spike_prob:
            base *= self.spike_scale
        return base

    def cold_start_factor(self) -> float:
        """Jitter for function cold starts (heavier-tailed)."""
        self.draws += 1
        return float(self._rng.lognormal(0.0, self.cold_start_sigma))

    def compute_factors(self, n: int) -> np.ndarray:
        """n independent compute factors (one per function)."""
        self.draws += n
        return np.exp(self._rng.normal(0.0, self.compute_sigma, size=n))
