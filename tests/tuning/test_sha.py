"""Tests for the Successive Halving engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ValidationError
from repro.ml.models import workload
from repro.tuning.sha import SHAEngine, SHASpec


def run_to_completion(engine: SHAEngine):
    """Run every remaining stage, as the tuning executor does, and return
    the winner."""
    while not engine.finished:
        engine.run_stage()
    return engine.winner()


class TestSHASpec:
    def test_paper_headline_shape(self):
        spec = SHASpec.paper_headline()
        assert spec.n_trials == 16384
        assert spec.n_stages == 14
        assert spec.epochs_per_stage == 2

    def test_trials_halve_per_stage(self):
        spec = SHASpec(64, 2, 2)
        assert [spec.trials_in_stage(i) for i in range(spec.n_stages)] == [
            64, 32, 16, 8, 4, 2,
        ]

    def test_reduction_factor_four(self):
        spec = SHASpec(64, 4, 1)
        assert spec.n_stages == 3
        assert [spec.trials_in_stage(i) for i in range(3)] == [64, 16, 4]

    def test_total_trial_epochs(self):
        spec = SHASpec(8, 2, 2)
        # stages: 8, 4, 2 trials x 2 epochs
        assert spec.total_trial_epochs() == 2 * (8 + 4 + 2)

    def test_stage_bounds_checked(self):
        spec = SHASpec(8, 2, 2)
        with pytest.raises(ValidationError):
            spec.trials_in_stage(spec.n_stages)
        with pytest.raises(ValidationError):
            spec.epochs_in_stage(-1)

    def test_rejects_bad_params(self):
        with pytest.raises(ValidationError):
            SHASpec(1, 2, 2)
        with pytest.raises(ValidationError):
            SHASpec(8, 1, 2)
        with pytest.raises(ValidationError):
            SHASpec(8, 2, 0)

    @given(n=st.integers(4, 1024), eta=st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_stage_counts_monotone(self, n, eta):
        spec = SHASpec(n, eta, 1)
        counts = [spec.trials_in_stage(i) for i in range(spec.n_stages)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[0] == n
        assert counts[-1] >= 2


class TestSHAEngine:
    def _engine(self, n=32, seed=0):
        return SHAEngine(SHASpec(n, 2, 2), workload("lr-higgs"), seed=seed)

    def test_initial_trials_alive(self):
        eng = self._engine()
        assert len(eng.alive_trials) == 32

    def test_stage_terminates_half(self):
        eng = self._engine()
        terminated = eng.run_stage()
        assert len(terminated) == 16
        assert len(eng.alive_trials) == 16
        assert not any(eng.trials[i].alive for i in terminated)
        # Best first: the terminated trials' last losses ascend.
        last = [eng.trials[i].losses[-1] for i in terminated]
        assert last == sorted(last)
        assert max(t.losses[-1] for t in eng.alive_trials) <= last[0]

    def test_ties_rank_in_trial_order(self):
        """Equal losses keep trial order, as a stable descending sort on the
        score does: the lowest indices survive and the first one wins."""
        eng = self._engine(n=64)
        # Even trials follow trial 0's curve, odd ones trial 1's.
        eng._z[:] = eng._z[[0, 1] * 32]
        eng.alpha[:] = eng.alpha[[0, 1] * 32]
        terminated = eng.run_stage()
        worse = terminated[0] % 2
        assert terminated == list(range(worse, 64, 2))
        assert run_to_completion(eng).index == 1 - worse

    def test_run_to_completion_single_winner(self):
        eng = self._engine()
        winner = run_to_completion(eng)
        assert eng.finished
        assert len(eng.alive_trials) == 1
        assert winner.alive

    def test_cannot_run_past_end(self):
        eng = self._engine()
        run_to_completion(eng)
        with pytest.raises(ValidationError):
            eng.run_stage()

    def test_winner_before_finish_rejected(self):
        eng = self._engine()
        with pytest.raises(ValidationError):
            eng.winner()

    def test_deterministic(self):
        w1 = run_to_completion(self._engine(seed=7))
        w2 = run_to_completion(self._engine(seed=7))
        assert w1.index == w2.index

    def test_winner_quality_above_median(self):
        """SHA's ranking has signal: the winner's latent quality should beat
        the trial population's median across seeds."""
        import numpy as np

        better = 0
        for seed in range(8):
            eng = self._engine(n=64, seed=seed)
            median_q = float(np.median([t.quality for t in eng.trials]))
            if run_to_completion(eng).quality > median_q:
                better += 1
        assert better >= 7

    def test_epochs_accumulate_only_for_survivors(self):
        eng = self._engine(n=16)
        eng.run_stage()
        eng.run_stage()
        dead = [t for t in eng.trials if not t.alive]
        alive = eng.alive_trials
        assert all(t.epochs_trained <= 4 for t in dead)
        assert all(t.epochs_trained == 4 for t in alive)

    def test_trial_losses_recorded(self):
        eng = self._engine(n=8)
        eng.run_stage()
        for t in eng.trials:
            assert len(t.losses) == 2
