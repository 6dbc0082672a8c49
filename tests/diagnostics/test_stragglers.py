"""Straggler detection: flag seeded faults, stay quiet on clean runs."""

import pytest

from repro.diagnostics import RunObservation, detect_stragglers
from repro.diagnostics.timeline import EpochObservation


class TestCleanRun:
    def test_no_false_positives(self, lr_obs):
        analysis = detect_stragglers(lr_obs)
        assert analysis.findings == ()
        assert analysis.epochs_checked == len(lr_obs.epochs)
        assert analysis.workers_checked == sum(
            len(e.worker_durations_s) for e in lr_obs.epochs
        )


class TestInjectedStraggler:
    @pytest.fixture(scope="class")
    def faulty_obs(self, lr_higgs, lr_profile, observe):
        _, obs = observe(
            lr_higgs, lr_profile, budget_usd=2.0, seed=0,
            straggler_factors={3: 4.0},
        )
        return obs

    def test_seeded_rank_flagged(self, faulty_obs):
        """Acceptance: a fault-seeded worker must be detected."""
        analysis = detect_stragglers(faulty_obs)
        assert analysis.findings
        assert analysis.affected_ranks == (3,)

    def test_flagged_in_every_epoch(self, faulty_obs):
        """A persistent 4x slowdown shows up wherever the rank ran."""
        analysis = detect_stragglers(faulty_obs)
        assert len(analysis.findings) == len(faulty_obs.epochs)

    def test_slowdown_magnitude_recovered(self, faulty_obs):
        worst = detect_stragglers(faulty_obs).worst
        assert worst is not None
        # The factor applies to compute only; load dilutes it slightly.
        assert 2.0 < worst.slowdown < 4.5

    def test_straggler_stretches_epoch(self, lr_higgs, lr_profile, faulty_obs,
                                       lr_obs):
        """The BSP barrier means the straggler's overhang is critical-path."""
        assert faulty_obs.jct_s > lr_obs.jct_s


class TestRobustness:
    def test_small_gangs_skipped(self):
        obs = RunObservation(
            epochs=[_epoch(1, (1.0, 9.0))], jct_s=10.0
        )
        analysis = detect_stragglers(obs)
        assert analysis.epochs_checked == 0
        assert analysis.findings == ()

    def test_tight_gang_not_flagged(self):
        """Near-zero MAD must not turn micro-jitter into findings."""
        gang = tuple(1.0 + 1e-9 * r for r in range(8))
        obs = RunObservation(epochs=[_epoch(1, gang)], jct_s=1.0)
        assert detect_stragglers(obs).findings == ()

    def test_outlier_in_synthetic_gang(self):
        gang = (1.0, 1.01, 0.99, 1.02, 0.98, 3.0)
        obs = RunObservation(epochs=[_epoch(1, gang)], jct_s=3.0)
        findings = detect_stragglers(obs).findings
        assert [f.rank for f in findings] == [5]
        assert findings[0].slowdown == pytest.approx(3.0 / 1.005, rel=1e-6)

    def test_z_threshold_tunable(self):
        gang = (1.0, 1.01, 0.99, 1.02, 0.98, 1.5)
        obs = RunObservation(epochs=[_epoch(1, gang)], jct_s=1.5)
        assert detect_stragglers(obs, z=4.0).findings
        assert not detect_stragglers(obs, z=50.0).findings


def _epoch(index: int, workers: tuple[float, ...]) -> EpochObservation:
    return EpochObservation(
        index=index, alloc_label="8fn/1769MB/s3", allocation=None,
        load_s=0.0, compute_s=max(workers), sync_s=0.0, cold_start_s=0.0,
        wall_s=max(workers), worker_durations_s=workers,
    )
