"""The injector's draws are a pure function of (plan, seed, scope, site)."""

import numpy as np
import pytest

from repro.faults.injector import FaultInjector, SyncPenalty
from repro.faults.plan import (
    ANY_STORAGE,
    FaultPlan,
    PermanentLoss,
    RetrySpec,
    StorageFaultSpec,
    ThrottleWindow,
)


def _crashy(prob=0.5, **kw):
    return FaultPlan(crash_prob=prob, **kw)


def _fault_grid(injector, epochs=6, ranks=8, attempts=2, incarnation=0):
    return [
        injector.worker_fault(e, r, a, incarnation)
        for e in range(1, epochs + 1)
        for r in range(ranks)
        for a in range(attempts)
    ]


class TestDeterminism:
    @pytest.mark.parametrize("incarnation", [0, 2])
    def test_predrawn_gang_decides_like_scalar_draws(self, incarnation):
        plan = FaultPlan(
            crash_prob=0.4, crash_mid_fraction=0.5, cold_start_failure_prob=0.5,
            retry=RetrySpec(max_attempts=4, jitter=0.3),
        )
        n, n_warm, epoch = 40, 25, 3

        def decisions(injector):
            return [
                (injector.worker_fault(epoch, r, a, incarnation),
                 injector.cold_start_failures(epoch, r, 0, incarnation),
                 injector.backoff_s(a + 1, epoch, r, incarnation))
                for r in range(n) for a in range(3)
            ]

        batched = FaultInjector(plan, seed=9)
        batched.predraw_gang(epoch, n, n_warm, incarnation)
        assert decisions(batched) == decisions(FaultInjector(plan, seed=9))

    def test_predraw_returns_the_faulty_mask_and_keeps_only_its_sites(self):
        plan = FaultPlan(crash_prob=0.3, cold_start_failure_prob=0.3)
        n, n_warm, epoch = 40, 25, 3
        late = np.zeros(n, dtype=bool)
        late[[1, 30]] = True
        batched = FaultInjector(plan, seed=9)
        faulty = batched.predraw_gang(epoch, n, n_warm, 0, late)
        ref = FaultInjector(plan, seed=9)
        assert faulty.tolist() == [
            bool(late[r]) or ref.worker_fault(epoch, r, 0) is not None
            or (r >= n_warm and ref.cold_start_failures(epoch, r, 0) > 0)
            for r in range(n)
        ]
        assert 0 < faulty.sum() < n
        kept = set(batched._rows["crash"][1])
        assert kept == set(np.flatnonzero(faulty).tolist())
        cold = set(batched._rows["cold-fail"][1])
        assert cold == {r for r in kept if r >= n_warm}

    def test_same_seed_same_draws(self):
        a = FaultInjector(_crashy(), seed=7)
        b = FaultInjector(_crashy(), seed=7)
        assert _fault_grid(a) == _fault_grid(b)
        assert [a.backoff_s(k, 1, 0, 0) for k in range(1, 4)] == [
            b.backoff_s(k, 1, 0, 0) for k in range(1, 4)
        ]

    def test_seed_changes_draws(self):
        a = FaultInjector(_crashy(), seed=0)
        b = FaultInjector(_crashy(), seed=1)
        assert _fault_grid(a) != _fault_grid(b)

    def test_scope_separates_streams(self):
        a = FaultInjector(_crashy(), seed=0, scope="train")
        b = FaultInjector(_crashy(), seed=0, scope="tune")
        assert _fault_grid(a) != _fault_grid(b)

    def test_incarnation_salt_redraws(self):
        """A re-run epoch must not deterministically replay its killer."""
        inj = FaultInjector(_crashy(), seed=0)
        first = _fault_grid(inj, incarnation=0)
        second = _fault_grid(inj, incarnation=1)
        assert first != second

    def test_draws_are_order_independent(self):
        """Site-keyed streams: querying in a different order can't shift
        any draw (the engine's interleaving is irrelevant)."""
        a = FaultInjector(_crashy(), seed=3)
        b = FaultInjector(_crashy(), seed=3)
        forward = _fault_grid(a)
        backward = list(reversed(
            [b.worker_fault(e, r, at)
             for e in reversed(range(1, 7))
             for r in reversed(range(8))
             for at in reversed(range(2))]
        ))
        assert forward == backward


class TestWorkerFaults:
    def test_no_crash_when_prob_zero(self):
        inj = FaultInjector(FaultPlan(permanent_loss=(PermanentLoss(epoch=9),)))
        assert all(f is None for f in _fault_grid(inj))

    def test_certain_crash_mid_epoch(self):
        inj = FaultInjector(_crashy(prob=1.0, crash_mid_fraction=1.0))
        for fault in _fault_grid(inj, epochs=3, ranks=4):
            assert fault is not None and fault.kind == "crash-mid"
            assert 0.05 <= fault.run_fraction <= 0.95

    def test_certain_crash_at_invoke(self):
        inj = FaultInjector(_crashy(prob=1.0, crash_mid_fraction=0.0))
        for fault in _fault_grid(inj, epochs=3, ranks=4):
            assert fault is not None and fault.kind == "crash-invoke"
            assert fault.run_fraction == 0.0

    def test_cold_start_failures_bounded_by_retry_budget(self):
        plan = FaultPlan(
            cold_start_failure_prob=1.0, retry=RetrySpec(max_attempts=3)
        )
        inj = FaultInjector(plan)
        assert inj.cold_start_failures(1, 0, 0) == 3
        assert FaultInjector(FaultPlan()).cold_start_failures(1, 0, 0) == 0

    def test_backoff_jitter_stays_in_band(self):
        plan = FaultPlan(retry=RetrySpec(base_backoff_s=1.0, jitter=0.25))
        inj = FaultInjector(plan)
        for attempt in range(1, 4):
            nominal = plan.retry.backoff_s(attempt)
            drawn = inj.backoff_s(attempt, 1, 0, 0)
            assert 0.75 * nominal <= drawn <= 1.25 * nominal


class TestSyncPenalty:
    def test_no_spec_no_penalty(self):
        plan = FaultPlan(storage={"s3": StorageFaultSpec(transient_prob=1.0)})
        inj = FaultInjector(plan)
        assert inj.sync_penalty(1, "dynamodb", 0.0, 2.0) == SyncPenalty()
        assert len(inj.ledger) == 0

    def test_transient_episode_recovered(self):
        plan = FaultPlan(
            storage={
                ANY_STORAGE: StorageFaultSpec(
                    transient_prob=1.0, max_errors=1, error_timeout_s=0.5
                )
            },
            retry=RetrySpec(max_attempts=4, base_backoff_s=0.1),
        )
        inj = FaultInjector(plan)
        penalty = inj.sync_penalty(1, "s3", 10.0, 2.0)
        assert penalty.n_transient == 1
        assert not penalty.exhausted
        assert penalty.extra_s >= 0.5  # timeout plus a positive backoff
        kinds = inj.ledger.counts()
        assert kinds["storage-transient"] == 1
        assert kinds["retry"] == 1

    def test_transient_episode_exhausts_retry_budget(self):
        plan = FaultPlan(
            storage={ANY_STORAGE: StorageFaultSpec(transient_prob=1.0)},
            retry=RetrySpec(max_attempts=1),
        )
        inj = FaultInjector(plan)
        penalty = inj.sync_penalty(1, "s3", 0.0, 2.0)
        assert penalty.exhausted
        assert "retry-exhausted" in inj.ledger.counts()

    def test_throttle_window_stretches_overlap(self):
        window = ThrottleWindow(start_s=0.0, duration_s=100.0, slowdown=3.0)
        plan = FaultPlan(
            storage={ANY_STORAGE: StorageFaultSpec(throttle_windows=(window,))}
        )
        inj = FaultInjector(plan)
        penalty = inj.sync_penalty(1, "s3", 10.0, 4.0)
        assert penalty.throttled_s == pytest.approx(8.0)  # 4 s at 3x
        assert penalty.extra_s == pytest.approx(8.0)
        assert inj.ledger.counts() == {"storage-throttle": 1}
        outside = inj.sync_penalty(2, "s3", 500.0, 4.0)
        assert outside.throttled_s == 0.0

    def test_stage_penalty_uses_same_model(self):
        plan = FaultPlan(
            storage={
                ANY_STORAGE: StorageFaultSpec(
                    throttle_windows=(
                        ThrottleWindow(start_s=0.0, duration_s=50.0, slowdown=2.0),
                    )
                )
            }
        )
        a = FaultInjector(plan, seed=0)
        b = FaultInjector(plan, seed=0)
        assert a.stage_penalty(3, "s3", 0.0, 10.0) == b.sync_penalty(
            3, "s3", 0.0, 10.0
        )


class TestPermanentLoss:
    def test_losses_fire_once_at_their_epoch(self):
        loss = PermanentLoss(epoch=3, rank=1)
        inj = FaultInjector(FaultPlan(permanent_loss=(loss,)))
        assert inj.pending_losses(2, n_functions=8) == []
        assert inj.pending_losses(3, n_functions=8) == [loss]
        assert inj.pending_losses(5, n_functions=8) == [loss]  # still due
        inj.mark_loss_handled(loss)
        assert inj.pending_losses(5, n_functions=8) == []

    def test_loss_outside_gang_ignored(self):
        inj = FaultInjector(
            FaultPlan(permanent_loss=(PermanentLoss(epoch=1, rank=10),))
        )
        assert inj.pending_losses(4, n_functions=8) == []
        assert inj.pending_losses(4, n_functions=11) != []


class TestLedgerRecording:
    def test_record_splits_faults_from_recoveries(self):
        inj = FaultInjector(_crashy())
        inj.record("crash", 1.0, epoch=1, rank=0, attempt=0, lost_s=2.0)
        inj.record("retry", 1.5, epoch=1, rank=0, attempt=1, lost_s=0.5)
        summary = inj.ledger.summary()
        assert summary["n_faults"] == 1
        assert summary["n_recoveries"] == 1
        assert summary["fault_time_s"] == pytest.approx(2.0)
        assert summary["recovery_time_s"] == pytest.approx(0.5)


class TestIncarnationSalting:
    """Every retry-path draw is salted by incarnation: a job restored more
    than once at the same epoch boundary must see *distinct* fault
    streams, or the second restore deterministically replays the first
    restore's failures (the bug this class pins)."""

    def test_cold_window_factor_salted(self):
        inj = FaultInjector(FaultPlan(cold_start_failure_prob=1.0), seed=0)
        site = (3, 1, 0, 0, 0.25)  # epoch, rank, attempt, k, sigma
        assert inj.cold_window_factor(*site, incarnation=0) != (
            inj.cold_window_factor(*site, incarnation=1)
        )
        # Default incarnation is the first incarnation, and draws are
        # stateless: the same site always yields the same factor.
        assert inj.cold_window_factor(*site) == (
            inj.cold_window_factor(*site, incarnation=0)
        )

    def test_retry_compute_factor_salted(self):
        inj = FaultInjector(_crashy(), seed=0)
        site = (3, 1, 1, 0.2)  # epoch, rank, attempt, sigma
        assert inj.retry_compute_factor(*site, incarnation=0) != (
            inj.retry_compute_factor(*site, incarnation=1)
        )
        assert inj.retry_compute_factor(*site) == (
            inj.retry_compute_factor(*site, incarnation=0)
        )

    def test_sync_backoff_salted(self):
        plan = FaultPlan(
            storage={
                ANY_STORAGE: StorageFaultSpec(
                    transient_prob=1.0, error_timeout_s=1.0, max_errors=2
                )
            },
            retry=RetrySpec(max_attempts=4, jitter=0.5),
        )
        inj = FaultInjector(plan, seed=0)
        first = inj.sync_penalty(2, "s3", 0.0, 10.0, incarnation=0)
        second = inj.sync_penalty(2, "s3", 0.0, 10.0, incarnation=1)
        replay = inj.sync_penalty(2, "s3", 0.0, 10.0, incarnation=0)
        assert first == replay  # stateless: same site, same penalty
        assert first != second  # salted: a restored sync draws fresh

    def test_draw_sequence_pinned_across_incarnations(self):
        """Regression pin: the full retry-path draw sequence for one site
        grid is a pure function of (seed, site, incarnation) — repeated
        sweeps reproduce it exactly, and no incarnation aliases another."""
        inj = FaultInjector(_crashy(cold_start_failure_prob=1.0), seed=7)

        def sweep(incarnation):
            return [
                (
                    inj.cold_window_factor(e, r, 0, k, 0.25, incarnation),
                    inj.retry_compute_factor(e, r, 1, 0.2, incarnation),
                )
                for e in range(1, 4)
                for r in range(4)
                for k in range(2)
            ]

        sequences = {}
        for incarnation in range(3):
            seq = sweep(incarnation)
            assert seq == sweep(incarnation)
            sequences[incarnation] = tuple(seq)
        assert len(set(sequences.values())) == 3
