"""End-to-end resilience: faulted epochs, recovery, and byte-identity."""

import json

import pytest

from repro.common.errors import CheckpointError, FaultError, RetryExhaustedError
from repro.config import PlatformConfig
from repro.experiments.harness import get_scale
from repro.faas.noise import NoiseModel
from repro.faas.platform import EpochExecution, FaaSPlatform
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    ANY_STORAGE,
    FaultPlan,
    PermanentLoss,
    RetrySpec,
    StorageFaultSpec,
)
from repro.ml.models import workload
from repro.tuning.plan import Objective
from repro.workflow.job import training_envelope
from repro.workflow.runner import profile_workload, run_training


def _spec(n=4, epoch=1, incarnation=0, compute=5.0):
    return EpochExecution(
        group="g", n_functions=n, memory_mb=1769, load_s=1.0,
        compute_s=compute, sync_s=2.0, epoch_index=epoch,
        storage="s3", incarnation=incarnation,
    )


def _platform(plan, seed=0):
    injector = FaultInjector(plan, seed=seed)
    return FaaSPlatform(seed=seed, fault_injector=injector), injector


class TestFaultyEpochs:
    def test_crashes_recovered_by_retry(self):
        clean = FaaSPlatform(seed=0).execute_epoch(_spec())
        platform, injector = _platform(FaultPlan(crash_prob=0.3))
        result = platform.execute_epoch(_spec())
        counts = injector.ledger.counts()
        assert counts.get("crash", 0) >= 1
        assert counts.get("retry", 0) >= 1
        assert "retry-exhausted" not in counts
        assert result.n_faults >= 1
        assert result.fault_overhead_s > 0.0
        # Recovery costs simulated time and bills the failed attempts.
        assert result.wall_time_s > clean.wall_time_s
        assert result.billed_usd > clean.billed_usd

    def test_gang_retry_exhaustion(self):
        platform, injector = _platform(
            FaultPlan(crash_prob=1.0, retry=RetrySpec(max_attempts=2))
        )
        with pytest.raises(RetryExhaustedError) as exc_info:
            platform.execute_epoch(_spec())
        assert exc_info.value.scope == "train"
        counts = injector.ledger.counts()
        assert counts["crash"] == 4 * 2  # every worker burned both attempts
        assert counts["retry-exhausted"] == 4

    def test_timeout_enforced(self):
        plan = FaultPlan(
            invocation_timeout_s=2.0, retry=RetrySpec(max_attempts=2)
        )
        platform, injector = _platform(plan)
        # Planned body (load 1 s + compute 5 s) always exceeds the limit.
        with pytest.raises(RetryExhaustedError):
            platform.execute_epoch(_spec())
        counts = injector.ledger.counts()
        assert counts["timeout"] == 4 * 2
        for rec in injector.ledger.records:
            if rec.kind == "timeout":
                assert rec.lost_s == pytest.approx(2.0)

    def test_generous_timeout_never_fires(self):
        plan = FaultPlan(invocation_timeout_s=10_000.0)
        platform, injector = _platform(plan)
        platform.execute_epoch(_spec())
        assert "timeout" not in injector.ledger.counts()

    def test_storage_exhaustion_fails_gang(self):
        plan = FaultPlan(
            storage={
                ANY_STORAGE: StorageFaultSpec(transient_prob=1.0, max_errors=2)
            },
            retry=RetrySpec(max_attempts=1),
        )
        platform, injector = _platform(plan)
        with pytest.raises(RetryExhaustedError, match="storage"):
            platform.execute_epoch(_spec())
        assert "retry-exhausted" in injector.ledger.counts()

    def test_permanent_loss_surfaces_fault_error(self):
        loss = PermanentLoss(epoch=2, rank=0)
        platform, injector = _platform(FaultPlan(permanent_loss=(loss,)))
        platform.execute_epoch(_spec(epoch=1))  # before the loss: clean
        with pytest.raises(FaultError) as exc_info:
            platform.execute_epoch(_spec(epoch=2))
        assert exc_info.value.losses == (loss,)
        assert injector.ledger.counts()["permanent-loss"] == 1
        # The loss fires once; a replanned gang can run the epoch.
        platform.execute_epoch(_spec(epoch=2, incarnation=1))

    def test_cold_start_failures_burn_extra_windows(self):
        plan = FaultPlan(cold_start_failure_prob=1.0, retry=RetrySpec(max_attempts=2))
        platform, injector = _platform(plan)
        result = platform.execute_epoch(_spec())
        assert injector.ledger.counts()["cold-start-failure"] == 4 * 2
        assert result.n_faults == 4 * 2


class TestColdStartSigmaConfig:
    def test_platform_field_drives_noise_model(self):
        quiet = PlatformConfig(cold_start_noise_sigma=0.0)
        noise = NoiseModel(seed=0, platform=quiet)
        assert noise.cold_start_sigma == 0.0
        assert noise.cold_start_factor() == pytest.approx(1.0)

    def test_injector_cold_windows_follow_sigma(self):
        inj = FaultInjector(FaultPlan(cold_start_failure_prob=1.0))
        assert inj.cold_window_factor(1, 0, 0, 0, 0.0) == 1.0
        assert inj.cold_window_factor(1, 0, 0, 0, 0.25) != 1.0


def _chaos_run(workload, profile, plan, seed=0, budget_multiple=2.5):
    budget = training_envelope(workload, profile).budget(budget_multiple)
    return run_training(
        workload,
        method="ce-scaling",
        objective=Objective.MIN_JCT_GIVEN_BUDGET,
        budget_usd=budget,
        seed=seed,
        profile=profile,
        fault_plan=plan,
    )


class TestResilientTraining:
    def test_default_profile_completes_with_recovery(self, lr_higgs, lr_profile):
        clean = _chaos_run(lr_higgs, lr_profile, None)
        chaos = _chaos_run(lr_higgs, lr_profile, FaultPlan.default_profile())
        c, f = clean.result, chaos.result
        assert f.converged
        # Acceptance bound from the chaos matrix: faults inflate the JCT,
        # but recovery keeps the job under 2x the fault-free run.
        assert c.jct_s < f.jct_s <= 2.0 * c.jct_s
        summary = f.extra["faults"]
        assert summary["n_faults"] > 0 and summary["n_recoveries"] > 0
        # The epoch-5 permanent loss forced a degraded re-selection.
        assert summary["degraded_allocations"] >= 1
        assert f.n_restarts >= 1
        assert chaos.fault_ledger.counts()["permanent-loss"] == 1
        assert "degraded-allocation" in chaos.fault_ledger.counts()

    @pytest.mark.parametrize(
        "name", [w for w in get_scale("tiny").workloads if w != "lr-higgs"]
    )
    def test_default_profile_chaos_matrix(self, name):
        """The rest of the chaos matrix (lr-higgs is the test above): every
        tiny-scale Fig-12 workload completes under the default profile,
        faults are injected, and the JCT stays within 2x fault-free."""
        w = workload(name)
        profile = profile_workload(w)
        clean = _chaos_run(w, profile, None).result
        chaos = _chaos_run(w, profile, FaultPlan.default_profile()).result
        assert chaos.converged
        assert chaos.jct_s <= 2.0 * clean.jct_s
        assert chaos.extra["faults"]["n_faults"] > 0

    def test_same_seed_same_plan_identical(self, lr_higgs, lr_profile):
        plan = FaultPlan.default_profile()
        a = _chaos_run(lr_higgs, lr_profile, plan)
        b = _chaos_run(lr_higgs, lr_profile, plan)
        assert a.result.jct_s == b.result.jct_s
        assert a.result.cost_usd == b.result.cost_usd
        assert json.dumps(a.fault_ledger.to_payload(), sort_keys=True) == \
            json.dumps(b.fault_ledger.to_payload(), sort_keys=True)

    def test_seed_changes_fault_sequence(self, lr_higgs, lr_profile):
        plan = FaultPlan.default_profile()
        a = _chaos_run(lr_higgs, lr_profile, plan, seed=0)
        b = _chaos_run(lr_higgs, lr_profile, plan, seed=1)
        assert [r.to_payload() for r in a.fault_ledger.records] != \
            [r.to_payload() for r in b.fault_ledger.records]

    def test_empty_plan_byte_identical_to_no_plan(self, lr_higgs, lr_profile):
        bare = _chaos_run(lr_higgs, lr_profile, None)
        empty = _chaos_run(lr_higgs, lr_profile, FaultPlan())
        assert empty.fault_ledger is None  # no injector was even built
        a, b = bare.result, empty.result
        assert (a.jct_s, a.cost_usd, a.n_restarts, a.converged) == \
            (b.jct_s, b.cost_usd, b.n_restarts, b.converged)
        assert [(e.index, e.loss, e.time.total_s, e.cost.total_usd)
                for e in a.epochs] == \
            [(e.index, e.loss, e.time.total_s, e.cost.total_usd)
             for e in b.epochs]
        assert "faults" not in b.extra

    def test_checkpoint_restore_path(self, lr_higgs, lr_profile):
        """Storage exhaustion fails whole epochs; the executor restores
        the epoch-boundary checkpoint and re-runs only the failed epoch."""
        plan = FaultPlan(
            name="sync-killer",
            storage={
                ANY_STORAGE: StorageFaultSpec(
                    transient_prob=0.3, max_errors=4, error_timeout_s=0.2
                )
            },
            retry=RetrySpec(max_attempts=4, base_backoff_s=0.05),
        )
        run = _chaos_run(lr_higgs, lr_profile, plan)
        summary = run.result.extra["faults"]
        assert summary["checkpoint_restores"] >= 1
        assert summary["restore_overhead_s"] > 0.0
        assert run.result.converged

    def test_restore_budget_exhaustion_raises(self, lr_higgs, lr_profile):
        plan = FaultPlan(
            name="sync-always-dead",
            storage={ANY_STORAGE: StorageFaultSpec(transient_prob=1.0)},
            retry=RetrySpec(max_attempts=1),
        )
        with pytest.raises(CheckpointError):
            _chaos_run(lr_higgs, lr_profile, plan)
