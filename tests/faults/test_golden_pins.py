"""Golden pins for the faulted execution path and the fault-free refit.

The chaos-determinism tests compare a run only with a second run, so a
draw that drifts *deterministically* would pass them. These tests hash
a faulted run's full outcome — the fault ledger (without the provenance
``meta``), the clock, the event count and the bill — against constants
recorded before the fault draws were batched. Any change to a keyed
draw, a decision rule or the billing order moves a hash.

The permanent-loss pin covers the detection window: the ``FaultError``
text, the clock and the event count it leaves, and the epochs after the
loss. The journaled-run pin hashes every epoch record and journal
boundary of a faulted training run.

The refit pins do the same for Algorithm 2 without faults: each hashes
a training run's per-epoch allocations and restarts, its JCT and cost,
and the scheduler's raw prediction history, recorded before the loss
curve refit was restacked. A fit that drifts by one bit moves them.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.common.errors import FaultError, RetryExhaustedError
from repro.faas.platform import EpochExecution, FaaSPlatform
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, PermanentLoss, RetrySpec
from repro.kernel import RunJournal
from repro.tuning.plan import Objective
from repro.workflow.job import training_envelope
from repro.workflow.runner import run_training

TRAINING_PIN = "d23fdafc123b8bd3aafc7fc16dd99ee9259f147d6de6acdde1786d97c9163d1b"
ALWAYS_FAIL_PIN = "fbb2b9a8147e3c54337360d95a0cda6670250c44d9afaf3126f95498149417c5"
MIXED_GANG_PIN = "5d060024edfe3a0e47afc7f488396b707c6e9ac275f4bf293d6e528f25026e6d"
PERMANENT_LOSS_PIN = "98e20d8e18a0a6fe2e3b191a32888ba54b5481ffc24704af71ff0cfa3497e179"
JOURNALED_RUN_PIN = "49cec07bd2c203ba45a0b18f285c7e5d22fcd44b60478ba730482a0ffa216ddc"
EXAMPLE_PLAN = Path(__file__).resolve().parents[2] / "examples" / "fault_plan.json"
REFIT_PINS = {
    ("lr-higgs", "ce-scaling"):
        "8795bfebed825a2230562f7836f580822440d07683840973ed8ff047cc908ac3",
    ("lr-higgs", "cirrus"):
        "94fd9b1917aec9231cee4350acca8e6ea32d57c6210d0c2414c6ee103f0eae3a",
    ("mobilenet-cifar10", "ce-scaling"):
        "7ac929853e687042d410807c91aae21fe786f1fbc29696b7f4e512f5358a9944",
    ("mobilenet-cifar10", "cirrus"):
        "e6bae106a5a6630f033560a17e5389fdcc964b712247a75b506a7d5465a18ca8",
}


def _digest(*parts: object) -> str:
    text = "\n".join(p if isinstance(p, str) else repr(p) for p in parts)
    return hashlib.sha256(text.encode()).hexdigest()


def _gang_digest(plan: FaultPlan, seed: int, n: int, epochs: int) -> str:
    """Hash of ``epochs`` gang epochs of ``n`` ranks under ``plan``."""
    injector = FaultInjector(plan, seed=seed)
    platform = FaaSPlatform(seed=seed, fault_injector=injector)
    outcomes = []
    for epoch in range(1, epochs + 1):
        spec = EpochExecution(
            group="pin", n_functions=n, memory_mb=1769, load_s=1.0,
            compute_s=5.0, sync_s=2.0, epoch_index=epoch, storage="s3",
        )
        try:
            r = platform.execute_epoch(spec)
            outcomes.append((r.wall_time_s, r.billed_usd, r.n_faults,
                             r.fault_overhead_s, r.worker_durations_s))
        except RetryExhaustedError as exc:
            outcomes.append(("exhausted", str(exc)))
        except FaultError as exc:
            sim = platform.sim
            outcomes.append(("lost", str(exc), sim.now, sim.events_processed))
    meter = platform.meter
    return _digest(
        injector.ledger.to_json(plan.to_payload()), outcomes,
        platform.sim.now, platform.sim.events_processed, platform.noise_draws,
        meter.compute_usd, meter.invocation_usd, meter.invocation_count,
    )


def _training_digest(run) -> str:
    """Hash of a run's decisions, JCT, cost and raw prediction history."""
    # Modified Cirrus wraps an AdaptiveScheduler; both keep the history.
    scheduler = getattr(run.scheduler, "_inner", run.scheduler)
    history = scheduler._prediction_history
    assert history, "the run never refit"
    return _digest(
        [(e.allocation.describe(), e.restarted) for e in run.result.epochs],
        repr(run.result.jct_s), repr(run.result.cost_usd), history,
    )


def test_training_under_default_profile(lr_higgs, lr_profile):
    plan = FaultPlan.default_profile()
    run = run_training(
        lr_higgs, objective=Objective.MIN_JCT_GIVEN_BUDGET,
        budget_usd=training_envelope(lr_higgs, lr_profile).budget(2.5),
        seed=7, profile=lr_profile, fault_plan=plan,
    )
    assert _digest(
        run.fault_ledger.to_json(plan.to_payload()),
        run.result.jct_s, run.result.cost_usd, len(run.result.epochs),
    ) == TRAINING_PIN


def test_gang_where_every_attempt_fails():
    plan = FaultPlan(
        name="always-fail", crash_prob=1.0, crash_mid_fraction=0.5,
        cold_start_failure_prob=1.0, retry=RetrySpec(base_backoff_s=0.1),
    )
    assert _gang_digest(plan, seed=3, n=12, epochs=2) == ALWAYS_FAIL_PIN


def test_gang_with_survivors_and_timeouts():
    plan = FaultPlan(
        name="mixed", crash_prob=0.3, crash_mid_fraction=0.5,
        cold_start_failure_prob=0.3, invocation_timeout_s=7.5,
        retry=RetrySpec(max_attempts=4, base_backoff_s=0.1, jitter=0.3),
    )
    assert _gang_digest(plan, seed=11, n=24, epochs=6) == MIXED_GANG_PIN


def test_gang_with_permanent_loss_and_crashes():
    plan = FaultPlan(
        name="loss", crash_prob=0.2, crash_mid_fraction=0.5,
        cold_start_failure_prob=0.2, invocation_timeout_s=9.0,
        retry=RetrySpec(max_attempts=4, base_backoff_s=0.1, jitter=0.3),
        permanent_loss=(PermanentLoss(epoch=3, rank=2),
                        PermanentLoss(epoch=3, rank=5)),
    )
    assert _gang_digest(plan, seed=5, n=16, epochs=6) == PERMANENT_LOSS_PIN


def test_journaled_faulted_training(lr_higgs, lr_profile, tmp_path):
    path = tmp_path / "run.journal"
    with RunJournal.create(path, run={}) as journal:
        run = run_training(
            lr_higgs, objective=Objective.MIN_JCT_GIVEN_BUDGET,
            budget_usd=training_envelope(lr_higgs, lr_profile).budget(2.0),
            seed=0, profile=lr_profile, fault_plan=EXAMPLE_PLAN,
            journal=journal,
        )
    boundaries = [
        line for line in path.read_text().splitlines()
        if json.loads(line)["kind"] == "epoch"
    ]
    records = [
        (e.index, e.allocation.describe(), e.time, e.cost, e.loss,
         e.scheduling_overhead_s, e.restarted, e.hidden_restart_overlap_s,
         e.cold_start_s, e.wall_s, e.worker_durations_s)
        for e in run.result.epochs
    ]
    kinds = run.fault_ledger.counts()
    assert kinds.get("permanent-loss") and kinds.get("crash")
    assert _digest(
        records, boundaries, [r.to_payload() for r in run.fault_ledger.records],
        run.result.jct_s, run.result.cost_usd,
    ) == JOURNALED_RUN_PIN


@pytest.mark.parametrize("method", ["ce-scaling", "cirrus"])
def test_refit_path_lr_higgs_min_jct(method, lr_higgs, lr_profile):
    run = run_training(
        lr_higgs, method=method, objective=Objective.MIN_JCT_GIVEN_BUDGET,
        budget_usd=training_envelope(lr_higgs, lr_profile).budget(2.5),
        seed=3, profile=lr_profile,
    )
    assert _training_digest(run) == REFIT_PINS["lr-higgs", method]


@pytest.mark.parametrize("method", ["ce-scaling", "cirrus"])
def test_refit_path_mobilenet_min_cost(method, mobilenet, mobilenet_profile):
    run = run_training(
        mobilenet, method=method, objective=Objective.MIN_COST_GIVEN_QOS,
        qos_s=training_envelope(mobilenet, mobilenet_profile).qos(2.5),
        seed=3, profile=mobilenet_profile,
    )
    assert _training_digest(run) == REFIT_PINS["mobilenet-cifar10", method]
