"""Property-style chaos determinism: random plans, byte-identical runs.

Fifty seeded random :class:`FaultPlan`s are each executed twice on the
unified kernel; every pair must produce byte-identical fault ledgers,
event logs (dispatch counts and clock values), and run ids. A second
class kills a journaled CLI run at a seeded-random epoch boundary and
checks ``repro resume`` finishes it to a bundle byte-identical to the
uninterrupted run; a third layers an invocation timeout and a storage
throttle window on such a kill.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.common.errors import FaultError, ReproError, RetryExhaustedError
from repro.faas.platform import EpochExecution, FaaSPlatform
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    ANY_STORAGE,
    FaultPlan,
    PermanentLoss,
    RetrySpec,
    StorageFaultSpec,
    ThrottleWindow,
)
from repro.kernel import RunJournal
from repro.runs import ProvenanceStamp, RunBundle
from repro.tuning.plan import Objective
from repro.workflow.job import training_envelope
from repro.workflow.runner import run_training

N_PLANS = 50
N_EPOCHS = 8


def _random_plan(seed: int) -> FaultPlan:
    """A seeded random plan covering every fault axis the schema offers."""
    rng = np.random.default_rng(seed)
    storage = {}
    if rng.random() < 0.5:
        windows = ()
        if rng.random() < 0.5:
            windows = (
                ThrottleWindow(
                    start_s=float(rng.uniform(0.0, 60.0)),
                    duration_s=float(rng.uniform(5.0, 60.0)),
                    slowdown=float(rng.uniform(1.5, 4.0)),
                ),
            )
        storage[ANY_STORAGE] = StorageFaultSpec(
            transient_prob=float(rng.uniform(0.0, 0.4)),
            max_errors=int(rng.integers(1, 3)),
            error_timeout_s=float(rng.uniform(0.1, 1.5)),
            throttle_windows=windows,
        )
    losses = ()
    if rng.random() < 0.3:
        losses = (PermanentLoss(epoch=int(rng.integers(2, N_EPOCHS)), rank=0),)
    return FaultPlan(
        name=f"chaos-{seed}",
        crash_prob=float(rng.uniform(0.0, 0.35)),
        crash_mid_fraction=float(rng.random()),
        invocation_timeout_s=(
            float(rng.uniform(8.0, 40.0)) if rng.random() < 0.4 else None
        ),
        cold_start_failure_prob=float(rng.uniform(0.0, 0.3)),
        storage=storage,
        permanent_loss=losses,
        retry=RetrySpec(
            max_attempts=int(rng.integers(3, 6)),
            jitter=float(rng.uniform(0.0, 0.5)),
        ),
    )


def _spec(epoch: int, incarnation: int = 0) -> EpochExecution:
    return EpochExecution(
        group="chaos", n_functions=4, memory_mb=1769, load_s=1.0,
        compute_s=5.0, sync_s=2.0, epoch_index=epoch, storage="s3",
        incarnation=incarnation,
    )


def _execute(plan: FaultPlan, seed: int):
    """(ledger JSON bytes, event log, run id) for one kernel execution."""
    injector = FaultInjector(plan, seed=seed)
    platform = FaaSPlatform(seed=seed, fault_injector=injector)
    events = []
    for epoch in range(1, N_EPOCHS + 1):
        incarnation = 0
        while True:
            try:
                result = platform.execute_epoch(_spec(epoch, incarnation))
            except RetryExhaustedError:
                # The executor's restore path: bump the incarnation and
                # re-run this epoch (bounded — salted draws mean chance,
                # not certainty, on every re-run).
                events.append(
                    ("retry-exhausted", platform.sim.now,
                     platform.sim.events_processed)
                )
                incarnation += 1
                if incarnation > 3:
                    break
                continue
            except FaultError:
                events.append(
                    ("permanent-loss", platform.sim.now,
                     platform.sim.events_processed)
                )
                break
            events.append(
                ("epoch", platform.sim.now, platform.sim.events_processed,
                 platform.noise_draws, result.wall_time_s, result.billed_usd,
                 result.n_faults, result.fault_overhead_s)
            )
            break
    stamp = ProvenanceStamp.collect(
        "chaos-determinism", workload="synthetic", seed=seed
    )
    ledger_json = injector.ledger.to_json(plan.to_payload(), meta=stamp)
    bundle = RunBundle(stamp, {"faults": ledger_json})
    return ledger_json, events, bundle.run_id


class TestFiftyRandomPlansTwice:
    @pytest.mark.parametrize("seed", range(N_PLANS))
    def test_pair_is_byte_identical(self, seed):
        plan = _random_plan(seed)
        first = _execute(plan, seed)
        second = _execute(plan, seed)
        ledger_a, events_a, run_a = first
        ledger_b, events_b, run_b = second
        assert ledger_a.encode() == ledger_b.encode()
        assert events_a == events_b  # == on floats: bitwise, not approx
        assert run_a == run_b

    def test_plans_actually_differ(self):
        payloads = {json.dumps(_random_plan(s).to_payload(), sort_keys=True)
                    for s in range(N_PLANS)}
        assert len(payloads) == N_PLANS

    def test_plans_inject_something(self):
        ledgers = [
            _execute(_random_plan(seed), seed)[0] for seed in range(0, 10)
        ]
        assert any(json.loads(text)["summary"]["n_faults"] > 0
                   for text in ledgers)


class TestTrainingPairsUnderRandomPlans:
    # Seed 11's plan is fatal (restore budget exhausted); 23 and 47
    # complete. Both outcomes must reproduce byte-for-byte.
    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_full_training_run_is_reproducible(self, seed, lr_higgs, lr_profile):
        plan = _random_plan(seed)
        budget = training_envelope(lr_higgs, lr_profile).budget(2.5)

        def go():
            try:
                run = run_training(
                    lr_higgs, objective=Objective.MIN_JCT_GIVEN_BUDGET,
                    budget_usd=budget, seed=seed, profile=lr_profile,
                    fault_plan=plan, max_epochs=10,
                )
            except ReproError as exc:
                # A fatal plan is fine as long as it dies identically:
                # same error, same message, same simulated timestamp.
                return ("fatal", type(exc).__name__, str(exc))
            return (
                "ok", run.result.jct_s, run.result.cost_usd,
                len(run.result.epochs),
                run.fault_ledger.to_json(plan.to_payload()),
            )

        a, b = go(), go()
        assert a == b  # == on floats: bitwise, not approx

    def test_at_least_one_seed_completes(self, lr_higgs, lr_profile):
        # Guard against every sampled plan being fatal, which would turn
        # the pair test above into a vacuous crash-comparison.
        budget = training_envelope(lr_higgs, lr_profile).budget(2.5)
        for seed in (23, 47):
            run = run_training(
                lr_higgs, objective=Objective.MIN_JCT_GIVEN_BUDGET,
                budget_usd=budget, seed=seed, profile=lr_profile,
                fault_plan=_random_plan(seed), max_epochs=10,
            )
            assert run.result.epochs


class TestKillAtRandomEpoch:
    def test_resume_matches_uninterrupted_bundle(self, tmp_path, capsys):
        journal = tmp_path / "run.journal"
        store = tmp_path / "store"
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(FaultPlan.default_profile().to_json())
        assert main([
            "train", "lr-higgs", "--seed", "5",
            "--journal", str(journal), "--save-run", str(store),
            "--faults", str(plan_path),
        ]) == 0
        capsys.readouterr()
        finished = journal.read_bytes()
        manifests = sorted((store / "manifests").glob("*.json"))
        assert len(manifests) == 1

        lines = finished.decode().splitlines()
        n_epochs = sum(1 for s in lines if '"kind": "epoch"' in s)
        rng = np.random.default_rng(5)
        for kill_epoch in sorted(
            int(e) for e in rng.integers(1, n_epochs, size=3)
        ):
            # SIGKILL mid-epoch: keep `kill_epoch` fsynced records plus a
            # torn half-line, then resume against the same store.
            kept = lines[: 1 + kill_epoch]
            torn = lines[1 + kill_epoch][: 30 + kill_epoch]
            journal.write_bytes(("\n".join(kept) + "\n" + torn).encode())
            assert main(["resume", str(journal)]) == 0
            capsys.readouterr()
            assert journal.read_bytes() == finished
            assert sorted((store / "manifests").glob("*.json")) == manifests


class TestCombinedTimeoutThrottleKill:
    """Three fault axes at once: an invocation timeout, a long storage
    throttle window, and a simulated SIGKILL at the half-way epoch of a
    journaled run (half the epoch records kept plus a torn line), then a
    resume. The resumed run stays within 2x the fault-free JCT and its
    journal matches the uninterrupted run's byte for byte."""

    PLAN = FaultPlan(
        name="combined-timeout-throttle-kill",
        invocation_timeout_s=30.0,
        storage={
            ANY_STORAGE: StorageFaultSpec(
                transient_prob=0.05,
                max_errors=2,
                error_timeout_s=1.0,
                throttle_windows=(
                    ThrottleWindow(start_s=10.0, duration_s=300.0,
                                   slowdown=2.0),
                ),
            )
        },
    )

    def test_resumed_run_within_bound_and_byte_identical(
        self, tmp_path, lr_higgs, lr_profile
    ):
        budget = training_envelope(lr_higgs, lr_profile).budget(2.5)

        def train(wal):
            run = run_training(
                lr_higgs, budget_usd=budget, seed=0, profile=lr_profile,
                fault_plan=self.PLAN, journal=wal,
            )
            wal.commit()
            return run.result

        clean = run_training(
            lr_higgs, budget_usd=budget, seed=0, profile=lr_profile
        ).result
        journal = tmp_path / "combined.journal"
        header = {"command": "combined-chaos", "workload": lr_higgs.name}
        with RunJournal.create(journal, run=header) as wal:
            train(wal)
        finished = journal.read_bytes()

        lines = finished.decode().splitlines()
        n_epochs = sum(1 for s in lines if '"kind": "epoch"' in s)
        kept = lines[: 1 + n_epochs // 2]
        torn = lines[1 + n_epochs // 2][:40]
        journal.write_bytes(("\n".join(kept) + "\n" + torn).encode())
        with RunJournal.open_resume(journal) as wal:
            resumed = train(wal)

        assert journal.read_bytes() == finished
        assert resumed.jct_s <= 2.0 * clean.jct_s
        assert resumed.extra["faults"]["n_faults"] > 0
