"""The faulted epoch against the every-rank gang it replaced.

``KernelGangPlatform`` keeps the faulted epoch as it ran before only the
faulty ranks became kernel processes: one ``worker_proc`` per rank, every
healthy rank's planned attempt dispatched as a kernel sleep. The platform
must reproduce it bit for bit: clock, event count, every result field,
the fault ledger in order, meter, noise cursor, warm pool, and the
raised error with its message.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import FaultError, RetryExhaustedError
from repro.common.types import EpochTimeBreakdown
from repro.faas.platform import EpochExecution, FaaSPlatform, InvocationResult
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    ANY_STORAGE,
    FaultPlan,
    PermanentLoss,
    RetrySpec,
    StorageFaultSpec,
    ThrottleWindow,
)
from repro.kernel import Join

from tests.faas.test_closed_form import _state


class KernelGangPlatform(FaaSPlatform):
    """Reference: the faulted epoch with one kernel process per rank."""

    def _execute_gang(self, spec: EpochExecution, injector) -> InvocationResult:
        sim = self.sim
        start = sim.now
        epoch = spec.epoch_index
        incarnation = spec.incarnation
        cold_base = self.platform.limits.cold_start_s

        losses = injector.pending_losses(epoch, spec.n_functions)
        if losses:
            detect_s = injector.plan.invocation_timeout_s or cold_base
            sim.schedule(detect_s, lambda: None)
            sim.run()
            for loss in losses:
                injector.record(
                    "permanent-loss", sim.now, epoch=epoch, rank=loss.rank,
                    lost_s=detect_s,
                    detail=f"instance gone since epoch {loss.epoch}",
                )
                injector.mark_loss_handled(loss)
            exc = FaultError(
                f"permanent loss of {len(losses)} function instance(s) "
                f"at epoch {epoch}",
                scope=injector.scope, t_s=sim.now,
            )
            exc.losses = tuple(losses)
            raise exc

        n_warm, n_cold, cold_s, compute_factors, load_factor, sync_factor = (
            self._launch(spec)
        )
        injector.predraw_gang(epoch, spec.n_functions, n_warm, incarnation)
        retry = injector.plan.retry
        timeout_s = injector.plan.invocation_timeout_s
        cold_sigma = self.platform.cold_start_noise_sigma

        starts = [0.0] * spec.n_functions
        durations = [0.0] * spec.n_functions
        consumed = [0.0] * spec.n_functions
        failed = [False] * spec.n_functions
        extra_attempts: list[float] = []
        extra_cold = [0]
        cold_failures = [0]

        def worker_proc(rank: int):
            body_start = sim.now
            starts[rank] = body_start
            attempt = 0
            while attempt < retry.max_attempts:
                attempt_start = sim.now
                cold_here = 0.0
                if rank >= n_warm and attempt == 0:
                    n_csf = injector.cold_start_failures(
                        epoch, rank, attempt, incarnation
                    )
                    for k in range(n_csf):
                        window = cold_base * injector.cold_window_factor(
                            epoch, rank, attempt, k, cold_sigma, incarnation
                        )
                        yield window
                        extra_cold[0] += 1
                        cold_failures[0] += 1
                        injector.record(
                            "cold-start-failure", sim.now, epoch=epoch,
                            rank=rank, attempt=attempt, lost_s=window,
                        )
                    cold_here = cold_s
                if attempt == 0:
                    factor = float(compute_factors[rank])
                else:
                    factor = injector.retry_compute_factor(
                        epoch, rank, attempt, self.platform.compute_noise_sigma,
                        incarnation,
                    )
                body_s = spec.load_s * load_factor + spec.compute_s * factor
                planned = cold_here + body_s
                fault = injector.worker_fault(epoch, rank, attempt, incarnation)
                if fault is not None:
                    ran = cold_here + body_s * fault.run_fraction
                    yield ran
                    extra_attempts.append(ran)
                    injector.record(
                        "crash", sim.now, epoch=epoch, rank=rank,
                        attempt=attempt, lost_s=ran, detail=fault.kind,
                    )
                elif timeout_s is not None and planned > timeout_s:
                    yield timeout_s
                    extra_attempts.append(timeout_s)
                    injector.record(
                        "timeout", sim.now, epoch=epoch, rank=rank,
                        attempt=attempt, lost_s=timeout_s,
                        detail=f"planned {planned:.2f}s > {timeout_s:.2f}s limit",
                    )
                else:
                    yield planned
                    durations[rank] = sim.now - attempt_start
                    consumed[rank] = sim.now - body_start
                    return
                attempt += 1
                if attempt >= retry.max_attempts:
                    failed[rank] = True
                    consumed[rank] = sim.now - body_start
                    injector.record(
                        "retry-exhausted", sim.now, epoch=epoch, rank=rank,
                        attempt=attempt - 1,
                        detail=f"worker failed {attempt}x",
                    )
                    return
                backoff = injector.backoff_s(attempt, epoch, rank, incarnation)
                injector.record(
                    "retry", sim.now, epoch=epoch, rank=rank,
                    attempt=attempt, lost_s=backoff,
                )
                if backoff > 0.0:
                    yield backoff

        outcome: dict[str, float] = {}

        def epoch_driver():
            yield 0.0  # the gang's acquire step
            tasks = [sim.spawn(worker_proc(r)) for r in range(spec.n_functions)]
            yield Join.of(tasks)
            outcome["barrier_at"] = sim.now
            if not any(failed):
                sync_s = spec.sync_s * sync_factor
                penalty = injector.sync_penalty(
                    epoch, spec.storage, sim.now, sync_s, incarnation
                )
                if penalty.exhausted:
                    outcome["storage_failed"] = 1.0
                else:
                    yield sync_s + penalty.extra_s
                    outcome["sync_s"] = sync_s
                    outcome["sync_extra_s"] = penalty.extra_s
                    outcome["sync_faults"] = float(
                        penalty.n_transient + (1 if penalty.throttled_s else 0)
                    )
            yield 0.0  # the gang's release step

        driver = sim.spawn(epoch_driver())
        sim.run()
        assert driver.done

        sync_s = outcome.get("sync_s", 0.0)
        sync_extra = outcome.get("sync_extra_s", 0.0)
        gang_failed = any(failed) or "storage_failed" in outcome
        tail = 0.0 if gang_failed else sync_s
        billed = self.meter.bill_gang(spec.memory_mb, extra_attempts + [
            d + tail for d, lost in zip(durations, failed) if not lost
        ])
        n_faults = (
            len(extra_attempts)
            + cold_failures[0]
            + int(outcome.get("sync_faults", 0.0))
            + (1 if "storage_failed" in outcome else 0)
        )
        wall = self._finish_epoch(
            spec, start, n_cold, cold_s,
            spec.n_functions + len(extra_attempts), extra_cold[0],
        )
        if gang_failed:
            detail = (
                "storage sync retries exhausted"
                if "storage_failed" in outcome
                else f"{sum(failed)} worker(s) exhausted their retries"
            )
            raise RetryExhaustedError(
                f"epoch {epoch} failed: {detail}",
                scope=injector.scope, t_s=sim.now,
            )

        final_window = max(durations)
        gang_window = max(consumed)
        fault_overhead = max(0.0, gang_window - final_window) + sync_extra
        return InvocationResult(
            wall_time_s=wall,
            time=EpochTimeBreakdown(
                load_s=spec.load_s * load_factor,
                compute_s=final_window - cold_s - spec.load_s * load_factor,
                sync_s=sync_s + sync_extra,
            ),
            cold_starts=n_cold,
            billed_usd=billed,
            worker_durations_s=tuple(consumed),
            cold_start_s=cold_s,
            n_faults=n_faults,
            fault_overhead_s=fault_overhead,
        )


def _outcome(platform: FaaSPlatform, spec: EpochExecution) -> str:
    """The epoch's result or raised fault error, then everything it left
    behind, in a bit-exact form (repr)."""
    try:
        got = platform.execute_epoch(spec)
    except (RetryExhaustedError, FaultError) as exc:
        got = (type(exc).__name__, str(exc), exc.t_s)
    return repr((
        got, _state(platform), platform.fault_injector.ledger.records,
    ))


def _pair(plan: FaultPlan, seed: int, **kw) -> tuple[FaaSPlatform, FaaSPlatform]:
    return tuple(
        cls(seed=seed, fault_injector=FaultInjector(plan, seed=seed), **kw)
        for cls in (FaaSPlatform, KernelGangPlatform)
    )


prob = st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0])
storage = st.builds(
    StorageFaultSpec,
    transient_prob=st.floats(0.0, 1.0),
    max_errors=st.integers(1, 4),
    error_timeout_s=st.sampled_from([0.0, 0.5, 3.0]),
    throttle_windows=st.lists(
        st.builds(
            ThrottleWindow,
            start_s=st.floats(0.0, 200.0),
            duration_s=st.floats(1.0, 100.0),
            slowdown=st.floats(1.0, 5.0),
        ),
        max_size=2,
    ).map(tuple),
)
plans = st.builds(
    FaultPlan,
    crash_prob=prob,
    crash_mid_fraction=st.floats(0.0, 1.0),
    # Phases below run 0-30 s, cold starts about 2 s: the limits land
    # below, among and above the planned attempts.
    invocation_timeout_s=st.one_of(
        st.none(), st.sampled_from([0.5, 4.0, 15.0, 1e4]), st.floats(0.1, 40.0)
    ),
    cold_start_failure_prob=prob,
    storage=st.one_of(st.just({}), storage.map(lambda s: {ANY_STORAGE: s})),
    permanent_loss=st.lists(
        st.builds(PermanentLoss, epoch=st.integers(1, 4), rank=st.integers(0, 8)),
        max_size=1,
    ).map(tuple),
    retry=st.builds(
        RetrySpec,
        max_attempts=st.integers(1, 4),
        base_backoff_s=st.sampled_from([0.0, 0.5]),
        jitter=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    ),
)
# Mostly nonzero phases: a rank's planned sum rounds differently in
# another addition order only when its load and compute both run.
phase = st.floats(0.0, 30.0).map(lambda s: 0.0 if s < 3.0 else s)
epoch = st.fixed_dictionaries({
    "n": st.integers(1, 64),
    "load_s": phase,
    "compute_s": phase,
    "sync_s": phase,
    "prewarmed": st.sampled_from([False, False, True]),
    "group": st.sampled_from(["a", "b"]),
    "incarnation": st.integers(0, 2),
})


class TestFaultedGangMatchesKernelGang:
    @given(
        plan=plans,
        seed=st.integers(0, 2**16),
        prewarm=st.integers(0, 70),
        stragglers=st.dictionaries(
            st.integers(-1, 65), st.floats(0.25, 10.0), max_size=3
        ),
        epochs=st.lists(epoch, min_size=1, max_size=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_bit_identical(self, plan, seed, prewarm, stragglers, epochs):
        fast, ref = _pair(plan, seed, straggler_factors=stragglers)
        if prewarm:
            fast.prewarm("a", prewarm)
            ref.prewarm("a", prewarm)
        for index, e in enumerate(epochs, start=1):
            spec = EpochExecution(
                group=e["group"], n_functions=e["n"], memory_mb=1024,
                load_s=e["load_s"], compute_s=e["compute_s"],
                sync_s=e["sync_s"], prewarmed=e["prewarmed"],
                epoch_index=index, storage="s3", incarnation=e["incarnation"],
            )
            assert _outcome(fast, spec) == _outcome(ref, spec)


def _spawned(platform: FaaSPlatform) -> list[str]:
    """Record the name of every process the platform's kernel spawns."""
    names: list[str] = []
    spawn = platform.sim.spawn

    def recording(gen, *args, **kw):
        names.append(gen.__name__)
        return spawn(gen, *args, **kw)

    platform.sim.spawn = recording
    return names


class TestFaultyRanksOnly:
    def test_storage_faults_spawn_no_worker(self):
        storage = StorageFaultSpec(
            transient_prob=1.0, max_errors=1,
            throttle_windows=(ThrottleWindow(0.0, 1e3),),
        )
        fast, ref = _pair(FaultPlan(storage={ANY_STORAGE: storage}), seed=4)
        names = _spawned(fast)
        for index in (1, 2):
            spec = EpochExecution(
                "g", 16, 1024, 1.0, 5.0, 2.0, epoch_index=index, storage="s3"
            )
            assert _outcome(fast, spec) == _outcome(ref, spec)
        assert names == ["epoch_driver", "stand_in"] * 2
        assert fast.fault_injector.ledger.records  # the sync did fault

    def test_all_faulty_gang_spawns_no_stand_in(self):
        # Every rank starts cold and every first cold start fails, but the
        # retried cold start sticks within the budget: the epoch succeeds.
        plan = FaultPlan(
            cold_start_failure_prob=1.0, retry=RetrySpec(max_attempts=2)
        )
        fast, ref = _pair(plan, seed=2)
        names = _spawned(fast)
        spec = EpochExecution("g", 6, 1024, 1.0, 5.0, 2.0, epoch_index=1)
        assert _outcome(fast, spec) == _outcome(ref, spec)
        assert names == ["epoch_driver"] + ["worker_proc"] * 6
        assert fast.sim.events_processed == ref.sim.events_processed

    @pytest.mark.parametrize("seed", range(4))
    def test_healthy_cold_ranks_keep_the_workers_float_sum(self, seed):
        # A cold rank plans cold + (load + compute); the other addition
        # order differs in the last bit for most of these 64 ranks.
        fast, ref = _pair(FaultPlan(crash_prob=0.05), seed)
        spec = EpochExecution("g", 64, 1024, 1.3, 0.7, 1.0, epoch_index=1)
        assert _outcome(fast, spec) == _outcome(ref, spec)

    @pytest.mark.parametrize("timeout_s", [0.5, 1e4])
    def test_timeout_ranks_run_as_workers(self, timeout_s):
        # Every rank plans at least its 1 s load: a 0.5 s limit
        # times every rank out, a generous one none.
        fast, ref = _pair(FaultPlan(invocation_timeout_s=timeout_s), seed=5)
        fast.prewarm("g", 2)
        ref.prewarm("g", 2)
        names = _spawned(fast)
        spec = EpochExecution("g", 4, 1024, 1.0, 5.0, 2.0, epoch_index=1)
        assert _outcome(fast, spec) == _outcome(ref, spec)
        workers = names.count("worker_proc")
        assert workers == (4 if timeout_s < 1.0 else 0)
        assert names.count("stand_in") == (0 if workers == 4 else 1)
