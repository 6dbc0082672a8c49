"""The closed-form fault-free epoch against the event-driven gang it replaced.

``EventDrivenPlatform`` keeps the fault-free epoch as it ran before the
closed form: every worker's cold start, load and compute dispatched as
kernel sleeps, the barrier a ``Join``, and one ``bill_invocation`` per
worker. The closed form must reproduce it bit for bit: clock, event
count, durations, breakdown, bill, noise cursor, meter and warm pool.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import SimulationError
from repro.common.types import EpochTimeBreakdown
from repro.faas.platform import EpochExecution, FaaSPlatform, InvocationResult
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.kernel import EventKernel, Join


class EventDrivenPlatform(FaaSPlatform):
    """Reference: the fault-free epoch as generator processes on the kernel."""

    def _execute_closed_form(self, spec: EpochExecution) -> InvocationResult:
        sim = self.sim
        n = spec.n_functions
        start = sim.now
        n_warm, n_cold, cold_s, compute_factors, load_factor, sync_factor = (
            self._launch(spec)
        )
        durations = [0.0] * n
        outcome: dict[str, float] = {}

        def worker_proc(rank):
            body_start = sim.now
            if rank >= n_warm:
                yield cold_s
            yield spec.load_s * load_factor
            yield spec.compute_s * float(compute_factors[rank])
            durations[rank] = sim.now - body_start

        def epoch_driver():
            yield 0.0  # the gang's acquire step
            yield Join.of([sim.spawn(worker_proc(r)) for r in range(n)])
            sync_s = spec.sync_s * sync_factor
            yield sync_s
            outcome["sync_s"] = sync_s
            yield 0.0  # the gang's release step

        driver = sim.spawn(epoch_driver())
        sim.run()
        assert driver.done
        sync_s = outcome["sync_s"]
        billed = 0.0
        for d in durations:
            billed += self.meter.bill_invocation(spec.memory_mb, d + sync_s).total_usd
        wall = self._finish_epoch(spec, start, n_cold, cold_s, n)
        return InvocationResult(
            wall_time_s=wall,
            time=EpochTimeBreakdown(
                load_s=spec.load_s * load_factor,
                compute_s=max(durations) - cold_s - spec.load_s * load_factor,
                sync_s=sync_s,
            ),
            cold_starts=n_cold,
            billed_usd=billed,
            worker_durations_s=tuple(durations),
            cold_start_s=cold_s,
        )


def _state(p: FaaSPlatform) -> tuple:
    """Everything an epoch leaves behind, in a bit-exact form (repr)."""
    meter, pool = p.meter, p.pool
    return repr((
        p.sim.now, p.sim.events_processed, p.noise_draws,
        meter.compute_usd, meter.invocation_usd, meter.invocation_count,
        meter.total_usd, pool.cold_starts, pool.warm_reuses, pool.expired,
        pool.total_warm(p.sim.now), p.peak_in_use,
    ))


phase = st.one_of(
    st.just(0.0), st.floats(0.0, 500.0, allow_nan=False, allow_infinity=False)
)
epoch = st.fixed_dictionaries({
    "n": st.integers(1, 40),
    "memory_mb": st.integers(128, 10240),
    "load_s": phase,
    "compute_s": phase,
    "sync_s": phase,
    "prewarmed": st.booleans(),
    "group": st.sampled_from(["a", "b"]),
})


class TestClosedFormMatchesEventDriven:
    @given(
        seed=st.integers(0, 2**16),
        prewarm=st.integers(0, 45),
        stragglers=st.dictionaries(
            st.integers(-1, 41), st.floats(0.25, 10.0), max_size=3
        ),
        epochs=st.lists(epoch, min_size=1, max_size=4),
        ttl=st.sampled_from([1.0, 900.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical(self, seed, prewarm, stragglers, epochs, ttl):
        fast = FaaSPlatform(seed=seed, straggler_factors=stragglers, warm_ttl_s=ttl)
        ref = EventDrivenPlatform(
            seed=seed, straggler_factors=stragglers, warm_ttl_s=ttl
        )
        if prewarm:
            fast.prewarm("a", prewarm)
            ref.prewarm("a", prewarm)
        for e in epochs:
            spec = EpochExecution(
                group=e["group"], n_functions=e["n"], memory_mb=e["memory_mb"],
                load_s=e["load_s"], compute_s=e["compute_s"],
                sync_s=e["sync_s"], prewarmed=e["prewarmed"],
            )
            got, want = fast.execute_epoch(spec), ref.execute_epoch(spec)
            assert repr(got) == repr(want)
            assert _state(fast) == _state(ref)

    def test_event_count_formula(self):
        """4 driver steps + 4 per rank + 1 per cold rank, as the gang dispatched."""
        p = EventDrivenPlatform(seed=3)
        p.prewarm("g", 2)
        p.execute_epoch(EpochExecution("g", 5, 1024, 1.0, 2.0, 0.5))
        assert p.sim.events_processed == 4 + 4 * 5 + 3


class TestKernelAdvance:
    def test_moves_clock_and_counts_events(self):
        kernel = EventKernel()
        kernel.advance(2.5, 7)
        assert (kernel.now, kernel.events_processed) == (2.5, 7)
        kernel.advance(2.5, 0)
        assert kernel.now == 2.5

    def test_refuses_pending_events(self):
        kernel = EventKernel()
        kernel.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError, match="pending"):
            kernel.advance(5.0, 1)
        assert kernel.now == 0.0

    @pytest.mark.parametrize("until", [0.5, math.nan])
    def test_refuses_the_past(self, until):
        kernel = EventKernel()
        kernel.advance(1.0, 0)
        with pytest.raises(SimulationError, match="past"):
            kernel.advance(until, 1)
        assert (kernel.now, kernel.events_processed) == (1.0, 0)


def _bad_specs():
    base = dict(
        group="g", n_functions=4, memory_mb=1024,
        load_s=1.0, compute_s=5.0, sync_s=2.0,
    )
    yield {**base, "memory_mb": 0}
    for field in ("load_s", "compute_s", "sync_s"):
        for value in (-1.0, math.nan, math.inf):
            yield {**base, field: value}


class TestEpochValidation:
    """A malformed epoch fails before any noise draw, pool change or clock move."""

    @pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faulty"])
    @pytest.mark.parametrize("fields", list(_bad_specs()), ids=repr)
    def test_rejected_without_side_effects(self, fields, faulty):
        injector = FaultInjector(FaultPlan(crash_prob=0.3)) if faulty else None
        p = FaaSPlatform(seed=0, fault_injector=injector)
        p.execute_epoch(EpochExecution("g", 4, 1024, 1.0, 5.0, 2.0))
        before = _state(p)
        with pytest.raises(SimulationError) as err:
            p.execute_epoch(EpochExecution(**fields))
        assert "\n" not in str(err.value)
        assert _state(p) == before
        assert p.pool.warm_count("g", p.sim.now) == 4

    def test_over_capacity_gang_rejected_without_side_effects(self):
        from repro.config import LambdaLimits, PlatformConfig

        tiny = PlatformConfig(limits=LambdaLimits(max_concurrency=2))
        p = FaaSPlatform(platform=tiny, seed=0)
        with pytest.raises(SimulationError, match=r"acquire\(4\) exceeds capacity 2"):
            p.execute_epoch(EpochExecution("g", 4, 1024, 1.0, 5.0, 2.0))
        assert (p.noise_draws, p.sim.now, p.pool.cold_starts) == (0, 0.0, 0)
