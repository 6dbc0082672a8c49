"""Frame stacks, aggregation, counter attribution, and the null default."""

import tracemalloc

import pytest

from repro.profiling import (
    NullProfiler,
    Profiler,
    get_profiler,
    profile_phase,
    set_profiler,
)
from repro.profiling.core import NULL_PHASE, UNATTRIBUTED


class FakeClock:
    """Deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        t = self.now
        self.now += self.step
        return t


class TestFrameNesting:
    def test_nested_phases_aggregate_under_full_call_path(self):
        prof = Profiler(clock=FakeClock())
        with prof.phase("a"):
            with prof.phase("b"):
                pass
            with prof.phase("b"):
                pass
        assert set(prof.frames) == {("a",), ("a", "b")}
        assert prof.frames[("a",)].n_calls == 1
        assert prof.frames[("a", "b")].n_calls == 2

    def test_same_name_different_parents_are_distinct_rows(self):
        prof = Profiler(clock=FakeClock())
        with prof.phase("x"):
            with prof.phase("leaf"):
                pass
        with prof.phase("y"):
            with prof.phase("leaf"):
                pass
        assert ("x", "leaf") in prof.frames
        assert ("y", "leaf") in prof.frames

    def test_durations_use_injected_clock(self):
        # Clock reads: t0, enter, exit -> duration exactly one step.
        prof = Profiler(clock=FakeClock(step=2.0))
        with prof.phase("a"):
            pass
        assert prof.frames[("a",)].total_s == pytest.approx(2.0)

    def test_phase_records_even_when_body_raises(self):
        prof = Profiler(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with prof.phase("a"):
                raise RuntimeError("boom")
        assert prof.frames[("a",)].n_calls == 1
        assert prof._stack == []  # stack unwound

    def test_event_cap_drops_but_keeps_aggregating(self):
        prof = Profiler(clock=FakeClock(), max_events=2)
        for _ in range(5):
            with prof.phase("a"):
                pass
        assert len(prof.events) == 2
        assert prof.dropped_events == 3
        assert prof.frames[("a",)].n_calls == 5


class TestCounterAttribution:
    def test_phase_add_credits_that_frame(self):
        prof = Profiler(clock=FakeClock())
        with prof.phase("a") as ph:
            ph.add("widgets", 3)
            ph.add("widgets")
        assert prof.frames[("a",)].counters == {"widgets": 4.0}

    def test_profiler_add_credits_innermost_open_frame(self):
        prof = Profiler(clock=FakeClock())
        with prof.phase("a"):
            with prof.phase("b"):
                prof.add("n", 7)
        assert prof.frames[("a", "b")].counters == {"n": 7.0}
        assert "n" not in prof.frames[("a",)].counters

    def test_counter_with_no_open_phase_goes_unattributed(self):
        prof = Profiler(clock=FakeClock())
        prof.add("stray", 2)
        assert prof.frames[UNATTRIBUTED].counters == {"stray": 2.0}


class TestGlobalInstall:
    def test_default_is_null_and_hooks_are_noops(self):
        assert isinstance(get_profiler(), NullProfiler)
        assert not get_profiler().enabled
        assert profile_phase("anything") is NULL_PHASE
        with profile_phase("anything") as ph:
            ph.add("ignored", 5)  # must not raise, must not record
        assert get_profiler().frames == {}

    def test_set_profiler_none_reinstalls_null(self):
        prof = Profiler(clock=FakeClock())
        set_profiler(prof)
        try:
            assert get_profiler().enabled
            with profile_phase("a"):
                pass
            assert ("a",) in prof.frames
        finally:
            set_profiler(None)
        assert not get_profiler().enabled
        assert isinstance(get_profiler(), NullProfiler)

    def test_null_profiler_state_is_empty_and_shared_safely(self):
        null = NullProfiler()
        null.add("x", 1)
        null.close()
        assert null.frames == {}
        assert null.events == []
        assert null.phase("p") is NULL_PHASE


class TestMemorySampling:
    def test_peak_bytes_recorded_and_tracemalloc_released(self):
        was_tracing = tracemalloc.is_tracing()
        prof = Profiler(clock=FakeClock(), sample_memory=True)
        try:
            with prof.phase("alloc"):
                _ = [0] * 50_000
            assert prof.frames[("alloc",)].peak_bytes > 0
        finally:
            prof.close()
        assert tracemalloc.is_tracing() == was_tracing
