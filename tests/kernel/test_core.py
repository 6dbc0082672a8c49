"""The event kernel: dispatch order, clocks, and the faas shim."""

import pytest

from repro.common.errors import SimulationError
from repro.kernel import EventKernel


class TestPriorityDispatch:
    """The heap key is ``(time, seq)``: the scheduling order is the only
    priority among events at one timestamp."""

    def test_same_priority_keeps_scheduling_order(self):
        kernel = EventKernel()
        order = []
        for i in range(5):
            kernel.schedule(2.0, lambda i=i: order.append(i))
        kernel.run()
        assert order == [0, 1, 2, 3, 4]

    def test_time_beats_priority(self):
        kernel = EventKernel()
        order = []
        # Scheduled late-first: the heap must reorder them by time.
        kernel.schedule(2.0, lambda: order.append("late"))
        kernel.schedule(1.0, lambda: order.append("early"))
        kernel.run()
        assert order == ["early", "late"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventKernel().schedule(-0.1, lambda: None)


class TestJobClock:
    def test_credit_accumulates_in_order(self):
        kernel = EventKernel()
        assert kernel.job_clock_s == 0.0
        assert kernel.credit_job_time(1.5) == 1.5
        assert kernel.credit_job_time(0.0) == 1.5
        assert kernel.credit_job_time(2.25) == 3.75
        assert kernel.job_clock_s == 3.75

    def test_credit_order_is_bitwise_reproducible(self):
        overheads = [0.1, 0.7, 1e-9, 3.3, 0.2]
        a, b = EventKernel(), EventKernel()
        for dt in overheads:
            a.credit_job_time(dt)
            b.credit_job_time(dt)
        assert a.job_clock_s == b.job_clock_s

    def test_negative_credit_rejected(self):
        with pytest.raises(SimulationError):
            EventKernel().credit_job_time(-1.0)

    def test_job_clock_independent_of_event_clock(self):
        kernel = EventKernel()
        kernel.schedule(5.0, lambda: None)
        kernel.run()
        assert kernel.now == 5.0
        assert kernel.job_clock_s == 0.0


class TestProcesses:
    def test_events_processed_counts_dispatches(self):
        kernel = EventKernel()
        for _ in range(3):
            kernel.schedule(1.0, lambda: None)
        kernel.run()
        assert kernel.events_processed == 3

    def test_max_events_guards_livelock(self):
        kernel = EventKernel()

        def forever():
            while True:
                yield 0.0

        kernel.spawn(forever())
        with pytest.raises(SimulationError):
            kernel.run(max_events=50)


class TestFaasShim:
    def test_platform_runs_on_the_kernel(self):
        from repro.faas.platform import FaaSPlatform

        platform = FaaSPlatform()
        assert isinstance(platform.sim, EventKernel)
        assert platform.noise_draws == 0
