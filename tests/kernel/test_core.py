"""The unified event kernel: priorities, clocks, and the faas shim."""

import pytest

from repro.common.errors import SimulationError
from repro.kernel import Acquire, EventKernel, Join, Priority, Release, Resource


class TestPriorityDispatch:
    def test_equal_time_fires_by_priority_class(self):
        kernel = EventKernel()
        order = []
        # Scheduled worst-first: the heap must reorder them by class.
        kernel.schedule(1.0, lambda: order.append("slo"), Priority.SLO)
        kernel.schedule(1.0, lambda: order.append("sched"), Priority.SCHEDULER)
        kernel.schedule(1.0, lambda: order.append("exec"), Priority.EXECUTION)
        kernel.schedule(1.0, lambda: order.append("fault"), Priority.FAULT)
        kernel.run()
        assert order == ["fault", "exec", "sched", "slo"]

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
        kernel.schedule(1.0, lambda: order.append("early-slo"), Priority.SLO)
        kernel.schedule(2.0, lambda: order.append("late-fault"), Priority.FAULT)
        kernel.run()
        assert order == ["early-slo", "late-fault"]

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
    def test_gang_with_resource_and_join(self):
        kernel = EventKernel()
        pool = Resource(2, name="slots")
        done = []

        def worker(i):
            yield 1.0 * (i + 1)
            done.append(i)

        def driver():
            yield Acquire(pool, 2)
            tasks = [kernel.spawn(worker(i)) for i in range(2)]
            yield Join.of(tasks)
            yield Release(pool, 2)

        task = kernel.spawn(driver())
        kernel.run()
        assert task.done and done == [0, 1]
        assert pool.available == 2 and pool.peak_in_use == 2

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
