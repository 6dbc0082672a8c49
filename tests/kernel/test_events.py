"""Tests for the discrete-event simulation engine."""

import pytest

from repro.common.errors import SimulationError
from repro.kernel import Acquire, EventKernel, Join, Release, Resource


class TestScheduling:
    def test_time_advances(self):
        sim = EventKernel()
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_order_by_time(self):
        sim = EventKernel()
        fired = []
        sim.schedule(3.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.run()
        assert fired == ["a", "b"]

    def test_fifo_tiebreak_at_equal_time(self):
        sim = EventKernel()
        fired = []
        sim.schedule(1.0, lambda: fired.append("first"))
        sim.schedule(1.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "second"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventKernel().schedule(-1.0, lambda: None)

    def test_run_until(self):
        sim = EventKernel()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(2))
        sim.run(until=5.0)
        assert fired == [1]


class TestProcesses:
    def test_sleep_effect(self):
        sim = EventKernel()

        def proc():
            yield 2.5
            yield 2.5
            return sim.now

        task = sim.spawn(proc())
        sim.run()
        assert task.done
        assert task.result == pytest.approx(5.0)

    def test_subprocess_composition(self):
        sim = EventKernel()

        def child():
            yield 3.0
            return "child-done"

        def parent():
            result = yield child()
            yield 1.0
            return result

        task = sim.spawn(parent())
        sim.run()
        assert task.result == "child-done"
        assert sim.now == pytest.approx(4.0)

    def test_join_barrier(self):
        sim = EventKernel()

        def worker(d):
            yield d
            return d

        tasks = [sim.spawn(worker(d)) for d in (1.0, 5.0, 3.0)]

        def barrier():
            results = yield Join.of(tasks)
            return (sim.now, results)

        b = sim.spawn(barrier())
        sim.run()
        at, results = b.result
        assert at == pytest.approx(5.0)  # waits for the slowest
        assert sorted(results) == [1.0, 3.0, 5.0]

    def test_join_on_completed_tasks(self):
        sim = EventKernel()

        def quick():
            yield 0.1
            return 42

        t = sim.spawn(quick())
        sim.run()

        def joiner():
            res = yield Join.of([t])
            return res

        j = sim.spawn(joiner())
        sim.run()
        assert j.result == [42]

    def test_unsupported_effect_raises(self):
        sim = EventKernel()

        def bad():
            yield "not-an-effect"

        sim.spawn(bad())
        with pytest.raises(SimulationError):
            sim.run()


class TestResources:
    def test_acquire_release(self):
        sim = EventKernel()
        res = Resource(1, "slot")
        order = []

        def worker(name, hold):
            yield Acquire(res)
            order.append((name, sim.now))
            yield hold
            yield Release(res)

        sim.spawn(worker("a", 2.0))
        sim.spawn(worker("b", 2.0))
        sim.run()
        assert order[0][0] == "a"
        assert order[1] == ("b", pytest.approx(2.0))  # queued behind a

    def test_concurrent_within_capacity(self):
        sim = EventKernel()
        res = Resource(2, "slots")
        starts = []

        def worker():
            yield Acquire(res)
            starts.append(sim.now)
            yield 1.0
            yield Release(res)

        for _ in range(2):
            sim.spawn(worker())
        sim.run()
        assert starts == [0.0, 0.0]

    def test_peak_usage_tracked(self):
        sim = EventKernel()
        res = Resource(4, "slots")

        def worker():
            yield Acquire(res)
            yield 1.0
            yield Release(res)

        for _ in range(3):
            sim.spawn(worker())
        sim.run()
        assert res.peak_in_use == 3
        assert res.available == 4

    def test_over_capacity_acquire_raises(self):
        sim = EventKernel()
        res = Resource(1, "slot")

        def greedy():
            yield Acquire(res, amount=5)

        sim.spawn(greedy())
        with pytest.raises(SimulationError):
            sim.run()

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Resource(0)

    def test_fifo_fairness(self):
        sim = EventKernel()
        res = Resource(1, "slot")
        order = []

        def worker(name):
            yield Acquire(res)
            order.append(name)
            yield 1.0
            yield Release(res)

        for name in ("w0", "w1", "w2", "w3"):
            sim.spawn(worker(name))
        sim.run()
        assert order == ["w0", "w1", "w2", "w3"]
