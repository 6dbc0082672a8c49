"""Tests for the discrete-event simulation engine."""

import pytest

from repro.common.errors import SimulationError
from repro.kernel import EventKernel, Join


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
