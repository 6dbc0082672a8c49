"""The discrete-event kernel: generator processes on one binary heap.

The event loop runs the platform's faulted gang
(:meth:`repro.faas.platform.FaaSPlatform.execute_epoch` with a fault
injector attached): the epoch driver and each faulty rank are generator
processes that yield *effects*:

* a ``float`` — sleep for that many simulated seconds;
* ``Join(tasks)`` — block until every task (from ``EventKernel.spawn``) is
  done.

The kernel is deterministic: heap entries are ``(time, seq, action)``
tuples, so events at equal timestamps fire in scheduling order (a
monotonically increasing sequence number breaks the tie). Work simulated
in closed form — a fault-free epoch, the healthy ranks of a faulted one,
the permanent-loss detection window — moves an idle kernel's clock with
:meth:`EventKernel.advance`, counting the events it stands for.

Besides the event clock the kernel owns the run's *job clock*: the
JCT ledger that also accumulates scheduling work which costs job time
but no simulated resource time (planner searches, checkpoint restores,
visible restart overhead). Executors credit it via
:meth:`EventKernel.credit_job_time` instead of keeping private
high-water marks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Generator, Sequence

from repro.common.errors import SimulationError

Process = Generator[Any, Any, Any]


class Task:
    """Handle for a spawned process; exposes completion state and result."""

    __slots__ = ("gen", "done", "result", "_joiners", "_join_pending")

    def __init__(self, gen: Process) -> None:
        self.gen = gen
        self.done = False
        self.result: Any = None
        self._joiners: list[Task] = []
        self._join_pending: tuple[Task, ...] | None = None


@dataclass(frozen=True, slots=True)
class Join:
    """Effect: block until every task in ``tasks`` has completed."""

    tasks: tuple[Task, ...]

    @staticmethod
    def of(tasks: Sequence[Task]) -> "Join":
        return Join(tuple(tasks))


class EventKernel:
    """The event loop: schedules processes and advances virtual time."""

    def __init__(self) -> None:
        self.now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self.events_processed = 0
        # The job-time ledger: scheduling work that takes no simulated
        # resource time but real job time (JCT). Executors credit it in
        # the exact order the overheads occur, so it is bit-reproducible.
        self.job_clock_s = 0.0

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(
            self._heap, (self.now + delay, self._seq, action)
        )

    def credit_job_time(self, dt_s: float) -> float:
        """Add ``dt_s`` seconds of scheduling work to the job clock.

        Returns the updated job clock. The credit order is the float
        accumulation order, so crediting the same overheads in the same
        sequence reproduces the job clock bit-exactly.
        """
        if dt_s < 0:
            raise SimulationError(f"cannot credit negative job time ({dt_s})")
        self.job_clock_s += dt_s
        return self.job_clock_s

    def advance(self, until: float, events: int) -> None:
        """Move an idle kernel's clock to ``until`` as if ``events`` had run.

        For work simulated in closed form (a fault-free platform epoch,
        the healthy ranks of a faulted one, a permanent-loss detection
        window): the caller computed the timeline itself and only needs
        the clock and the dispatch count to read as if the events had
        been drained through :meth:`run`. Pending events would be
        skipped, so a non-idle heap is refused, as is a time in the past.
        """
        if self._heap:
            raise SimulationError(
                f"cannot advance past {len(self._heap)} pending event(s)"
            )
        if not until >= self.now:
            raise SimulationError(
                f"cannot advance into the past (to {until}, now {self.now})"
            )
        if events < 0:
            raise SimulationError(f"cannot count negative events ({events})")
        self.now = until
        self.events_processed += events

    def spawn(self, gen: Process) -> Task:
        """Start a process immediately; returns its handle."""
        task = Task(gen)
        self.schedule(0.0, lambda: self._step(task, None))
        return task

    def _finish(self, task: Task, result: Any) -> None:
        task.done = True
        task.result = result
        for joiner in task._joiners:
            self.schedule(0.0, lambda j=joiner: self._maybe_resume_joiner(j))
        task._joiners.clear()

    def _maybe_resume_joiner(self, joiner: Task) -> None:
        pending = joiner._join_pending
        if pending is None:
            return
        if all(t.done for t in pending):
            joiner._join_pending = None
            self._step(joiner, [t.result for t in pending])

    def _step(self, task: Task, send_value: Any) -> None:
        try:
            effect = task.gen.send(send_value)
        except StopIteration as stop:
            self._finish(task, stop.value)
            return
        if isinstance(effect, (int, float)):
            self.schedule(float(effect), lambda: self._step(task, None))
        elif isinstance(effect, Join):
            if all(t.done for t in effect.tasks):
                self.schedule(
                    0.0, lambda: self._step(task, [t.result for t in effect.tasks])
                )
            else:
                task._join_pending = effect.tasks
                for t in effect.tasks:
                    if not t.done:
                        t._joiners.append(task)
        else:
            raise SimulationError(f"process yielded unsupported effect {effect!r}")

    def run(self, max_events: int = 10_000_000) -> float:
        """Drain the event heap; returns the final simulated time."""
        while self._heap:
            t, _, action = self._heap[0]
            heapq.heappop(self._heap)
            self.now = t
            self.events_processed += 1
            if self.events_processed > max_events:
                raise SimulationError(f"exceeded {max_events} events; likely a livelock")
            action()
        return self.now
