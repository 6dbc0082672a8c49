"""The discrete-event kernel: generator processes on one binary heap.

Processes are Python generators that yield *effects*:

* a ``float`` — sleep for that many simulated seconds;
* ``Acquire(resource, amount)`` — block until the resource grants capacity;
* ``Release(resource, amount)`` — return capacity (never blocks);
* ``Join(tasks)`` — block until every task (from ``EventKernel.spawn``) is
  done;
* another generator — run it as a sub-process and wait for its completion.

The kernel is deterministic: heap entries are ``(time, priority, seq)``
tuples, so events at equal timestamps fire first by priority class and
then in scheduling order (a monotonically increasing sequence number
breaks the final tie). Every scheduling call defaults to
:attr:`Priority.EXECUTION`, which keeps the dispatch order of plain
process code identical to a priority-free ``(time, seq)`` heap; the
other classes exist so cross-subsystem events landing on the same
timestamp resolve by design rather than by insertion accident.

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
from enum import IntEnum
from typing import Any, Callable, Generator, Sequence

from repro.common.errors import SimulationError

Process = Generator[Any, Any, Any]


class Priority(IntEnum):
    """Dispatch order for events sharing one timestamp (lower fires first).

    ``FAULT`` precedes ``EXECUTION`` so an injected failure lands before
    the work it kills; ``SCHEDULER`` follows execution so reallocation
    points observe a finished epoch; ``SLO`` evaluates last, once the
    timestamp's state is final. Value 2 belonged to a storage class that
    nothing scheduled; the other values keep their numbers.
    """

    FAULT = 0
    EXECUTION = 1
    SCHEDULER = 3
    SLO = 4


class Resource:
    """A counted resource with a FIFO wait queue (e.g. account concurrency)."""

    def __init__(self, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.available = capacity
        self.name = name
        self._waiters: list[tuple[int, "Task"]] = []
        self.peak_in_use = 0

    @property
    def in_use(self) -> int:
        return self.capacity - self.available

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Resource({self.name}, {self.available}/{self.capacity})"


@dataclass(frozen=True, slots=True)
class Acquire:
    """Effect: block until ``amount`` units of ``resource`` are available."""

    resource: Resource
    amount: int = 1


@dataclass(frozen=True, slots=True)
class Release:
    """Effect: return ``amount`` units to ``resource``."""

    resource: Resource
    amount: int = 1


class Task:
    """Handle for a spawned process; exposes completion state and result."""

    __slots__ = (
        "gen", "parent", "waiting_child", "done", "result", "_joiners",
        "_join_pending",
    )

    def __init__(self, gen: Process, parent: "Task | None" = None) -> None:
        self.gen = gen
        self.parent = parent
        self.waiting_child: Task | None = None
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
        self._heap: list[tuple[float, int, int, Callable[[], None]]] = []
        self.events_processed = 0
        # The job-time ledger: scheduling work that takes no simulated
        # resource time but real job time (JCT). Executors credit it in
        # the exact order the overheads occur, so it is bit-reproducible.
        self.job_clock_s = 0.0

    def schedule(
        self,
        delay: float,
        action: Callable[[], None],
        priority: Priority = Priority.EXECUTION,
    ) -> None:
        """Run ``action`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(
            self._heap, (self.now + delay, int(priority), self._seq, action)
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
        or the healthy ranks of a faulted one):
        the caller computed the timeline itself and only needs the clock
        and the dispatch count to read as if the events had been drained
        through :meth:`run`. Pending events would be skipped, so a
        non-idle heap is refused, as is a time in the past.
        """
        if self._heap:
            raise SimulationError(
                f"cannot advance past {len(self._heap)} pending event(s)"
            )
        if not until >= self.now:
            raise SimulationError(
                f"cannot advance into the past (until={until}, now={self.now})"
            )
        if events < 0:
            raise SimulationError(f"cannot count negative events ({events})")
        self.now = until
        self.events_processed += events

    def spawn(self, gen: Process, priority: Priority = Priority.EXECUTION) -> Task:
        """Start a top-level process immediately; returns its handle."""
        task = Task(gen)
        self.schedule(0.0, lambda: self._step(task, None), priority)
        return task

    def _finish(self, task: Task, result: Any) -> None:
        task.done = True
        task.result = result
        parent = task.parent
        if parent is not None and parent.waiting_child is task:
            parent.waiting_child = None
            self.schedule(0.0, lambda: self._step(parent, result))
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
        self._dispatch(task, effect)

    def _dispatch(self, task: Task, effect: Any) -> None:
        if isinstance(effect, (int, float)):
            self.schedule(float(effect), lambda: self._step(task, None))
        elif isinstance(effect, Acquire):
            self._acquire(task, effect.resource, effect.amount)
        elif isinstance(effect, Release):
            self._release(effect.resource, effect.amount)
            self.schedule(0.0, lambda: self._step(task, None))
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
        elif isinstance(effect, Generator):
            child = Task(effect, parent=task)
            task.waiting_child = child
            self.schedule(0.0, lambda: self._step(child, None))
        else:
            raise SimulationError(f"process yielded unsupported effect {effect!r}")

    def _acquire(self, task: Task, resource: Resource, amount: int) -> None:
        if amount > resource.capacity:
            raise SimulationError(
                f"acquire({amount}) exceeds capacity {resource.capacity} "
                f"of {resource.name}"
            )
        if resource.available >= amount and not resource._waiters:
            resource.available -= amount
            resource.peak_in_use = max(resource.peak_in_use, resource.in_use)
            self.schedule(0.0, lambda: self._step(task, None))
        else:
            resource._waiters.append((amount, task))

    def _release(self, resource: Resource, amount: int) -> None:
        resource.available = min(resource.capacity, resource.available + amount)
        while resource._waiters and resource._waiters[0][0] <= resource.available:
            amt, waiter = resource._waiters.pop(0)
            resource.available -= amt
            resource.peak_in_use = max(resource.peak_in_use, resource.in_use)
            self.schedule(0.0, lambda w=waiter: self._step(w, None))

    def run(self, until: float | None = None, max_events: int = 10_000_000) -> float:
        """Drain the event heap; returns the final simulated time."""
        while self._heap:
            t, _, _, action = self._heap[0]
            if until is not None and t > until:
                break
            heapq.heappop(self._heap)
            self.now = t
            self.events_processed += 1
            if self.events_processed > max_events:
                raise SimulationError(f"exceeded {max_events} events; likely a livelock")
            action()
        if until is not None and self.now < until and not self._heap:
            self.now = until
        return self.now
