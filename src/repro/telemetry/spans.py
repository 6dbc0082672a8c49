"""Live span tracing: feed the TraceRecorder *during* simulation.

The :class:`Tracer` lets the platform and executors emit spans as they
happen, so the trace shows cold-start windows, fault recovery and the
delayed-restart overlap hidden under a running epoch.

Timebase: spans are recorded in the platform simulator's clock plus a
cumulative *offset*. Scheduling work (prediction refits, planner searches,
visible restart overhead) takes zero simulator time but real job time; the
executor advances the offset by those amounts so the live trace lines up
with the job's JCT.
"""

from __future__ import annotations

import numpy as np


class Tracer:
    """Collects live spans onto a :class:`repro.faas.trace.TraceRecorder`."""

    def __init__(self, recorder=None) -> None:
        # Imported lazily: faas modules import telemetry at module level,
        # so a module-level import here would be mutually recursive.
        from repro.faas.trace import TraceRecorder

        self.recorder = recorder if recorder is not None else TraceRecorder()
        self.offset_s = 0.0

    @property
    def enabled(self) -> bool:
        return True

    def span(
        self,
        name: str,
        category: str,
        start_s: float,
        duration_s: float,
        track: str,
        **args,
    ) -> None:
        """Record one completed span at ``start_s`` (simulator clock)."""
        self.recorder.record(
            name, category, start_s + self.offset_s, duration_s, track, **args
        )

    def workers(self, track: str, starts, durations, n_warm: int) -> None:
        """Record one epoch's worker spans as one block: rank ``r`` ran
        ``durations[r]`` from ``starts[r]`` (simulator clock), and ranks
        from ``n_warm`` on started cold."""
        self.recorder.record_workers(
            track, np.asarray(starts, dtype=float) + self.offset_s, durations, n_warm
        )

    def instant(self, name: str, category: str, t_s: float, track: str, **args) -> None:
        """Record one zero-duration marker at ``t_s``.

        Unlike :meth:`span`, ``t_s`` is *absolute job time* and the offset
        is not added — instant sources (the SLO guard) already work in the
        job-time coordinate the offset exists to reconstruct.
        """
        self.recorder.instant(name, category, t_s, track, **args)

    def advance(self, dt_s: float) -> None:
        """Shift subsequent spans right by ``dt_s`` job-time seconds."""
        self.offset_s += dt_s

    def to_chrome_trace(self) -> str:
        return self.recorder.to_chrome_trace()


class NullTracer:
    """The default tracer: drops everything."""

    offset_s = 0.0
    # The empty Chrome trace is a constant; build it once per process
    # instead of allocating a TraceRecorder on every call.
    _empty_trace: str | None = None

    @property
    def enabled(self) -> bool:
        return False

    def span(self, name, category, start_s, duration_s, track, **args) -> None:
        pass

    def workers(self, track, starts, durations, n_warm) -> None:
        pass

    def instant(self, name, category, t_s, track, **args) -> None:
        pass

    def advance(self, dt_s: float) -> None:
        pass

    def to_chrome_trace(self) -> str:
        if NullTracer._empty_trace is None:
            from repro.faas.trace import TraceRecorder

            NullTracer._empty_trace = TraceRecorder().to_chrome_trace()
        return NullTracer._empty_trace
