"""The simulated-time sampler: per-series buffers, markers, high-water marks.

A :class:`TimeSeriesSampler` records how cluster state *evolves* over a
run — in-flight invocations against the account limit, warm-pool size,
the scheduler's active allocation, SHA survivors, burn-rate ladder level,
cumulative spend — as (simulated time, value) points keyed by series name.
Instrumented sites pass their own simulation clock explicitly
(``sim.now``, the executor's ``jct``); nothing here reads a host clock,
consumes randomness, or branches simulation logic, so runs are
byte-identical with the sampler installed or not.

Buffers are delta-compressed on ingestion: a run of consecutive identical
values keeps only its first and last point (the last point's timestamp
advances in place), which is what lets step-shaped series — allocation
size, burn level, SHA survivors — stay tiny over thousands of samples.
Per-series point caps turn overflow into a deterministic ``dropped``
counter instead of unbounded memory.

The process-global default is a :class:`NullSampler` (see
``repro.timeseries.__init__``), mirroring the telemetry/profiling
collectors: sampling sites pay one attribute check when recording is off.
"""

from __future__ import annotations

#: Per-series point cap. Overflow increments the series' ``dropped``
#: counter; ``n_samples`` and the high-water mark keep counting.
DEFAULT_MAX_POINTS = 4096

#: Cap on recorded markers (reallocations, phase boundaries, bus events).
DEFAULT_MAX_MARKERS = 4096


class SeriesBuffer:
    """One named series: compressed points, raw count, high-water mark."""

    __slots__ = (
        "name", "times", "values", "n_samples", "dropped", "high_water",
        "max_points",
    )

    def __init__(self, name: str, max_points: int = DEFAULT_MAX_POINTS) -> None:
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []
        self.n_samples = 0
        self.dropped = 0
        self.high_water = float("-inf")
        self.max_points = max_points

    def append(self, t_s: float, value: float) -> None:
        """Record one sample; runs of equal values compress in place."""
        self.n_samples += 1
        if value > self.high_water:
            self.high_water = value
        values = self.values
        if (
            len(values) >= 2
            and values[-1] == value
            and values[-2] == value
        ):
            # Extend the current run instead of storing a new point: the
            # run's first point keeps the step edge, its last point tracks
            # how long the value held.
            self.times[-1] = t_s
            return
        if len(values) >= self.max_points:
            self.dropped += 1
            return
        self.times.append(t_s)
        values.append(value)

    @property
    def last(self) -> float:
        """The most recent value (high-water of an empty series is -inf)."""
        return self.values[-1] if self.values else float("-inf")

    def __len__(self) -> int:
        return len(self.values)


class Marker:
    """One discrete annotation on the run's timeline."""

    __slots__ = ("kind", "t_s", "label")

    def __init__(self, kind: str, t_s: float, label: str = "") -> None:
        self.kind = kind
        self.t_s = t_s
        self.label = label


class TimeSeriesSampler:
    """Collects simulated-time series and markers for one run.

    Strictly observational — the same contract the telemetry collectors,
    event bus and hot-path profiler carry: installing a sampler must leave
    every simulated result bit-identical.
    """

    def __init__(
        self,
        max_points: int = DEFAULT_MAX_POINTS,
        max_markers: int = DEFAULT_MAX_MARKERS,
    ) -> None:
        self.series: dict[str, SeriesBuffer] = {}
        self.markers: list[Marker] = []
        self.max_points = max_points
        self.max_markers = max_markers
        self.dropped_markers = 0

    @property
    def enabled(self) -> bool:
        return True

    def sample(self, name: str, t_s: float, value: float) -> None:
        """Record one (simulated time, value) point on series ``name``."""
        buf = self.series.get(name)
        if buf is None:
            buf = self.series[name] = SeriesBuffer(
                name, max_points=self.max_points
            )
        buf.append(t_s, float(value))

    def mark(self, kind: str, t_s: float, label: str = "") -> None:
        """Annotate the timeline (reallocation, phase boundary, bus event)."""
        if len(self.markers) >= self.max_markers:
            self.dropped_markers += 1
            return
        self.markers.append(Marker(kind, t_s, label))

    def n_points(self) -> int:
        """Stored (compressed) points across every series."""
        return sum(len(self.series[name]) for name in sorted(self.series))


class NullSampler:
    """The default sampler: does nothing, costs one attribute check."""

    series: dict[str, SeriesBuffer] = {}
    markers: list[Marker] = []
    dropped_markers = 0

    @property
    def enabled(self) -> bool:
        return False

    def sample(self, name: str, t_s: float, value: float) -> None:
        pass

    def mark(self, kind: str, t_s: float, label: str = "") -> None:
        pass

    def n_points(self) -> int:
        return 0
