"""Label-aware metrics: Counter, Gauge, Histogram, and the registry.

The model follows the Prometheus client convention — a metric object is a
*family*; ``labels(**kv)`` binds one child per label-value combination — but
is deliberately tiny: values live in plain dicts, snapshots are immutable
dataclasses, and a :class:`NullRegistry` variant turns every operation into
a no-op so the hot simulation loop pays ~zero cost when telemetry is off.

Instrumentation never consumes randomness and never branches simulation
logic, so results are bit-identical with telemetry on or off (pinned by
``tests/telemetry/test_determinism.py``).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.common.errors import ValidationError

DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0,
    60.0, 120.0, 300.0, 600.0,
)

LabelValues = tuple[str, ...]


def _label_key(labelnames: tuple[str, ...], kv: dict[str, str]) -> LabelValues:
    if set(kv) != set(labelnames):
        raise ValidationError(
            f"labels {sorted(kv)} do not match declared {sorted(labelnames)}"
        )
    return tuple(str(kv[name]) for name in labelnames)


# --------------------------------------------------------------------------- samples
@dataclass(frozen=True, slots=True)
class Sample:
    """One child's exported state: scalar value or histogram triple."""

    labels: dict[str, str]
    value: float = 0.0
    sum: float = 0.0
    count: int = 0
    buckets: tuple[int, ...] = ()  # per-bucket (non-cumulative) counts


@dataclass(frozen=True, slots=True)
class MetricSnapshot:
    """Immutable export view of one metric family."""

    name: str
    type: str  # "counter" | "gauge" | "histogram"
    help: str
    labelnames: tuple[str, ...]
    bucket_bounds: tuple[float, ...] = ()
    samples: tuple[Sample, ...] = ()


# --------------------------------------------------------------------------- metrics
class _Metric:
    """Common family behaviour: label binding and child storage."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...]) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[LabelValues, object] = {}

    def labels(self, **kv: str) -> "_Metric":
        """The child bound to one label-value combination."""
        key = _label_key(self.labelnames, kv)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child  # type: ignore[return-value]

    def _make_child(self):
        raise NotImplementedError

    def _default_child(self):
        """The unlabeled child (for metrics declared without labelnames)."""
        if self.labelnames:
            raise ValidationError(
                f"metric {self.name} declares labels {self.labelnames}; "
                "use .labels(...)"
            )
        return self.labels()

    def snapshot(self) -> MetricSnapshot:
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing count (events, seconds, dollars)."""

    kind = "counter"

    class _Child:
        __slots__ = ("value",)

        def __init__(self) -> None:
            self.value = 0.0

        def inc(self, amount: float = 1.0) -> None:
            if amount < 0:
                raise ValidationError(f"counter increment must be >= 0, got {amount}")
            self.value += amount

    def _make_child(self) -> "_Child":
        return Counter._Child()

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        """Unlabeled value (0.0 before the first increment)."""
        if not self._children and not self.labelnames:
            return 0.0
        return self._default_child().value

    def snapshot(self) -> MetricSnapshot:
        return MetricSnapshot(
            name=self.name, type=self.kind, help=self.help,
            labelnames=self.labelnames,
            samples=tuple(
                Sample(labels=dict(zip(self.labelnames, key)), value=child.value)
                for key, child in sorted(self._children.items())
            ),
        )


class Gauge(_Metric):
    """A value that can go up and down (occupancy, latest prediction)."""

    kind = "gauge"

    class _Child:
        __slots__ = ("value",)

        def __init__(self) -> None:
            self.value = 0.0

        def set(self, value: float) -> None:
            self.value = float(value)

        def inc(self, amount: float = 1.0) -> None:
            self.value += amount

        def dec(self, amount: float = 1.0) -> None:
            self.value -= amount

    def _make_child(self) -> "_Child":
        return Gauge._Child()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    @property
    def value(self) -> float:
        if not self._children and not self.labelnames:
            return 0.0
        return self._default_child().value

    def snapshot(self) -> MetricSnapshot:
        return MetricSnapshot(
            name=self.name, type=self.kind, help=self.help,
            labelnames=self.labelnames,
            samples=tuple(
                Sample(labels=dict(zip(self.labelnames, key)), value=child.value)
                for key, child in sorted(self._children.items())
            ),
        )


class Histogram(_Metric):
    """Distribution over fixed buckets (latencies, wall times, drifts)."""

    kind = "histogram"

    class _Child:
        __slots__ = ("bounds", "counts", "sum", "count")

        def __init__(self, bounds: tuple[float, ...]) -> None:
            self.bounds = bounds
            self.counts = [0] * (len(bounds) + 1)  # last slot = +Inf
            self.sum = 0.0
            self.count = 0

        def observe(self, value: float) -> None:
            self.counts[bisect.bisect_left(self.bounds, value)] += 1
            self.sum += value
            self.count += 1

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValidationError(f"buckets must be strictly increasing: {buckets}")
        self.buckets = tuple(float(b) for b in buckets)

    def _make_child(self) -> "_Child":
        return Histogram._Child(self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def snapshot(self) -> MetricSnapshot:
        return MetricSnapshot(
            name=self.name, type=self.kind, help=self.help,
            labelnames=self.labelnames, bucket_bounds=self.buckets,
            samples=tuple(
                Sample(
                    labels=dict(zip(self.labelnames, key)),
                    sum=child.sum, count=child.count,
                    buckets=tuple(child.counts),
                )
                for key, child in sorted(self._children.items())
            ),
        )


# --------------------------------------------------------------------------- registry
@dataclass
class MetricsRegistry:
    """Creates and owns metric families; the unit of export.

    ``counter``/``gauge``/``histogram`` are get-or-create: calling twice
    with the same name returns the same family, so independent components
    can share a metric without coordination.
    """

    namespace: str = ""
    _metrics: dict[str, _Metric] = field(default_factory=dict)

    @property
    def enabled(self) -> bool:
        return True

    def _get_or_create(self, cls, name: str, help: str, labelnames, **kw) -> _Metric:
        full = f"{self.namespace}_{name}" if self.namespace else name
        existing = self._metrics.get(full)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValidationError(
                    f"metric {full} already registered as {existing.kind}"
                )
            return existing
        metric = cls(full, help, tuple(labelnames), **kw)
        self._metrics[full] = metric
        return metric

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)

    def snapshot(self) -> list[MetricSnapshot]:
        """Stable-ordered export view of every registered family."""
        return [self._metrics[k].snapshot() for k in sorted(self._metrics)]

    def get(self, name: str) -> _Metric | None:
        """Look up a family by full name (None when absent)."""
        return self._metrics.get(name)


class _NullInstrument:
    """One object that satisfies every instrument interface by doing nothing."""

    __slots__ = ()

    value = 0.0

    def labels(self, **kv):
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL = _NullInstrument()


class NullRegistry:
    """The default process-global registry: every operation is a no-op."""

    namespace = ""

    @property
    def enabled(self) -> bool:
        return False

    def counter(self, name: str, help: str = "", labelnames=()) -> _NullInstrument:
        return _NULL

    def gauge(self, name: str, help: str = "", labelnames=()) -> _NullInstrument:
        return _NULL

    def histogram(
        self, name: str, help: str = "", labelnames=(), buckets=DEFAULT_BUCKETS
    ) -> _NullInstrument:
        return _NULL

    def snapshot(self) -> list[MetricSnapshot]:
        return []

    def get(self, name: str) -> None:
        return None
