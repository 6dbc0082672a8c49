"""Differential property: the one-module guard against the kept reference.

``reference_guard.py`` keeps the burn-rate accountant, alert engine and
guard as three classes, verbatim. Random specs and random event streams
(every event kind, the ``train``, ``tune`` and ``workflow`` scopes,
clocks that stall and rewind, data fields present or missing) go through
both guards; the alert payloads, the mirrored ``alert_*`` log lines, the
``slo.burn_level`` samples, the alert counters and trace instants and the
``evaluate_guard`` report must be identical. Explicit examples put each
rule's comparison exactly on its boundary, where a random float rarely
lands.
"""

import json

from hypothesis import example, given, settings, strategies as st

from repro.slo import SLOGuard, SLOSpec, evaluate_guard
from repro.slo.events import EVENT_KINDS, Event
from repro.telemetry import MetricsRegistry, Tracer, set_registry, set_tracer
from repro.telemetry.exporters import snapshots_to_payload
from repro.timeseries import TimeSeriesSampler, set_sampler
from tests.slo import reference_guard


def _amount(lo: float, hi: float, nice: tuple[float, ...]):
    """A float in [lo, hi], mostly a round value so that sums land exactly
    on a limit and every boundary of a rule is hit."""
    return st.one_of(
        st.sampled_from(nice), st.sampled_from(nice), st.floats(lo, hi, allow_nan=False)
    )


@st.composite
def specs(draw):
    deadline = draw(st.none() | _amount(0.5, 200.0, (1.0, 5.0, 10.0, 20.0, 50.0)))
    budget = draw(st.none() | _amount(0.01, 5.0, (0.1, 0.5, 1.0, 2.0)))
    stages = draw(
        st.dictionaries(
            st.integers(0, 3), _amount(0.01, 2.0, (0.1, 0.5, 1.0)), max_size=3
        )
    )
    if deadline is None and budget is None and not stages:
        deadline = 10.0
    return SLOSpec(
        name="prop",
        deadline_s=deadline,
        budget_usd=budget,
        stage_budgets_usd=stages,
        warn_ratio=draw(_amount(0.05, 0.99, (0.5, 0.85, 0.9))),
        predictor_drift_threshold=draw(st.none() | _amount(0.01, 2.0, (0.1, 0.25))),
        straggler_slowdown=draw(st.none() | _amount(1.01, 5.0, (1.5, 2.0, 3.0))),
    )


_DATA_KEYS = (
    "epoch", "wall_s", "cost_usd", "straggler_slowdown", "stage",
    "predicted_total_epochs",
)

_EVENT = st.tuples(
    # Every kind, but half the time one that moves the accounting.
    st.sampled_from(EVENT_KINDS)
    | st.sampled_from(("epoch_done", "epoch_done", "predictor_update", "stage_done")),
    st.sampled_from(("train", "tune", "workflow")),
    # Mostly forward; a negative step stalls or rewinds one scope's clock.
    _amount(-3.0, 8.0, (0.0, 0.5, 1.0, 2.0)),
    # One bit per data field: which of them the event carries.
    st.integers(0, 2 ** len(_DATA_KEYS) - 1),
    st.tuples(
        st.integers(0, 60),
        _amount(0.0, 10.0, (0.0, 0.5, 1.0, 2.0, 5.0)),
        _amount(0.0, 1.0, (0.0, 0.01, 0.05, 0.1, 0.5)),
        _amount(1.0, 6.0, (1.0, 1.5, 2.0, 3.0)),
        st.integers(0, 4),
        _amount(0.0, 80.0, (0.0, 1.0, 10.0, 20.0, 40.0)),
    ),
)


@st.composite
def streams(draw):
    events, t_s = [], 0.0
    for kind, scope, step, present, values in draw(st.lists(_EVENT, max_size=50)):
        t_s = max(0.0, t_s + step)
        data = {
            key: value
            for bit, (key, value) in enumerate(zip(_DATA_KEYS, values))
            if present >> bit & 1
        }
        events.append(Event(kind, t_s, scope=scope, data=data))
    return events


def _drive(guard_cls, report_fn, spec, events):
    registry, tracer, sampler = MetricsRegistry(), Tracer(), TimeSeriesSampler()
    set_registry(registry)
    set_tracer(tracer)
    set_sampler(sampler)
    try:
        guard = guard_cls(spec)
        for event in events:
            guard.on_event(event)
    finally:
        set_registry(None)
        set_tracer(None)
        set_sampler(None)
    burn = sampler.series.get("slo.burn_level")
    return {
        "alerts": [a.to_payload() for a in guard.alerts],
        "log": guard.log.to_jsonl(),
        "burn_level": None if burn is None else (burn.times, burn.values, burn.n_samples),
        "metrics": json.dumps(snapshots_to_payload(registry.snapshot()), sort_keys=True),
        "trace": tracer.to_chrome_trace(),
        "report": report_fn(guard).to_json(),
    }


def _events(*rows):
    return [Event(kind, t_s, scope=scope, data=data) for kind, t_s, scope, data in rows]


def _epoch(t_s, wall_s, cost_usd=0.0, scope="train", **data):
    return ("epoch_done", t_s, scope, {"wall_s": wall_s, "cost_usd": cost_usd, **data})


def _predict(t_s, total, scope="train"):
    return ("predictor_update", t_s, scope, {"predicted_total_epochs": total})


@settings(max_examples=300, deadline=None)
@given(spec=specs(), events=streams())
# 10% of the deadline and of the budget consumed at 5% progress: a 2x burn
# exactly on the burn floor.
@example(
    SLOSpec(deadline_s=10.0, budget_usd=1.0),
    _events(_predict(0.0, 20), _epoch(1.0, 1.0, cost_usd=0.1)),
)
# Before any prediction (no projection, no burn rate) the elapsed time and
# the spend land exactly on the warn ratio: not yet burning.
@example(
    SLOSpec(deadline_s=10.0, budget_usd=1.0, warn_ratio=0.5),
    _events(_epoch(5.0, 5.0, cost_usd=0.5)),
)
# Projected completion 1 + 9 x 1 s lands on the deadline; then the clock
# lands on the warn ratio, on the deadline, and a tune clock tips the sum.
@example(
    SLOSpec(deadline_s=10.0, warn_ratio=0.5),
    _events(
        _predict(0.0, 10), _epoch(1.0, 1.0), ("restart_begun", 5.0, "train", {}),
        ("restart_begun", 10.0, "train", {}), ("stage_done", 1.0, "tune", {}),
    ),
)
# Six epochs: only the last five walls price the projection; a stage
# spends exactly its sub-budget; the slowdown equals its threshold.
@example(
    SLOSpec(deadline_s=100.0, stage_budgets_usd={0: 0.5}, straggler_slowdown=3.0),
    _events(
        _predict(0.0, 20), *(_epoch(float(i), float(i)) for i in range(1, 7)),
        ("stage_done", 7.0, "tune", {"stage": 0, "cost_usd": 0.5}),
        _epoch(8.0, 1.0, straggler_slowdown=3.0),
    ),
)
# Predictions that move no clock: a drift exactly at the threshold, then
# past it.
@example(
    SLOSpec(deadline_s=10.0, predictor_drift_threshold=0.25),
    _events(_predict(0.0, 20, "workflow"), _predict(0.0, 25, "workflow"),
            _predict(0.0, 30, "workflow")),
)
def test_guard_matches_reference(spec, events):
    ours = _drive(SLOGuard, evaluate_guard, spec, events)
    theirs = _drive(reference_guard.SLOGuard, reference_guard.evaluate_guard, spec, events)
    assert ours == theirs
