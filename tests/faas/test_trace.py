"""Tests for the execution-trace recorder."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ValidationError
from repro.faas.trace import TraceEvent, TraceRecorder
from repro.telemetry.spans import Tracer


class TestRecorder:
    def test_record_and_filter(self):
        rec = TraceRecorder()
        rec.record("a", "compute", 0.0, 1.0, "t1")
        rec.record("b", "sync", 1.0, 0.5, "t1")
        assert len(rec.spans()) == 2
        assert len(rec.spans("sync")) == 1

    def test_spans_sorted_by_start(self):
        rec = TraceRecorder()
        rec.record("late", "c", 5.0, 1.0, "t")
        rec.record("early", "c", 1.0, 1.0, "t")
        assert [e.name for e in rec.spans()] == ["early", "late"]

    def test_negative_duration_rejected(self):
        with pytest.raises(ValidationError):
            TraceRecorder().record("x", "c", 0.0, -1.0, "t")

    def test_total_time_and_summary(self):
        rec = TraceRecorder()
        rec.record("a", "compute", 0.0, 2.0, "t")
        rec.record("b", "compute", 2.0, 3.0, "t")
        rec.record("c", "sync", 5.0, 1.0, "t")
        assert rec.summary() == {"compute": 5.0, "sync": 1.0}

    def test_chrome_trace_valid_json(self):
        rec = TraceRecorder()
        rec.record("a", "compute", 0.0, 1.5, "group:x", epoch=1)
        payload = json.loads(rec.to_chrome_trace())
        events = payload["traceEvents"]
        named = [e for e in events if e.get("ph") == "X"]
        assert named[0]["dur"] == pytest.approx(1.5e6)
        assert any(e.get("ph") == "M" for e in events)  # track names


class TestChromeTraceExport:
    def _recorder(self):
        rec = TraceRecorder()
        rec.record("load", "load", 0.0, 1.0, "group:b", epoch=1)
        rec.record("compute", "compute", 1.0, 4.0, "group:a", epoch=1)
        rec.record("restart", "scheduling", 5.0, 0.5, "scheduler")
        return rec

    def test_round_trips_through_json(self):
        rec = self._recorder()
        payload = json.loads(rec.to_chrome_trace())
        again = json.loads(rec.to_chrome_trace())
        assert payload == again
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert [(e["name"], e["ts"], e["dur"]) for e in spans] == [
            ("load", 0.0, 1.0e6),
            ("compute", 1.0e6, 4.0e6),
            ("restart", 5.0e6, 0.5e6),
        ]
        assert spans[0]["args"] == {"epoch": 1}

    def test_track_tid_mapping_deterministic(self):
        """tids follow the sorted track names, independent of record order."""
        payload = json.loads(self._recorder().to_chrome_trace())
        meta = {
            e["args"]["name"]: e["tid"]
            for e in payload["traceEvents"]
            if e["ph"] == "M"
        }
        assert meta == {"group:a": 1, "group:b": 2, "scheduler": 3}

    def test_meta_thread_names_cover_every_track(self):
        rec = self._recorder()
        payload = json.loads(rec.to_chrome_trace())
        events = payload["traceEvents"]
        named_tids = {e["tid"] for e in events if e["ph"] == "M"}
        span_tids = {e["tid"] for e in events if e["ph"] == "X"}
        assert span_tids <= named_tids
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert names == {e.track for e in rec.events}


class TestDeterministicOrdering:
    def test_equal_starts_tie_broken_by_track(self):
        rec = TraceRecorder()
        rec.record("on-b", "c", 1.0, 1.0, "track-b")
        rec.record("on-a", "c", 1.0, 1.0, "track-a")
        rec.record("first", "c", 0.0, 1.0, "track-z")
        assert [e.name for e in rec.spans()] == ["first", "on-a", "on-b"]

    def test_same_start_same_track_keeps_insertion_order(self):
        """The (start, track) sort is stable: zero-duration markers recorded
        back-to-back must not swap between exports."""
        rec = TraceRecorder()
        for name in ("one", "two", "three"):
            rec.record(name, "c", 2.0, 0.0, "track")
        assert [e.name for e in rec.spans()] == ["one", "two", "three"]
        spans = [
            e
            for e in json.loads(rec.to_chrome_trace())["traceEvents"]
            if e["ph"] == "X"
        ]
        assert [e["name"] for e in spans] == ["one", "two", "three"]

    def test_export_independent_of_record_order(self):
        """Two recorders fed the same spans in different orders export the
        identical Chrome trace document."""
        spans = [
            ("load", "load", 0.0, 1.0, "group:a"),
            ("compute", "compute", 1.0, 4.0, "group:a"),
            ("restart", "scheduling", 5.0, 0.5, "scheduler"),
        ]
        fwd, rev = TraceRecorder(), TraceRecorder()
        for s in spans:
            fwd.record(*s)
        for s in reversed(spans):
            rev.record(*s)
        assert fwd.to_chrome_trace() == rev.to_chrome_trace()

    def test_null_tracer_empty_trace_cached(self):
        from repro.telemetry.spans import NullTracer

        a, b = NullTracer(), NullTracer()
        assert a.to_chrome_trace() is b.to_chrome_trace()
        assert json.loads(a.to_chrome_trace()) == {"traceEvents": []}


class TestWorkerSpanRoundTrip:
    def test_worker_durations_survive_chrome_export(self):
        """Per-worker spans written by the platform round-trip through the
        Chrome JSON: parsed back, they match the InvocationResult exactly."""
        from repro.config import DEFAULT_PLATFORM
        from repro.faas.platform import EpochExecution, FaaSPlatform
        from repro.telemetry import get_tracer, set_tracer
        from repro.telemetry.spans import Tracer

        prev = get_tracer()
        set_tracer(Tracer())
        try:
            platform = FaaSPlatform(platform=DEFAULT_PLATFORM, seed=0)
            result = platform.execute_epoch(
                EpochExecution(
                    group="8fn/1769MB/s3#g0", n_functions=8, memory_mb=1769,
                    load_s=1.0, compute_s=5.0, sync_s=0.5,
                )
            )
            trace = json.loads(platform.tracer.to_chrome_trace())
        finally:
            set_tracer(prev)
        workers = [
            {"duration_s": e["dur"] / 1e6, "args": e["args"]}
            for e in trace["traceEvents"]
            if e["ph"] == "X" and e["cat"] == "worker"
        ]
        workers.sort(key=lambda s: int(s["args"]["rank"]))
        assert [int(s["args"]["rank"]) for s in workers] == list(range(8))
        for span, duration in zip(workers, result.worker_durations_s):
            assert span["duration_s"] == pytest.approx(duration, abs=1e-9)
        # The first epoch of a fresh group is all cold starts.
        assert all(s["args"]["cold"] for s in workers)


def _reference_chrome_trace(events, instants) -> str:
    """The per-event renderer the columnar one must match byte for byte:
    one row dict per event, a stable sort by (start, track), one
    ``json.dumps`` of the whole document."""
    tracks = {
        t: i + 1
        for i, t in enumerate(sorted({e.track for e in events} | {e.track for e in instants}))
    }
    payload = [
        {"name": e.name, "cat": e.category, "ph": "X", "ts": e.start_s * 1e6,
         "dur": e.duration_s * 1e6, "pid": 1, "tid": tracks[e.track], "args": e.args}
        for e in sorted(events, key=lambda e: (e.start_s, e.track))
    ]
    meta = [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "args": {"name": track}}
        for track, tid in tracks.items()
    ]
    marks = [
        {"name": e.name, "cat": e.category, "ph": "i", "ts": e.start_s * 1e6,
         "s": "t", "pid": 1, "tid": tracks[e.track], "args": e.args}
        for e in sorted(instants, key=lambda e: (e.start_s, e.track, e.name))
    ]
    return json.dumps({"traceEvents": meta + payload + marks})


# Few distinct starts and tracks, so ties are common.
_start = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5]), st.floats(0.0, 1e5))
_duration = st.one_of(st.sampled_from([0.0, -0.0, 0.1]), st.floats(0.0, 1e4))
_track = st.sampled_from(["group:8fn/1769MB/s3", "group:a", "scheduler"])
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("span"), st.sampled_from(["load", "sync", "restart"]),
            _start, _duration, _track, st.dictionaries(st.sampled_from("xy"), st.integers(0, 9)),
        ),
        st.integers(0, 6).flatmap(
            lambda n: st.tuples(
                st.just("workers"), _track,
                st.lists(_start, min_size=n, max_size=n),
                st.lists(_duration, min_size=n, max_size=n),
                st.integers(0, n),
            )
        ),
        st.tuples(st.just("instant"), st.sampled_from(["alert", "mark"]), _start, _track),
        st.tuples(st.just("advance"), st.floats(0.0, 100.0)),
    ),
    max_size=12,
)


class TestColumnarWorkerBlocks:
    @given(ops=_ops)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_event_reference(self, ops):
        """Mixed spans and worker blocks, equal starts, shared tracks,
        offsets and instants: the columnar export equals the reference
        renderer fed one TraceEvent per worker, and the readers see the
        same expanded events."""
        tracer = Tracer()
        events, instants = [], []
        for op in ops:
            kind = op[0]
            if kind == "span":
                _, name, start, took, track, args = op
                tracer.span(name, name, start, took, track, **args)
                events.append(TraceEvent(name, name, start + tracer.offset_s, took, track, args))
            elif kind == "workers":
                _, track, starts, durations, n_warm = op
                tracer.workers(track, np.array(starts), durations, n_warm)
                events.extend(
                    TraceEvent(f"worker-{rank}", "worker", begin + tracer.offset_s, took,
                               track, {"rank": rank, "cold": rank >= n_warm})
                    for rank, (begin, took) in enumerate(zip(starts, durations))
                )
            elif kind == "instant":
                _, name, t, track = op
                tracer.instant(name, "slo", t, track)
                instants.append(TraceEvent(name, "slo", t, 0.0, track))
            else:
                tracer.advance(op[1])
        rec = tracer.recorder
        assert rec.to_chrome_trace() == _reference_chrome_trace(events, instants)
        assert rec.events == events
        assert rec.spans() == sorted(events, key=lambda e: (e.start_s, e.track))
        summary: dict[str, float] = {}
        for e in events:
            summary[e.category] = summary.get(e.category, 0.0) + e.duration_s
        assert repr(rec.summary()) == repr(summary)

    def test_block_rejects_negative_and_non_finite(self):
        rec = TraceRecorder()
        with pytest.raises(ValidationError):
            rec.record_workers("t", [0.0, 1.0], [1.0, -1.0], 0)
        with pytest.raises(ValidationError):
            rec.record_workers("t", [0.0, np.inf], [1.0, 1.0], 0)
        with pytest.raises(ValidationError):
            rec.record_workers("t", [0.0], [1.0, 1.0], 0)
        assert rec.events == []

    def test_block_keeps_its_own_copy(self):
        rec = TraceRecorder()
        durations = np.array([1.0, 2.0])
        rec.record_workers("t", np.zeros(2), durations, 1)
        durations[:] = 9.0
        assert [e.duration_s for e in rec.events] == [1.0, 2.0]
