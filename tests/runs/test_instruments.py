"""Instruments: one lifecycle for every capture kind.

Each case names the capture kind, the constructor arguments that request
it, and the process-global getter of the collector it installs.
"""

import json

import pytest

from repro.common.errors import ValidationError
from repro.profiling import get_profiler
from repro.runs import BUNDLE_KINDS, Instruments, ProvenanceStamp, RunStore
from repro.slo import SLOSpec
from repro.slo.events import get_event_bus
from repro.telemetry import get_registry, get_tracer
from repro.timeseries import get_sampler

SPEC = SLOSpec(name="quiet", deadline_s=1e15, budget_usd=1e15)

CASES = {
    "telemetry": ({"kinds": {"telemetry"}}, get_registry),
    "trace": ({"kinds": {"trace"}}, get_tracer),
    "events": ({"kinds": {"events"}}, get_event_bus),
    "slo": ({"slo": SPEC}, get_event_bus),
    "profile": ({"kinds": {"profile"}}, get_profiler),
    "flamegraph": ({"kinds": {"flamegraph"}}, get_profiler),
    "timeseries": ({"kinds": {"timeseries"}}, get_sampler),
}

GETTERS = (get_registry, get_tracer, get_event_bus, get_profiler, get_sampler)

KINDS = sorted(CASES)


def _observe() -> None:
    """A few observations on whatever collectors are live."""
    get_registry().counter("probe_total", "probe").inc()
    get_tracer().span("probe", "test", 0.0, 1.0, "track")
    get_event_bus().emit("epoch_done", 1.0, scope="train", epoch=1)
    get_sampler().sample("probe", 1.0, 2.0)


def test_inert_with_nothing_requested():
    before = [get() for get in GETTERS]
    with Instruments() as ins:
        assert [get() for get in GETTERS] == before
        assert not any(get().enabled for get in GETTERS)
        _observe()
    assert [get() for get in GETTERS] == before
    assert ins.texts == {}


@pytest.mark.parametrize("kind", KINDS)
def test_installs_and_restores(kind):
    kwargs, get = CASES[kind]
    before = get()
    with Instruments(**kwargs) as ins:
        live = get()
        assert live is not before and live.enabled
        _observe()
    assert get() is before
    assert kind in ins.texts


@pytest.mark.parametrize("kind", KINDS)
def test_nests_and_restores_the_outer_collector(kind):
    kwargs, get = CASES[kind]
    before = get()
    with Instruments(**kwargs):
        outer = get()
        with Instruments(**kwargs):
            assert get() is not outer and get().enabled
        assert get() is outer
    assert get() is before


@pytest.mark.parametrize("kind", KINDS)
def test_crash_writes_nothing_and_restores(kind, tmp_path):
    kwargs, get = CASES[kind]
    path = tmp_path / kind
    before = get()
    ins = Instruments(paths={kind: path}, **kwargs)
    with pytest.raises(RuntimeError):
        with ins:
            _observe()
            raise RuntimeError("boom")
    assert not path.exists()
    assert ins.texts == {}
    assert get() is before


@pytest.mark.parametrize("kind", KINDS)
def test_clean_exit_writes_the_text_it_bundles(kind, tmp_path):
    kwargs, _ = CASES[kind]
    path = tmp_path / kind
    with Instruments(paths={kind: path}, **kwargs) as ins:
        _observe()
    assert path.read_text() == ins.texts[kind]


def test_bus_events_become_sampler_markers():
    """The sampler goes in after the bus, so it sees every event."""
    with Instruments(kinds={"events", "timeseries"}) as ins:
        get_event_bus().emit("epoch_done", 2.5, scope="train", epoch=1)
    assert [(m.kind, m.t_s, m.label) for m in ins.sampler.markers] == [
        ("epoch_done", 2.5, "train")
    ]
    assert [e.kind for e in ins.log.events] == ["epoch_done"]


def test_guard_mirrors_into_the_registry_and_tracer_installed_first():
    with Instruments(kinds={"telemetry", "trace"}, slo=SLOSpec(name="t", deadline_s=1.0)) as ins:
        get_event_bus().emit("epoch_done", 2.0, scope="train", epoch=1, wall_s=2.0)
    assert ins.registry.get("repro_slo_alerts_total") is not None
    trace = json.loads(ins.texts["trace"])
    assert any(e.get("ph") == "i" for e in trace["traceEvents"])
    assert ins.slo_report.violated


def test_captures_drop_argv_and_the_manifest_keeps_it(tmp_path):
    stamp = ProvenanceStamp.collect("train", workload="w", argv=["train", "--x", "a.json"])
    with Instruments(stamp, kinds=BUNDLE_KINDS) as ins:
        _observe()
    bundle = ins.save(RunStore(tmp_path))
    assert bundle.manifest()["meta"]["provenance"]["argv"] == ["train", "--x", "a.json"]
    for kind in ("telemetry", "timeseries"):
        assert json.loads(ins.texts[kind])["meta"]["provenance"]["argv"] == []
    header = json.loads(ins.texts["events"].splitlines()[0])
    assert header["meta"]["provenance"]["argv"] == []
    assert sorted(ins.texts) == sorted(BUNDLE_KINDS)


@pytest.mark.parametrize(
    "kwargs",
    [{"kinds": {"nosuch"}}, {"paths": {"bogus": "x.json"}}, {"kinds": {"slo"}}],
    ids=["unknown-kind", "unknown-path-kind", "slo-without-spec"],
)
def test_bad_requests_rejected(kwargs):
    with pytest.raises(ValidationError):
        Instruments(**kwargs)
