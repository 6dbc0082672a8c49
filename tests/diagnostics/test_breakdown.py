"""The breakdown of `repro diagnose`: where the time and the money went.

Without an epoch timeline the critical path's cold-start, sync and
scheduling come from the telemetry totals; the breakdown block holds the
cost split by billed component, the activity counters and the peaks.
"""

import json

import pytest

from repro.cli import main
from repro.diagnostics import RunObservation, diagnose
from repro.runs import Instruments
from repro.slo import EventLog
from repro.telemetry.exporters import to_json
from repro.telemetry.metrics import MetricsRegistry
from repro.workflow.runner import run_training


def _registry_for_run() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("repro_faas_cold_start_seconds_total").inc(5.0)
    reg.counter("repro_faas_invocations_total").inc(120)
    reg.counter("repro_faas_cold_starts_total").inc(10)
    reg.counter("repro_faas_billed_gb_seconds_total").inc(333.0)
    usd = reg.counter("repro_faas_billed_usd_total", labelnames=("component",))
    usd.labels(component="invocation").inc(0.01)
    usd.labels(component="compute").inc(0.08)
    usd.labels(component="storage").inc(0.01)
    reg.counter("repro_scheduler_reallocations_total").inc(3)
    reg.counter("repro_scheduler_restart_hidden_seconds_total").inc(4.0)
    return reg


RUN = {"jct_s": 100.0, "cost_usd": 0.1, "comm_overhead_s": 20.0,
       "scheduling_overhead_s": 2.0}


def _diagnose(reg: MetricsRegistry, run: dict | None = None, meta: dict | None = None):
    """Diagnose the telemetry document ``reg`` and ``run`` would capture."""
    doc = json.loads(to_json(reg.snapshot(), run=RUN if run is None else run, meta=meta))
    return diagnose(RunObservation.from_capture(doc))


class TestBreakdown:
    def test_time_shares_are_fractions_of_jct(self):
        report = _diagnose(_registry_for_run())
        cp = report.critical_path
        rows = {c.component: c for c in cp.components}
        assert cp.jct_s == 100.0
        assert rows["cold-start"].share == 0.05
        assert "queue" not in rows
        assert rows["sync"].share == 0.2
        assert rows["scheduling"].share == 0.02
        assert rows["load"].seconds == rows["compute"].seconds == 0.0
        assert cp.accounted_s == 5.0 + 20.0 + 2.0
        assert cp.restart.hidden_s == 4.0

    def test_cost_split_by_component(self):
        b = _diagnose(_registry_for_run()).breakdown
        assert b.cost_usd == 0.1
        assert list(b.cost) == ["invocation", "compute", "storage"]
        assert b.share(b.cost["compute"]) == pytest.approx(0.8)
        assert b.share(b.cost["invocation"]) == pytest.approx(0.1)
        assert b.share(b.cost["storage"]) == pytest.approx(0.1)

    def test_extra_billed_labels_sorted_last(self):
        reg = _registry_for_run()
        usd = reg.get("repro_faas_billed_usd_total")
        usd.labels(component="egress").inc(0.02)
        usd.labels(component="api").inc(0.03)
        payload = _diagnose(reg).to_payload()["breakdown"]
        assert [row["component"] for row in payload["cost"]] == [
            "invocation", "compute", "storage", "api", "egress",
        ]
        assert payload["cost"][4]["usd"] == 0.02

    def test_activity_counts(self):
        activity = _diagnose(_registry_for_run()).breakdown.activity
        assert activity["invocations"] == 120
        assert activity["cold_starts"] == 10
        assert activity["scheduler_reallocations"] == 3
        assert activity["billed_gb_seconds"] == 333.0

    def test_total_cost_falls_back_to_billed_sum(self):
        run = {k: v for k, v in RUN.items() if k != "cost_usd"}
        assert _diagnose(_registry_for_run(), run=run).breakdown.cost_usd == (
            pytest.approx(0.1)
        )

    def test_peaks_come_from_the_platform_gauges(self):
        reg = _registry_for_run()
        assert _diagnose(reg).breakdown.peaks == {"concurrency": 0.0, "warm_pool": 0.0}
        reg.gauge("repro_faas_concurrency_peak_in_use").set(12.0)
        reg.gauge("repro_faas_warm_pool_peak").set(7.0)
        assert _diagnose(reg).breakdown.peaks == {"concurrency": 12.0, "warm_pool": 7.0}
        # A capture written while the sampler's peaks rode in the run
        # summary still loads; the gauges alone give the peaks.
        sampled = dict(RUN, peaks={"concurrency": 9.0, "warm_pool": 3.0,
                                   "storage_bandwidth_mb_s": 40.0})
        assert _diagnose(reg, run=sampled).breakdown.peaks == {
            "concurrency": 12.0, "warm_pool": 7.0,
        }

    def test_empty_capture_renders_without_error(self):
        report = _diagnose(MetricsRegistry(), run={})
        assert "breakdown (cost $0.000000)" in report.render()
        payload = report.to_payload()["breakdown"]
        assert all(row["share"] is None for row in payload["cost"])
        assert set(payload["activity"].values()) == {0.0}

    def test_render_contains_sections_and_percent(self):
        text = _diagnose(
            _registry_for_run(), meta={"command": "train", "workload": "lr-higgs"}
        ).render()
        assert "diagnostics: workload=lr-higgs" in text
        assert "critical path (JCT 100.000 s)" in text
        assert "accounted 27.000 s of 100.000 s" in text
        assert "breakdown (cost $0.100000)" in text
        assert "(  5.0%)" in text  # cold-start share of JCT
        assert "$0.080000  ( 80.0%)" in text

    def test_render_is_json_free_plain_text(self):
        text = _diagnose(_registry_for_run()).render()
        for line in text.splitlines():
            assert not line.startswith("{")
        json.dumps(text)  # printable


#: The rows `repro report` printed for the two captures below before it
#: was folded into `repro diagnose`: (diagnose line prefix, value, share).
#: Its `queue` row, always 0.000 s, is gone with the queue wait. Its train
#: `peak warm pool` read 0.0 because the capture has no --timeseries; the
#: peak is a platform gauge now, so it reads the pool's 300 instances.
REPORT_ROWS = {
    "train": [
        ("critical path (JCT", "80.377 s", None),
        ("cold-start", "1.847 s", "(  2.3%)"),
        ("sync", "49.173 s", "( 61.2%)"),
        ("scheduling", "1.440 s", "(  1.8%)"),
        ("restarts:", "hidden 0.000 s", None),
        ("breakdown (cost", "$1.998288", None),
        ("invocation cost", "$0.002280", "(  0.1%)"),
        ("compute cost", "$1.550431", "( 77.6%)"),
        ("storage cost", "$0.445577", "( 22.3%)"),
        ("invocations", "11400.0", None),
        ("cold starts", "300.0", None),
        ("warm-pool hits", "11100.0", None),
        ("warm-pool evictions", "0.0", None),
        ("billed GB-seconds", "93025.7", None),
        ("scheduler reallocations", "0.0", None),
        ("planner candidates evaluated", "0.0", None),
        ("peak concurrency in use", "300.0", None),
        ("peak warm pool", "300.0", None),
    ],
    "tune": [
        ("critical path (JCT", "252.403 s", None),
        ("cold-start", "0.000 s", "(  0.0%)"),
        ("sync", "64.698 s", "( 25.6%)"),
        ("scheduling", "1.800 s", "(  0.7%)"),
        ("restarts:", "hidden 0.000 s", None),
        ("breakdown (cost", "$1.292723", None),
        ("invocation cost", "$0.000000", "(  0.0%)"),
        ("compute cost", "$0.000000", "(  0.0%)"),
        ("storage cost", "$0.000000", "(  0.0%)"),
        ("invocations", "0.0", None),
        ("cold starts", "0.0", None),
        ("warm-pool hits", "0.0", None),
        ("warm-pool evictions", "0.0", None),
        ("billed GB-seconds", "0.0", None),
        ("scheduler reallocations", "0.0", None),
        ("planner candidates evaluated", "32405.0", None),
        ("peak concurrency in use", "0.0", None),
        ("peak warm pool", "0.0", None),
    ],
}


@pytest.fixture(scope="module")
def captures(tmp_path_factory):
    """A `train --events` and a `tune` telemetry capture of lr-higgs."""
    out = tmp_path_factory.mktemp("breakdown")
    assert main(["train", "lr-higgs", "--budget", "2.0", "--seed", "0",
                 "--telemetry", str(out / "train.json"),
                 "--events", str(out / "train.events.jsonl")]) == 0
    assert main(["tune", "lr-higgs", "--trials", "16", "--seed", "0",
                 "--telemetry", str(out / "tune.json")]) == 0
    return out


class TestCaptures:
    @pytest.mark.parametrize("kind", ["train", "tune"])
    def test_every_report_number_appears(self, captures, kind, capsys):
        capsys.readouterr()
        argv = ["diagnose", str(captures / f"{kind}.json")]
        if kind == "train":
            argv += ["--events", str(captures / "train.events.jsonl")]
        assert main(argv) == 0
        lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
        for prefix, value, share in REPORT_ROWS[kind]:
            line = next(line for line in lines if line.startswith(prefix))
            assert value in line, (prefix, line)
            assert share is None or share in line, (prefix, line)
        # Nothing records storage requests or storage bandwidth: no such rows.
        assert not [line for line in lines
                    if line.startswith(("queue", "storage requests",
                                        "peak storage bandwidth"))]

    def test_totals_agree_with_the_timeline(self, captures):
        telemetry = json.loads((captures / "train.json").read_text())
        log = EventLog.from_jsonl((captures / "train.events.jsonl").read_text())
        totals = diagnose(RunObservation.from_capture(telemetry)).critical_path
        timeline = diagnose(RunObservation.from_capture(telemetry, log)).critical_path
        by_totals = {c.component: c.seconds for c in totals.components}
        for c in timeline.components:
            if c.component in ("cold-start", "sync", "scheduling"):
                assert by_totals[c.component] == pytest.approx(c.seconds, abs=1e-6)
        assert by_totals["sync"] > 0

    def test_tune_sync_is_the_run_summary(self, captures, capsys):
        capsys.readouterr()
        assert main(["diagnose", str(captures / "tune.json"), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        run = json.loads((captures / "tune.json").read_text())["run"]
        sync = next(c for c in payload["critical_path"]["components"]
                    if c["component"] == "sync")
        assert sync["seconds"] == round(run["comm_overhead_s"], 9) > 0
        assert payload["schema"] == "repro-diagnostics/v4"

    @pytest.mark.parametrize("kinds", [{"telemetry"}, {"telemetry", "timeseries"}],
                             ids=["gauge", "sampler"])
    def test_live_matches_capture(
        self, kinds, tmp_path, lr_higgs, lr_profile
    ):
        """Live `diagnose` (the rendered telemetry plus the in-memory event
        log) and the saved telemetry file alone give the same breakdown:
        the epoch timeline does not feed it."""
        path = tmp_path / "telemetry.json"
        with Instruments({"workload": "lr-higgs"}, kinds=kinds | {"events"},
                         paths={"telemetry": path}) as ins:
            run = run_training(lr_higgs, budget_usd=2.0, seed=0, profile=lr_profile)
            r = run.result
            ins.set_run_summary({"jct_s": r.jct_s, "cost_usd": r.cost_usd,
                                 "comm_overhead_s": r.comm_overhead_s,
                                 "scheduling_overhead_s": r.scheduling_overhead_s})
        live = diagnose(RunObservation.from_capture(
            json.loads(ins.texts["telemetry"]), ins.log))
        saved = diagnose(RunObservation.from_capture(json.loads(path.read_text())))
        assert live.breakdown == saved.breakdown
        assert (live.to_payload()["breakdown"]
                == saved.to_payload()["breakdown"])
        assert live.breakdown.peaks["concurrency"] > 0
        assert live.breakdown.peaks["warm_pool"] > 0
        if ins.sampler is not None:
            # One source: the gauges equal the capture's high-water marks.
            peaks = {entry["name"]: entry["high_water"]
                     for entry in ins.payloads["timeseries"]["series"]}
            assert live.breakdown.peaks == {
                "concurrency": peaks["platform.inflight"],
                "warm_pool": peaks["platform.warm_pool"],
            }
