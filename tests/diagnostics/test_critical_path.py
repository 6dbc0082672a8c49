"""Critical-path extraction: the decomposition must account for the JCT."""

import json

import pytest

from repro.cli import main
from repro.diagnostics import (
    COMPONENT_ORDER,
    RunObservation,
    analyze_critical_path,
)
from repro.diagnostics.critical_path import RestartOverheadSplit
from repro.diagnostics.timeline import EpochObservation
from repro.slo import EventLog


class TestDecomposition:
    def test_components_sum_to_jct(self, lr_obs):
        """Acceptance: cold+load+compute+sync+scheduling = JCT (±1%)."""
        analysis = analyze_critical_path(lr_obs)
        assert analysis.accounted_s == pytest.approx(lr_obs.jct_s, rel=0.01)
        # The identity is in fact exact for live runs.
        assert analysis.accounted_s == pytest.approx(lr_obs.jct_s, rel=1e-9)

    def test_component_order_and_shares(self, lr_obs):
        analysis = analyze_critical_path(lr_obs)
        assert tuple(c.component for c in analysis.components) == COMPONENT_ORDER
        assert sum(c.share for c in analysis.components) == pytest.approx(
            1.0, rel=1e-9
        )
        for c in analysis.components:
            assert c.seconds >= 0.0

    def test_dominant_component(self, lr_obs):
        analysis = analyze_critical_path(lr_obs)
        assert analysis.dominant.seconds == max(
            c.seconds for c in analysis.components
        )


class TestBottlenecks:
    def test_top_k_sorted_descending(self, lr_obs):
        analysis = analyze_critical_path(lr_obs, top_k=5)
        assert len(analysis.bottlenecks) == 5
        durations = [b.seconds for b in analysis.bottlenecks]
        assert durations == sorted(durations, reverse=True)

    def test_top_k_respected(self, lr_obs):
        assert len(analyze_critical_path(lr_obs, top_k=2).bottlenecks) == 2

    def test_spans_reference_real_epochs(self, lr_obs):
        analysis = analyze_critical_path(lr_obs, top_k=3)
        indices = {e.index for e in lr_obs.epochs}
        for b in analysis.bottlenecks:
            assert b.epoch in indices
            assert b.component in COMPONENT_ORDER


class TestRestartSplit:
    def test_hidden_share(self):
        split = RestartOverheadSplit(hidden_s=3.0, visible_s=1.0)
        assert split.total_s == pytest.approx(4.0)
        assert split.hidden_share == pytest.approx(0.75)

    def test_no_restarts_no_division_by_zero(self):
        assert RestartOverheadSplit(0.0, 0.0).hidden_share == 0.0

    def test_visible_fallback_from_records(self):
        """Without a registry capture, visible overhead comes from the
        restarted epochs' recorded scheduling overhead."""
        epochs = [
            _epoch(1, scheduling=0.0),
            _epoch(2, scheduling=2.5, restarted=True, hidden=1.5),
            _epoch(3, scheduling=0.0),
        ]
        obs = RunObservation(
            epochs=epochs, jct_s=sum(e.wall_s for e in epochs) + 2.5,
            scheduling_overhead_s=2.5, hidden_restart_s=1.5,
            visible_restart_s=None, n_restarts=1,
        )
        analysis = analyze_critical_path(obs)
        assert analysis.restart.visible_s == pytest.approx(2.5)
        assert analysis.restart.hidden_s == pytest.approx(1.5)


def _epoch(index: int, scheduling: float = 0.0, restarted: bool = False,
           hidden: float = 0.0) -> EpochObservation:
    return EpochObservation(
        index=index, alloc_label="4fn/1769MB/s3", allocation=None,
        load_s=1.0, compute_s=5.0, sync_s=2.0, cold_start_s=0.0,
        wall_s=8.0, scheduling_overhead_s=scheduling,
        hidden_restart_overlap_s=hidden, restarted=restarted,
    )


class TestWorkflowSync:
    def test_tuning_sync_survives_the_event_log(self, tmp_path, capsys):
        """A workflow's tuning stages sync off the epoch timeline: the sync
        row equals ``comm_overhead_s`` with or without ``--events``."""
        tel, events = tmp_path / "w.json", tmp_path / "w.jsonl"
        assert main(["workflow", "lr-higgs", "--trials", "16", "--budget", "25",
                     "--seed", "0", "--telemetry", str(tel), "--events", str(events)]) == 0
        capsys.readouterr()
        telemetry = json.loads(tel.read_text())
        log = EventLog.from_jsonl(events.read_text())
        comm = telemetry["run"]["comm_overhead_s"]
        with_log = RunObservation.from_capture(telemetry, log)
        assert 0.0 < sum(e.sync_s for e in with_log.epochs) < comm
        for obs in (RunObservation.from_capture(telemetry), with_log):
            sync = dict((c.component, c.seconds) for c in analyze_critical_path(obs).components)
            assert sync["sync"] == comm

    def test_epoch_sync_without_a_run_total_is_kept(self):
        obs = RunObservation(epochs=[_epoch(1), _epoch(2)], jct_s=16.0)
        sync = analyze_critical_path(obs).components[COMPONENT_ORDER.index("sync")]
        assert sync.seconds == 4.0
