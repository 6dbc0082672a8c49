"""Tests for the experiment harness plumbing."""

import pytest

from repro.common.errors import ValidationError
from repro.experiments.harness import SCALES, ExperimentResult, get_scale
from repro.workflow.metrics import ComparisonTable


class TestScales:
    def test_three_scales(self):
        assert set(SCALES) == {"tiny", "small", "paper"}

    def test_paper_scale_matches_headline(self):
        sc = SCALES["paper"]
        assert sc.sha_trials == 16384
        spec = sc.sha_spec()
        assert spec.n_stages == 14
        assert len(sc.workloads) == 7

    def test_get_scale_by_name_or_object(self):
        assert get_scale("tiny") is SCALES["tiny"]
        assert get_scale(SCALES["small"]) is SCALES["small"]

    def test_unknown_scale(self):
        with pytest.raises(ValidationError):
            get_scale("gigantic")

    def test_seeds_distinct_and_deterministic(self):
        sc = SCALES["small"]
        assert sc.seeds(0) == sc.seeds(0)
        assert len(set(sc.seeds(0))) == sc.n_seeds
        assert sc.seeds(0) != sc.seeds(1)


class TestExperimentResult:
    def test_render_includes_tables_and_notes(self):
        t = ComparisonTable(columns=["a"], title="T")
        t.add_row(1)
        r = ExperimentResult(
            experiment="figX", title="demo", tables=[t], notes="a note"
        )
        text = r.render()
        assert "figX" in text and "demo" in text
        assert "a note" in text


class TestReportGenerator:
    def test_generate_report_subset(self, monkeypatch):
        """The report generator renders whatever the registry offers."""
        from repro.experiments import report as report_mod

        class TinyRegistry(dict):
            def available(self):
                return ["table1"]

        monkeypatch.setattr(
            report_mod, "REGISTRY", TinyRegistry()
        )
        text = report_mod.generate_report(scale="tiny")
        assert "table1" in text
        assert "```" in text
