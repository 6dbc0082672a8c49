"""End-to-end `repro analyze` and `repro lint --flow` CLI behaviour."""

import json

import pytest

from repro.cli import main

from tests.analysis.flow.conftest import fixture_tree


def analyze(*argv: str) -> int:
    return main(["analyze", *argv])


def lint(*argv: str) -> int:
    return main(["lint", *argv])


class TestGraph:
    def test_json_document(self, capsys):
        assert analyze("graph", str(fixture_tree("rep009", "bad"))) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-callgraph/v1"
        assert doc["summary"]["n_edges"] > 0

    def test_dot_output(self, capsys):
        assert analyze("graph", str(fixture_tree("rep009", "bad")),
                       "--format", "dot") == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph callgraph {")

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "callgraph.json"
        assert analyze("graph", str(fixture_tree("rep010", "good")),
                       "--out", str(target)) == 0
        doc = json.loads(target.read_text(encoding="utf-8"))
        assert doc["schema"] == "repro-callgraph/v1"

    def test_missing_path_exits_two(self, capsys, tmp_path):
        assert analyze("graph", str(tmp_path / "nope")) == 2


class TestTaint:
    def test_findings_exit_nonzero(self, capsys):
        assert analyze("taint", str(fixture_tree("rep009", "bad")),
                       "--no-baseline") == 1
        out = capsys.readouterr().out
        assert "REP009" in out

    def test_clean_tree_exits_zero(self, capsys):
        assert analyze("taint", str(fixture_tree("rep009", "good")),
                       "--no-baseline") == 0

    def test_json_document_shape(self, capsys):
        assert analyze("taint", str(fixture_tree("rep010", "bad")),
                       "--no-baseline", "--format", "json") == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-lint/v1"
        assert {f["rule"] for f in doc["findings"]} == {"REP010"}


class TestLintFlow:
    def test_flow_flag_adds_flow_findings(self, capsys):
        assert lint(str(fixture_tree("rep009", "bad")),
                    "--no-baseline") == 0
        capsys.readouterr()
        assert lint(str(fixture_tree("rep009", "bad")),
                    "--no-baseline", "--flow", "--format", "json") == 1
        doc = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in doc["findings"]} == {"REP009"}

    def test_flow_rules_listed_only_with_flag(self, capsys):
        assert lint("--list-rules") == 0
        assert "REP009" not in capsys.readouterr().out
        assert lint("--flow", "--list-rules") == 0
        out = capsys.readouterr().out
        for rule_id in ("REP009", "REP010", "REP011", "REP013"):
            assert rule_id in out

    def test_flow_select_requires_flag(self, capsys):
        with pytest.raises(SystemExit):
            lint(str(fixture_tree("rep009", "bad")), "--select", "REP009")

    def test_flow_select_narrows(self, capsys):
        assert lint(str(fixture_tree("rep009", "bad")), "--flow",
                    "--no-baseline", "--select", "REP010") == 0

    def test_json_byte_identical_across_runs(self, capsys):
        args = (str(fixture_tree("rep011", "bad")), "--flow",
                "--no-baseline", "--format", "json")
        lint(*args)
        first = capsys.readouterr().out
        lint(*args)
        second = capsys.readouterr().out
        assert first == second
