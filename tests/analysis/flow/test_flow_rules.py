"""Golden-fixture tests for the interprocedural rules REP009–REP011, REP013."""

import pytest

from repro.analysis import all_rules
from repro.analysis.flow import analyze_flow, flow_rules, flow_rules_by_id

from tests.analysis.flow.conftest import fixture_tree

#: rule id -> (fixture subdir, exact findings expected in the bad tree)
GOLDEN = {
    "REP009": ("rep009", 3),
    "REP010": ("rep010", 3),
    "REP011": ("rep011", 2),
    "REP013": ("rep013", 2),
}


class TestGoldenFixtures:
    @pytest.mark.parametrize("rule_id", sorted(GOLDEN))
    def test_bad_fixture_triggers_only_its_rule(self, rule_id):
        subdir, expected = GOLDEN[rule_id]
        result = analyze_flow([fixture_tree(subdir, "bad")])
        assert len(result.findings) == expected
        assert {f.rule for f in result.findings} == {rule_id}

    @pytest.mark.parametrize("rule_id", sorted(GOLDEN))
    def test_good_fixture_is_clean(self, rule_id):
        subdir, _ = GOLDEN[rule_id]
        result = analyze_flow([fixture_tree(subdir, "good")])
        assert result.findings == []

    @pytest.mark.parametrize("rule_id", sorted(GOLDEN))
    def test_select_narrows_to_one_rule(self, rule_id):
        subdir, expected = GOLDEN[rule_id]
        result = analyze_flow(
            [fixture_tree(subdir, "bad")], select={rule_id}
        )
        assert len(result.findings) == expected
        other = set(GOLDEN) - {rule_id}
        narrowed = analyze_flow([fixture_tree(subdir, "bad")], select=other)
        assert narrowed.findings == []

    def test_findings_carry_catalogue_severity(self):
        by_id = flow_rules_by_id()
        for rule_id, (subdir, _) in sorted(GOLDEN.items()):
            result = analyze_flow([fixture_tree(subdir, "bad")])
            for finding in result.findings:
                assert finding.severity == by_id[finding.rule].severity


class TestCatalogue:
    def test_flow_rule_ids_are_appended_after_per_file_rules(self):
        per_file = {r.rule_id for r in all_rules()}
        flow = {r.rule_id for r in flow_rules()}
        assert flow == {"REP009", "REP010", "REP011", "REP013"}
        assert not (per_file & flow)

    def test_flow_rules_have_rationales_and_names(self):
        for rule in flow_rules():
            assert rule.rationale
            assert rule.name
            assert rule.severity in ("error", "warning")

    def test_per_module_check_is_empty(self):
        """Flow rules are project-level: the per-file hook yields nothing,
        so registering them alongside per-file rules is harmless."""
        from repro.analysis.core import build_context
        from tests.analysis.conftest import SRC_REPRO

        path = SRC_REPRO / "cli.py"
        ctx = build_context(path, "repro/cli.py")
        for rule in flow_rules():
            assert list(rule.check(ctx)) == []


class TestSuppression:
    def test_inline_pragma_suppresses_flow_finding(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "mod.py").write_text(
            "from repro.common.rng import stream_for\n"
            "\n"
            "\n"
            "def unlabeled(seed):\n"
            "    return stream_for(seed)  # lint: ignore[REP010]\n",
            encoding="utf-8",
        )
        result = analyze_flow([pkg])
        assert result.findings == []
        assert result.suppressed == 1

    def test_skip_file_excludes_module_from_index(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "mod.py").write_text(
            "# lint: skip-file\n"
            "from repro.common.rng import stream_for\n"
            "\n"
            "RNG = stream_for(0)\n",
            encoding="utf-8",
        )
        result = analyze_flow([pkg])
        assert result.findings == []
