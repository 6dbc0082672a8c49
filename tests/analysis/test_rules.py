"""Golden-fixture and scope tests for every rule in the catalogue."""

from pathlib import Path

import pytest

from repro.analysis import all_rules, analyze_source, rules_by_id

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> (fixture subdir, minimum findings expected in bad.py)
GOLDEN = {
    "REP001": ("rep001", 5),
    "REP002": ("rep002", 3),
    "REP005": ("rep005", 2),
    "REP006": ("rep006", 2),
    "REP007": ("rep007", 3),
    "REP014": ("rep014", 4),
}


class TestGoldenFixtures:
    @pytest.mark.parametrize("rule_id", sorted(GOLDEN))
    def test_bad_fixture_triggers_only_its_rule(self, analyzer, rule_id):
        subdir, minimum = GOLDEN[rule_id]
        result = analyzer.analyze_paths([FIXTURES / subdir])
        bad = [f for f in result.findings if f.path.endswith("bad.py")]
        assert len(bad) >= minimum
        assert {f.rule for f in bad} == {rule_id}

    @pytest.mark.parametrize("rule_id", sorted(GOLDEN))
    def test_good_fixture_is_clean(self, analyzer, rule_id):
        subdir, _ = GOLDEN[rule_id]
        result = analyzer.analyze_paths([FIXTURES / subdir])
        assert [f for f in result.findings if not f.path.endswith("bad.py")] == []

    def test_catalogue_covers_at_least_six_rules(self):
        assert len({r.rule_id for r in all_rules()}) >= 6

    def test_findings_carry_catalogue_severity(self, analyzer):
        by_id = rules_by_id()
        result = analyzer.analyze_paths([FIXTURES])
        assert result.findings
        for f in result.findings:
            assert f.severity == by_id[f.rule].severity


class TestRuleScoping:
    """Path-scoped rules fire only inside their packages."""

    def test_rng_module_is_exempt_from_rep001(self):
        src = "import numpy as np\nx = np.random.rand()\n"
        rule = [rules_by_id()["REP001"]]
        assert analyze_source(src, rule, relpath="repro/common/rng.py") == []
        assert analyze_source(src, rule, relpath="repro/faas/worker.py") != []

    def test_wall_clock_allowed_outside_simulated_packages(self):
        src = "import time\nstart = time.perf_counter()\n"
        rule = [rules_by_id()["REP002"]]
        assert analyze_source(src, rule, relpath="repro/telemetry/timer.py") == []
        assert analyze_source(src, rule, relpath="repro/faas/clock.py") != []

    def test_benchmarks_exempt_from_wall_clock(self, analyzer):
        result = analyzer.analyze_paths([FIXTURES / "rep002"])
        assert not any("exempt.py" in f.path for f in result.findings)


class TestRuleDetails:
    def test_bare_except_always_flagged(self):
        src = "try:\n    pass\nexcept:\n    pass\n"
        assert analyze_source(src, [rules_by_id()["REP005"]]) != []

    def test_broad_except_with_reraise_allowed(self):
        src = "try:\n    pass\nexcept Exception:\n    raise\n"
        assert analyze_source(src, [rules_by_id()["REP005"]]) == []

    def test_import_aliases_resolved(self):
        src = "import numpy.random as nr\nx = nr.rand()\n"
        assert analyze_source(src, [rules_by_id()["REP001"]]) != []

    def test_seeded_numpy_generator_allowed(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(0)\n"
            "x = rng.normal()\n"
        )
        assert analyze_source(src, [rules_by_id()["REP001"]]) == []

    def test_sorted_set_iteration_allowed(self):
        src = "s = {1, 2}\nout = [x for x in sorted(s)]\n"
        assert analyze_source(src, [rules_by_id()["REP007"]]) == []

    def test_set_membership_allowed(self):
        src = "s = {1, 2}\nok = 1 in s\nn = len(s)\n"
        assert analyze_source(src, [rules_by_id()["REP007"]]) == []


class TestSuppression:
    def test_inline_ignore_with_rule_id(self):
        src = "try:\n    pass\nexcept Exception:  # lint: ignore[REP005]\n    pass\n"
        assert analyze_source(src, [rules_by_id()["REP005"]]) == []

    def test_inline_ignore_bare_suppresses_all(self):
        src = "try:\n    pass\nexcept Exception:  # lint: ignore\n    pass\n"
        assert analyze_source(src, [rules_by_id()["REP005"]]) == []

    def test_inline_ignore_wrong_id_does_not_suppress(self):
        src = "try:\n    pass\nexcept Exception:  # lint: ignore[REP001]\n    pass\n"
        assert analyze_source(src, [rules_by_id()["REP005"]]) != []

    def test_skip_file_pragma(self):
        src = "# lint: skip-file\ntry:\n    pass\nexcept:\n    pass\n"
        assert analyze_source(src, all_rules()) == []


class TestParseErrors:
    def test_syntax_error_becomes_rep000(self, analyzer, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n", encoding="utf-8")
        result = analyzer.analyze_paths([broken])
        assert result.parse_errors == 1
        assert [f.rule for f in result.findings] == ["REP000"]
