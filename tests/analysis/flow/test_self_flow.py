"""Meta-test: the repository passes its own flow analysis.

Mirror of ``tests/analysis/test_self_lint.py`` for the interprocedural
layer: the whole tree must produce zero unbaselined flow findings.
"""

from repro.analysis import Baseline
from repro.analysis.flow import analyze_flow

from tests.analysis.conftest import REPO_ROOT, SRC_REPRO


class TestSelfFlow:
    def test_repo_flow_is_clean_against_committed_baseline(self):
        result = analyze_flow([SRC_REPRO])
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        new, _ = baseline.apply(result.findings)
        details = "\n".join(
            f"{f.path}:{f.line} {f.rule} {f.message}" for f in new
        )
        assert new == [], f"new flow findings:\n{details}"
        assert result.parse_errors == 0

    def test_flow_schemas_registered_for_rep006(self):
        from repro.analysis import SCHEMA_KEYS

        assert SCHEMA_KEYS["repro-callgraph/v1"] == frozenset(
            {"schema", "meta", "nodes", "edges", "summary"}
        )

    def test_flow_analyzer_is_in_rep002_scope(self):
        """The flow package's own documents must never read the host
        clock; REP002's simulated-package scope covers it."""
        from repro.analysis.rules.determinism import _SIM_PACKAGES

        assert "flow" in _SIM_PACKAGES
