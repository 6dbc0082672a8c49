"""End-to-end `repro lint` CLI behaviour."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
BAD_DIR = str(FIXTURES / "rep005")


def lint(*argv: str) -> int:
    return main(["lint", *argv])


def _assert_one_error_line(capsys, fragment: str) -> None:
    err = capsys.readouterr().err
    assert err.startswith("repro lint: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert fragment in err


class TestExitCodes:
    def test_findings_exit_nonzero(self, capsys):
        assert lint(BAD_DIR, "--no-baseline") == 1

    def test_clean_tree_exits_zero(self, capsys, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert lint(str(tmp_path), "--no-baseline") == 0

    def test_missing_path_exits_two(self, capsys, tmp_path):
        assert lint(str(tmp_path / "nope"), "--no-baseline") == 2

    def test_unknown_rule_id_rejected(self, capsys):
        assert lint(BAD_DIR, "--select", "REP999") == 2
        _assert_one_error_line(capsys, "unknown rule id(s) REP999")

    @pytest.mark.parametrize(
        "flag, rule_id",
        [("--ignore", "REP999"), ("--select", "REP003"), ("--select", "REP004"),
         ("--ignore", "REP008"), ("--select", "REP009")],
    )
    def test_unknown_or_retired_id_rejected(self, capsys, flag, rule_id):
        assert lint(BAD_DIR, flag, rule_id) == 2
        _assert_one_error_line(capsys, f"unknown rule id(s) {rule_id}")

    @pytest.mark.parametrize(
        "document",
        [[1, 2], "str", {"schema": "repro-baseline/v1", "entries": 5},
         {"schema": "repro-baseline/v1", "entries": [
             {"rule": "REP005", "path": "p", "snippet": "s",
              "count": float("inf")}]}],
        ids=["list", "string", "int-entries", "infinite-count"],
    )
    def test_malformed_baseline_exits_two(self, capsys, tmp_path, document):
        baseline = tmp_path / "lint-baseline.json"
        baseline.write_text(json.dumps(document))
        assert lint(BAD_DIR, "--baseline", str(baseline)) == 2
        _assert_one_error_line(capsys, str(baseline))


class TestOutputFormats:
    def test_table_lists_findings(self, capsys):
        lint(BAD_DIR, "--no-baseline")
        out = capsys.readouterr().out
        assert "REP005" in out
        assert "bad.py" in out
        assert "new finding(s)" in out

    def test_json_document_shape(self, capsys):
        lint(BAD_DIR, "--no-baseline", "--format", "json")
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-lint/v1"
        assert doc["tool"]["name"] == "repro-lint"
        assert doc["summary"]["new"] == len(doc["findings"]) > 0
        assert {f["rule"] for f in doc["findings"]} == {"REP005"}

    def test_json_byte_identical_across_runs(self, capsys):
        lint(str(FIXTURES), "--no-baseline", "--format", "json")
        first = capsys.readouterr().out
        lint(str(FIXTURES), "--no-baseline", "--format", "json")
        second = capsys.readouterr().out
        assert first == second

    def test_list_rules(self, capsys):
        assert lint("--list-rules") == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()[1:]
                  if line.startswith("REP")]
        assert listed == ["REP001", "REP002", "REP005", "REP006", "REP007",
                          "REP014"]


class TestSelection:
    def test_select_restricts_rules(self, capsys):
        lint(str(FIXTURES), "--no-baseline", "--select", "REP001",
             "--format", "json")
        doc = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in doc["findings"]} == {"REP001"}

    def test_ignore_removes_rules(self, capsys):
        lint(str(FIXTURES), "--no-baseline", "--ignore", "REP001",
             "--format", "json")
        doc = json.loads(capsys.readouterr().out)
        assert "REP001" not in {f["rule"] for f in doc["findings"]}


class TestBaselineWorkflow:
    def test_write_then_apply_baseline(self, capsys, tmp_path):
        baseline = tmp_path / "lint-baseline.json"
        assert lint(BAD_DIR, "--write-baseline", "--baseline", str(baseline)) == 0
        payload = json.loads(baseline.read_text())
        assert payload["schema"] == "repro-baseline/v1"
        assert payload["entries"]

        assert lint(BAD_DIR, "--baseline", str(baseline)) == 0
        out = capsys.readouterr().out
        assert "0 new finding(s)" in out
        assert "(baselined)" in out

    def test_no_baseline_flag_reports_everything(self, capsys, tmp_path):
        baseline = tmp_path / "lint-baseline.json"
        assert lint(BAD_DIR, "--write-baseline", "--baseline", str(baseline)) == 0
        capsys.readouterr()
        assert lint(BAD_DIR, "--no-baseline") == 1


#: A valid ledger accepting the one REP005 finding in the fuzz target.
_VALID_BASELINE = json.dumps({
    "schema": "repro-baseline/v1",
    "entries": [{
        "rule": "REP005", "path": "target.py", "snippet": "except:",
        "count": 1, "reason": "fuzz seed",
    }],
}, indent=2, sort_keys=True).encode()

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)

_entries = st.fixed_dictionaries(
    {key: st.text(max_size=8) for key in ("rule", "path", "snippet")},
    optional={"count": _json_values, "reason": _json_values},
) | _json_values


@st.composite
def _baseline_bytes(draw) -> bytes:
    """A baseline document truncated, byte-mutated or wrongly shaped."""
    kind = draw(st.sampled_from(["truncate", "mutate", "document", "entries"]))
    if kind == "truncate":
        return _VALID_BASELINE[:draw(st.integers(0, len(_VALID_BASELINE)))]
    if kind == "mutate":
        data = bytearray(_VALID_BASELINE)
        for _ in range(draw(st.integers(1, 4))):
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
        return bytes(data)
    if kind == "document":
        return json.dumps(draw(_json_values)).encode()
    entries = draw(st.lists(_entries, max_size=3) | _json_values)
    return json.dumps({"schema": "repro-baseline/v1", "entries": entries}).encode()


class TestBaselineFuzz:
    """Any baseline document ends in exit 0, 1 or 2, never a traceback."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("baseline-fuzz")
        (root / "target.py").write_text("try:\n    pass\nexcept:\n    pass\n")
        return root

    @given(data=_baseline_bytes())
    @settings(max_examples=200, deadline=None)
    def test_lint_survives_any_baseline(self, workdir, data):
        baseline = workdir / "fuzz-baseline.json"
        baseline.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["lint", str(workdir / "target.py"),
                       "--baseline", str(baseline)])
        assert rc in (0, 1, 2)
        if rc == 2:
            assert err.getvalue().startswith("repro lint: ")
            assert err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == ""
