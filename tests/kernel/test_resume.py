"""`repro resume`: crash mid-run, replay, and bundle byte-identity."""

import json

import pytest

from repro.cli import main
from repro.faults.plan import FaultPlan


def _train_args(tmp_path, extra=()):
    return [
        "train", "mobilenet-cifar10", "--seed", "3",
        "--journal", str(tmp_path / "run.journal"),
        "--save-run", str(tmp_path / "store"),
        *extra,
    ]


def _manifests(tmp_path):
    root = tmp_path / "store" / "manifests"
    return sorted(p.name for p in root.glob("*.json")) if root.exists() else []


def _simulate_sigkill(journal_path, keep_epochs):
    """Rewrite the journal as a crash would leave it: ``keep_epochs`` full
    records, then a torn half-written line, and no commit."""
    lines = journal_path.read_text().splitlines()
    kept = lines[: 1 + keep_epochs]
    torn = lines[1 + keep_epochs][:37]
    journal_path.write_text("\n".join(kept) + "\n" + torn)


class TestResumeCLI:
    def test_interrupted_run_resumes_to_identical_bundle(self, tmp_path, capsys):
        assert main(_train_args(tmp_path)) == 0
        out = capsys.readouterr().out
        run_line = next(s for s in out.splitlines() if s.startswith("run"))
        journal = tmp_path / "run.journal"
        finished = journal.read_bytes()
        before = _manifests(tmp_path)
        assert len(before) == 1

        _simulate_sigkill(journal, keep_epochs=20)
        assert main(["resume", str(journal)]) == 0
        resumed = capsys.readouterr().out
        assert "replaying 20 journaled epoch boundary(ies)" in resumed
        # Same run id, same single manifest (the store is content-addressed,
        # so a byte-identical bundle dedups onto the first save), and the
        # journal's bytes match the uninterrupted run's exactly.
        assert run_line in resumed
        assert _manifests(tmp_path) == before
        assert journal.read_bytes() == finished

    def test_resume_after_faulted_crash(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(FaultPlan.default_profile().to_json())
        args = _train_args(tmp_path, extra=["--faults", str(plan)])
        assert main(args) == 0
        capsys.readouterr()
        journal = tmp_path / "run.journal"
        finished = journal.read_bytes()
        before = _manifests(tmp_path)

        _simulate_sigkill(journal, keep_epochs=7)
        assert main(["resume", str(journal)]) == 0
        assert _manifests(tmp_path) == before
        assert journal.read_bytes() == finished

    def test_committed_journal_is_a_noop(self, tmp_path, capsys):
        assert main(_train_args(tmp_path)) == 0
        capsys.readouterr()
        journal = tmp_path / "run.journal"
        stamp = journal.stat().st_mtime_ns
        assert main(["resume", str(journal)]) == 0
        assert "already committed" in capsys.readouterr().out
        assert journal.stat().st_mtime_ns == stamp

    def test_resume_rejects_foreign_journal(self, tmp_path, capsys):
        bogus = tmp_path / "other.journal"
        bogus.write_text(
            json.dumps(
                {"schema": "repro-journal/v1", "kind": "header",
                 "run": {"command": "tune"}, "meta": {}}
            )
            + "\n"
        )
        assert main(["resume", str(bogus)]) == 2
        assert "not resumable" in capsys.readouterr().err

    def test_resume_rejects_missing_journal(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path / "absent.journal")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_divergent_code_path_fails_loudly(self, tmp_path, capsys):
        assert main(_train_args(tmp_path)) == 0
        capsys.readouterr()
        journal = tmp_path / "run.journal"
        lines = journal.read_text().splitlines()
        # Tamper coherently: change a journaled value AND its digest, so
        # the record parses as consistent but no longer matches what the
        # deterministic re-execution produces.
        from repro.kernel import epoch_record_digest

        rec = json.loads(lines[5])
        rec["loss"] = 123.456
        rec["digest"] = epoch_record_digest(rec)
        lines[5] = json.dumps(rec, sort_keys=True)
        journal.write_text("\n".join(lines[:8]) + "\n")
        assert main(["resume", str(journal)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro resume: ") and err.count("\n") == 1
        assert "diverged" in err

    @pytest.mark.parametrize(
        "field, value",
        [("seed", -3), ("method", "nope"), ("budget_multiple", "x"), ("faults", 5),
         ("method", None)],
        ids=["seed", "method", "budget_multiple", "faults", "no-method"],
    )
    def test_resume_reads_only_the_journaled_argv(self, tmp_path, capsys, field, value):
        """The header's parsed-argument copy is not read: resume re-parses
        the journaled argv, so a damaged copy resumes to the same records."""
        journal = tmp_path / "run.journal"
        assert main(["train", "lr-higgs", "--seed", "0", "--journal", str(journal)]) == 0
        header, *records = journal.read_text().splitlines()
        doc = json.loads(header)
        if value is None:
            del doc["run"]["args"][field]
        else:
            doc["run"]["args"][field] = value
        damaged = json.dumps(doc, sort_keys=True)
        journal.write_text("\n".join([damaged, *records[:10]]) + "\n")
        capsys.readouterr()
        assert main(["resume", str(journal)]) == 0
        assert capsys.readouterr().err == ""
        assert journal.read_text().splitlines() == [damaged, *records]
