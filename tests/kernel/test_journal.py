"""The repro-journal/v1 write-ahead log: durability and torn-tail repair."""

import json

import pytest

from repro.kernel import JOURNAL_SCHEMA, JournalError, RunJournal, epoch_record_digest


def _fields(epoch=1, **over):
    fields = {
        "epoch": epoch, "attempt": 0, "job_clock_s": 10.5 * epoch,
        "event_clock_s": 9.25 * epoch, "events_processed": 100 * epoch,
        "noise_draws": 7 * epoch, "fault_records": 0, "loss": 1.0 / epoch,
        "cost_usd": 0.01 * epoch, "allocation": "4fn/1769MB/s3",
    }
    fields.update(over)
    return fields


@pytest.fixture()
def journal_path(tmp_path):
    return tmp_path / "run.journal"


class TestFreshJournal:
    def test_header_then_records_then_commit(self, journal_path):
        with RunJournal.create(journal_path, run={"command": "train"}) as j:
            j.record_epoch(**_fields(1))
            j.record_epoch(**_fields(2))
            j.commit({"n_epochs": 2})
        lines = [json.loads(s) for s in journal_path.read_text().splitlines()]
        assert lines[0]["schema"] == JOURNAL_SCHEMA
        assert lines[0]["kind"] == "header"
        assert [r["kind"] for r in lines[1:]] == ["epoch", "epoch", "commit"]
        assert lines[1]["digest"] == epoch_record_digest(lines[1])

    def test_missing_field_rejected(self, journal_path):
        with RunJournal.create(journal_path, run={}) as j:
            bad = _fields()
            bad.pop("noise_draws")
            with pytest.raises(JournalError, match="noise_draws"):
                j.record_epoch(**bad)

    def test_write_after_close_rejected(self, journal_path):
        j = RunJournal.create(journal_path, run={})
        j.close()
        with pytest.raises(JournalError, match="closed"):
            j.record_epoch(**_fields())


def _write_journal(path, n_epochs, committed=False):
    with RunJournal.create(path, run={"command": "train"}) as j:
        for e in range(1, n_epochs + 1):
            j.record_epoch(**_fields(e))
        if committed:
            j.commit()


class TestTornTailRepair:
    def test_partial_last_line_truncated(self, journal_path):
        _write_journal(journal_path, 3)
        text = journal_path.read_text()
        lines = text.splitlines()
        journal_path.write_text("\n".join(lines[:3]) + "\n" + lines[3][:25])
        with RunJournal.open_resume(journal_path) as j:
            assert j.n_epochs_journaled == 2
        # The torn bytes are gone: the file ends at a clean boundary.
        assert journal_path.read_text().endswith("\n")
        reopened = RunJournal.open_resume(journal_path)
        assert reopened.n_epochs_journaled == 2
        reopened.close()

    def test_corrupt_json_line_truncates_from_there(self, journal_path):
        _write_journal(journal_path, 3)
        lines = journal_path.read_text().splitlines()
        lines[2] = "{not json"
        journal_path.write_text("\n".join(lines) + "\n")
        with RunJournal.open_resume(journal_path) as j:
            # Epoch 1 survives; the corrupt line and everything after go.
            assert j.n_epochs_journaled == 1

    def test_digest_mismatch_truncates(self, journal_path):
        _write_journal(journal_path, 2)
        lines = journal_path.read_text().splitlines()
        tampered = json.loads(lines[2])
        tampered["cost_usd"] += 1.0  # bytes no longer match the digest
        lines[2] = json.dumps(tampered, sort_keys=True)
        journal_path.write_text("\n".join(lines) + "\n")
        with RunJournal.open_resume(journal_path) as j:
            assert j.n_epochs_journaled == 1

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(JournalError, match="cannot read"):
            RunJournal.open_resume(tmp_path / "absent.journal")

    def test_wrong_header_raises(self, journal_path):
        journal_path.write_text('{"kind": "epoch"}\n')
        with pytest.raises(JournalError, match="header"):
            RunJournal.open_resume(journal_path)


class TestReplayValidation:
    def test_matching_replay_then_append(self, journal_path):
        _write_journal(journal_path, 2)
        with RunJournal.open_resume(journal_path) as j:
            j.record_epoch(**_fields(1))
            j.record_epoch(**_fields(2))
            # Replayed boundaries are validated, not appended again.
            assert j.n_epochs_journaled == 2
            j.record_epoch(**_fields(3))  # past the prefix: appended
            j.commit()
        reopened = RunJournal.open_resume(journal_path)
        assert reopened.n_epochs_journaled == 3
        assert reopened.committed
        reopened.close()

    def test_divergent_replay_fails_loudly(self, journal_path):
        _write_journal(journal_path, 1)
        with RunJournal.open_resume(journal_path) as j:
            with pytest.raises(JournalError, match="cost_usd"):
                j.record_epoch(**_fields(1, cost_usd=99.0))

    def test_commit_is_idempotent(self, journal_path):
        _write_journal(journal_path, 1, committed=True)
        with RunJournal.open_resume(journal_path) as j:
            assert j.committed
            j.commit()  # no second commit line
        lines = journal_path.read_text().splitlines()
        assert sum(1 for s in lines if json.loads(s)["kind"] == "commit") == 1
