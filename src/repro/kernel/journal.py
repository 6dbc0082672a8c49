"""The crash-consistent run journal (schema ``repro-journal/v1``).

An append-only JSONL write-ahead log of one run's epoch boundaries. The
first line is the *header* (the complete run configuration plus the
provenance stamp, everything ``repro resume`` needs to re-execute the
run); each subsequent line is one *epoch record* — the job/event clocks,
RNG stream cursors, event count and result digest at a consistent
boundary — and a final *commit* line marks normal completion.

Durability contract:

* every epoch record is flushed **and fsynced** before the executor
  moves past the boundary, so a host SIGKILL can lose at most the epoch
  in flight;
* on open, a torn tail (a partial last line from a crash mid-write, or
  a record whose embedded digest no longer matches its fields) is
  detected and truncated, leaving the longest consistent prefix;
* records are self-checking: ``digest`` is the sha256 of the record's
  canonical JSON (sorted keys, without the digest field itself).

Replay is deterministic re-execution: the simulation is a pure function
of (configuration, seed), so ``repro resume`` re-runs it from the start
and *validates* each produced epoch against the journaled record — any
divergence (changed code, changed config) fails loudly instead of
silently writing a different run under the old identity. Past the last
journaled boundary the journal switches back to append mode and the run
continues as if never interrupted.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.common.errors import ReproError

JOURNAL_SCHEMA = "repro-journal/v1"

#: Epoch-record fields covered by the digest, in canonical order.
EPOCH_FIELDS = (
    "epoch", "attempt", "job_clock_s", "event_clock_s", "events_processed",
    "noise_draws", "fault_records", "loss", "cost_usd", "allocation",
)


class JournalError(ReproError):
    """A journal could not be opened, parsed, or replayed consistently."""


def epoch_record_digest(fields: dict) -> str:
    """Self-check digest of one epoch record's canonical JSON."""
    payload = {k: fields[k] for k in EPOCH_FIELDS}
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _parse_consistent_prefix(text: str) -> tuple[list[dict], bool]:
    """(valid records, tail_was_torn) from raw journal bytes.

    A line is part of the consistent prefix while it parses as JSON and —
    for epoch records — its digest verifies. The first failure truncates
    everything from that line on (fsync ordering guarantees nothing after
    a torn record survived the crash coherently).
    """
    records: list[dict] = []
    torn = False
    raw_lines = text.split("\n")
    # A journal that does not end with a newline has a partial last line.
    complete = raw_lines[:-1]
    if raw_lines[-1] != "":
        torn = True
    for line in complete:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            torn = True
            break
        if not isinstance(record, dict) or "kind" not in record:
            torn = True
            break
        if record["kind"] == "epoch":
            expected = record.get("digest")
            try:
                actual = epoch_record_digest(record)
            except KeyError:
                torn = True
                break
            if expected != actual:
                torn = True
                break
        records.append(record)
    return records, torn


class RunJournal:
    """One run's write-ahead log: create fresh, or reopen to resume.

    In *fresh* mode every :meth:`record_epoch` appends (and fsyncs) a new
    record. In *resume* mode the journaled prefix acts as an oracle: the
    first ``n`` epoch boundaries produced by the re-execution are
    validated against it (raising :class:`JournalError` on divergence)
    and only boundaries past the prefix are appended.
    """

    def __init__(self, path: str | Path, header: dict, records: list[dict],
                 committed: bool) -> None:
        self.path = Path(path)
        self.header = header
        self._expected = [r for r in records if r.get("kind") == "epoch"]
        self.committed = committed
        self._cursor = 0
        self._appended = 0
        self._fh = None

    # ------------------------------------------------------------------ open
    @classmethod
    def create(cls, path: str | Path, run: dict, meta: dict | None = None) -> "RunJournal":
        """Start a fresh journal: write + fsync the header line."""
        header = {
            "schema": JOURNAL_SCHEMA,
            "kind": "header",
            "run": run,
            "meta": meta or {},
        }
        journal = cls(path, header, [], committed=False)
        journal._fh = open(path, "w", encoding="utf-8")
        journal._append(header)
        return journal

    @classmethod
    def open_resume(cls, path: str | Path) -> "RunJournal":
        """Reopen an interrupted journal, truncating any torn tail."""
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise JournalError(f"cannot read journal {path}: {exc}") from exc
        records, torn = _parse_consistent_prefix(text)
        if not records:
            raise JournalError(f"journal {path} has no consistent header line")
        header = records[0]
        if header.get("kind") != "header" or header.get("schema") != JOURNAL_SCHEMA:
            raise JournalError(
                f"journal {path} does not start with a {JOURNAL_SCHEMA} header"
            )
        body = records[1:]
        committed = any(r.get("kind") == "commit" for r in body)
        if torn:
            # Rewrite the consistent prefix: the torn bytes are gone for
            # good, and the file ends at a clean epoch boundary again.
            with open(path, "w", encoding="utf-8") as fh:
                for record in records:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        journal = cls(path, header, body, committed=committed)
        journal._fh = open(path, "a", encoding="utf-8")
        return journal

    # ------------------------------------------------------------------ state
    @property
    def n_epochs_journaled(self) -> int:
        """Epoch boundaries durably on disk: the loaded prefix plus any
        records appended since open."""
        return len(self._expected) + self._appended

    # ------------------------------------------------------------------ write
    def _append(self, record: dict) -> None:
        if self._fh is None:
            raise JournalError(f"journal {self.path} is closed")
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def record_epoch(self, **fields) -> None:
        """Journal one epoch boundary (or validate it during replay)."""
        missing = [k for k in EPOCH_FIELDS if k not in fields]
        if missing:
            raise JournalError(f"epoch record lacks fields {missing}")
        record = {"kind": "epoch", **{k: fields[k] for k in EPOCH_FIELDS}}
        record["digest"] = epoch_record_digest(record)
        if self._cursor < len(self._expected):
            expected = self._expected[self._cursor]
            self._cursor += 1
            if expected != record:
                diverged = [
                    k for k in EPOCH_FIELDS if expected.get(k) != record.get(k)
                ]
                raise JournalError(
                    f"replay diverged from journal {self.path} at epoch "
                    f"{fields['epoch']} (fields {diverged}); the code or "
                    "configuration no longer reproduces the journaled run"
                )
            return
        self._append(record)
        self._appended += 1

    def commit(self, summary: dict | None = None) -> None:
        """Mark normal completion; a committed journal needs no resume."""
        if self.committed:
            return
        self._append({"kind": "commit", "summary": summary or {}})
        self.committed = True

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
