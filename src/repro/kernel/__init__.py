"""The discrete-event kernel and the run journal.

Each platform owns one :class:`EventKernel`. Its event loop runs the
faulted gang's sleeps and joins; closed-form work (a fault-free epoch,
the healthy ranks of a faulted one, a permanent-loss detection window)
advances its clock directly. The kernel owns both timelines of a run:

* the **event clock** (``now``): simulated resource time, advanced by
  the binary-heap event loop with deterministic ``(time, seq)``
  tie-breaks or by :meth:`EventKernel.advance`;
* the **job clock** (``job_clock_s``): the job-time ledger (JCT) that
  additionally accumulates zero-event-time scheduling work — planner
  searches, checkpoint restores, visible restart overhead — via
  :meth:`EventKernel.credit_job_time`.

Crash consistency rides on top: :class:`~repro.kernel.journal.RunJournal`
is the append-only ``repro-journal/v1`` write-ahead log (fsync at epoch
boundaries, torn-tail truncation on open) and the ``repro resume`` CLI
replays it so an interrupted run continues to a bundle byte-identical
to an uninterrupted one.
"""

from repro.kernel.core import EventKernel, Join, Process, Task
from repro.kernel.journal import (
    JOURNAL_SCHEMA,
    JournalError,
    RunJournal,
    epoch_record_digest,
)

__all__ = [
    "EventKernel",
    "JOURNAL_SCHEMA",
    "Join",
    "JournalError",
    "Process",
    "RunJournal",
    "Task",
    "epoch_record_digest",
]
