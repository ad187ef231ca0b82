"""Coordinator write-ahead job journal.

Append-only JSONL, one record per line, three record kinds:

``submit``
    a job was accepted: job id, client key, trace id, deadline, and the
    full submit payload (problem + config + seeds) as base64-wrapped
    pickle — everything needed to re-create the job from nothing;
``generation``
    the job's assignment generation was bumped (a re-dispatch happened);
``finish``
    the job reached a terminal status.

Durability policy (the "fsync-batched" contract): every append is
*flushed* to the OS immediately — a coordinator that is ``kill -9``-ed
loses nothing that was appended — but ``fsync`` is only forced on
``submit`` records and every ``fsync_every``-th append otherwise, so the
high-frequency records (generations, finishes) never put a disk sync on
the dispatch path.  Only a whole-machine power loss can eat the tail, and
the client-side idempotent resubmission (``client_key``) covers exactly
that window.

Rotation: under sustained gateway traffic the journal is append-only
garbage after a few thousand jobs — every finished job leaves its submit
payload behind forever.  With ``max_bytes`` set, a ``finish`` append that
leaves the file over the limit triggers a compaction: the journal is
folded into a :class:`~repro.net.jobtable.JobTable` and its
:meth:`~repro.net.jobtable.JobTable.records` (one ``submit`` record per
unfinished job, plus a ``generation`` record when above 0) are written
to a temporary file which is fsync'd and atomically ``os.replace``-d over
the old journal.  Crash recovery is preserved at every instant: before the
replace the old journal is intact; after it the new journal holds exactly
the jobs a recovery would have re-created anyway.

Recovery invariants (asserted by ``tests/chaos``):

1. every journaled-but-unfinished job is re-created and re-dispatched in
   full after a restart — walk outcomes are deliberately *not* journaled,
   so recovery re-runs all of a job's walks from their seeds (walks are
   deterministic given the seed, so the result is equivalent);
2. a recovered job's generation starts strictly above any journaled
   generation, so reports from pre-crash assignments stay stale;
3. a torn final line (crash mid-append) is ignored, never fatal;
4. ``finish`` is appended before the client is answered, so a job can be
   recovered *and* already answered at most once — the coordinator's
   ``client_key`` result cache dedupes that race on resubmit.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.errors import NetError
from repro.net.jobtable import (
    JobTable,
    finish_record,
    generation_record,
    submit_record,
)

__all__ = ["JobJournal", "read_records", "replay_journal"]


def _line(record: dict[str, Any]) -> str:
    return json.dumps(record, separators=(",", ":")) + "\n"


class JobJournal:
    """Append-only JSONL write-ahead log of coordinator job state."""

    def __init__(
        self,
        path: str | Path,
        *,
        fsync_every: int = 8,
        max_bytes: int | None = None,
    ) -> None:
        if fsync_every < 1:
            raise NetError(f"fsync_every must be >= 1, got {fsync_every}")
        if max_bytes is not None and max_bytes < 1:
            raise NetError(f"max_bytes must be >= 1, got {max_bytes}")
        self.path = Path(path)
        self.fsync_every = fsync_every
        self.max_bytes = max_bytes
        self.compactions = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file: Optional[Any] = open(self.path, "a", encoding="utf-8")
        self._since_fsync = 0

    # ------------------------------------------------------------------
    def append_record(self, record: dict[str, Any]) -> None:
        """Append one record (the coordinator and the standby tail path).

        ``submit`` records are durable (fsync before dispatch) — a hot
        standby writes exactly what the leader streamed, so a promoted
        standby's journal is as crash-safe as the leader's was.  A
        ``finish`` is the checkpoint that turns earlier records into
        garbage, so it is the natural moment to check the size trigger.
        """
        if self._file is None:
            return  # journal closed/aborted: recovery owns the truth now
        kind = record.get("kind")
        self._file.write(_line(record))
        self._file.flush()
        self._since_fsync += 1
        if kind == "submit" or self._since_fsync >= self.fsync_every:
            os.fsync(self._file.fileno())
            self._since_fsync = 0
        if (
            kind == "finish"
            and self.max_bytes is not None
            and self._file.tell() > self.max_bytes
        ):
            self.compact()

    def log_submit(self, job_id: int, **fields: Any) -> None:
        """Journal an accepted job (see :func:`submit_record`)."""
        self.append_record(submit_record(job_id, **fields))

    def log_generation(self, job_id: int, generation: int) -> None:
        self.append_record(generation_record(job_id, generation))

    def log_finish(self, job_id: int, status: str) -> None:
        self.append_record(finish_record(job_id, status))

    def compact(self) -> None:
        """Rewrite the journal keeping only unfinished jobs (atomic).

        The live fd is flushed and fsync'd first so the fold sees every
        appended record, the replacement file is fsync'd before the
        ``os.replace``, and appending resumes on the new file — at no
        point would a crash lose a recoverable job.  The leading
        checkpoint preserves the job-id high-water mark even when every
        journaled job finished, so a recovered coordinator never reuses
        an id that a cached result or a stale report may still reference.
        """
        if self._file is None:
            return
        self._file.flush()
        os.fsync(self._file.fileno())
        table = JobTable()
        for record in read_records(self.path):
            table.apply_record(record)
        tmp_path = self.path.with_name(self.path.name + ".compact")
        with open(tmp_path, "w", encoding="utf-8") as tmp:
            tmp.writelines(_line(record) for record in table.records())
            tmp.flush()
            os.fsync(tmp.fileno())
        self._file.close()
        os.replace(tmp_path, self.path)
        self._file = open(self.path, "a", encoding="utf-8")
        self._since_fsync = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Graceful close: final fsync, then release the fd (idempotent)."""
        if self._file is None:
            return
        self._file.flush()
        os.fsync(self._file.fileno())
        self._file.close()
        self._file = None

    def abort(self) -> None:
        """Crash-style close: no final fsync (the chaos ``kill -9``)."""
        if self._file is None:
            return
        file, self._file = self._file, None
        try:
            file.close()
        except OSError:  # pragma: no cover - fd already gone
            pass

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_records(path: str | Path) -> Iterator[Any]:
    """Every record of a journal file, in append order.

    A torn trailing line (crash mid-append) ends the stream silently; a
    missing file has no records.
    """
    path = Path(path)
    if not path.exists():
        return
    with open(path, "r", encoding="utf-8") as file:
        for line in file:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                return  # torn tail: everything after it is gone anyway


def replay_journal(path: str | Path) -> tuple[dict[int, dict[str, Any]], int]:
    """Fold a journal back into its unfinished jobs.

    Returns ``(jobs, max_job_id)`` where ``jobs`` maps job id to its
    ``submit`` record plus the highest journaled ``generation``.
    """
    table = JobTable()
    for record in read_records(path):
        table.apply_record(record)
    jobs: dict[int, dict[str, Any]] = {}
    for record in table.records():
        if record["kind"] == "submit":
            jobs[record["job_id"]] = {**record, "generation": 0}
        elif record["kind"] == "generation":
            jobs[record["job_id"]]["generation"] = record["generation"]
    return jobs, table.max_job_id
