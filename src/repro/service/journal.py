"""Append-only job journal: restart-resumable queue state for the daemon.

The :class:`~repro.service.daemon.SweepService` keeps its queue in
memory; without a journal a daemon restart forgets every queued and
running job.  :class:`JobJournal` fixes that with the smallest durable
structure that works: an NDJSON file under the cache root where every
submission appends a ``submit`` row (carrying the full spec) and every
terminal transition appends a ``state`` row.  Replay folds the rows:
any job whose last known state is still active is *pending* and gets
re-enqueued by ``repro serve --resume``.

Append-only is deliberate — no rewrite-in-place step can tear the file,
a half-written trailing line (host crash mid-append) is skipped and
counted, and the journal doubles as an audit log of everything the
daemon ever admitted.

>>> import tempfile, pathlib
>>> root = pathlib.Path(tempfile.mkdtemp(prefix="repro-journal-doc-"))
>>> journal = JobJournal(root / "jobs.ndjson")
>>> journal.record_submitted("j-000001", {"benchmarks": ["mcf"]}, "abc")
>>> journal.record_submitted("j-000002", {"benchmarks": ["mcf"]}, "abc")
>>> journal.record_state("j-000001", "done")
>>> [entry.job_id for entry in journal.replay()]
['j-000002']
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.service.jobs import TERMINAL_STATES

#: Journal location relative to a cache root.
JOURNAL_SUBPATH = ("journal", "jobs.ndjson")


@dataclass(frozen=True)
class PendingJob:
    """One journaled job that never reached a terminal state."""

    job_id: str
    spec: dict
    digest: str
    last_state: str


class JobJournal:
    """Append-only NDJSON journal of submissions and terminal states.

    Args:
        path: Journal file (parent directories are created lazily).
        fsync: Force every append to disk before returning.  Off by
            default — the journal is a convenience durability layer, and
            a lost trailing line costs one re-submission, not
            correctness (the result cache makes re-runs nearly free).
    """

    def __init__(self, path: str | Path, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync

    @classmethod
    def for_cache_root(cls, cache_root: str | Path, fsync: bool = False) -> "JobJournal":
        """The daemon's conventional journal location under a cache root."""
        return cls(Path(cache_root).joinpath(*JOURNAL_SUBPATH), fsync=fsync)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def _append(self, row: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(row, sort_keys=True) + "\n"
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
            if self.fsync:
                handle.flush()
                os.fsync(handle.fileno())

    def record_submitted(self, job_id: str, spec: dict, digest: str) -> None:
        """Journal one admission (the full spec rides along for replay)."""
        self._append({"op": "submit", "job_id": job_id, "digest": digest,
                      "spec": spec})

    def record_state(self, job_id: str, state: str) -> None:
        """Journal a terminal transition (done / failed / cancelled)."""
        self._append({"op": "state", "job_id": job_id, "state": state})

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def replay(self) -> list[PendingJob]:
        """Jobs whose last journaled state is still active, in order.

        Unparseable lines — a torn final append, manual edits — are
        skipped and counted (``journal_lines_skipped``), never fatal: a
        journal must not be able to wedge the daemon it exists to heal.
        """
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return []
        submitted: dict[str, PendingJob] = {}
        states: dict[str, str] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                op = row["op"]
                job_id = row["job_id"]
                if op == "submit":
                    submitted[job_id] = PendingJob(
                        job_id=job_id, spec=dict(row["spec"]),
                        digest=str(row.get("digest", "")), last_state="queued",
                    )
                elif op == "state":
                    states[job_id] = str(row["state"])
                else:
                    raise ValueError(f"unknown journal op: {op!r}")
            except (ValueError, KeyError, TypeError):
                obs.bump("journal_lines_skipped")
        pending: list[PendingJob] = []
        for job_id, entry in submitted.items():
            state = states.get(job_id, "queued")
            if state not in TERMINAL_STATES:
                pending.append(PendingJob(
                    job_id=entry.job_id, spec=entry.spec,
                    digest=entry.digest, last_state=state,
                ))
        return pending

    def entry_count(self) -> int:
        """Total journal rows (including unparseable ones)."""
        try:
            return sum(1 for line in self.path.read_text().splitlines() if line.strip())
        except OSError:
            return 0
