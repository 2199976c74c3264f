"""The filesystem-coordinated work queue behind :mod:`repro.dist`.

A :class:`WorkQueue` is a directory of small JSON files under the shared
cache root — the only coordination substrate the distributed backend
needs, because the *results* already flow through the content-addressed
:class:`~repro.api.cache.ExperimentCache`.  Any process that can see the
cache directory (another terminal, another container, another host on a
shared filesystem) can claim and execute work.

Layout, one file per fact::

    queue/<queue_id>/
        queue.json            what this queue runs (spec name, cell count)
        tasks/<task>.json     one cell group sharing a functional pass
        leases/<task>.json    live ownership: worker, attempt, deadline
        failed/<task>.<n>     one marker per expired/failed claim
        backoff/<task>.json   earliest next claim time (requeue backoff)
        done/<task>.json      completion marker and the passes it computed
        poison/<task>         permanently quarantined after K failed claims
                              (at once if its task file is malformed)
        workers/<id>.json     worker heartbeats (``repro dist workers``)

**Lease protocol.**  A claim atomically creates the lease file
(``O_CREAT | O_EXCL``) — the filesystem arbitrates races, so a task has
at most one live lease.  Owners renew the deadline by heartbeat; a
renewal is refused once the deadline has passed, so an owner that lost
its lease (GC pause, SIGSTOP, network partition on a shared mount)
finds out and stops claiming credit.  Anyone may *reap* an expired
lease: ``os.replace`` moves it to a numbered failure marker (again the
filesystem arbitrates racing reapers), the task returns to the pool
behind a full-jitter backoff window, and after ``max_attempts`` failed
claims the task is poisoned — never silently retried forever.  A task
file that does not parse into the cells its id names is poisoned on its
first claim, since no retry can parse it.

**Exactly-once results from at-least-once execution.**  Nothing here
prevents two workers from *executing* the same cells in the rare
interval between a lease expiring and its owner noticing.  That is
deliberate: records land in the content-addressed result cache keyed by
each cell's content hash, and both executions produce byte-identical
records, so duplicated execution is wasted time, never wrong data.  The
lease machinery exists to make that waste rare, not to make it
impossible — which is why losing any worker (or every worker) costs
only the cells in flight.

Clocks: lease deadlines compare ``clock()`` values across processes, so
multi-host deployments assume loosely synchronized clocks (NTP-level;
skew eats into the TTL margin).  ``clock`` is injectable for the
deterministic state-machine tests.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro import obs
from repro.api.cache import _atomic_write_bytes
from repro.api.execution import functional_pass_key
from repro.api.spec import Cell
from repro.faults.plan import fault_point
from repro.util.backoff import full_jitter

#: Subdirectory of the cache root where queues live.
QUEUE_SUBDIR = "queue"

#: Default lease time-to-live.  Three missed heartbeats kill a lease.
DEFAULT_LEASE_TTL_S = 10.0

#: Failed claims a task survives before it is poisoned.
DEFAULT_MAX_ATTEMPTS = 3

#: Requeue backoff: first window, doubling per failed claim, capped.
DEFAULT_REQUEUE_BACKOFF_S = 0.05
REQUEUE_BACKOFF_CAP_S = 5.0

#: Task states reported by :meth:`WorkQueue.stats`.
TASK_STATES = ("pending", "claimed", "done", "poisoned")


@dataclass(frozen=True)
class Task:
    """One claimable unit: a group of cells sharing a functional pass."""

    task_id: str
    cells: tuple[Cell, ...]

    @property
    def n_cells(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class Claim:
    """A successfully claimed task plus its lease bookkeeping."""

    task: Task
    worker_id: str
    attempt: int
    deadline: float

    @property
    def task_id(self) -> str:
        return self.task.task_id


def task_id_for_cells(cells: Sequence[Cell]) -> str:
    """Content-addressed task id: a digest over the cells' cache keys.

    The same group of cells always maps to the same task id, so
    re-submitting an interrupted sweep reattaches to its completed work
    instead of duplicating it.
    """
    payload = json.dumps(sorted(cell.content_hash() for cell in cells))
    return hashlib.sha256(payload.encode()).hexdigest()[:20]


class MalformedTask(ValueError):
    """A task file that does not parse into the cells its id names."""


def _parse_task(task_id: str, raw: bytes) -> Task:
    """The task a task file holds, or :class:`MalformedTask`.

    Task ids are content-addressed over their cells, so a file whose
    cells do not hash back to its id (hand-edited, corrupted, or written
    under another cache schema) is as unusable as one that is not JSON.
    """
    try:
        payload = json.loads(raw)
        cells = tuple(Cell(**entry) for entry in payload["cells"])
    except (ValueError, TypeError, KeyError) as error:
        raise MalformedTask(f"{type(error).__name__}: {error}") from error
    if payload.get("task_id") != task_id or task_id_for_cells(cells) != task_id:
        raise MalformedTask("its cells do not hash to its task id")
    return Task(task_id=task_id, cells=cells)


class WorkQueue:
    """One sweep's shared task board, rooted at a directory.

    Args:
        root: The queue directory (conventionally
            ``<cache_root>/queue/<queue_id>``).
        lease_ttl_s: Seconds a lease lives without renewal.
        max_attempts: Failed claims before a task poisons.
        requeue_backoff_s: First requeue window (full jitter, doubling
            per attempt, capped at :data:`REQUEUE_BACKOFF_CAP_S`).
        clock: Injectable time source (tests); defaults to wall clock,
            which is what cross-host lease comparison needs.
    """

    def __init__(
        self,
        root: str | Path,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        requeue_backoff_s: float = DEFAULT_REQUEUE_BACKOFF_S,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if lease_ttl_s <= 0:
            raise ValueError(f"lease_ttl_s must be positive, got {lease_ttl_s}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.root = Path(root)
        self.lease_ttl_s = lease_ttl_s
        self.max_attempts = max_attempts
        self.requeue_backoff_s = requeue_backoff_s
        self.clock = clock

    # -- directory helpers ------------------------------------------------

    def _dir(self, name: str) -> Path:
        return self.root / name

    def _task_path(self, task_id: str) -> Path:
        return self._dir("tasks") / f"{task_id}.json"

    def _lease_path(self, task_id: str) -> Path:
        return self._dir("leases") / f"{task_id}.json"

    def _done_path(self, task_id: str) -> Path:
        return self._dir("done") / f"{task_id}.json"

    def _poison_path(self, task_id: str) -> Path:
        return self._dir("poison") / task_id

    def _backoff_path(self, task_id: str) -> Path:
        return self._dir("backoff") / f"{task_id}.json"

    @staticmethod
    def _read_json(path: Path) -> dict | None:
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return None

    # -- creation ---------------------------------------------------------

    @classmethod
    def for_cells(
        cls,
        cache_root: str | Path,
        cells: Sequence[Cell],
        name: str = "",
        **kwargs,
    ) -> "WorkQueue":
        """Create (or reattach to) the queue for a batch of cells.

        Cells are grouped by :func:`functional_pass_key` — one task per
        group, so each expensive functional pass is claimed and computed
        by exactly one worker, the same sharding the process pool uses.
        The queue id is content-addressed over the cells, making
        submission idempotent: resubmitting after a crash reuses the
        existing board, completed tasks and all.
        """
        groups: dict[tuple, list[Cell]] = {}
        for cell in cells:
            groups.setdefault(functional_pass_key(cell), []).append(cell)
        tasks = [
            Task(task_id=task_id_for_cells(group), cells=tuple(group))
            for group in groups.values()
        ]
        queue_id = task_id_for_cells(list(cells))[:16]
        queue = cls(Path(cache_root) / QUEUE_SUBDIR / queue_id, **kwargs)
        queue._populate(tasks, name=name)
        return queue

    def _populate(self, tasks: Sequence[Task], name: str = "") -> None:
        """Write the task board (idempotent: existing files win)."""
        for sub in ("tasks", "leases", "failed", "backoff", "done", "poison", "workers"):
            self._dir(sub).mkdir(parents=True, exist_ok=True)
        meta_path = self.root / "queue.json"
        if not meta_path.is_file():
            _atomic_write_bytes(meta_path, json.dumps({
                "name": name,
                "n_tasks": len(tasks),
                "n_cells": sum(task.n_cells for task in tasks),
                "created_at": self.clock(),
            }, sort_keys=True).encode())
        for task in tasks:
            path = self._task_path(task.task_id)
            if not path.is_file():
                _atomic_write_bytes(path, json.dumps({
                    "task_id": task.task_id,
                    "cells": [cell.to_dict() for cell in task.cells],
                }, sort_keys=True).encode())

    # -- queries ----------------------------------------------------------

    def task_ids(self) -> list[str]:
        """Every task on the board, sorted."""
        if not self._dir("tasks").is_dir():
            return []
        return sorted(path.stem for path in self._dir("tasks").glob("*.json"))

    def load_task(self, task_id: str) -> Task | None:
        """The task on the board; None when its file cannot be read.

        Raises :class:`MalformedTask` when the file does not parse into
        cells.
        """
        try:
            raw = self._task_path(task_id).read_bytes()
        except OSError:
            return None
        return _parse_task(task_id, raw)

    def _n_cells(self, task_id: str) -> int:
        """Cells on a task; 0 when its file is unreadable or malformed."""
        try:
            task = self.load_task(task_id)
        except MalformedTask:
            return 0
        return task.n_cells if task is not None else 0

    def attempts_used(self, task_id: str) -> int:
        """Failed claims so far (one numbered marker per failure)."""
        return len(list(self._dir("failed").glob(f"{task_id}.*")))

    def is_done(self, task_id: str) -> bool:
        return self._done_path(task_id).is_file()

    def is_poisoned(self, task_id: str) -> bool:
        return self._poison_path(task_id).is_file()

    def lease_of(self, task_id: str) -> dict | None:
        """The current lease document, if any (may be expired)."""
        return self._read_json(self._lease_path(task_id))

    def state_of(self, task_id: str) -> str:
        """One of :data:`TASK_STATES` (expired leases count as pending)."""
        if self.is_done(task_id):
            return "done"
        if self.is_poisoned(task_id):
            return "poisoned"
        lease = self.lease_of(task_id)
        if lease is not None and lease.get("deadline", 0.0) >= self.clock():
            return "claimed"
        return "pending"

    def stats(self) -> dict:
        """Task-state counts plus cell totals (``repro dist status``)."""
        out = dict.fromkeys(TASK_STATES, 0)
        cells_done = cells_total = 0
        for task_id in self.task_ids():
            state = self.state_of(task_id)
            out[state] += 1
            n_cells = self._n_cells(task_id)
            cells_total += n_cells
            if state == "done":
                cells_done += n_cells
        out["tasks"] = sum(out[state] for state in TASK_STATES)
        out["cells"] = cells_total
        out["cells_done"] = cells_done
        return out

    def finished(self) -> bool:
        """True when every task is done or poisoned."""
        task_ids = self.task_ids()
        return bool(task_ids) and all(
            self.is_done(t) or self.is_poisoned(t) for t in task_ids
        )

    # -- the lease state machine -----------------------------------------

    def claim(self, worker_id: str) -> Claim | None:
        """Try to claim one pending task; None when nothing is claimable.

        Tasks are scanned in an order derived from the worker id, so a
        fleet starting simultaneously spreads over the board instead of
        colliding on the lexicographically first task.
        """
        now = self.clock()
        task_ids = self.task_ids()
        if not task_ids:
            return None
        offset = int(hashlib.sha256(worker_id.encode()).hexdigest()[:8], 16)
        rotated = task_ids[offset % len(task_ids):] + task_ids[: offset % len(task_ids)]
        for task_id in rotated:
            if self.is_done(task_id) or self.is_poisoned(task_id):
                continue
            lease = self.lease_of(task_id)
            if lease is not None:
                if lease.get("deadline", 0.0) >= now:
                    continue  # live lease elsewhere
                self.reap_lease(task_id)  # expired: return it to the pool
                continue  # claim next scan, after its backoff window
            backoff = self._read_json(self._backoff_path(task_id))
            if backoff is not None and backoff.get("not_before", 0.0) > now:
                continue
            attempt = self.attempts_used(task_id) + 1
            if attempt > self.max_attempts:
                self._poison(task_id)
                continue
            fault_point("dist-claim")
            lease_doc = {
                "worker": worker_id,
                "attempt": attempt,
                "claimed_at": now,
                "deadline": now + self.lease_ttl_s,
            }
            try:
                fd = os.open(
                    self._lease_path(task_id), os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                continue  # lost the race; move on
            with os.fdopen(fd, "w") as handle:
                json.dump(lease_doc, handle, sort_keys=True)
            if self.is_done(task_id):
                # The previous owner completed between our scan and our
                # claim (done lands before the lease is released).
                self._remove(self._lease_path(task_id))
                continue
            try:
                task = self.load_task(task_id)
            except MalformedTask as error:
                # Deterministic: no retry can parse it, so poison now.
                self._poison(task_id, reason=f"malformed-task: {error}",
                             last_worker=worker_id)
                task = None
            if task is None:
                self._remove(self._lease_path(task_id))
                continue
            obs.bump("leases_claimed")
            return Claim(
                task=task, worker_id=worker_id,
                attempt=attempt, deadline=lease_doc["deadline"],
            )
        return None

    def renew(self, task_id: str, worker_id: str) -> float | None:
        """Heartbeat: extend an owned, still-live lease.

        Returns the new deadline, or None when the lease is lost — gone,
        owned by someone else, or already past its deadline.  A lease
        past its deadline is *never* renewed even by its owner: a reaper
        may already have requeued the task, and rewriting the file now
        could clobber the next owner's claim.  The owner treats None as
        "stop claiming credit" (execution may finish — results are
        idempotent — but completion bookkeeping belongs to whoever holds
        the live lease).
        """
        fault_point("dist-renew")
        now = self.clock()
        path = self._lease_path(task_id)
        lease = self._read_json(path)
        if lease is None or lease.get("worker") != worker_id:
            return None
        if lease.get("deadline", 0.0) < now:
            return None
        renewed = dict(lease, deadline=now + self.lease_ttl_s)
        _atomic_write_bytes(path, json.dumps(renewed, sort_keys=True).encode())
        return renewed["deadline"]

    def reap_lease(self, task_id: str) -> bool:
        """Move one *expired* lease to a failure marker, requeueing the
        task behind a jittered backoff (or poisoning it at the cap).

        Safe to call from any process at any time: ``os.replace`` makes
        racing reapers resolve to exactly one winner, and a live lease is
        never touched.  Returns True when this call did the reaping.
        """
        now = self.clock()
        path = self._lease_path(task_id)
        lease = self._read_json(path)
        if lease is None or lease.get("deadline", 0.0) >= now:
            return False
        attempt = int(lease.get("attempt", self.attempts_used(task_id) + 1))
        marker = self._dir("failed") / f"{task_id}.{attempt}"
        try:
            os.replace(path, marker)
        except OSError:
            return False  # another reaper won
        obs.bump("leases_expired")
        self._requeue(task_id, attempt, now, reason="lease-expired",
                      worker=lease.get("worker", "?"))
        return True

    def release_failed(self, task_id: str, worker_id: str, error: str = "") -> bool:
        """A live owner gives a task back after a non-fatal failure.

        Counts as a failed claim (same attempt ledger as a crash), so a
        cell that raises deterministically still poisons after
        ``max_attempts`` instead of ping-ponging forever.
        """
        now = self.clock()
        path = self._lease_path(task_id)
        lease = self._read_json(path)
        if lease is None or lease.get("worker") != worker_id:
            return False
        attempt = int(lease.get("attempt", 1))
        marker = self._dir("failed") / f"{task_id}.{attempt}"
        try:
            os.replace(path, marker)
        except OSError:
            return False
        if error:
            try:
                marker.write_text(json.dumps({"error": error[:2000]}))
            except OSError:
                pass
        self._requeue(task_id, attempt, now, reason="worker-error", worker=worker_id)
        return True

    def _requeue(self, task_id: str, attempt: int, now: float,
                 reason: str, worker: str) -> None:
        if attempt >= self.max_attempts:
            self._poison(task_id, reason=reason, last_worker=worker)
            return
        window = full_jitter(
            self.requeue_backoff_s, attempt - 1, REQUEUE_BACKOFF_CAP_S
        )
        _atomic_write_bytes(self._backoff_path(task_id), json.dumps({
            "not_before": now + window,
            "attempt": attempt,
            "reason": reason,
        }, sort_keys=True).encode())
        obs.bump("tasks_requeued")

    def _poison(self, task_id: str, reason: str = "max-attempts",
                last_worker: str = "?") -> None:
        path = self._poison_path(task_id)
        if path.is_file():
            return
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except OSError:
            return  # raced: the other poisoner counted it
        with os.fdopen(fd, "w") as handle:
            json.dump({"reason": reason, "attempts": self.attempts_used(task_id),
                       "last_worker": last_worker}, handle, sort_keys=True)
        obs.bump("tasks_poisoned")
        obs.bump("cells_poisoned", self._n_cells(task_id))

    def complete(self, task_id: str, worker_id: str, passes: int = 0) -> None:
        """Mark a task done and release its lease.

        The done marker records the functional ``passes`` the task
        computed, and lands *before* the lease is removed, so no scan
        can observe a task that is neither leased nor done while its
        results exist.  Duplicate completions (two workers raced the
        same task across a lease expiry) are harmless: the last marker
        wins and the records they wrote are byte-identical.
        """
        fault_point("dist-complete")
        _atomic_write_bytes(self._done_path(task_id), json.dumps({
            "worker": worker_id,
            "completed_at": self.clock(),
            "passes": passes,
        }, sort_keys=True).encode())
        lease = self.lease_of(task_id)
        if lease is not None and lease.get("worker") == worker_id:
            self._remove(self._lease_path(task_id))

    def reopen(self, task_id: str) -> None:
        """Return a done task to the pool by removing its done marker."""
        self._remove(self._done_path(task_id))

    def passes_computed(self) -> int:
        """Functional passes the board's done markers report."""
        return sum(
            int((self._read_json(path) or {}).get("passes", 0))
            for path in self._dir("done").glob("*.json")
        )

    def reap_expired(self) -> int:
        """Reap every expired lease on the board; returns how many."""
        reaped = 0
        if not self._dir("leases").is_dir():
            return 0
        for path in list(self._dir("leases").glob("*.json")):
            if self.reap_lease(path.stem):
                reaped += 1
        return reaped

    @staticmethod
    def _remove(path: Path) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- worker heartbeats (observability only) ---------------------------

    def record_worker(self, worker_id: str, **fields) -> None:
        """Publish a worker heartbeat document (``repro dist workers``)."""
        _atomic_write_bytes(
            self._dir("workers") / f"{worker_id}.json",
            json.dumps({
                "worker": worker_id,
                "last_seen": self.clock(),
                **fields,
            }, sort_keys=True).encode(),
        )

    def workers_seen(self) -> list[dict]:
        """Every worker heartbeat ever published, most recent first."""
        docs = []
        if self._dir("workers").is_dir():
            for path in self._dir("workers").glob("*.json"):
                doc = self._read_json(path)
                if doc is not None:
                    docs.append(doc)
        return sorted(docs, key=lambda d: -float(d.get("last_seen", 0.0)))


def list_queues(cache_root: str | Path) -> list[tuple[str, Path]]:
    """Every queue directory under a cache root, sorted by id."""
    base = Path(cache_root) / QUEUE_SUBDIR
    if not base.is_dir():
        return []
    return sorted(
        (path.name, path) for path in base.iterdir()
        if (path / "queue.json").is_file()
    )
