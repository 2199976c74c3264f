"""Job model and registry for the sweep service.

A :class:`Job` wraps one submitted :class:`~repro.api.spec.ExperimentSpec`
with its lifecycle state, an append-only progress event log, and (once
finished) its :class:`~repro.api.records.ResultSet`.  The
:class:`JobRegistry` owns admission: FIFO ordering, duplicate-spec
deduplication (two in-flight submissions of the same spec share one
job), and every queued -> running -> done/failed/cancelled transition,
so it can answer dedup and the queue gauges from an index of active
jobs and a count per state, without visiting finished jobs.  It keeps
the records of only the ``RETAINED_RESULTS`` most recently finished
jobs in memory; an older done job keeps its meta and record count, and
the daemon re-reads its records from the result cache.

Everything here is synchronous and loop-free — the asyncio daemon
(:mod:`repro.service.daemon`) layers scheduling on top — so queue
semantics are unit-testable without an event loop.

>>> from repro.api.spec import ExperimentSpec
>>> from repro.service.jobs import JobRegistry
>>> registry = JobRegistry()
>>> spec = ExperimentSpec(benchmarks=("mcf",), schemes=("base_dram",))
>>> job, deduped = registry.submit(spec)
>>> (job.id, job.state, deduped)
('j-000001', 'queued', False)
>>> again, deduped = registry.submit(spec)   # identical spec, still active
>>> (again.id, deduped)
('j-000001', True)
>>> registry.queue_depth()
1
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import deque
from typing import Callable, Iterator

from repro import obs
from repro.api.records import ResultSet
from repro.api.spec import ExperimentSpec

#: Lifecycle states.  ``queued`` and ``running`` are *active* (dedup
#: targets); the other three are terminal.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job can never leave.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: States a duplicate submission attaches to.
ACTIVE_STATES = frozenset({QUEUED, RUNNING})

#: Default per-job event-log bound.  Long sweeps emit one event per
#: benchmark-seed group; past this the oldest events are dropped (with a
#: synthetic notice on replay) so a week-long job cannot grow memory
#: without bound.
DEFAULT_EVENTS_LIMIT = 512

#: How many of the most recently finished jobs keep their ResultSet in
#: memory; older done jobs drop theirs, so a long-running daemon's memory
#: does not grow with the jobs it has served.
RETAINED_RESULTS = 32


def spec_digest(spec: ExperimentSpec) -> str:
    """Content identity of a spec for duplicate detection.

    The ``name`` label never influences a spec's cells, so two specs
    that differ only in their name are duplicates of each other.

    >>> from repro.api.spec import ExperimentSpec
    >>> a = ExperimentSpec(benchmarks=("mcf",), schemes=("base_dram",), name="a")
    >>> b = ExperimentSpec(benchmarks=("mcf",), schemes=("base_dram",), name="b")
    >>> spec_digest(a) == spec_digest(b)
    True
    """
    payload = spec.to_dict()
    payload.pop("name", None)
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


class Job:
    """One submitted spec with lifecycle state and a progress event log.

    Events are dicts ``{"seq": n, "kind": ..., **payload}``; ``seq`` is
    monotonic starting at 1, so ``events_since(0)`` replays the full
    log.  The log is a *bounded ring*: past ``events_limit`` entries the
    oldest are discarded (counted in ``events_dropped``), and a replay
    that reaches back across the drop boundary gets a synthetic
    ``events_dropped`` notice so ``?since=`` resumption stays honest.
    State changes go through the owning :class:`JobRegistry`, which
    validates the state machine — an invalid transition raises
    ``RuntimeError`` rather than silently corrupting the queue.
    """

    def __init__(
        self,
        job_id: str,
        spec: ExperimentSpec,
        digest: str,
        clock: Callable[[], float],
        events_limit: int = DEFAULT_EVENTS_LIMIT,
    ) -> None:
        if events_limit < 1:
            raise ValueError(f"events_limit must be >= 1, got {events_limit}")
        self.id = job_id
        self.spec = spec
        self.digest = digest
        self.state = QUEUED
        self.events: list[dict] = []
        self.events_limit = events_limit
        self.events_dropped = 0
        self._next_seq = 1
        #: The finished ResultSet while the registry retains it; ``meta``
        #: and ``n_records`` outlive it.
        self.result: ResultSet | None = None
        self.meta: dict | None = None
        self.n_records: int | None = None
        self.error: str | None = None
        self.dedup_hits = 0
        self.cancel_requested = False
        self.submitted_at = clock()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.add_event("queued", cells=spec.n_cells)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def add_event(self, kind: str, **payload) -> dict:
        """Append one progress event and return it.

        Appending past ``events_limit`` evicts the oldest retained
        events (counted in the ``events_dropped`` metric); seq numbers
        keep counting, only retention is bounded.
        """
        event = {"seq": self._next_seq, "kind": kind, **payload}
        self._next_seq += 1
        self.events.append(event)
        overflow = len(self.events) - self.events_limit
        if overflow > 0:
            del self.events[:overflow]
            self.events_dropped += overflow
            obs.bump("events_dropped", overflow)
        return event

    def events_since(self, seq: int) -> list[dict]:
        """Every retained event with ``seq`` strictly greater than ``seq``.

        When the ring has dropped events the caller has not yet seen, a
        synthetic ``{"kind": "events_dropped", "dropped": n}`` notice is
        prepended.  Its seq is ``oldest_retained - 1``, which keeps the
        streaming loop's ``since = event["seq"]`` cursor monotonic and
        makes the gap explicit instead of silent.
        """
        if self.events_dropped:
            oldest = self.events[0]["seq"] if self.events else self._next_seq
            missing = (oldest - 1) - seq
            if missing > 0:
                notice = {"seq": oldest - 1, "kind": "events_dropped",
                          "dropped": missing}
                return [notice] + list(self.events)
        return [event for event in self.events if event["seq"] > seq]

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def is_terminal(self) -> bool:
        """True once the job can never change state again."""
        return self.state in TERMINAL_STATES

    @property
    def latency(self) -> float | None:
        """Submit-to-finish wall time in seconds (None while active)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def snapshot(self) -> dict:
        """JSON-ready summary (no records — fetch those via ``result``)."""
        return {
            "id": self.id,
            "name": self.spec.name,
            "state": self.state,
            "digest": self.digest,
            "cells": self.spec.n_cells,
            "benchmarks": list(self.spec.benchmarks),
            "seeds": list(self.spec.seeds),
            "n_schemes": len(self.spec.schemes),
            "dedup_hits": self.dedup_hits,
            "cancel_requested": self.cancel_requested,
            "error": self.error,
            "events": self._next_seq - 1,
            "events_dropped": self.events_dropped,
            "latency_s": self.latency,
        }


class JobRegistry:
    """Admission control: FIFO ordering, dedup, and state bookkeeping.

    Every state change goes through :meth:`start` or :meth:`end`, which
    keep the index of active jobs by spec digest and the count per
    state, so dedup and the queue gauges never visit finished jobs.

    Args:
        clock: Monotonic time source (injectable for deterministic
            tests).
        events_limit: Ring-buffer bound applied to every admitted job's
            event log.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        events_limit: int = DEFAULT_EVENTS_LIMIT,
    ) -> None:
        self._clock = clock
        self._events_limit = events_limit
        self._jobs: dict[str, Job] = {}      # every admitted job, in order
        self._active: dict[str, Job] = {}    # queued or running, by digest
        self._counts = dict.fromkeys(ACTIVE_STATES | TERMINAL_STATES, 0)
        self._retained: deque[Job] = deque()

    def submit(self, spec: ExperimentSpec) -> tuple[Job, bool]:
        """Admit a spec; returns ``(job, deduplicated)``.

        A submission whose spec digest matches an *active* (queued or
        running) job attaches to that job instead of creating a new one
        — the warm-cache analogue at the queue level.  Terminal jobs
        never absorb submissions: a re-submitted finished spec gets a
        fresh job (which the engine then serves almost entirely from the
        persistent result cache).
        """
        digest = spec_digest(spec)
        job = self._active.get(digest)
        if job is not None:
            job.dedup_hits += 1
            return job, True
        job = Job(f"j-{len(self._jobs) + 1:06d}", spec, digest, self._clock,
                  events_limit=self._events_limit)
        self._jobs[job.id] = job
        self._active[digest] = job
        self._counts[QUEUED] += 1
        return job, False

    def get(self, job_id: str) -> Job:
        """Look a job up by id (KeyError for unknown ids)."""
        return self._jobs[job_id]

    def _move(self, job: Job, target: str, allowed: frozenset[str] | set[str]) -> None:
        if job.state not in allowed:
            raise RuntimeError(f"job {job.id}: cannot go {job.state} -> {target}")
        self._counts[job.state] -= 1
        self._counts[target] += 1
        job.state = target

    def start(self, job: Job) -> None:
        """queued -> running."""
        self._move(job, RUNNING, {QUEUED})
        job.started_at = self._clock()
        job.add_event("started")

    def end(self, job: Job, state: str, result: ResultSet | None = None,
            error: str | None = None) -> None:
        """Move an active job to a terminal state.

        ``done`` (running jobs only) attaches ``result`` and releases
        the ResultSet of the job that falls out of the
        ``RETAINED_RESULTS`` most recent; ``failed`` records ``error``.
        """
        if state not in TERMINAL_STATES:
            raise ValueError(f"not a terminal job state: {state!r}")
        self._move(job, state, {RUNNING} if state == DONE else ACTIVE_STATES)
        del self._active[job.digest]
        job.finished_at = self._clock()
        if state == DONE:
            job.result = result
            job.meta = result.meta
            job.n_records = len(result)
            job.add_event("done", records=len(result), **result.meta)
            self._retained.append(job)
            while len(self._retained) > RETAINED_RESULTS:
                self._retained.popleft().result = None
        elif state == FAILED:
            job.error = error
            job.add_event("failed", error=error)
        else:
            job.add_event("cancelled")

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; returns False for terminal jobs.

        Only sets ``cancel_requested``: the daemon ends a queued job at
        once and a running one at its next benchmark-seed group
        boundary.
        """
        job = self.get(job_id)
        if job.is_terminal:
            return False
        job.cancel_requested = True
        return True

    def __iter__(self) -> Iterator[Job]:
        """Jobs in submission order."""
        return iter(self._jobs.values())

    def __len__(self) -> int:
        return len(self._jobs)

    def queue_depth(self) -> int:
        """Jobs admitted but not yet running."""
        return self._counts[QUEUED]

    def running_count(self) -> int:
        """Jobs currently executing."""
        return self._counts[RUNNING]

    def snapshot(self) -> list[dict]:
        """Per-job summaries in submission order."""
        return [job.snapshot() for job in self]
