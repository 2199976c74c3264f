"""Process-global recovery counters.

Every layer that survives a fault — the pool backend retrying a crashed
worker, the cache quarantining a corrupt artifact, the client retrying a
refused connection — records the event here, in one monotonic,
thread-safe counter table.  The sweep daemon folds a prefixed snapshot
into its ``/metrics`` document (``recovery_*`` fields), and the chaos
scenarios (:mod:`repro.faults.scenarios`) difference snapshots around a
run to prove recovery actually happened.

Counters are process-global (not per-engine) deliberately: recovery can
happen below any object a caller holds — inside a pool worker's cache
write, inside a simulator's trace-store read — and the operator's
question is "did *this process* retry/quarantine anything".

>>> from repro.faults import counters
>>> before = counters.snapshot()
>>> counters.bump("worker_retries")
>>> counters.snapshot()["worker_retries"] - before["worker_retries"]
1
"""

from __future__ import annotations

import threading

#: Every recovery counter, in render order.  All monotonic.
RECOVERY_COUNTER_NAMES = (
    "worker_retries",         # crashed batches re-dispatched to a fresh pool
    "pool_rebuilds",          # ProcessPoolExecutor instances re-created after a break
    "cells_poisoned",         # cells quarantined after repeated worker crashes
    "artifacts_quarantined",  # corrupt cache artifacts moved to quarantine/
    "client_retries",         # ServiceClient connect attempts that were retried
    "journal_lines_skipped",  # unparseable job-journal lines ignored on replay
    "faults_injected",        # fault-plan firings (chaos runs only; 0 in production)
    "leases_claimed",         # work-queue tasks claimed via O_EXCL lease creation
    "leases_expired",         # leases reaped after their TTL passed unrenewed
    "tasks_requeued",         # queue tasks returned to the pool behind a backoff
    "tasks_poisoned",         # queue tasks quarantined after max failed claims
)

_LOCK = threading.Lock()
_COUNTS: dict[str, int] = dict.fromkeys(RECOVERY_COUNTER_NAMES, 0)


def bump(name: str, amount: int = 1) -> None:
    """Increment one counter (must be a known name, amount >= 0)."""
    if name not in _COUNTS:
        raise KeyError(f"unknown recovery counter: {name!r}")
    if amount < 0:
        raise ValueError(f"recovery counters only increase, got {amount}")
    with _LOCK:
        _COUNTS[name] += amount


def value(name: str) -> int:
    """Current value of one counter."""
    with _LOCK:
        return _COUNTS[name]


def snapshot() -> dict[str, int]:
    """Copy of every counter (stable key order)."""
    with _LOCK:
        return {name: _COUNTS[name] for name in RECOVERY_COUNTER_NAMES}


def delta(before: dict[str, int]) -> dict[str, int]:
    """Per-counter increase since a prior :func:`snapshot`."""
    now = snapshot()
    return {name: now[name] - before.get(name, 0) for name in RECOVERY_COUNTER_NAMES}


def reset() -> None:
    """Zero every counter.  Test isolation only — production code must
    never call this (it would break the monotonic-scrape contract)."""
    with _LOCK:
        for name in _COUNTS:
            _COUNTS[name] = 0
