"""One process-wide metrics registry: counters, engine-busy time, job latency.

Every counter the package keeps is declared here once: the sweep
daemon's job and cell accounting, then the recovery counters of the
layers that survive faults (the pool backend retrying a crashed worker,
the cache quarantining a corrupt artifact, the client retrying a
refused connection, the work queue's leases).  Counters are
**monotonic** for the life of the process, so two reads can always be
differenced.  The daemon builds its ``/metrics`` document from this
table (:meth:`repro.service.SweepService.metrics_snapshot`, recovery
counters under a ``recovery_`` prefix), and the chaos scenarios
(:mod:`repro.faults.scenarios`) difference snapshots around a run to
prove recovery happened.

The table counts the process, not one object: recovery happens below
any object a caller holds (inside a pool worker's cache write, inside a
simulator's trace-store read), and a process runs one daemon.  One lock
guards it, so any thread may record.

>>> from repro import obs
>>> before = obs.snapshot()
>>> obs.bump("worker_retries")
>>> obs.bump("cells_run", 3)
>>> delta = obs.delta(before)
>>> (delta["worker_retries"], delta["cells_run"], delta["jobs_failed"])
(1, 3, 0)
"""

from __future__ import annotations

import threading

from repro.oram.path_oram import DEFAULT_PERCENTILES, percentiles_from_histogram

#: The sweep daemon's counters, in the order ``/metrics`` renders them.
SERVICE_COUNTERS = (
    "jobs_submitted",         # admissions, deduplicated ones included
    "jobs_deduplicated",      # submissions attached to an active identical job
    "jobs_started",           # jobs that left the queue
    "jobs_completed",         # jobs that ended done
    "jobs_failed",            # jobs that ended failed
    "jobs_cancelled",         # jobs that ended cancelled
    "cells_serviced",         # spec cells delivered (run + result-cache hits)
    "cells_run",              # cells executed (timing replays)
    "cache_hits",             # cells served from the persistent result cache
    "functional_passes",      # functional cache passes computed (passes_computed)
    "progress_events",        # per-group progress events emitted
    "jobs_resumed",           # journaled jobs re-enqueued after a daemon restart
    "events_dropped",         # job events evicted from bounded per-job rings
)

#: The recovery counters; ``/metrics`` renders them as ``recovery_<name>``.
RECOVERY_COUNTERS = (
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
_COUNTS: dict[str, int] = dict.fromkeys(SERVICE_COUNTERS + RECOVERY_COUNTERS, 0)
_busy_s = 0.0
#: ``_latency_ms[v]`` counts finished jobs that took ``v`` milliseconds.
_latency_ms: list[int] = []


def bump(name: str, amount: int = 1) -> None:
    """Increment one counter (a known name, ``amount`` >= 0)."""
    if name not in _COUNTS:
        raise KeyError(f"unknown counter: {name!r}")
    if amount < 0:
        raise ValueError(f"counter {name} can only increase, got {amount}")
    with _LOCK:
        _COUNTS[name] += amount


def add_busy(seconds: float) -> None:
    """Accumulate engine-busy time (the daemon's utilization numerator)."""
    global _busy_s
    if seconds < 0:
        raise ValueError(f"busy time cannot be negative, got {seconds}")
    with _LOCK:
        _busy_s += seconds


def record_latency(seconds: float) -> None:
    """Count one finished job's submit-to-finish time, in whole milliseconds."""
    ms = max(0, int(round(seconds * 1000.0)))
    with _LOCK:
        if ms >= len(_latency_ms):
            _latency_ms.extend([0] * (ms + 1 - len(_latency_ms)))
        _latency_ms[ms] += 1


def snapshot() -> dict[str, int]:
    """Copy of every counter, in declaration order."""
    with _LOCK:
        return dict(_COUNTS)


def delta(before: dict[str, int]) -> dict[str, int]:
    """Per-counter increase since an earlier :func:`snapshot`."""
    now = snapshot()
    return {name: now[name] - before.get(name, 0) for name in now}


def busy_seconds() -> float:
    """Engine-busy seconds accumulated so far."""
    with _LOCK:
        return _busy_s


def latency_percentiles(qs=DEFAULT_PERCENTILES) -> dict[float, int]:
    """Nearest-rank job-latency percentiles in milliseconds, from the
    repository's one percentile implementation."""
    with _LOCK:
        histogram = list(_latency_ms)
    return percentiles_from_histogram(histogram, qs)


def reset() -> None:
    """Zero the registry.  Test isolation only: production code must
    never call this, because it breaks the monotonic-scrape contract."""
    global _busy_s
    with _LOCK:
        _COUNTS.update(dict.fromkeys(_COUNTS, 0))
        _busy_s = 0.0
        _latency_ms.clear()
