"""Spans around the public calls of each ``repro`` layer.

The wrappers are installed from here at run time; ``src/`` is never
edited.  A wrapped function is replaced in its defining module and in
every ``repro`` module that imported it by name, so internal calls go
through the wrapper too.  A span records its name, start and end
(``perf_counter_ns``, which is CLOCK_MONOTONIC and so comparable across
processes), its parent span on the same thread, the benchmark job id,
and a few counts taken from the call's arguments and result.

Spans are kept in memory.  Forked pool workers inherit the wrappers,
drop the parent's spans, and append their own to a file after every
top-level task; the parent reads those files when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import os
import threading
import time
from pathlib import Path


class Recorder:
    """Process-wide span store with an on/off switch."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.enabled = False
        self.spans: list[tuple] = []
        #: Facts read from the program's own records (queue claims).
        self.notes: list[dict] = []
        self.job: int | None = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # Runs on the forking thread: keep its job id, drop its stack.
        self.job = getattr(self._local, "job", self.job)
        self.spans = []
        self._local = threading.local()
        self._pid = os.getpid()

    @property
    def in_worker(self) -> bool:
        return self._pid != ROOT_PID

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_thread_job(self, job: int | None) -> None:
        """Tag spans opened on this thread with a benchmark job id."""
        self._local.job = job

    def begin(self, name: str) -> list:
        stack = self._stack()
        span = [
            (self._pid << 32) | next(self._ids),
            stack[-1][0] if stack else 0,
            name,
            time.perf_counter_ns(),
            0,
            self._pid,
            threading.get_ident(),
            getattr(self._local, "job", self.job),
            None,
        ]
        stack.append(span)
        return span

    def stop(self, span: list) -> None:
        """Close a span: take its end time and leave its thread's stack."""
        span[4] = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def keep(self, span: list, attrs: dict | None = None) -> None:
        """Store a stopped span; a worker spills after each task."""
        span[8] = attrs
        self.spans.append(tuple(span))
        if self.in_worker and span[2] == "records.batch" and not self._stack():
            self.spill()

    def end(self, span: list, attrs: dict | None = None) -> None:
        self.stop(span)
        self.keep(span, attrs)

    def spill(self) -> None:
        """Append this worker's spans to its file (after each task)."""
        if not self.spans:
            return
        path = self.spill_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> list[tuple]:
        """This process's spans plus every worker's spilled spans."""
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path) as handle:
                spans.extend(tuple(json.loads(line)) for line in handle)
        return spans

    def clear(self) -> None:
        self.spans = []
        for path in self.spill_dir.glob("spans-*.jsonl"):
            path.unlink()


ROOT_PID = os.getpid()
RECORDER: Recorder | None = None


def wrap(name: str, fn, attrs=None, wrap_result=None):
    """A traced version of ``fn``; ``attrs(args, kwargs, result)`` may
    return counts to keep on the span, ``wrap_result`` may rewrap the
    result (iterators timed per ``next()``)."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        recorder = RECORDER
        if recorder is None or not recorder.enabled:
            return fn(*args, **kwargs)
        span = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.end(span)
            raise
        recorder.stop(span)
        recorder.keep(span, attrs(args, kwargs, result) if attrs else None)
        if wrap_result is not None:
            result = wrap_result(result)
        return result

    traced.__wrapped_original__ = fn
    return traced


class TimedIterator:
    """Times every ``next()`` of a wrapped iterator as one span."""

    def __init__(self, name: str, inner) -> None:
        self._name = name
        self._inner = iter(inner)

    def __iter__(self):
        return self

    def __next__(self):
        recorder = RECORDER
        if recorder is None or not recorder.enabled:
            return next(self._inner)
        span = recorder.begin(self._name)
        try:
            item = next(self._inner)
        except StopIteration:
            recorder.end(span, {"items": 0})
            raise
        except BaseException:
            recorder.end(span)
            raise
        recorder.end(span, {"items": 1})
        return item


def _replace_everywhere(module, attr: str, wrapper) -> None:
    """Rebind ``module.attr`` and every ``repro`` module's alias of it."""
    import sys

    original = getattr(module, attr)
    for name, loaded in list(sys.modules.items()):
        if loaded is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapper)


def _path_size(store, key) -> int:
    try:
        return store._path(key).stat().st_size
    except OSError:
        return 0


def _n(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def install(spill_dir: Path) -> Recorder:
    """Install every wrapper (disabled until ``RECORDER.enabled``)."""
    global RECORDER
    from importlib import import_module

    (analysis_frontier, backends, api_cache, engine, execution, spec, hierarchy,
     cache_streaming, dist_backend, dist_queue, ingest_store, service_client,
     sim_streaming, timing, windows, registry) = (
        import_module(f"repro.{name}") for name in (
            "analysis.frontier", "api.backends", "api.cache", "api.engine",
            "api.execution", "api.spec", "cache.hierarchy", "cache.streaming",
            "dist.backend", "dist.queue", "ingest.store", "service.client",
            "sim.streaming", "sim.timing", "sim.windows", "workloads.registry",
        )
    )

    if RECORDER is not None:
        return RECORDER
    RECORDER = Recorder(spill_dir)

    def functions(module, attr, name, attrs=None, wrap_result=None):
        wrapper = wrap(name, getattr(module, attr), attrs, wrap_result)
        _replace_everywhere(module, attr, wrapper)

    def method(cls, attr, name, attrs=None, wrap_result=None):
        original = inspect.getattr_static(cls, attr)
        if isinstance(original, (staticmethod, classmethod)):
            kind = type(original)
            setattr(cls, attr, kind(wrap(name, original.__func__, attrs, wrap_result)))
        else:
            setattr(cls, attr, wrap(name, original, attrs, wrap_result))

    bind = inspect.signature(registry.build_trace).bind
    functions(registry, "build_trace", "workloads.build_trace",
              lambda a, k, r: {"refs": _n(r.addresses), "key": _trace_key(bind(*a, **k))})
    functions(hierarchy, "simulate_hierarchy", "cache.pass",
              lambda a, k, r: {"refs": _n(a[0].addresses)})
    functions(timing, "run_timing_batch", "replay.batch",
              lambda a, k, r: {"requests": _n(a[0].gap_cycles), "configs": _n(r)})
    functions(timing, "run_timing", "replay.single",
              lambda a, k, r: {"requests": _n(a[0].gap_cycles)})
    functions(execution, "execute_cells_batch", "records.batch",
              lambda a, k, r: {"cells": _n(r)})
    functions(execution, "execute_cell", "records.cell")
    for attr in ("ipc_windows", "instructions_per_access_windows",
                 "epoch_transition_instructions"):
        functions(windows, attr, "windows." + attr)
    functions(analysis_frontier, "frontier_from_resultset", "frontier.analysis")
    functions(cache_streaming, "stream_functional", "stream.functional_setup",
              wrap_result=lambda r: (TimedIterator("stream.functional", r[0]), r[1]))
    functions(sim_streaming, "run_timing_streaming", "stream.replay")

    method(spec.Cell, "content_hash", "spec.hash")
    traces = api_cache.TraceCache
    method(traces, "get", "traces.get",
           lambda a, k, r: {"hit": int(r is not None)})
    method(traces, "has", "traces.has", lambda a, k, r: {"hit": int(bool(r))})
    method(traces, "put", "traces.put",
           lambda a, k, r: {"bytes": _path_size(a[0], a[1])})
    results = api_cache.ResultCache
    method(results, "get", "results.get",
           lambda a, k, r: {"hit": int(r is not None)})
    method(results, "put", "results.put",
           lambda a, k, r: {"bytes": _path_size(a[0], a[1])})
    method(engine.Engine, "run", "engine.run")
    method(backends.ProcessPoolBackend, "run_cells", "backend.run_cells")
    pool = backends.ProcessPoolExecutor
    backends.ProcessPoolExecutor = wrap("backend.pool_start", pool)
    method(dist_queue.WorkQueue, "for_cells", "dist.submit")
    method(dist_backend.WorkQueueBackend, "_coordinate", "dist.coordinate")
    dist_backend.WorkQueueBackend._coordinate = _watch_claims(
        dist_backend.WorkQueueBackend._coordinate
    )
    method(dist_backend.WorkQueueBackend, "_assemble", "dist.assemble")
    method(ingest_store.IngestStore, "import_trace", "ingest.import")
    method(ingest_store.IngestStore, "open_stream", "ingest.open",
           wrap_result=lambda r: (r[0], TimedIterator("ingest.parse", r[1])))
    client = service_client.ServiceClient
    method(client, "submit", "service.submit")
    method(client, "wait", "service.wait")
    method(client, "result", "service.result")
    return RECORDER


def _trace_key(bound) -> list:
    """A workload trace's identity: what ``build_trace`` was asked for."""
    bound.apply_defaults()
    arguments = bound.arguments
    return [arguments["name"], arguments["input_name"], arguments["seed"],
            arguments["n_instructions"]]


@contextlib.contextmanager
def job_span():
    """A benchmark job's root span; its self time is the unaccounted gap."""
    recorder = RECORDER
    span = recorder.begin("job") if recorder is not None and recorder.enabled else None
    try:
        yield
    finally:
        if span is not None:
            recorder.end(span)


def _watch_claims(coordinate):
    """Note when the first worker claims a lease after the coordinator
    starts spawning, read from the lease files' own ``claimed_at``."""

    @functools.wraps(coordinate)
    def watched(self, cache, queue):
        if RECORDER is None or not RECORDER.enabled:
            return coordinate(self, cache, queue)
        watcher = _LeaseWatcher(Path(queue.root))
        watcher.start()
        try:
            return coordinate(self, cache, queue)
        finally:
            watcher.stop()
            RECORDER.notes.append({
                "kind": "dist.first_claim",
                "queue": str(queue.root),
                "spawn_wall": watcher.started_wall,
                "claim_wall": watcher.first_claim_wall,
            })

    return watched


class _LeaseWatcher(threading.Thread):
    """Polls a queue's lease and failure markers for the first claim."""

    POLL_S = 0.005

    def __init__(self, root: Path) -> None:
        super().__init__(daemon=True)
        self.root = root
        self.started_wall = time.time()
        self.first_claim_wall: float | None = None
        self._stop_event = threading.Event()

    def run(self) -> None:
        while self.first_claim_wall is None and not self._stop_event.is_set():
            for sub in ("leases", "failed"):
                for path in (self.root / sub).glob("*"):
                    try:
                        claimed = json.loads(path.read_text()).get("claimed_at")
                    except (OSError, ValueError, AttributeError):
                        continue
                    if claimed is not None and (
                        self.first_claim_wall is None or claimed < self.first_claim_wall
                    ):
                        self.first_claim_wall = claimed
            self._stop_event.wait(self.POLL_S)

    def stop(self) -> None:
        self._stop_event.set()
        self.join(timeout=5.0)
