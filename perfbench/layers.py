"""Per-layer metrics from the traced window's spans.

A layer's self time is its spans' durations minus the time their child
spans (same thread) cover.  Times and counts are per job of the traced
window unless the name says otherwise (ratios, ``ns_per_*``,
``*_per_cell``, ``*_pct``).  Queue workers are fresh interpreters and
are not wrapped: ``dist_fleet`` reads them from the queue's own records
(task, failure and done markers, heartbeats) instead.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

#: Every per-layer metric, in BENCHMARK.json order, with its unit.
METRICS = {
    "setup.import_ms": "ms",
    "setup.ready_ms": "ms",
    "workloads.calls": "count",
    "workloads.refs": "refs",
    "workloads.self_ms": "ms",
    "cache.passes": "count",
    "cache.redundant_passes": "count",
    "cache.self_ms": "ms",
    "cache.ns_per_ref": "ns",
    "traces.puts": "count",
    "traces.put_bytes": "bytes",
    "traces.put_ms": "ms",
    "traces.gets": "count",
    "traces.get_hit_ratio": "ratio",
    "traces.get_ms": "ms",
    "replay.batch_calls": "count",
    "replay.batch_configs_mean": "count",
    "replay.batch_ms": "ms",
    "replay.batch_ns_per_request_config": "ns",
    "replay.single_calls": "count",
    "replay.single_ms": "ms",
    "replay.single_ns_per_request": "ns",
    "records.cells": "count",
    "records.self_ms": "ms",
    "windows.ms": "ms",
    "spec.hash_calls_per_cell": "count",
    "spec.hash_ms": "ms",
    "results.puts_per_cell": "count",
    "results.put_bytes": "bytes",
    "results.put_ms": "ms",
    "results.gets": "count",
    "results.get_hit_ratio": "ratio",
    "results.get_ms": "ms",
    "engine.self_ms": "ms",
    "backend.pools_started": "count",
    "backend.dispatch_ms": "ms",
    "backend.worker_busy_ratio": "ratio",
    "frontier.analysis_ms": "ms",
    "service.submit_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.run_ms": "ms",
    "service.result_ms": "ms",
    "service.utilization": "ratio",
    "service.cache_hit_ratio": "ratio",
    "dist.submit_ms": "ms",
    "dist.spawn_to_first_claim_ms": "ms",
    "dist.tasks": "count",
    "dist.claims_per_task": "count",
    "dist.leases_expired": "count",
    "dist.coordinate_ms": "ms",
    "dist.assemble_ms": "ms",
    "ingest.import_ms": "ms",
    "ingest.parse_ms": "ms",
    "stream.chunks": "count",
    "stream.functional_ms": "ms",
    "stream.replay_ms": "ms",
    "stream.ns_per_ref": "ns",
    "trace.overhead_pct": "%",
    "trace.unaccounted_pct": "%",
}

#: Span names whose self time belongs to each ledger layer.
LAYERS = {
    "workloads": ("workloads.build_trace",),
    "cache": ("cache.pass",),
    "traces": ("traces.get", "traces.has", "traces.put"),
    "replay.batch": ("replay.batch",),
    "replay.single": ("replay.single",),
    "records": ("records.batch", "records.cell"),
    "windows": ("windows.ipc_windows", "windows.instructions_per_access_windows",
                "windows.epoch_transition_instructions"),
    "spec": ("spec.hash",),
    "results": ("results.get", "results.put"),
    "engine": ("engine.run",),
    "backend": ("backend.run_cells", "backend.pool_start"),
    "frontier": ("frontier.analysis",),
    "service.client": ("service.submit", "service.wait", "service.result"),
    "dist.submit": ("dist.submit",),
    "dist.coordinate": ("dist.coordinate",),
    "dist.assemble": ("dist.assemble",),
    "ingest": ("ingest.open", "ingest.parse"),
    "stream": ("stream.functional_setup", "stream.functional", "stream.replay"),
    "unaccounted": ("job",),
}

#: Span tuple fields (see ``tracing.Recorder.begin``): id, parent, then these.
NAME, START, END, PID, TID, ATTRS = 2, 3, 4, 5, 6, 8


class Spans:
    """Indexed spans with self times."""

    def __init__(self, spans: list) -> None:
        child_ns: dict[int, int] = defaultdict(int)
        self.children: dict[int, list] = defaultdict(list)
        for span in spans:
            if span[1]:
                child_ns[span[1]] += span[END] - span[START]
                self.children[span[1]].append(span)
        self.self_ns = {span[0]: span[END] - span[START] - child_ns[span[0]] for span in spans}
        self.by_name: dict[str, list] = defaultdict(list)
        for span in spans:
            self.by_name[span[NAME]].append(span)

    def named(self, *names: str) -> list:
        return [span for name in names for span in self.by_name.get(name, ())]

    def count(self, *names: str) -> int:
        return len(self.named(*names))

    def self_ms(self, *names: str) -> float:
        return sum(self.self_ns[span[0]] for span in self.named(*names)) / 1e6

    def total_ms(self, *names: str) -> float:
        return sum(span[END] - span[START] for span in self.named(*names)) / 1e6

    def attr_sum(self, key: str, *names: str) -> float:
        return sum((span[ATTRS] or {}).get(key, 0) for span in self.named(*names))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    covered, last_end = 0, None
    for start, end in sorted(intervals):
        if last_end is None or start > last_end:
            covered += end - start
            last_end = end
        elif end > last_end:
            covered += end - last_end
            last_end = end
    return covered


def _dispatch(spans: Spans) -> tuple[float, float]:
    """Pool time the parent spends outside any worker task, and the
    share of worker capacity spent in tasks."""
    dispatch_ns = busy_ns = capacity_ns = 0
    for run in spans.named("backend.run_cells"):
        tasks = [
            span for span in spans.named("records.batch")
            if span[PID] != run[PID] and span[1] == 0
            and span[START] >= run[START] and span[END] <= run[END]
        ]
        covered = _union_ns([(span[START], span[END]) for span in tasks])
        dispatch_ns += max(spans.self_ns[run[0]] - covered, 0)
        busy_ns += sum(span[END] - span[START] for span in tasks)
        workers = len({span[PID] for span in tasks}) or 1
        capacity_ns += workers * (run[END] - run[START])
    return dispatch_ns / 1e6, _ratio(busy_ns, capacity_ns)


def _redundant_passes(spans: Spans) -> int:
    """Functional passes over a trace that an earlier pass already saw.

    A pass is keyed by the ``build_trace`` call just before it on the
    same thread (the simulator builds the trace, then runs the pass).
    """
    keys = []
    for span in spans.named("cache.pass"):
        built = [s for s in spans.children.get(span[1], ())
                 if s[NAME] == "workloads.build_trace" and s[END] <= span[START]]
        if built:
            keys.append(json.dumps(max(built, key=lambda s: s[END])[ATTRS]["key"]))
        else:
            keys.append(f"unkeyed-{span[0]}")
    return len(keys) - len(set(keys))


def _queue_records(queue_root: str) -> dict:
    root = Path(queue_root)
    tasks = len(list((root / "tasks").glob("*.json")))
    done = len(list((root / "done").glob("*.json")))
    failed = len(list((root / "failed").glob("*")))
    executed = 0
    for path in (root / "workers").glob("*.json"):
        try:
            executed += int(json.loads(path.read_text()).get("cells_executed", 0))
        except (OSError, ValueError):
            continue
    return {"tasks": tasks, "done": done, "failed": failed, "worker_puts": executed}


def cells_per_ref_s(window) -> float:
    """Cells of the window's passed jobs per reference second."""
    cells = sum(o.cells for o in window.outcomes if not o.error)
    return _ratio(cells, window.busy_ref_s)


def per_layer(window, spans_list: list, setup_spans_list: list,
              untraced_cells_per_s: float) -> tuple[dict, dict]:
    """(metrics, ledger) for one traced window; ``setup.*`` come from the
    fresh-interpreter set-up samples instead."""
    spans = Spans(spans_list)
    setup_spans = Spans(setup_spans_list)
    good = [o for o in window.outcomes if not o.error]
    jobs = max(len(good), 1)
    cells = sum(o.cells for o in good)
    job_ms = sum(o.latency_s for o in good) * 1e3

    def per_job(value: float) -> float:
        return value / jobs

    dist = [_queue_records(o.facts["queue"]) for o in good if o.facts.get("queue")]
    worker_puts = sum(record["worker_puts"] for record in dist)
    result_puts = spans.count("results.put")
    put_bytes = spans.attr_sum("bytes", "results.put")
    mean_put = _ratio(put_bytes, result_puts)
    claims = [note for note in window.extras.get("notes", [])
              if note["claim_wall"] is not None]

    batch_configs = batch_request_configs = 0
    for span in spans.named("replay.batch"):
        attrs = span[ATTRS] or {}
        nested = sum(1 for child in spans.children[span[0]] if child[NAME] == "replay.single")
        batch_configs += attrs.get("configs", 0)
        batch_request_configs += attrs.get("requests", 0) * (attrs.get("configs", 0) - nested)
    dispatch_ms, busy_ratio = _dispatch(spans)
    daemon = window.extras.get("daemon_jobs", {})
    before = window.extras.get("metrics_before", {})
    after = window.extras.get("metrics_after", {})
    delta = {key: after.get(key, 0) - before.get(key, 0)
             for key in ("worker_busy_s", "uptime_s", "cache_hits", "cells_serviced")}
    stream_ns = 1e6 * spans.self_ms("ingest.parse", "stream.functional", "stream.replay")

    metrics = {
        "workloads.calls": per_job(spans.count("workloads.build_trace")),
        "workloads.refs": per_job(spans.attr_sum("refs", "workloads.build_trace")),
        "workloads.self_ms": per_job(spans.self_ms("workloads.build_trace")),
        "cache.passes": per_job(spans.count("cache.pass")),
        "cache.redundant_passes": _redundant_passes(spans),
        "cache.self_ms": per_job(spans.self_ms("cache.pass")),
        "cache.ns_per_ref": _ratio(1e6 * spans.self_ms("cache.pass"),
                                   spans.attr_sum("refs", "cache.pass")),
        "traces.puts": per_job(spans.count("traces.put")),
        "traces.put_bytes": per_job(spans.attr_sum("bytes", "traces.put")),
        "traces.put_ms": per_job(spans.self_ms("traces.put")),
        "traces.gets": per_job(spans.count("traces.get", "traces.has")),
        "traces.get_hit_ratio": _ratio(spans.attr_sum("hit", "traces.get", "traces.has"),
                                       spans.count("traces.get", "traces.has")),
        "traces.get_ms": per_job(spans.self_ms("traces.get", "traces.has")),
        "replay.batch_calls": per_job(spans.count("replay.batch")),
        "replay.batch_configs_mean": _ratio(batch_configs, spans.count("replay.batch")),
        "replay.batch_ms": per_job(spans.self_ms("replay.batch")),
        "replay.batch_ns_per_request_config": _ratio(1e6 * spans.self_ms("replay.batch"),
                                                     batch_request_configs),
        "replay.single_calls": per_job(spans.count("replay.single")),
        "replay.single_ms": per_job(spans.self_ms("replay.single")),
        "replay.single_ns_per_request": _ratio(1e6 * spans.self_ms("replay.single"),
                                               spans.attr_sum("requests", "replay.single")),
        "records.cells": per_job(spans.attr_sum("cells", "records.batch")),
        "records.self_ms": per_job(spans.self_ms("records.batch", "records.cell")),
        "windows.ms": per_job(spans.self_ms(*LAYERS["windows"])),
        "spec.hash_calls_per_cell": _ratio(spans.count("spec.hash"), cells),
        "spec.hash_ms": per_job(spans.self_ms("spec.hash")),
        "results.puts_per_cell": _ratio(result_puts + worker_puts, cells),
        "results.put_bytes": per_job(put_bytes + worker_puts * mean_put),
        "results.put_ms": per_job(spans.self_ms("results.put")),
        "results.gets": per_job(spans.count("results.get")),
        "results.get_hit_ratio": _ratio(spans.attr_sum("hit", "results.get"),
                                        spans.count("results.get")),
        "results.get_ms": per_job(spans.self_ms("results.get")),
        "engine.self_ms": per_job(spans.self_ms("engine.run")),
        "backend.pools_started": per_job(spans.count("backend.pool_start")),
        "backend.dispatch_ms": per_job(dispatch_ms),
        "backend.worker_busy_ratio": busy_ratio,
        "frontier.analysis_ms": per_job(spans.total_ms("frontier.analysis")),
        "service.submit_ms": per_job(spans.total_ms("service.submit")),
        "service.queue_wait_ms": per_job(1e3 * sum(
            t["started"] - t["submitted"] for t in daemon.values() if t["started"])),
        "service.run_ms": per_job(1e3 * sum(
            t["finished"] - t["started"] for t in daemon.values() if t["finished"])),
        "service.result_ms": per_job(spans.total_ms("service.result")),
        "service.utilization": _ratio(delta["worker_busy_s"],
                                      delta["uptime_s"] * after.get("workers", 1)),
        "service.cache_hit_ratio": _ratio(delta["cache_hits"], delta["cells_serviced"]),
        "dist.submit_ms": per_job(spans.total_ms("dist.submit")),
        "dist.spawn_to_first_claim_ms": _ratio(
            1e3 * sum(n["claim_wall"] - n["spawn_wall"] for n in claims), len(claims)),
        "dist.tasks": per_job(sum(record["tasks"] for record in dist)),
        "dist.claims_per_task": _ratio(sum(r["done"] + r["failed"] for r in dist),
                                       sum(r["tasks"] for r in dist)),
        "dist.leases_expired": per_job(sum(record["failed"] for record in dist)),
        "dist.coordinate_ms": per_job(spans.self_ms("dist.coordinate")),
        "dist.assemble_ms": per_job(spans.total_ms("dist.assemble")),
        "ingest.import_ms": _ratio(setup_spans.total_ms("ingest.import"),
                                   setup_spans.count("ingest.import")),
        "ingest.parse_ms": per_job(spans.self_ms("ingest.parse")),
        "stream.chunks": per_job(spans.attr_sum("items", "stream.functional")),
        "stream.functional_ms": per_job(spans.self_ms("stream.functional")),
        "stream.replay_ms": per_job(spans.self_ms("stream.replay")),
        "stream.ns_per_ref": _ratio(stream_ns, sum(o.refs for o in good)),
        "trace.overhead_pct": 100.0 * (1.0 - _ratio(cells_per_ref_s(window),
                                                    untraced_cells_per_s)),
        "trace.unaccounted_pct": 100.0 * _ratio(spans.self_ms("job"), job_ms),
    }
    local, concurrent = _shares(spans, job_ms)
    ledger = {
        "jobs": len(good),
        "job_ms_mean": round(job_ms / jobs, 2),
        "shares_of_job_time": local,
        "concurrent_shares_of_job_time": concurrent,
        "backend.dispatch_share": round(_ratio(dispatch_ms, job_ms), 4),
        "dist.spawn_to_first_claim_share": round(_ratio(
            metrics["dist.spawn_to_first_claim_ms"], job_ms / jobs), 4),
        "trace.overhead_pct": round(metrics["trace.overhead_pct"], 2),
        "trace.unaccounted_pct": round(metrics["trace.unaccounted_pct"], 2),
    }
    return metrics, ledger


def _shares(spans: Spans, job_ms: float) -> tuple[dict, dict]:
    """Each layer's self time as a share of summed job time, split by
    where it ran.

    On the threads that ran jobs, the shares and ``unaccounted`` add up
    to one.  Daemon threads and pool workers run concurrently, inside a
    job thread's wait (``service.client`` or ``backend``), so their
    shares are reported apart.  Layers that did not run are left out.
    """
    job_threads = {(span[PID], span[TID]) for span in spans.named("job")}
    local: dict[str, float] = {}
    elsewhere: dict[str, float] = {}
    for layer, names in LAYERS.items():
        for span in spans.named(*names):
            side = local if (span[PID], span[TID]) in job_threads else elsewhere
            side[layer] = side.get(layer, 0.0) + spans.self_ns[span[0]] / 1e6
    return tuple(
        {layer: round(_ratio(ms, job_ms), 4) for layer, ms in sorted(side.items()) if ms}
        for side in (local, elsewhere)
    )
