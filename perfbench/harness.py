"""One benchmark process: set a workload up, run its windows, check them.

``run.py`` starts this script in a fresh interpreter, once per set-up
sample (``--role setup``: set up, report, exit) and once to measure
(``--role measure``).  It speaks to ``run.py`` through stdout lines that
start with ``PERFBENCH``: a ``ready`` line when set-up is done and a
``result`` line at the end.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: Output digests of the default workload seed, written by ``--pin-out``.
PINS = Path(__file__).resolve().parent / "pins.json"


def emit(kind: str, payload: dict) -> None:
    print("PERFBENCH " + json.dumps({"kind": kind, **payload}), flush=True)


def reset_peak_rss() -> bool:
    """Restart this process's peak-RSS count (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and its waited-for children."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    own_kb = int(line.split()[1])
    except OSError:
        pass
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, children_kb) / 1024.0


def summarize(window, problems: dict) -> dict:
    jobs = []
    for outcome in window.outcomes:
        found = problems.get((outcome.client, outcome.index), [])
        jobs.append({
            "client": outcome.client,
            "index": outcome.index,
            "latency_s": outcome.latency_s,
            "cells": outcome.cells,
            "refs": outcome.refs,
            "kind": outcome.facts.get("kind", ""),
            "round": outcome.round,
            "ok": not found,
            "problems": found[:3],
        })
    return {"jobs": jobs, "attempted": window.attempted,
            "rounds": [{"busy_s": r.busy_s, "slowdown": r.slowdown} for r in window.rounds]}


def pins_of(workload, windows: list) -> dict:
    """Digests to pin for this seed (``--pin-out``)."""
    if workload.name == "ingest_replay":
        from workloads import facts_digest

        combos = {o.facts["combo"]: facts_digest(o.facts["result"]) for o in windows[0].outcomes}
        return {"traces": workload.digests, "combos": combos}
    return {
        window.name: {f"{o.client}:{o.index}": o.facts["digest"]
                      for o in window.outcomes if not o.error}
        for window in windows
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True, help="scratch directory of this process")
    parser.add_argument("--repo", required=True, help="checkout holding src/repro")
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--pin-out", default=None, help="write this run's digests here")
    args = parser.parse_args()

    sys.path.insert(0, str(Path(args.repo) / "src"))
    root = Path(args.root)
    root.mkdir(parents=True, exist_ok=True)
    import_started = time.perf_counter()
    import repro  # noqa: F401

    import_ms = (time.perf_counter() - import_started) * 1e3

    import hostspeed
    import joblists
    import tracing

    recorder = None
    if args.trace and args.role == "measure":
        (root / "spans").mkdir(exist_ok=True)
        recorder = tracing.install(root / "spans")
        recorder.enabled = True
    import layers
    import workloads

    workload = workloads.WORKLOAD_CLASSES[args.workload](root, args.seed)
    workload.setup()
    ready_ms = (time.perf_counter() - STARTED) * 1e3
    setup_spans = []
    if recorder is not None:
        recorder.enabled = False
        setup_spans = recorder.collect()
        recorder.clear()
    emit("ready", {"import_ms": import_ms, "ready_ms": ready_ms})
    if args.role == "setup":
        workload.close()
        return 0
    probe = hostspeed.ProbeProcess()
    # The host's speed right after set-up, for scaling the set-up time.
    emit("speed", {"slowdown": probe.slowdown()})

    rss_window = reset_peak_rss()
    windows = [workload.run_window("timed", args.seconds, probe.slowdown)]
    rss_mb = peak_rss_mb()
    if recorder is not None:
        recorder.enabled = True
        windows.append(workload.run_window("traced", args.seconds, probe.slowdown))
        recorder.enabled = False
        windows[-1].extras["notes"] = list(recorder.notes)
    workload.close()
    probe.close()

    pins = None
    if args.seed == joblists.DEFAULT_SEED and args.pin_out is None:
        pins = json.loads(PINS.read_text()).get(args.workload)
    summaries = {}
    for window in windows:
        problems = workload.check(window, pins)
        workloads.count_refs(window)
        summaries[window.name] = summarize(window, problems)

    per_layer = ledger = None
    if recorder is not None:
        untraced_cells_per_s = layers.cells_per_ref_s(windows[0])
        per_layer, ledger = layers.per_layer(
            windows[-1], recorder.collect(), setup_spans, untraced_cells_per_s,
        )
        if per_layer["cache.redundant_passes"]:
            # The program's own invariant: one functional pass per trace.
            for job in summaries["traced"]["jobs"]:
                job["ok"] = False
                job["problems"].append(
                    f"{per_layer['cache.redundant_passes']} redundant functional passes")
    if args.pin_out:
        Path(args.pin_out).write_text(json.dumps(pins_of(workload, windows), indent=1))
    emit("result", {
        "windows": summaries,
        "peak_rss_mb": rss_mb,
        "rss_window_only": rss_window,
        "per_layer": per_layer,
        "ledger": ledger,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
