"""Perf report serialization and baseline gating.

``benchmarks/baselines.json`` pins the fast-path throughput (and, for
the record, the speedup) of every measurement, keyed ``tier/workload``,
under the mode — quick or full — it was measured in.
:func:`check_against_baseline` compares a fresh
:class:`~repro.perf.bench.PerfReport` against it and returns the list of
failures; CI fails the perf job when that list is non-empty.

Gating rules, every one a constant here:

* a report is gated only against a baseline of its own mode — quick and
  full runs time different workload sizes, so their numbers are
  incomparable;
* every fast-path measurement must be equivalent to its reference (a
  mismatch is a correctness bug, never tolerated);
* throughput may sit at most :data:`TOLERANCE` (30%) below its pinned
  value;
* each headline workload keeps its speedup floor
  (:data:`SPEEDUP_FLOORS`), and **no functional kernel may ship slower
  than its own oracle** (:data:`FUNCTIONAL_SHIP_FLOOR`).

Updating the baseline after an intentional change:

    python -m repro perf --quick --update-baseline benchmarks/baselines.json
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.perf.bench import Measurement, PerfReport

#: Throughput may drop at most this fraction below baseline before CI fails.
TOLERANCE = 0.30

#: Headline speedup floors, by measurement key: the vectorized cache pass
#: on its L1-resident stream, the batched ORAM engine, a 16-config batch
#: over 16 sequential reference replays, and 16 tenants packed per bank
#: call over round-robin.
SPEEDUP_FLOORS = {
    "functional/kernel_stream": 5.0,
    "oram/oram_burst": 10.0,
    "frontier_cell/libquantum": 5.0,
    "tenancy_step/tenants_16": 3.0,
}

#: Every functional workload must at least match its scalar oracle.
FUNCTIONAL_SHIP_FLOOR = 1.0


def save_report(report: PerfReport, path: str | Path) -> None:
    """Write a report as pretty-printed JSON (BENCH_perf.json)."""
    Path(path).write_text(json.dumps(report.to_dict(), indent=2) + "\n")


def report_to_baseline(report: PerfReport) -> dict:
    """Distill a report into the committed baseline payload."""
    return {
        "mode": report.mode,
        "pinned": {
            m.key: {"per_s": round(m.fast_per_s), "speedup": round(m.speedup, 2)}
            for m in report.measurements
        },
    }


def write_baseline(report: PerfReport, path: str | Path) -> None:
    """Write ``benchmarks/baselines.json`` from a fresh report."""
    Path(path).write_text(json.dumps(report_to_baseline(report), indent=2) + "\n")


def load_baseline(path: str | Path) -> dict:
    """Load a committed baseline file."""
    return json.loads(Path(path).read_text())


def speedup_floor(m: Measurement) -> float:
    """The speedup a measurement may not fall below (0.0: none)."""
    default = FUNCTIONAL_SHIP_FLOOR if m.tier == "functional" else 0.0
    return SPEEDUP_FLOORS.get(m.key, default)


def check_against_baseline(report: PerfReport, baseline: dict) -> list[str]:
    """Compare a report against a baseline; return failure descriptions.

    Empty list == gate passes.  A report is only checked against the
    tiers it ran, so a ``--tier`` run is never failed for the others.
    """
    failures = [
        f"{m.tier}[{m.workload}]: fast path diverges from its reference "
        "(correctness bug)"
        for m in report.measurements
        if not m.equivalent
    ]
    if baseline.get("mode") != report.mode:
        failures.append(
            f"mode: the report was measured in {report.mode} mode but the "
            f"baseline was pinned in {baseline.get('mode')} mode; their "
            "numbers are not comparable"
        )
        return failures
    pinned = baseline.get("pinned", {})
    for m in report.measurements:
        label = f"{m.tier}[{m.workload}]"
        base = pinned.get(m.key)
        if base is not None and m.fast_per_s < base["per_s"] * (1.0 - TOLERANCE):
            failures.append(
                f"{label}: {m.fast_per_s:,.0f} {m.unit}/s is more than "
                f"{TOLERANCE:.0%} below baseline {base['per_s']:,} {m.unit}/s"
            )
        floor = speedup_floor(m)
        if m.speedup < floor:
            failures.append(
                f"{label}: speedup {m.speedup:.2f}x is below its "
                f"{floor:.1f}x floor"
            )
    tiers_run = {m.tier for m in report.measurements}
    measured = {m.key for m in report.measurements}
    for key in SPEEDUP_FLOORS:
        tier, workload = key.split("/", 1)
        if tier in tiers_run and key not in measured:
            failures.append(f"{tier}[{workload}]: headline workload not measured")
    return failures
