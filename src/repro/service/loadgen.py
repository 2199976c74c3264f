"""Load generator and saturation curves for the sweep service.

Drives a running daemon the way the muBench-style replication drives its
deployment: N concurrent clients submit sweep jobs from a template pool
under an **open-loop** (timed arrivals, service pressure independent of
completion) or **closed-loop** (submit-wait-submit, saturation) model,
record per-job latencies, and difference the daemon's ``/metrics``
before/after.  Arrival schedules come from the same deterministic
generator the multi-tenant simulation uses
(:func:`repro.tenancy.arrivals.generate_trace`): arrival *slots* scale to
seconds, and the trace's address stream picks which spec template each
request submits.

A :func:`run_saturation` sweep steps the client count and stacks one
:class:`LoadReport` per level into a :class:`SaturationReport` — the
shape pinned in ``benchmarks/BENCH_service.json``.  The report's
headline invariant: **zero redundant functional passes** — across every
level, the functional passes the daemon computed (its
``functional_passes`` counter, the engine's ``passes_computed``) never
exceed the template pool's (benchmark, seed) lattice, no matter how many
clients hammer the same specs concurrently.

>>> from repro.service.loadgen import LoadProfile, default_templates
>>> profile = LoadProfile(clients=2, requests_per_client=3,
...                       templates=default_templates(n_instructions=20_000))
>>> profile.total_requests
6
>>> profile.expected_passes()   # 2 benchmarks x 1 seed shared by all templates
2
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.api.execution import functional_pass_key
from repro.api.spec import ExperimentSpec
from repro.oram.path_oram import DEFAULT_PERCENTILES, percentiles_from_histogram
from repro.service.client import Address, ServiceClient
from repro.tenancy.arrivals import generate_trace

#: Open-loop arrival quantum: one arrival "slot" in seconds.
SLOT_SECONDS = 0.01

#: Metrics counters differenced into every load report.
_DELTA_KEYS = (
    "jobs_submitted", "jobs_deduplicated", "jobs_completed", "jobs_failed",
    "jobs_cancelled", "cells_serviced", "cells_run", "cache_hits",
    "functional_passes",
)


def default_templates(
    n_templates: int = 4,
    benchmarks: tuple[str, ...] = ("mcf", "libquantum"),
    seeds: tuple[int, ...] = (0,),
    n_instructions: int = 20_000,
) -> tuple[ExperimentSpec, ...]:
    """A pool of distinct sweep specs sharing one functional-pass lattice.

    Every template sweeps the same benchmarks x seeds (so all load
    shares the same expensive functional passes) under a *different*
    scheme set (so distinct templates are real work, not result-cache
    hits of each other).
    """
    if n_templates < 1:
        raise ValueError(f"n_templates must be >= 1, got {n_templates}")
    templates = []
    for index in range(n_templates):
        rate = 2 ** (1 + index % 4)
        templates.append(ExperimentSpec(
            name=f"loadgen-{index}",
            benchmarks=benchmarks,
            seeds=seeds,
            schemes=("base_dram", f"static:{300 + 200 * index}",
                     f"dynamic:{rate}x4"),
            n_instructions=n_instructions,
        ))
    return tuple(templates)


@dataclass(frozen=True)
class LoadProfile:
    """One load level: who submits what, how fast.

    Attributes:
        clients: Concurrent client sessions.
        requests_per_client: Jobs each client submits.
        mode: ``"closed"`` (submit-wait-submit saturation) or ``"open"``
            (deterministic timed arrivals regardless of completion).
        mean_gap_s: Open-loop mean inter-arrival gap per client, seconds.
        seed: Master seed for every client's arrival/template stream.
        templates: Spec pool; each request draws one by the arrival
            trace's address stream.
    """

    clients: int = 4
    requests_per_client: int = 4
    mode: str = "closed"
    mean_gap_s: float = 0.2
    seed: int = 0
    templates: tuple[ExperimentSpec, ...] = field(default_factory=default_templates)

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        if self.requests_per_client < 1:
            raise ValueError(
                f"requests_per_client must be >= 1, got {self.requests_per_client}"
            )
        if self.mode not in ("open", "closed"):
            raise ValueError(f"mode must be 'open' or 'closed', got {self.mode!r}")
        if not self.templates:
            raise ValueError("LoadProfile needs at least one template spec")

    @property
    def total_requests(self) -> int:
        """Jobs this profile submits in total."""
        return self.clients * self.requests_per_client

    def client_plan(self, client_id: int) -> tuple[np.ndarray, np.ndarray]:
        """(arrival times in seconds, template indices) for one client.

        Deterministic in (seed, client_id) via the tenancy arrival
        generator; closed-loop plans collapse all arrivals to t=0.
        """
        gap_slots = 0.0 if self.mode == "closed" else self.mean_gap_s / SLOT_SECONDS
        trace = generate_trace(
            tenant_id=client_id,
            n_requests=self.requests_per_client,
            n_blocks=len(self.templates),
            seed=self.seed,
            mean_gap_slots=gap_slots,
        )
        return trace.arrival_slots * SLOT_SECONDS, trace.addresses

    def planned_cells(self) -> int:
        """Total spec cells across every planned submission."""
        return sum(
            int(self.templates[index].n_cells)
            for client in range(self.clients)
            for index in self.client_plan(client)[1]
        )

    def expected_passes(self) -> int:
        """Distinct functional-pass keys the template pool spans.

        The ceiling on the functional passes any run of this profile may
        compute; anything beyond it is redundant work.
        """
        keys = {
            functional_pass_key(cell)
            for template in self.templates
            for cell in template.cells()
        }
        return len(keys)


@dataclass
class LoadReport:
    """Outcome of one load level against one daemon."""

    profile_summary: dict
    duration_s: float
    jobs_submitted: int
    jobs_completed: int
    jobs_failed: int
    deduplicated: int
    latencies_ms: tuple[int, ...]
    metrics_delta: dict
    expected_passes: int
    planned_cells: int

    @property
    def functional_passes_new(self) -> int:
        """Functional passes the daemon computed during this level (its
        ``functional_passes`` counter, differenced)."""
        return int(self.metrics_delta.get("functional_passes", 0))

    @property
    def redundant_passes(self) -> int:
        """Computed passes beyond the template pool's lattice (want: 0)."""
        return max(0, self.functional_passes_new - self.expected_passes)

    @property
    def throughput_jobs_s(self) -> float:
        """Completed jobs per wall-clock second."""
        return self.jobs_completed / self.duration_s if self.duration_s > 0 else 0.0

    def latency_percentiles(self, qs=DEFAULT_PERCENTILES) -> dict[float, int]:
        """Nearest-rank per-job latency percentiles in milliseconds."""
        if not self.latencies_ms:
            return {float(q): 0 for q in qs}
        hist = np.bincount(np.asarray(self.latencies_ms, dtype=np.int64))
        return percentiles_from_histogram(hist, qs)

    def to_dict(self, deterministic: bool = False) -> dict:
        """JSON-ready row; ``deterministic`` keeps only machine-stable
        fields (the pinned-artifact contract, like the tenancy sweep)."""
        row = {
            "profile": self.profile_summary,
            "jobs_submitted": self.jobs_submitted,
            "jobs_completed": self.jobs_completed,
            "jobs_failed": self.jobs_failed,
            "planned_cells": self.planned_cells,
            "expected_passes": self.expected_passes,
            "functional_passes_new": self.functional_passes_new,
            "redundant_passes": self.redundant_passes,
        }
        if not deterministic:
            row.update({
                "duration_s": self.duration_s,
                "throughput_jobs_s": self.throughput_jobs_s,
                "deduplicated": self.deduplicated,
                "latency_ms": {
                    str(q): v for q, v in self.latency_percentiles().items()
                },
                "metrics_delta": self.metrics_delta,
            })
        return row


def run_load(address: Address, profile: LoadProfile,
             job_timeout: float = 300.0) -> LoadReport:
    """Drive one load level against the daemon at ``address``."""
    start = time.monotonic()
    before = ServiceClient(address).metrics()

    def _client(client_id: int) -> list[tuple[int, str, bool]]:
        client = ServiceClient(address, timeout=job_timeout)
        arrivals_s, template_indices = profile.client_plan(client_id)
        outcomes = []
        for arrival_s, template_index in zip(arrivals_s, template_indices):
            if profile.mode == "open":
                now = time.monotonic() - start
                if arrival_s > now:
                    time.sleep(arrival_s - now)
            submitted = time.monotonic()
            response = client.submit(profile.templates[int(template_index)])
            final = client.wait(response["job"]["id"], timeout=job_timeout)
            latency_ms = int(round((time.monotonic() - submitted) * 1000.0))
            outcomes.append((latency_ms, final["state"], response["deduplicated"]))
        return outcomes

    with ThreadPoolExecutor(max_workers=profile.clients) as pool:
        per_client = list(pool.map(_client, range(profile.clients)))
    duration = time.monotonic() - start
    after = ServiceClient(address).metrics()

    outcomes = [outcome for client in per_client for outcome in client]
    return LoadReport(
        profile_summary={
            "clients": profile.clients,
            "requests_per_client": profile.requests_per_client,
            "mode": profile.mode,
            "mean_gap_s": profile.mean_gap_s,
            "seed": profile.seed,
            "templates": len(profile.templates),
        },
        duration_s=duration,
        jobs_submitted=len(outcomes),
        jobs_completed=sum(1 for _, state, _ in outcomes if state == "done"),
        jobs_failed=sum(1 for _, state, _ in outcomes if state == "failed"),
        deduplicated=sum(1 for _, _, deduped in outcomes if deduped),
        latencies_ms=tuple(latency for latency, _, _ in outcomes),
        metrics_delta={
            key: int(after.get(key, 0)) - int(before.get(key, 0))
            for key in _DELTA_KEYS
        },
        expected_passes=profile.expected_passes(),
        planned_cells=profile.planned_cells(),
    )


@dataclass
class SaturationReport:
    """Stacked load levels: the recorded saturation curve."""

    base_profile: dict
    levels: list[LoadReport]

    def render(self) -> str:
        """Fixed-width table, one row per level."""
        header = (
            f"{'clients':>8} {'jobs':>6} {'ok':>5} {'p50ms':>7} {'p95ms':>7} "
            f"{'p99ms':>7} {'jobs/s':>8} {'fresh':>6} {'redundant':>10}"
        )
        lines = ["Service saturation curve", header, "-" * len(header)]
        for level in self.levels:
            pct = level.latency_percentiles()
            lines.append(
                f"{level.profile_summary['clients']:>8} {level.jobs_submitted:>6} "
                f"{level.jobs_completed:>5} {pct[50.0]:>7} {pct[95.0]:>7} "
                f"{pct[99.0]:>7} {level.throughput_jobs_s:>8.2f} "
                f"{level.functional_passes_new:>6} {level.redundant_passes:>10}"
            )
        total_redundant = sum(level.redundant_passes for level in self.levels)
        lines.append(
            f"total redundant functional passes: {total_redundant} "
            f"({'OK' if total_redundant == 0 else 'VIOLATION'})"
        )
        return "\n".join(lines)

    @property
    def total_redundant_passes(self) -> int:
        """Redundant passes summed over every level (the load gate)."""
        return sum(level.redundant_passes for level in self.levels)

    def to_dict(self, deterministic: bool = False) -> dict:
        return {
            "kind": "repro.service saturation curve",
            "base_profile": self.base_profile,
            "levels": [level.to_dict(deterministic=deterministic) for level in self.levels],
            "total_redundant_passes": self.total_redundant_passes,
        }

    def save_json(self, path: str | Path, deterministic: bool = False) -> None:
        """Write the curve; ``deterministic=True`` pins it byte-stably."""
        Path(path).write_text(
            json.dumps(self.to_dict(deterministic=deterministic), indent=2,
                       sort_keys=True) + "\n"
        )


def run_saturation(
    address: Address,
    levels: tuple[int, ...] = (1, 2, 4, 8),
    base_profile: LoadProfile | None = None,
    job_timeout: float = 300.0,
) -> SaturationReport:
    """Step the client count against one (stays-warm) daemon.

    The first level pays the template pool's functional passes cold;
    every later level must run pass-free — the curve records exactly
    that.
    """
    base = base_profile or LoadProfile()
    reports = []
    for clients in levels:
        profile = LoadProfile(
            clients=clients,
            requests_per_client=base.requests_per_client,
            mode=base.mode,
            mean_gap_s=base.mean_gap_s,
            seed=base.seed,
            templates=base.templates,
        )
        reports.append(run_load(address, profile, job_timeout=job_timeout))
    return SaturationReport(
        base_profile={
            "levels": list(levels),
            "requests_per_client": base.requests_per_client,
            "mode": base.mode,
            "mean_gap_s": base.mean_gap_s,
            "seed": base.seed,
            "templates": [template.name for template in base.templates],
            "template_cells": [template.n_cells for template in base.templates],
        },
        levels=reports,
    )
