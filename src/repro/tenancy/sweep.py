"""Tenant-count x scheduler sweep: the throughput/p99 scaling curves.

Produces the data behind ``benchmarks/BENCH_tenancy.json``: for each
(tenant count, scheduler) cell, run the service and record the
deterministic SLO/fairness/leakage fields plus the machine-dependent
simulator throughput.  Cells are independent, so the sweep optionally
fans out over a process pool (reusing the api layer's platform
start-method selection).
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from multiprocessing import get_context
from pathlib import Path

from repro.analysis.tables import Table
from repro.api.backends import default_start_method
from repro.tenancy.service import TenancyConfig, run_tenancy

#: The pinned sweep axes: tenant counts from the bench artifact spec.
DEFAULT_TENANT_COUNTS = (1, 4, 16, 64)
DEFAULT_SCHEDULERS = ("batched", "round_robin")


def _run_cell(config: TenancyConfig) -> dict:
    """One sweep cell -> flat record (deterministic + wall fields)."""
    report = run_tenancy(config)
    return {
        "n_tenants": report.n_tenants,
        "scheduler": report.scheduler,
        "makespan_slots": report.makespan_slots,
        "requests_serviced": report.requests_serviced,
        "requests_dropped": report.requests_dropped,
        "throughput_per_slot": report.throughput_per_slot,
        "latency_p50_slots": report.latency_p50_slots,
        "latency_p95_slots": report.latency_p95_slots,
        "latency_p99_slots": report.latency_p99_slots,
        "fairness_ratio": report.fairness_ratio,
        "requests_per_second": report.requests_per_second,
        "tenant_digests": [t.digest for t in report.tenants],
    }


#: Record keys that are machine-dependent (excluded from pinned digests).
WALL_CLOCK_KEYS = ("requests_per_second",)


def deterministic_records(records: list[dict]) -> list[dict]:
    """Strip machine-dependent fields; what BENCH_tenancy.json pins."""
    return [
        {k: v for k, v in record.items() if k not in WALL_CLOCK_KEYS}
        for record in records
    ]


def records_digest(records: list[dict]) -> str:
    """Canonical digest over the deterministic sweep records."""
    payload = json.dumps(
        sorted(
            deterministic_records(records),
            key=lambda r: (r["n_tenants"], r["scheduler"]),
        ),
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class TenancySweepResult:
    """Sweep output: one record per (tenant count, scheduler) cell."""

    base: TenancyConfig
    records: tuple[dict, ...]

    def digest(self) -> str:
        """Digest of the deterministic record fields."""
        return records_digest(list(self.records))

    def to_dict(self, deterministic: bool = False) -> dict:
        """JSON payload; ``deterministic=True`` is the pinned shape."""
        records = (
            deterministic_records(list(self.records))
            if deterministic
            else list(self.records)
        )
        return {
            "base_config": {
                "blocks_per_tenant": self.base.blocks_per_tenant,
                "requests_per_tenant": self.base.requests_per_tenant,
                "scheme_spec": self.base.scheme_spec,
                "seed": self.base.seed,
                "mean_gap_slots": self.base.mean_gap_slots,
                "write_fraction": self.base.write_fraction,
                "slot_cycles": self.base.slot_cycles,
            },
            "digest": self.digest(),
            "records": records,
        }

    def save_json(self, path: str | Path, deterministic: bool = False) -> None:
        """Write the sweep as sorted-key JSON."""
        Path(path).write_text(
            json.dumps(self.to_dict(deterministic=deterministic), indent=1, sort_keys=True)
            + "\n"
        )

    def render(self) -> str:
        """Scaling table: throughput and p99 per cell."""
        rows = [
            [
                str(r["n_tenants"]),
                r["scheduler"],
                f"{r['throughput_per_slot']:.3f}",
                str(r["latency_p50_slots"]),
                str(r["latency_p99_slots"]),
                f"{r['fairness_ratio']:.2f}",
                f"{r['requests_per_second']:,.0f}",
            ]
            for r in self.records
        ]
        return Table(
            title="Tenancy scaling: throughput and tail latency vs tenant count",
            columns=["tenants", "scheduler", "req/slot", "p50", "p99", "fair", "req/s"],
            rows=rows,
        ).render()


def run_tenancy_sweep(
    base: TenancyConfig | None = None,
    tenant_counts: tuple[int, ...] = DEFAULT_TENANT_COUNTS,
    schedulers: tuple[str, ...] = DEFAULT_SCHEDULERS,
    max_workers: int | None = None,
) -> TenancySweepResult:
    """Run the tenant-count x scheduler grid.

    ``max_workers`` fans the cells across a process pool of that size;
    None runs them in-process.  Cell order is tenant-count-major then
    scheduler, and records are deterministic per cell, so serial and
    pooled sweeps produce digest-identical results.
    """
    base = base or TenancyConfig()
    configs = [
        replace(base, n_tenants=n, scheduler=scheduler)
        for n in tenant_counts
        for scheduler in schedulers
    ]
    if max_workers is not None and len(configs) > 1:
        with ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=get_context(default_start_method()),
        ) as pool:
            records = list(pool.map(_run_cell, configs))
    else:
        records = [_run_cell(config) for config in configs]
    return TenancySweepResult(base=base, records=tuple(records))
