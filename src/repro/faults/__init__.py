"""Deterministic fault injection and the recovery substrate around it.

This package is the robustness layer ROADMAP item 5 (multi-host sweeps)
stands on.  It has two parts:

- :mod:`repro.faults.plan` — declarative :class:`FaultPlan`/:class:`FaultSpec`
  chaos plans (kill-worker-at-cell-K, corrupt-artifact, delay,
  refuse-connection) injected through cheap no-op-by-default hooks at
  named sites in pool workers, the persistent cache, and the service
  client; token files make firing deterministic across processes.
- :mod:`repro.faults.scenarios` — scripted end-to-end chaos scenarios
  behind ``repro faults``: each activates a plan, runs the real stack,
  and verifies recovery left :class:`~repro.api.records.ResultSet`
  digests byte-identical to a fault-free run.

The recovery behaviors themselves live where the failures happen:
:mod:`repro.api.backends` (pool rebuild + retry + poison quarantine),
:mod:`repro.api.cache` (artifact quarantine, fsync-before-replace),
:mod:`repro.service` (job journal + restart resume, client retry).
Each recovery bumps a counter in the process-wide registry
(:mod:`repro.obs`: worker retries, pool rebuilds, poisoned cells,
quarantined artifacts, client retries, leases), which the sweep
daemon's ``/metrics`` document shows as its ``recovery_*`` fields.
"""

from repro.faults.plan import (
    FAULT_KINDS,
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultSpec,
    active_plan,
    corrupt_bytes,
    fault_point,
    reset_site_counts,
)

__all__ = [
    "FAULT_KINDS",
    "FAULT_PLAN_ENV",
    "FaultPlan",
    "FaultSpec",
    "active_plan",
    "corrupt_bytes",
    "fault_point",
    "reset_site_counts",
]
