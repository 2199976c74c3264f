"""Long-running sweep service: one warm engine, many concurrent sweeps.

The batch engine (:mod:`repro.api`) pays cold-start on every invocation
and tears down its warm trace cache when the process exits.  This
package keeps that state alive: a persistent asyncio daemon
(:class:`SweepService`) accepts :class:`~repro.api.spec.ExperimentSpec`
jobs over HTTP/IPC (:mod:`repro.service.http`), schedules them onto one
shared engine with per-functional-pass locking (N concurrent sweeps pay
the passes of one), streams per-job progress events, and exposes live
metrics from the process-wide registry (:mod:`repro.obs`).  A load
generator (:mod:`repro.service.loadgen`) proves the claim under
open/closed-loop pressure and records the saturation curves pinned in
``benchmarks/BENCH_service.json``.

Operator documentation — endpoints, metrics glossary, load-test recipe —
lives in ``docs/operations.md``.  From the shell::

    repro serve --port 8642 &
    repro load --address 127.0.0.1:8642 --clients 4

>>> from repro.service import LoadProfile, SweepService, subgroup_specs
>>> from repro.api.spec import ExperimentSpec
>>> spec = ExperimentSpec(benchmarks=("mcf", "libquantum"),
...                       schemes=("base_dram",), seeds=(0, 1))
>>> [(b, s) for b, s, _ in subgroup_specs(spec)]
[('mcf', 0), ('mcf', 1), ('libquantum', 0), ('libquantum', 1)]
"""

from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
    parse_address,
)
from repro.service.daemon import DEFAULT_CONCURRENCY, SweepService, subgroup_specs
from repro.service.hosting import ThreadedService, serve_forever
from repro.service.http import ServiceHTTPServer, start_http_server
from repro.service.jobs import Job, JobRegistry, spec_digest
from repro.service.journal import JobJournal, PendingJob
from repro.service.loadgen import (
    LoadProfile,
    LoadReport,
    SaturationReport,
    default_templates,
    run_load,
    run_saturation,
)

__all__ = [
    "DEFAULT_CONCURRENCY",
    "Job",
    "JobJournal",
    "JobRegistry",
    "LoadProfile",
    "LoadReport",
    "PendingJob",
    "SaturationReport",
    "ServiceClient",
    "ServiceError",
    "ServiceHTTPServer",
    "ServiceUnavailable",
    "SweepService",
    "ThreadedService",
    "default_templates",
    "parse_address",
    "run_load",
    "run_saturation",
    "serve_forever",
    "spec_digest",
    "start_http_server",
    "subgroup_specs",
]
