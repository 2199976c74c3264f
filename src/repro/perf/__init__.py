"""Performance tracking: microbenchmarks, reports, and baseline gating.

``python -m repro perf`` times the repository's five fast paths against
their scalar oracles on pinned deterministic workloads: the functional
cache pass, the timing replay, the functional Path ORAM access burst,
the config-batched frontier cell and the batched tenancy step.  Every
timed fast-path run is equivalence-checked against its reference, so a
perf report doubles as a correctness certificate for the fast kernels.

Each timed pair is one :class:`~repro.perf.bench.Measurement`.  Reports
serialize to ``BENCH_perf.json``; :func:`check_against_baseline` gates a
report against the committed ``benchmarks/baselines.json`` of the same
mode (CI fails on throughput regressions beyond the tolerance, broken
equivalence, or a headline speedup below its floor).
"""

from repro.perf.bench import (
    PERF_WORKLOADS,
    bench_oram,
    build_oram_trace,
    build_perf_trace,
    run_perf_suite,
)
from repro.perf.report import (
    check_against_baseline,
    load_baseline,
    write_baseline,
)

__all__ = [
    "PERF_WORKLOADS",
    "bench_oram",
    "build_oram_trace",
    "build_perf_trace",
    "run_perf_suite",
    "check_against_baseline",
    "load_baseline",
    "write_baseline",
]
