#!/usr/bin/env python3
"""Scenario: a large scheme sweep, sharded across cores and cached.

The production-scale workflow the declarative API exists for: one spec
describing a benchmarks x schemes x seeds lattice, executed twice —

1. on the :class:`ProcessPoolBackend`, which shards the independent
   (benchmark, scheme, seed) cells across worker processes, and
2. again with a warm persistent cache, where every cell is a hit and
   nothing runs at all.

Both ResultSets are identical row-for-row (deterministic per-cell
seeding), and both match what the serial backend would produce — the
property the test suite asserts byte-for-byte.

Usage::

    python examples/parallel_sweep.py [cache_dir]
"""

import sys
import tempfile
import time

from repro import Engine, ExperimentSpec, ProcessPoolBackend, SerialBackend


def main() -> None:
    cache_dir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="repro-cache-")

    spec = ExperimentSpec(
        name="parallel sweep demo",
        benchmarks=("mcf", "libquantum", "h264ref", "astar/rivers"),
        schemes=("base_dram", "base_oram", "static:300", "static:1300",
                 "dynamic:4x4", "dynamic:4x16"),
        seeds=(0, 1),
        n_instructions=200_000,
    )
    print(f"spec: {len(spec.benchmarks)} benchmarks x {len(spec.schemes)} schemes "
          f"x {len(spec.seeds)} seeds = {spec.n_cells} cells\n")

    # The pool's workers live until the with block ends.
    with ProcessPoolBackend() as pool:
        pool_engine = Engine(pool, cache=cache_dir)
        start = time.perf_counter()
        parallel = pool_engine.run(spec)
        cold = time.perf_counter() - start
        print(f"process pool, cold cache: {cold:.1f}s "
              f"({parallel.meta['cells_run']} cells run)")

        start = time.perf_counter()
        warm = pool_engine.run(spec)
        hot = time.perf_counter() - start
        print(f"process pool, warm cache: {hot:.2f}s "
              f"({warm.meta['cache_hits']} hits, {warm.meta['cells_run']} run)")

    serial = Engine(SerialBackend()).run(spec)
    print(f"serial backend matches pool: {serial.records == parallel.records}")
    print(f"warm cache matches cold run: {warm.records == parallel.records}\n")

    print(parallel.render())
    print(f"\nresults cached under {cache_dir}; rerun this script to see "
          f"every cell hit.")


if __name__ == "__main__":
    main()
