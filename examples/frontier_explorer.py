#!/usr/bin/env python3
"""Scenario: explore the leakage–efficiency design space, end to end.

The paper evaluates a handful of (|R|, epoch growth) samples; this walk
sweeps a whole grid of them and asks the design question directly: *for
a given leakage budget, which configuration should I ship?*

Steps (docs/tradeoffs.md is the narrated version):

1. expand a ``grid:`` spec into concrete scheme strings;
2. sweep it — with the static zero-leakage anchors — over two
   benchmarks with a couple of seeds;
3. print the exact Pareto frontier (leaked bits vs slowdown) and the
   knee configuration per benchmark;
4. re-run under a 16-bit leakage budget and watch the grid shrink.

Usage::

    python examples/frontier_explorer.py [n_instructions]
"""

import sys

from repro.api import Engine
from repro.core.scheme import expand_scheme_grid
from repro.frontier import FrontierConfig, run_frontier

GRID = "grid:dynamic:{rates=2..6}x{epochs=2..6}:{learner=avg,threshold}"


def main() -> None:
    n_instructions = int(sys.argv[1]) if len(sys.argv) > 1 else 150_000

    schemes = expand_scheme_grid(GRID)
    print(f"grid {GRID}\nexpands to {len(schemes)} configurations, e.g. "
          f"{schemes[0]}, {schemes[1]}, ..., {schemes[-1]}\n")

    config = FrontierConfig(
        grid=GRID,
        benchmarks=("mcf", "h264ref"),
        seeds=(0, 1),
        n_instructions=n_instructions,
    )
    engine = Engine()  # in-process; Engine(ProcessPoolBackend()) shards it
    sweep = run_frontier(config, engine=engine)
    print(sweep.render(per_benchmark=True))

    # The same sweep under a 16-bit ORAM-timing budget: every
    # configuration whose |E| * lg |R| bound exceeds the budget is
    # pruned before anything runs, and the cache makes the re-analysis
    # free (the cells that survive were already measured above).
    budget = 16.0
    budgeted = run_frontier(
        FrontierConfig(
            grid=GRID,
            benchmarks=config.benchmarks,
            seeds=config.seeds,
            n_instructions=n_instructions,
            budget_bits=budget,
        ),
        engine=engine,
    )
    print(f"\nunder a {budget:.0f}-bit budget the grid shrinks "
          f"{config.n_candidates} -> {budgeted.config.n_candidates} candidates;")
    knee = budgeted.report.aggregate.knee
    print(f"aggregate knee within budget: {knee.scheme_spec} "
          f"({knee.leakage_bits:.0f} bits, {knee.slowdown:.2f}x base_dram)")


if __name__ == "__main__":
    main()
