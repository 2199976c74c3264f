"""Leakage–efficiency frontier sweeps over the dynamic design space.

The paper samples a handful of points from the (rate set, epoch
schedule, learner) lattice; this subsystem sweeps the whole space and
computes the Pareto frontier the samples were drawn from:

* grid grammar (``grid:dynamic:{rates=2..8}x{epochs=2..9}:...``) —
  :mod:`repro.core.scheme`;
* sweep execution with multi-seed replication, process-pool sharding,
  and a verified one-functional-pass-per-benchmark invariant —
  :mod:`repro.frontier.sweep` (this package);
* exact Pareto sets, dominated-configuration pruning, knee points, and
  JSON/CSV export — :mod:`repro.analysis.frontier`.

Quickstart::

    from repro.frontier import FrontierConfig, run_frontier

    sweep = run_frontier(FrontierConfig(seeds=(0, 1, 2)))  # on the process pool
    print(sweep.report.render())
    sweep.report.save_csv("frontier.csv")

``run_frontier(config, engine=Engine(backend, cache=...))`` runs it
elsewhere; from the shell, ``repro frontier --grid dynamic --seeds 0,1,2``
(``--backend {serial,pool,queue}`` picks where the cells run).
"""

from repro.frontier.sweep import (
    DEFAULT_FRONTIER_BENCHMARKS,
    DEFAULT_STATIC_ANCHORS,
    FrontierConfig,
    FrontierSweepResult,
    run_frontier,
)

__all__ = [
    "DEFAULT_FRONTIER_BENCHMARKS",
    "DEFAULT_STATIC_ANCHORS",
    "FrontierConfig",
    "FrontierSweepResult",
    "run_frontier",
]
