"""The experiment engine: spec in, ResultSet out.

``Engine.run`` expands an :class:`~repro.api.spec.ExperimentSpec` into
cells, satisfies as many as possible from the persistent result cache,
hands the rest to the configured backend, and returns a canonically
ordered :class:`~repro.api.records.ResultSet`.  The engine writes
nothing: every backend persists the records it computes, through
:func:`~repro.api.execution.execute_cells_batch`.

The contract the rest of the repository builds on: for a given spec, the
returned records are identical regardless of backend, cache temperature,
or cell execution order.
"""

from __future__ import annotations

from pathlib import Path

from repro.api.backends import ExecutionBackend, SerialBackend
from repro.api.cache import ExperimentCache
from repro.api.records import ResultSet, RunRecord
from repro.api.spec import ExperimentSpec
from repro.sim.simulator import count_passes


class Engine:
    """Executes experiment specs on a pluggable backend with caching.

    Args:
        backend: Execution backend (default: :class:`SerialBackend`).
        cache: ``None`` (no persistence), an :class:`ExperimentCache`, or
            a directory path to root one at.
    """

    def __init__(
        self,
        backend: ExecutionBackend | None = None,
        cache: ExperimentCache | str | Path | None = None,
    ) -> None:
        self.backend = backend or SerialBackend()
        if isinstance(cache, (str, Path)):
            cache = ExperimentCache(cache)
        self.cache = cache

    def run(self, spec: ExperimentSpec, use_cache: bool = True) -> ResultSet:
        """Run every cell of ``spec`` and collect a ResultSet.

        ``use_cache=False`` bypasses result-cache *reads* (everything
        recomputes); the backend still persists fresh results and reuses
        cached functional traces — the knob for "re-measure, same
        substrate".
        """
        cells = list(spec.cells())
        cached: list[RunRecord] = []
        pending = []
        if self.cache is not None and use_cache:
            for cell in cells:
                record = self.cache.results.get(cell.content_hash())
                if record is None:
                    pending.append(cell)
                else:
                    cached.append(record)
        else:
            pending = cells

        with count_passes() as passes:
            fresh = self.backend.run_cells(pending, self.cache) if pending else []
        # A backend may return None for cells it quarantined as poison
        # after repeated worker crashes; the sweep completes without
        # them rather than aborting (meta reports the loss).
        survived = [record for record in fresh if record is not None]
        poisoned = len(fresh) - len(survived)

        meta = {
            "backend": getattr(self.backend, "name", type(self.backend).__name__),
            "cells": len(cells),
            "cache_hits": len(cached),
            "cells_run": len(pending) - poisoned,
            "passes_computed": passes.n,
        }
        if poisoned:
            meta["cells_poisoned"] = poisoned
        return ResultSet(
            records=tuple(cached) + tuple(survived),
            spec=spec,
            meta=meta,
        )
