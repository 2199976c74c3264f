"""Set-up, closed-loop jobs and output checks of the four workloads.

Each workload gives the program only specs built from its seed-fixed
job list (``joblists.py``).  A job's latency runs from submit to the
result in hand; everything the checks need is taken from the result
after the latency is recorded, and the checks themselves run after the
window closes.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import joblists
import tracing

from repro.api import figures
from repro.api.backends import ProcessPoolBackend
from repro.api.cache import ExperimentCache
from repro.api.engine import Engine
from repro.api.execution import execute_cell
from repro.api.records import ResultSet, RunRecord
from repro.api.spec import Cell
from repro.core.scheme import scheme_from_spec
from repro.sim.simulator import SecureProcessorSim, SimConfig

#: figure_service budget; below ~40k instructions some workloads degenerate.
FIGURE_INSTRUCTIONS = 40_000
#: dist_fleet budget per cell.
DIST_INSTRUCTIONS = 100_000
#: ingest_replay trace sizes, as instruction budgets: mcf emits about one
#: reference per 34 instructions and libquantum one per 17, so these give
#: ~390k and ~650k references, sized so both traces replay in similar time.
INGEST_INSTRUCTIONS = {"mcf": 13_300_000, "libquantum": 11_000_000}
#: Cells recomputed with the scalar reference kernels per window.
REFERENCE_SAMPLES = 6


@dataclass
class Outcome:
    """One finished job: its latency plus what its checks need."""

    client: int
    index: int
    latency_s: float
    cells: int
    refs: int
    facts: dict = field(default_factory=dict)
    samples: list = field(default_factory=list)
    error: str | None = None
    round: int = 0


@dataclass
class Round:
    """One closed-loop round: the busiest client's summed job latency,
    and the host's slowdown (``hostspeed``) around the round."""

    busy_s: float
    slowdown: float


@dataclass
class Window:
    """One closed-loop window's outcomes."""

    name: str
    outcomes: list[Outcome]
    rounds: list[Round]
    extras: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def busy_ref_s(self) -> float:
        """Busy time in reference seconds (see ``hostspeed``)."""
        return sum(r.busy_s / r.slowdown for r in self.rounds)


def run_round(jobs_per_client: list[list[tuple[int, object]]], run_one,
              round_index: int = 0) -> tuple[list[Outcome], float]:
    """Every client runs its (index, job) list, sending each job only
    after the previous reply; returns the outcomes and the busiest
    client's summed latency, so bookkeeping between jobs never counts
    as program time."""
    outcomes: list[list[Outcome]] = [[] for _ in jobs_per_client]
    busy = [0.0 for _ in jobs_per_client]

    def client_loop(client: int) -> None:
        for index, job in jobs_per_client[client]:
            job_id = client * 100_000 + index
            if tracing.RECORDER is not None:
                tracing.RECORDER.set_thread_job(job_id)
            started = time.perf_counter()
            try:
                with tracing.job_span():
                    finish = run_one(client, index, job)
            except Exception as error:  # a failed job is counted, not fatal
                latency = time.perf_counter() - started
                outcome = Outcome(client, index, latency, 0, 0,
                                  error=f"{type(error).__name__}: {error}")
            else:
                latency = time.perf_counter() - started
                outcome = finish(latency)
            outcome.round = round_index
            busy[client] += latency
            outcomes[client].append(outcome)

    if len(jobs_per_client) == 1:
        client_loop(0)
    else:
        threads = [threading.Thread(target=client_loop, args=(c,))
                   for c in range(len(jobs_per_client))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return [o for per in outcomes for o in per], max(busy)


def closed_loop(jobs_per_client, run_one, seconds: float, probe, round_jobs: int = 1,
                rounds_multiple: int = 1) -> tuple[list[Outcome], list[Round]]:
    """Closed-loop rounds of ``round_jobs`` jobs per client.

    Before the first round and after each one, while the program is
    idle, ``probe()`` measures the host's slowdown; a round's slowdown
    is the median of the two probes around it and their neighbours, so
    one probe that caught a brief stall does not skew it.  Rounds start
    while the window is open; the window closes at the first round
    boundary after ``seconds`` at which the number of rounds is a
    multiple of ``rounds_multiple``, so every run measures whole cycles
    of a workload's job mix.
    """
    deadline = time.perf_counter() + seconds
    positions = [0 for _ in jobs_per_client]
    outcomes: list[Outcome] = []
    busy: list[float] = []
    probes = [probe()]
    while time.perf_counter() < deadline or len(busy) % rounds_multiple:
        batch = []
        for client, jobs in enumerate(jobs_per_client):
            start = positions[client]
            batch.append([(i, jobs[i]) for i in range(start, min(start + round_jobs, len(jobs)))])
            positions[client] += round_jobs
        if not all(batch):
            raise RuntimeError("job list exhausted before the window closed")
        done, round_busy = run_round(batch, run_one, len(busy))
        probes.append(probe())
        outcomes.extend(done)
        busy.append(round_busy)
    rounds = [Round(b, statistics.median(probes[max(r - 1, 0):r + 3]))
              for r, b in enumerate(busy)]
    return outcomes, rounds


def _sample(results: ResultSet, spec, rng: random.Random) -> list[tuple[Cell, dict]]:
    """One of a job's records, with the cell that produced it."""
    if not results.records:
        return []
    record = rng.choice(results.records)
    entry = record.benchmark if record.input_name is None else (
        f"{record.benchmark}/{record.input_name}"
    )
    cell = next(spec.single(entry, record.scheme_spec, record.seed).cells())
    return [(cell, record.to_dict())]


class ReferenceChecker:
    """Recomputes sampled cells with the scalar reference kernels."""

    def __init__(self) -> None:
        self._sims: dict[tuple, SecureProcessorSim] = {}

    def check(self, cell: Cell, record: dict) -> str | None:
        key = (cell.n_instructions, cell.seed, cell.warmup_fraction,
               cell.write_buffer_entries)
        sim = self._sims.get(key)
        if sim is None:
            sim = self._sims[key] = SecureProcessorSim(SimConfig(
                n_instructions=cell.n_instructions, seed=cell.seed,
                warmup_fraction=cell.warmup_fraction,
                write_buffer_entries=cell.write_buffer_entries,
                kernel_mode="reference",
            ))
        expected = execute_cell(cell, sim=sim).to_dict()
        if expected != record:
            return f"reference kernels disagree on {cell.label}"
        return None


def _result_facts(results: ResultSet, spec) -> dict:
    return {"digest": results.digest(), "records": len(results),
            "expected_cells": spec.n_cells, **{
                key: results.meta.get(key)
                for key in ("cache_hits", "cells_run", "cells_poisoned")
            }}


def _passes(spec) -> dict:
    """The functional passes a cold run of ``spec`` replays, for refs_per_s."""
    warmup = int(spec.n_instructions * spec.warmup_fraction)
    return {"passes": [[entry, seed] for entry in spec.benchmarks for seed in spec.seeds],
            "pass_instructions": spec.n_instructions + warmup}


def count_refs(window: "Window") -> None:
    """Fill in each job's replayed trace references (after the window).

    A job's references are those of the workload traces its functional
    passes consumed; cells read from the result cache replay nothing.
    """
    from repro.api.spec import split_benchmark
    from repro.workloads.registry import build_trace

    lengths: dict[tuple, int] = {}
    for outcome in window.outcomes:
        if outcome.error or "passes" not in outcome.facts:
            continue
        total = 0
        for entry, seed in outcome.facts["passes"]:
            key = (entry, seed, outcome.facts["pass_instructions"])
            if key not in lengths:
                bench, input_name = split_benchmark(entry)
                trace = build_trace(bench, seed=seed, n_instructions=key[2],
                                    input_name=input_name)
                lengths[key] = len(trace.addresses)
            total += lengths[key]
        outcome.refs = total


class Workload:
    """Common shape: set up once, run windows, check, close."""

    name = ""
    clients = 1
    #: Jobs per client between two host-speed probes.
    round_jobs = 1
    #: The window closes only after a multiple of this many rounds.
    rounds_multiple = 1

    def __init__(self, root: Path, seed: int) -> None:
        self.root = Path(root)
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def jobs(self, window: str) -> list[list]:
        raise NotImplementedError

    def run_one(self, client: int, index: int, job):
        raise NotImplementedError

    def run_window(self, window: str, seconds: float, probe) -> Window:
        outcomes, rounds = closed_loop(self.jobs(window), self.run_one, seconds, probe,
                                       self.round_jobs, self.rounds_multiple)
        return Window(window, outcomes, rounds)

    def check(self, window: Window, pins: dict | None) -> dict[tuple, list[str]]:
        """Problems per (client, index); an empty list means the job passed."""
        raise NotImplementedError

    def close(self) -> None:
        pass


def _pin_problems(outcome: Outcome, pins: dict | None, window: str) -> list[str]:
    if not pins:
        return []
    pinned = pins.get(window, {}).get(f"{outcome.client}:{outcome.index}")
    if pinned is None or pinned == outcome.facts.get("digest"):
        return []
    return [f"digest {outcome.facts.get('digest', '')[:12]} != pinned {pinned[:12]}"]


def _reference_problems(window: Window, budget: int) -> dict[tuple, list[str]]:
    checker = ReferenceChecker()
    problems: dict[tuple, list[str]] = {}
    checked = 0
    for outcome in window.outcomes:
        for cell, record in outcome.samples:
            if checked >= budget:
                return problems
            checked += 1
            problem = checker.check(cell, record)
            if problem:
                problems.setdefault((outcome.client, outcome.index), []).append(problem)
    return problems


class FrontierSweep(Workload):
    """`repro frontier`'s default sweep on the default process pool."""

    name = "frontier_sweep"

    def setup(self) -> None:
        from repro.frontier.sweep import FrontierConfig, run_frontier

        self._config = FrontierConfig
        self._run_frontier = run_frontier
        self.cache = ExperimentCache(self.root / "cache")
        self.cache.root.mkdir(parents=True, exist_ok=True)
        self.engine = Engine(backend=ProcessPoolBackend(), cache=self.cache)

    def jobs(self, window: str) -> list[list]:
        return [joblists.seed_pairs(self.name, self.seed, window)]

    def run_one(self, client: int, index: int, job):
        sweep = self._run_frontier(self._config(seeds=job), engine=self.engine)

        def finish(latency: float) -> Outcome:
            spec = sweep.results.spec
            facts = _result_facts(sweep.results, spec)
            facts["passes_verified"] = sweep.meta.get("passes_verified")
            facts.update(_passes(spec))
            samples = _sample(sweep.results, spec, random.Random(f"{self.seed}/{index}"))
            return Outcome(client, index, latency, len(sweep.results), 0, facts, samples)

        return finish

    def check(self, window: Window, pins: dict | None) -> dict[tuple, list[str]]:
        problems = _reference_problems(window, REFERENCE_SAMPLES)
        for outcome in window.outcomes:
            found = problems.setdefault((outcome.client, outcome.index), [])
            if outcome.error:
                found.append(outcome.error)
                continue
            facts = outcome.facts
            if facts["passes_verified"] is not True:
                found.append("functional-pass invariant not verified")
            if facts["records"] != facts["expected_cells"] or facts["cells_poisoned"]:
                found.append(f"{facts['records']} records for {facts['expected_cells']} cells")
            if facts["cells_run"] != facts["expected_cells"]:
                found.append("fresh seeds were served from the result cache")
            found.extend(_pin_problems(outcome, pins, window.name))
        return problems


def figure_spec(figure: str, seed: int):
    builder = {
        "fig2": figures.figure2_spec, "fig5": figures.figure5_spec,
        "fig6": figures.figure6_spec, "fig7": figures.figure7_spec,
        "fig8a": figures.figure8a_spec, "fig8b": figures.figure8b_spec,
    }[figure]
    return builder(n_instructions=FIGURE_INSTRUCTIONS, seeds=(seed,))


class FigureService(Workload):
    """Two clients against the self-hosted sweep service."""

    name = "figure_service"
    clients = joblists.SERVICE_CLIENTS
    round_jobs = len(joblists.DECK)

    def setup(self) -> None:
        from repro.service.hosting import ThreadedService

        self.hosted = ThreadedService(cache=self.root / "cache").start()
        self.service_clients = [self.hosted.client(timeout=120.0)
                                for _ in range(self.clients)]
        # Warm-up: each client completes its own repeat pool, so every
        # later repeat is a result-cache read.
        self.pool_digests: dict[tuple, str] = {}
        pools = [joblists.repeat_pool(self.seed, c) for c in range(self.clients)]
        outcomes, _ = run_round([list(enumerate(pool)) for pool in pools], self.run_one)
        for outcome in outcomes:
            if outcome.error:
                raise RuntimeError(f"warm-up request failed: {outcome.error}")
            job = pools[outcome.client][outcome.index]
            self.pool_digests[(job.figure, job.seed)] = outcome.facts["digest"]

    def jobs(self, window: str) -> list[list]:
        return [joblists.figure_jobs(self.seed, c, window) for c in range(self.clients)]

    def run_one(self, client: int, index: int, job):
        service = self.service_clients[client]
        spec = figure_spec(job.figure, job.seed)
        response = service.submit(spec)
        job_id = response["job"]["id"]
        final = service.wait(job_id)
        document = service.result(job_id)
        records = tuple(RunRecord.from_dict(row) for row in document["records"])

        def finish(latency: float) -> Outcome:
            results = ResultSet(records=records, spec=spec, meta=document["meta"])
            facts = _result_facts(results, spec)
            facts.update(kind=job.kind, figure=job.figure, seed=job.seed,
                         state=final["state"], deduplicated=response["deduplicated"],
                         daemon_job=job_id, groups=len(spec.benchmarks))
            samples = []
            if job.kind != "repeat":
                facts.update(_passes(spec))
                samples = _sample(results, spec, random.Random(f"{self.seed}/{client}/{index}"))
            return Outcome(client, index, latency, len(records), 0, facts, samples)

        return finish

    def metrics(self) -> dict:
        return self.service_clients[0].metrics()

    def run_window(self, window: str, seconds: float, probe) -> Window:
        before = self.metrics()
        result = super().run_window(window, seconds, probe)
        after = self.metrics()
        result.extras["metrics_before"] = before
        result.extras["metrics_after"] = after
        registry = self.hosted.service.registry
        result.extras["daemon_jobs"] = {
            o.facts["daemon_job"]: _job_times(registry.get(o.facts["daemon_job"]))
            for o in result.outcomes if "daemon_job" in o.facts
        }
        return result

    def check(self, window: Window, pins: dict | None) -> dict[tuple, list[str]]:
        problems = _reference_problems(window, REFERENCE_SAMPLES)
        fresh_groups = 0
        for outcome in window.outcomes:
            found = problems.setdefault((outcome.client, outcome.index), [])
            if outcome.error:
                found.append(outcome.error)
                continue
            facts = outcome.facts
            if facts["state"] != "done":
                found.append(f"job ended {facts['state']}")
            if facts["deduplicated"]:
                found.append("request merged into a running job")
            if facts["records"] != facts["expected_cells"]:
                found.append(f"{facts['records']} records for {facts['expected_cells']} cells")
            if facts["kind"] == "repeat":
                if facts["digest"] != self.pool_digests.get((facts["figure"], facts["seed"])):
                    found.append("repeat differs from its set-up result")
                if facts["cache_hits"] != facts["expected_cells"]:
                    found.append("repeat was not a result-cache read")
            else:
                fresh_groups += facts["groups"]
                if facts["cells_run"] != facts["expected_cells"]:
                    found.append("fresh request was served from the result cache")
            found.extend(_pin_problems(outcome, pins, window.name))
        before, after = window.extras["metrics_before"], window.extras["metrics_after"]
        passes = after["functional_passes"] - before["functional_passes"]
        if passes != fresh_groups:
            for found in problems.values():
                found.append(f"{passes} functional passes for {fresh_groups} fresh groups")
        return problems

    def close(self) -> None:
        self.hosted.stop()


def _job_times(job) -> dict:
    return {"submitted": job.submitted_at, "started": job.started_at,
            "finished": job.finished_at}


class DistFleet(Workload):
    """`repro dist run` of Figure 6 with a local fleet of two workers."""

    name = "dist_fleet"

    def setup(self) -> None:
        from repro.dist.backend import WorkQueueBackend

        self._backend = WorkQueueBackend
        self.cache = ExperimentCache(self.root / "cache")
        self.cache.root.mkdir(parents=True, exist_ok=True)
        self.queue_roots: list[str] = []

    def jobs(self, window: str) -> list[list]:
        return [joblists.seed_pairs(self.name, self.seed, window)]

    def run_one(self, client: int, index: int, job):
        spec = figures.figure6_spec(n_instructions=DIST_INSTRUCTIONS, seeds=job)
        backend = self._backend(workers=2)
        results = Engine(backend=backend, cache=self.cache).run(spec)

        def finish(latency: float) -> Outcome:
            facts = _result_facts(results, spec)
            facts["queue"] = str(backend.queue.root) if backend.queue else None
            facts.update(_passes(spec))
            samples = _sample(results, spec, random.Random(f"{self.seed}/{index}"))
            return Outcome(client, index, latency, len(results), 0, facts, samples)

        return finish

    def check(self, window: Window, pins: dict | None) -> dict[tuple, list[str]]:
        problems = _reference_problems(window, REFERENCE_SAMPLES)
        for outcome in window.outcomes:
            found = problems.setdefault((outcome.client, outcome.index), [])
            if outcome.error:
                found.append(outcome.error)
                continue
            facts = outcome.facts
            if facts["cells_poisoned"]:
                found.append(f"{facts['cells_poisoned']} poisoned cells")
            if facts["records"] != facts["expected_cells"]:
                found.append(f"{facts['records']} records for {facts['expected_cells']} cells")
            if facts["cells_run"] != facts["expected_cells"]:
                found.append("fresh seeds were served from the result cache")
            found.extend(_pin_problems(outcome, pins, window.name))
        return problems


class IngestReplay(Workload):
    """`repro ingest --replay` over two imported traces."""

    name = "ingest_replay"
    rounds_multiple = len(joblists.INGEST_TRACES) * len(joblists.INGEST_SCHEMES)

    def setup(self) -> None:
        from repro.ingest.formats import write_binary_trace
        from repro.ingest.store import IngestStore
        from repro.workloads.registry import build_trace

        inputs = self.root / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.store = IngestStore(self.root / "ingest")
        self.digests: dict[str, str] = {}
        self.refs: dict[str, int] = {}
        for bench, trace_seed in joblists.ingest_trace_seeds(self.seed).items():
            trace = build_trace(bench, seed=trace_seed,
                                n_instructions=INGEST_INSTRUCTIONS[bench])
            self.refs[bench] = len(trace.addresses)
            packed = inputs / f"{bench}.rtb"
            write_binary_trace(trace, packed)
            del trace
            path = inputs / f"{bench}.rtb.gz"
            with open(packed, "rb") as raw, gzip.open(path, "wb", compresslevel=1) as out:
                shutil.copyfileobj(raw, out)
            packed.unlink()
            self.digests[bench] = self.store.import_trace(path)

    def jobs(self, window: str) -> list[list]:
        return [joblists.ingest_jobs(self.seed, window)]

    def run_one(self, client: int, index: int, job):
        from repro.cache import streaming as cache_streaming
        from repro.sim import streaming as sim_streaming

        header, chunks = self.store.open_stream(self.digests[job.trace])
        miss_chunks, machine = cache_streaming.stream_functional(header, chunks)
        result = sim_streaming.run_timing_streaming(
            miss_chunks, machine.finish, scheme_from_spec(job.scheme)
        )

        def finish(latency: float) -> Outcome:
            facts = {"combo": f"{job.trace}+{job.scheme}", "result": replay_facts(result)}
            return Outcome(client, index, latency, 1, self.refs[job.trace], facts)

        return finish

    def check(self, window: Window, pins: dict | None) -> dict[tuple, list[str]]:
        from repro.cache.hierarchy import simulate_hierarchy
        from repro.sim.timing import run_timing

        problems: dict[tuple, list[str]] = {}
        expected: dict[tuple, dict] = {}
        miss_traces: dict[str, object] = {}
        pinned = (pins or {}).get("combos", {})
        for outcome in window.outcomes:
            found = problems.setdefault((outcome.client, outcome.index), [])
            if outcome.error:
                found.append(outcome.error)
                continue
            combo, result = outcome.facts["combo"], outcome.facts["result"]
            if combo not in expected:
                # As `repro ingest --replay --verify`: the in-memory kernels.
                trace_name, scheme = combo.split("+")
                if trace_name not in miss_traces:
                    trace = self.store.load(self.digests[trace_name])
                    miss_traces[trace_name] = simulate_hierarchy(trace)
                reference = run_timing(miss_traces[trace_name], scheme_from_spec(scheme),
                                       record_requests=False)
                expected[combo] = replay_facts(reference)
            if result != expected[combo]:
                found.append(f"streamed {combo} differs from the in-memory replay")
            pin = pinned.get(combo)
            if pin is not None and pin != facts_digest(result):
                found.append(f"{combo} differs from its pinned result")
        if pins and pins.get("traces") and pins["traces"] != self.digests:
            for found in problems.values():
                found.append("ingested trace digests differ from the pinned ones")
        return problems


def replay_facts(result) -> dict:
    """Every output `repro ingest --replay --verify` compares, and more."""
    controller = result.controller
    return {
        "cycles": float(result.cycles),
        "n_instructions": int(result.n_instructions),
        "power_watts": float(result.power_watts),
        "memory_power_watts": float(result.memory_power_watts),
        "real_accesses": int(controller.real_accesses),
        "dummy_accesses": int(controller.dummy_accesses),
        "total_waste": float(controller.total_waste),
    }


def facts_digest(facts: dict) -> str:
    return hashlib.sha256(json.dumps(facts, sort_keys=True).encode()).hexdigest()


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (FrontierSweep, FigureService, DistFleet, IngestReplay)
}
