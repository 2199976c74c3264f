"""Command-line interface over the declarative experiment API.

Installed as the ``repro`` console script and runnable as
``python -m repro``.  Subcommands:

- ``run`` — one benchmark under one or more schemes, printed as a table.
- ``sweep`` — a full benchmarks x schemes x seeds spec, on any backend
  and/or a persistent cache, optionally saved to JSON; exits 1 when a
  cell was poisoned.
- ``list-workloads`` — the workload registry with inputs and categories.
- ``leakage`` — the paper's leakage accounting, or the bound for one
  (|R|, growth) configuration against an optional bit budget.
- ``perf`` — the kernel microbenchmark suite: times the functional cache
  pass, the timing replay, and the functional ORAM access burst (fast vs
  reference, byte-equivalence checked) plus an end-to-end sweep, writes
  ``BENCH_perf.json``, and can gate against / refresh
  ``benchmarks/baselines.json``.
- ``stash-scaling`` — million-access stash-occupancy tails across Z and
  tree depth on the batched ORAM engine, plus the functional validation
  of the derived timing constants.
- ``frontier`` — sweep a ``grid:dynamic:...`` design space (default: 112
  configurations plus the static anchors) across benchmarks and seeds on
  the process pool, then print/export the exact Pareto frontier of
  leaked bits versus slowdown (docs/tradeoffs.md walks through a run).
- ``tenants`` — the multi-tenant ORAM service: N client sessions share
  one batched bank under a round-robin/weighted-fair/batched scheduler,
  with per-tenant latency SLOs, fairness, and leakage-budget accounting;
  ``--sweep`` produces the tenant-count scaling curves behind
  ``benchmarks/BENCH_tenancy.json``.
- ``serve`` — the long-running sweep daemon: submit specs over HTTP/IPC,
  share one warm engine + persistent cache across concurrent sweeps,
  stream progress, scrape ``/metrics``; ``--smoke`` runs the end-to-end
  self-test CI uses (start, submit, scrape, clean shutdown).
- ``load`` — drive a daemon with the open/closed-loop load generator;
  ``--levels`` records the saturation curves behind
  ``benchmarks/BENCH_service.json``, and any redundant functional pass
  under load exits 1 (docs/operations.md has the full recipe).
- ``faults`` — scripted chaos drills: kill workers, rot cached
  artifacts, tear writes, restart the daemon, refuse client connects,
  SIGKILL distributed queue workers — each scenario asserts
  byte-identical digests against fault-free runs and exits 1 on any
  broken recovery contract (CI's chaos step).
- ``dist`` — the distributed work queue's operator surface: ``submit`` a
  sweep as a lease-guarded task board under the shared cache, ``worker``
  drains it from any process/host that sees the cache directory,
  ``status`` and ``workers`` observe the board (docs/operations.md,
  "Distributed workers").

``run``, ``sweep``, ``frontier`` and ``serve`` pick where cells run with
one ``--backend {serial,pool,queue}`` / ``--workers N`` pair
(:func:`_backend_from_args`): ``--workers`` sizes the process pool, or
the queue's local worker fleet (0 drains the queue in-process).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.api.backends import ExecutionBackend, ProcessPoolBackend, SerialBackend
from repro.api.cache import ExperimentCache
from repro.api.engine import Engine
from repro.api.spec import ExperimentSpec


def _split_csv(text: str) -> tuple[str, ...]:
    """Comma-separated CLI list -> tuple of stripped entries."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _add_sim_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-n", "--instructions", type=int, default=200_000,
        help="post-warmup instruction budget per run (default 200000)",
    )
    parser.add_argument(
        "--windows", type=int, default=None,
        help="record windowed IPC/access series at this resolution",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="root a persistent trace/result cache at this directory",
    )
    parser.add_argument(
        "--no-cache-read", action="store_true",
        help="recompute results even when cached (still reuses traces)",
    )
    parser.add_argument(
        "--save", default=None, metavar="PATH",
        help="also write the ResultSet as JSON to PATH",
    )
    _add_backend_arguments(parser, default="serial")


def _add_backend_arguments(
    parser: argparse.ArgumentParser,
    default: str,
    choices: tuple[str, ...] = ("serial", "pool", "queue"),
) -> None:
    parser.add_argument(
        "--backend", default=default, choices=choices,
        help=f"where cells run (default {default}); queue runs them on the "
             f"work queue under the cache directory",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="pool size for pool (default: cpu count); local worker "
             "processes for queue (default 2; 0 drains the queue in-process)",
    )


def _backend_from_args(args: argparse.Namespace) -> ExecutionBackend:
    """The one place user input becomes an execution backend."""
    if args.backend == "serial":
        if args.workers is not None:
            raise ValueError("--workers does not apply to --backend serial")
        return SerialBackend()
    if args.backend == "pool":
        return ProcessPoolBackend(max_workers=args.workers)
    from repro.dist.backend import DEFAULT_DIST_WORKERS, WorkQueueBackend

    return WorkQueueBackend(
        workers=DEFAULT_DIST_WORKERS if args.workers is None else args.workers
    )


def _engine_from_args(args: argparse.Namespace) -> Engine:
    if args.backend == "queue" and not args.cache_dir:
        raise ValueError(
            "--backend queue needs --cache-dir (the shared cache is the "
            "queue's coordination substrate)"
        )
    cache = ExperimentCache(args.cache_dir) if args.cache_dir else None
    return Engine(backend=_backend_from_args(args), cache=cache)


def _run_and_report(spec: ExperimentSpec, args: argparse.Namespace) -> int:
    engine = _engine_from_args(args)
    results = engine.run(spec, use_cache=not args.no_cache_read)
    print(results.render())
    meta = results.meta
    line = (
        f"\n[{meta['backend']}] {meta['cells']} cells: "
        f"{meta['cache_hits']} cached, {meta['cells_run']} run"
    )
    if meta.get("cells_poisoned"):
        line += f", {meta['cells_poisoned']} poisoned"
    print(line)
    if args.save:
        results.save(args.save)
        print(f"saved to {args.save}")
    return 1 if meta.get("cells_poisoned") else 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        name=f"repro run: {args.benchmark}",
        benchmarks=(args.benchmark,),
        schemes=tuple(args.scheme) or ("base_dram", "base_oram", "dynamic:4x4"),
        seeds=(args.seed,),
        n_instructions=args.instructions,
        n_windows=args.windows,
    )
    return _run_and_report(spec, args)


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        name="repro sweep",
        benchmarks=_split_csv(args.benchmarks),
        schemes=_split_csv(args.schemes),
        seeds=tuple(int(s) for s in _split_csv(args.seeds)),
        n_instructions=args.instructions,
        n_windows=args.windows,
    )
    return _run_and_report(spec, args)


def _cmd_list_workloads(_args: argparse.Namespace) -> int:
    from repro.analysis.tables import Table
    from repro.workloads.registry import registry

    rows = [
        [name, spec.category, ",".join(spec.inputs), spec.description]
        for name, spec in registry().items()
    ]
    print(Table("Workload registry", ["name", "category", "inputs", "description"], rows).render())
    return 0


def _cmd_leakage(args: argparse.Namespace) -> int:
    if args.rates is None and args.growth is None and args.budget is None:
        from repro.analysis.experiments import run_leakage_table

        print(run_leakage_table().render())
        return 0
    # A bare --budget checks the paper's default configuration (R4/E4).
    n_rates = args.rates if args.rates is not None else 4
    growth = args.growth if args.growth is not None else 4
    from repro.core.epochs import paper_schedule
    from repro.core.leakage import report_for_dynamic

    report = report_for_dynamic(paper_schedule(growth=growth), n_rates)
    print(
        f"dynamic R{n_rates} E{growth}: {report.oram_timing_bits:.0f} ORAM-timing bits "
        f"+ {report.termination_bits:.0f} termination bits "
        f"= {report.total_bits:.0f} total"
    )
    if args.budget is not None:
        fits = report.oram_timing_bits <= args.budget
        print(
            f"budget {args.budget:.0f} bits: "
            f"{'FITS' if fits else 'EXCEEDED'} "
            f"(ORAM-timing bound {report.oram_timing_bits:.0f})"
        )
        return 0 if fits else 1
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.perf.bench import run_perf_suite
    from repro.perf.report import (
        check_against_baseline,
        load_baseline,
        save_report,
        write_baseline,
    )

    tiers = tuple(args.tier) if args.tier else None
    if args.update_baseline and tiers is not None:
        print(
            "error: --update-baseline needs the full suite; drop --tier",
            file=sys.stderr,
        )
        return 2
    report = run_perf_suite(quick=args.quick, repeats=args.repeats, tiers=tiers)
    print(report.render())
    if args.out:
        save_report(report, args.out)
        print(f"\nreport written to {args.out}")
    if args.update_baseline:
        if not report.all_equivalent:
            print(
                "\nrefusing to update baseline: fast kernels diverge from "
                "reference (fix the correctness bug first)",
                file=sys.stderr,
            )
            return 1
        write_baseline(report, args.update_baseline)
        print(f"baseline updated at {args.update_baseline}")
        return 0
    if args.check_baseline:
        failures = check_against_baseline(report, load_baseline(args.check_baseline))
        if failures:
            print(f"\nPERF GATE FAILED against {args.check_baseline}:", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print(f"\nperf gate passed against {args.check_baseline}")
    elif not report.all_equivalent:
        print("\nPERF GATE FAILED: fast kernels diverge from reference", file=sys.stderr)
        return 1
    return 0


def _cmd_stash_scaling(args: argparse.Namespace) -> int:
    from repro.analysis.stash_scaling import run_stash_scaling, validate_timing

    report = run_stash_scaling(
        z_values=tuple(int(z) for z in _split_csv(args.z)),
        levels_values=tuple(int(lv) for lv in _split_csv(args.levels)),
        n_accesses=args.accesses,
        seed=args.seed,
    )
    print(report.render())
    if args.validate_timing:
        validation = validate_timing(seed=args.seed)
        print()
        print(validation.render())
        worst = max(
            validation.bytes_error, validation.latency_error, validation.energy_error
        )
        if worst > 0.02:
            print(
                f"\nTIMING VALIDATION FAILED: worst relative error {worst:.2%}",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_frontier(args: argparse.Namespace) -> int:
    from repro.core.scheme import DEFAULT_DYNAMIC_GRID
    from repro.frontier import (
        DEFAULT_FRONTIER_BENCHMARKS,
        FrontierConfig,
        run_frontier,
    )

    grid = args.grid
    if grid in ("dynamic", "default"):
        grid = DEFAULT_DYNAMIC_GRID
    statics: tuple[int, ...] = ()
    if args.static != "none":
        statics = tuple(int(rate) for rate in _split_csv(args.static))
    config = FrontierConfig(
        grid=grid,
        benchmarks=(
            _split_csv(args.benchmarks)
            if args.benchmarks
            else DEFAULT_FRONTIER_BENCHMARKS
        ),
        seeds=tuple(int(s) for s in _split_csv(args.seeds)),
        n_instructions=args.instructions,
        budget_bits=args.budget,
        static_anchors=statics,
    )
    sweep = run_frontier(
        config, engine=_engine_from_args(args), use_cache=not args.no_cache_read
    )
    print(sweep.render(per_benchmark=args.per_benchmark))
    if args.save:
        sweep.results.save(args.save)
        print(f"raw ResultSet saved to {args.save}")
    if args.out:
        sweep.report.save_json(args.out)
        print(f"frontier report saved to {args.out}")
    if args.csv:
        sweep.report.save_csv(args.csv)
        print(f"flat CSV saved to {args.csv}")
    if not sweep.meta["passes_verified"]:
        print(
            "error: functional-pass invariant violated "
            f"({sweep.meta['passes_computed']} passes computed, but the trace "
            f"store lacked only {sweep.meta['expected_passes']}: passes were "
            "computed for keys the store claimed to hold)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_tenants(args: argparse.Namespace) -> int:
    import math

    from repro.tenancy import (
        TenancyConfig,
        run_tenancy,
        run_tenancy_sweep,
        serial_tenant_digests,
    )

    config = TenancyConfig(
        n_tenants=args.tenants,
        blocks_per_tenant=args.blocks,
        requests_per_tenant=args.requests,
        scheduler=args.scheduler,
        scheme_spec=args.scheme,
        budget_bits=args.budget if args.budget is not None else math.inf,
        exhaustion_policy=args.policy,
        seed=args.seed,
        mean_gap_slots=args.gap,
        write_fraction=args.write_fraction,
        weights=(
            tuple(float(w) for w in _split_csv(args.weights)) if args.weights else None
        ),
    )
    if args.sweep:
        result = run_tenancy_sweep(
            base=config,
            tenant_counts=tuple(int(n) for n in _split_csv(args.counts)),
            schedulers=_split_csv(args.schedulers),
            max_workers=args.workers,
        )
        print(result.render())
        print(f"\nsweep digest: {result.digest()}")
        if args.out:
            result.save_json(args.out, deterministic=args.pin)
            print(f"sweep {'pinned' if args.pin else 'saved'} to {args.out}")
        return 0
    report = run_tenancy(config)
    print(report.render())
    if args.out:
        report.save_json(args.out, deterministic=args.pin)
        print(f"report {'pinned' if args.pin else 'saved'} to {args.out}")
    if args.verify_serial:
        serial = serial_tenant_digests(config)
        mismatched = [
            t.tenant_id for t in report.tenants if t.digest != serial[t.tenant_id]
        ]
        if mismatched:
            print(
                f"\nSERIAL EQUIVALENCE FAILED for tenants {mismatched}: shared-bank "
                "digests diverge from private-bank execution",
                file=sys.stderr,
            )
            return 1
        print(
            f"\nserial equivalence verified: {len(serial)} tenant digests match "
            "private-bank execution"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.hosting import serve_forever

    backend = _backend_from_args(args)
    if args.smoke:
        return _serve_smoke(args, backend)
    try:
        asyncio.run(serve_forever(
            cache=args.cache_dir,
            host=args.host,
            port=args.port,
            uds=args.uds,
            max_concurrency=args.max_concurrency,
            resume=args.resume,
            backend=backend,
        ))
    except KeyboardInterrupt:
        print("\ninterrupted; daemon stopped")
    return 0


def _serve_smoke(args: argparse.Namespace, backend: ExecutionBackend) -> int:
    """End-to-end self-test: start, submit, stream, scrape, shut down."""
    import tempfile

    from repro.api.spec import ExperimentSpec
    from repro.service.hosting import ThreadedService

    spec = ExperimentSpec(
        name="serve --smoke",
        benchmarks=("mcf",),
        schemes=("base_dram", "dynamic:4x4"),
        n_instructions=args.instructions,
    )
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        cache_dir = args.cache_dir or tmp
        # Ephemeral port: the smoke test must not fight a real daemon.
        with ThreadedService(
            cache=cache_dir, max_concurrency=args.max_concurrency,
            host=args.host, port=0, uds=args.uds, backend=backend,
        ) as hosted:
            client = hosted.client()
            health = client.healthz()
            print(f"daemon up at {hosted.address}: {health['status']}")
            response = client.submit(spec)
            job_id = response["job"]["id"]
            for event in client.iter_events(job_id):
                print(f"  event {event['seq']}: {event['kind']}"
                      + (f" {event.get('benchmark')}" if "benchmark" in event else ""))
            final = client.job(job_id)
            metrics = client.metrics()
            client.shutdown()
        print(
            f"job {job_id}: {final['state']}; metrics: "
            f"{metrics['cells_run']} cells run, "
            f"{metrics['functional_passes']} functional passes, "
            f"hit rate {metrics['cache_hit_rate']:.2f}"
        )
        ok = (
            final["state"] == "done"
            and metrics["jobs_completed"] >= 1
            and metrics["functional_passes"] <= 1
        )
        print("smoke " + ("OK" if ok else "FAILED"))
        return 0 if ok else 1


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults.scenarios import SCENARIO_NAMES, run_scenario

    names = tuple(args.scenario) if args.scenario else SCENARIO_NAMES
    failures = 0
    for name in names:
        report = run_scenario(name, workdir=args.workdir)
        status = "OK" if report["ok"] else "FAILED"
        print(f"scenario {name}: {status}")
        for check in report["checks"]:
            mark = "pass" if check["ok"] else "FAIL"
            detail = f"  [{check['detail']}]" if check["detail"] and not check["ok"] else ""
            print(f"  {mark}  {check['check']}{detail}")
        failures += 0 if report["ok"] else 1
    print(f"\n{len(names) - failures}/{len(names)} scenarios passed")
    return 1 if failures else 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.ingest.errors import IngestError
    from repro.ingest.store import IngestStore

    store = IngestStore(args.store) if args.store else IngestStore()
    did_something = False
    failures = 0

    for path in args.validate:
        did_something = True
        try:
            header, n_refs = store.validate(path)
        except IngestError as error:
            print(f"{path}: invalid — {error}")
            failures += 1
        else:
            print(
                f"{path}: ok — {header.name}/{header.input_name}, "
                f"{n_refs} references"
            )

    for path in args.import_paths:
        did_something = True
        digest = store.import_trace(path)
        print(f"imported {path} -> ingest:{digest}")

    if args.list:
        did_something = True
        entries = store.list_entries()
        print(store.describe())
        for entry in entries:
            print(
                f"  ingest:{entry['digest'][:16]}  {entry['name']}/{entry['input']}"
                f"  {entry['n_references']} refs  {entry['bytes']} bytes"
            )

    if args.gc:
        did_something = True
        swept = store.gc()
        print(
            f"gc: kept {swept['kept']}, quarantined {swept['quarantined']}, "
            f"removed {swept['removed_tmp']} temp file(s)"
        )
        failures += swept["quarantined"]

    if args.replay:
        did_something = True
        from repro.cache.streaming import stream_functional
        from repro.core.scheme import scheme_from_spec
        from repro.sim.streaming import run_timing_streaming

        digest = store.resolve(args.replay)
        scheme = scheme_from_spec(args.scheme)
        header, chunks = store.open_stream(digest, chunk_refs=args.chunk_refs)
        miss_chunks, machine = stream_functional(
            header, chunks, warmup_instructions=args.warmup
        )
        result = run_timing_streaming(miss_chunks, machine.finish, scheme)
        print(
            f"ingest:{digest[:16]} under {scheme.name}: "
            f"{result.cycles:.0f} cycles, {result.n_instructions} instructions, "
            f"{result.controller.real_accesses} real / "
            f"{result.controller.dummy_accesses} dummy accesses"
        )
        if args.verify:
            from repro.cache.hierarchy import simulate_hierarchy
            from repro.sim.timing import run_timing

            trace = store.load(digest)
            if trace is None:
                print(f"error: entry {digest[:16]} is corrupt (quarantined)",
                      file=sys.stderr)
                return 1
            miss_trace = simulate_hierarchy(trace, warmup_instructions=args.warmup)
            reference = run_timing(miss_trace, scheme, record_requests=False)
            identical = (
                result.cycles == reference.cycles
                and result.power_watts == reference.power_watts
                and result.controller.total_waste == reference.controller.total_waste
            )
            print(f"streaming vs in-memory: {'identical' if identical else 'MISMATCH'}")
            if not identical:
                failures += 1

    if not did_something:
        print(
            "error: nothing to do — pass --validate, --import, --list, "
            "--gc, and/or --replay",
            file=sys.stderr,
        )
        return 2
    return 1 if failures else 0


def _cmd_dist(args: argparse.Namespace) -> int:
    from repro.dist import WorkQueue, list_queues, run_worker
    from repro.dist.queue import QUEUE_SUBDIR

    cache = ExperimentCache(args.cache_dir)

    if args.dist_command == "submit":
        spec = ExperimentSpec(
            name="repro dist",
            benchmarks=_split_csv(args.benchmarks),
            schemes=_split_csv(args.schemes),
            seeds=tuple(int(s) for s in _split_csv(args.seeds)),
            n_instructions=args.instructions,
        )
        queue = WorkQueue.for_cells(cache.root, list(spec.cells()), name=spec.name)
        stats = queue.stats()
        print(f"queue {queue.root.name} at {queue.root}")
        print(
            f"  {stats['tasks']} tasks / {stats['cells']} cells "
            f"({stats['done']} done, {stats['pending']} pending)"
        )
        print(
            f"drain it with: repro dist --cache {cache.root} "
            f"worker --queue {queue.root.name}"
        )
        return 0

    if args.dist_command == "status":
        queues = list_queues(cache.root)
        if args.queue:
            queues = [(qid, path) for qid, path in queues if qid == args.queue]
            if not queues:
                print(f"error: no queue {args.queue!r} under {cache.root}",
                      file=sys.stderr)
                return 2
        if not queues:
            print(f"no queues under {cache.root / QUEUE_SUBDIR}")
            return 0
        for qid, path in queues:
            stats = WorkQueue(path).stats()
            state = "finished" if (
                stats["tasks"] and stats["pending"] == stats["claimed"] == 0
            ) else "active"
            print(
                f"{qid}  {state}  tasks {stats['done']}/{stats['tasks']} done "
                f"({stats['claimed']} claimed, {stats['pending']} pending, "
                f"{stats['poisoned']} poisoned); "
                f"cells {stats['cells_done']}/{stats['cells']}"
            )
        return 0

    if args.dist_command == "workers":
        queue = WorkQueue(Path(cache.root) / QUEUE_SUBDIR / args.queue)
        docs = queue.workers_seen()
        if not docs:
            print(f"no workers have reported on queue {args.queue}")
            return 0
        now = time.time()
        for doc in docs:
            age = now - float(doc.get("last_seen", now))
            print(
                f"{doc['worker']}  {doc.get('status', '?'):8s} "
                f"last seen {age:6.1f}s ago  "
                f"tasks {doc.get('tasks_completed', 0)}  "
                f"cells {doc.get('cells_executed', 0)}"
                + (f"  on {doc['task'][:12]}" if doc.get("task") else "")
            )
        return 0

    if args.dist_command == "worker":
        completed = run_worker(
            cache.root, args.queue,
            worker_id=args.worker_id,
            lease_ttl_s=args.lease_ttl,
            max_attempts=args.max_attempts,
            idle_poll_s=args.idle_poll,
            max_tasks=args.max_tasks,
        )
        print(f"worker done: {completed} task(s) completed")
        return 0

    raise ValueError(f"unknown dist subcommand {args.dist_command!r}")


def _cmd_load(args: argparse.Namespace) -> int:
    import contextlib

    from repro.service.client import parse_address
    from repro.service.hosting import ThreadedService
    from repro.service.loadgen import (
        LoadProfile,
        default_templates,
        run_load,
        run_saturation,
    )

    templates = default_templates(
        n_templates=args.templates,
        benchmarks=_split_csv(args.benchmarks),
        seeds=tuple(int(s) for s in _split_csv(args.seeds)),
        n_instructions=args.instructions,
    )
    profile = LoadProfile(
        clients=args.clients,
        requests_per_client=args.requests,
        mode=args.mode,
        mean_gap_s=args.gap,
        seed=args.seed,
        templates=templates,
    )
    with contextlib.ExitStack() as stack:
        if args.self_hosted:
            cache_dir = args.cache_dir
            if cache_dir is None:
                # A fresh cache makes the pass accounting cold-start
                # deterministic (level 1 pays the lattice, later levels 0).
                import tempfile

                cache_dir = stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="repro-load-")
                )
            hosted = stack.enter_context(ThreadedService(
                cache=cache_dir, max_concurrency=args.max_concurrency,
            ))
            address = hosted.address
        elif args.address:
            address = parse_address(args.address)
        else:
            print("error: pass --address HOST:PORT (or --self-hosted)", file=sys.stderr)
            return 2
        if args.levels:
            report = run_saturation(
                address,
                levels=tuple(int(n) for n in _split_csv(args.levels)),
                base_profile=profile,
                job_timeout=args.job_timeout,
            )
            print(report.render())
            redundant = report.total_redundant_passes
            if args.out:
                report.save_json(args.out, deterministic=args.pin)
                print(f"curve {'pinned' if args.pin else 'saved'} to {args.out}")
        else:
            level = run_load(address, profile, job_timeout=args.job_timeout)
            percentiles = level.latency_percentiles()
            print(
                f"{level.jobs_completed}/{level.jobs_submitted} jobs done in "
                f"{level.duration_s:.2f}s ({level.throughput_jobs_s:.2f} jobs/s); "
                f"p50/p95/p99 = {percentiles[50.0]}/{percentiles[95.0]}/"
                f"{percentiles[99.0]} ms; fresh passes "
                f"{level.functional_passes_new}/{level.expected_passes}, "
                f"redundant {level.redundant_passes}"
            )
            redundant = level.redundant_passes
    if redundant > 0:
        print(
            f"error: {redundant} redundant functional pass(es) under load — "
            "concurrent sweeps recomputed work the warm cache should have served",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for docs/tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Declarative experiment runner for the ORAM timing-channel reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one benchmark under one or more schemes")
    run.add_argument("benchmark", help='benchmark name, e.g. "mcf" or "astar/rivers"')
    run.add_argument(
        "-s", "--scheme", action="append", default=[],
        help='scheme spec, repeatable (e.g. -s base_dram -s "dynamic:4x4")',
    )
    run.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    _add_sim_arguments(run)
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="run a benchmarks x schemes x seeds sweep")
    sweep.add_argument(
        "--benchmarks", required=True,
        help='comma-separated benchmarks, e.g. "mcf,h264ref,astar/rivers"',
    )
    sweep.add_argument(
        "--schemes", required=True,
        help='comma-separated scheme specs, e.g. "base_dram,static:300,dynamic:4x4"',
    )
    sweep.add_argument("--seeds", default="0", help='comma-separated seeds (default "0")')
    _add_sim_arguments(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    lw = sub.add_parser("list-workloads", help="list the workload registry")
    lw.set_defaults(func=_cmd_list_workloads)

    leakage = sub.add_parser(
        "leakage", help="leakage accounting table, or one configuration's bound"
    )
    leakage.add_argument("--rates", type=int, default=None, help="|R| candidate rates")
    leakage.add_argument("--growth", type=int, default=None, help="epoch growth factor")
    leakage.add_argument(
        "--budget", type=float, default=None,
        help="bit budget; exit 1 if the configuration (default R4/E4) exceeds it",
    )
    leakage.set_defaults(func=_cmd_leakage)

    perf = sub.add_parser(
        "perf",
        help="kernel microbenchmarks: functional pass, timing replay, sweep",
    )
    perf.add_argument(
        "--quick", action="store_true",
        help="reduced instruction budget and repeats (CI mode)",
    )
    perf.add_argument(
        "--repeats", type=int, default=None,
        help="best-of-N timing repeats (default: 3 quick, 5 full)",
    )
    perf.add_argument(
        "--tier", action="append", default=[],
        choices=["functional", "timing", "oram", "frontier_cell", "tenancy_step", "sweep"],
        help="run only this tier (repeatable; default: all tiers)",
    )
    perf.add_argument(
        "--out", default="BENCH_perf.json", metavar="PATH",
        help='write the JSON report here (default "BENCH_perf.json"; "" to skip)',
    )
    perf.add_argument(
        "--check-baseline", default=None, metavar="PATH",
        help="fail (exit 1) on regression against this baselines.json",
    )
    perf.add_argument(
        "--update-baseline", default=None, metavar="PATH",
        help="rewrite this baselines.json from the fresh measurements",
    )
    perf.set_defaults(func=_cmd_perf)

    stash = sub.add_parser(
        "stash-scaling",
        help="stash-occupancy tails across Z / tree depth on the batched engine",
    )
    stash.add_argument(
        "--z", default="2,3,4", help='comma-separated Z values (default "2,3,4")'
    )
    stash.add_argument(
        "--levels", default="11", help='comma-separated tree depths (default "11")'
    )
    stash.add_argument(
        "--accesses", type=int, default=1_000_000,
        help="accesses per cell (default 1000000)",
    )
    stash.add_argument("--seed", type=int, default=0, help="trace seed (default 0)")
    stash.add_argument(
        "--validate-timing", action="store_true",
        help="also validate derived timing constants against functional traffic",
    )
    stash.set_defaults(func=_cmd_stash_scaling)

    frontier = sub.add_parser(
        "frontier",
        help="sweep a dynamic design-space grid and print its Pareto frontier",
    )
    frontier.add_argument(
        "--grid", default="dynamic",
        help='grid spec, e.g. "grid:dynamic:{rates=2..6}x{epochs=3..6}:'
             '{learner=avg,threshold}"; "dynamic" selects the 112-point default',
    )
    frontier.add_argument(
        "--benchmarks", default=None,
        help="comma-separated benchmarks (default: one per memory-behaviour class)",
    )
    frontier.add_argument("--seeds", default="0", help='comma-separated seeds (default "0")')
    frontier.add_argument(
        "--budget", type=float, default=None,
        help="prune grid points whose ORAM-timing bound exceeds this many bits",
    )
    frontier.add_argument(
        "--static", default="300,500,1300",
        help='zero-leakage static anchors to include ("none" to disable)',
    )
    frontier.add_argument(
        "--per-benchmark", action="store_true",
        help="print every per-benchmark frontier, not just the aggregate",
    )
    frontier.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the frontier report (points, fronts, knees) as JSON",
    )
    frontier.add_argument(
        "--csv", default=None, metavar="PATH",
        help="also write the flat candidate table as CSV",
    )
    # A grid sweep is hundreds of independent replays: the pool is the
    # default here.
    _add_backend_arguments(frontier, default="pool")
    frontier.add_argument(
        "-n", "--instructions", type=int, default=200_000,
        help="post-warmup instruction budget per run (default 200000)",
    )
    frontier.add_argument(
        "--cache-dir", default=None,
        help="root a persistent trace/result cache there",
    )
    frontier.add_argument(
        "--no-cache-read", action="store_true",
        help="recompute results even when cached (still reuses traces)",
    )
    frontier.add_argument(
        "--save", default=None, metavar="PATH",
        help="also write the raw ResultSet as JSON to PATH",
    )
    frontier.set_defaults(func=_cmd_frontier)

    tenants = sub.add_parser(
        "tenants",
        help="multi-tenant ORAM service: shared bank, SLOs, leakage budgets",
    )
    tenants.add_argument(
        "--tenants", type=int, default=16,
        help="number of client sessions sharing the bank (default 16)",
    )
    tenants.add_argument(
        "--scheduler", default="batched",
        choices=["round_robin", "weighted_fair", "batched"],
        help="cross-tenant scheduling policy (default batched)",
    )
    tenants.add_argument(
        "--requests", type=int, default=256,
        help="requests per tenant (default 256)",
    )
    tenants.add_argument(
        "--blocks", type=int, default=64,
        help="blocks per tenant slice (default 64)",
    )
    tenants.add_argument(
        "--scheme", default="dynamic:4x4",
        help='leakage scheme charged per tenant (default "dynamic:4x4")',
    )
    tenants.add_argument(
        "--budget", type=float, default=None,
        help="per-tenant leakage budget in bits (default: unlimited)",
    )
    tenants.add_argument(
        "--policy", default="terminate", choices=["terminate", "degrade"],
        help="on budget exhaustion: terminate the session or degrade (default terminate)",
    )
    tenants.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    tenants.add_argument(
        "--gap", type=float, default=2.0,
        help="mean inter-arrival gap in slots per tenant; 0 = closed loop (default 2.0)",
    )
    tenants.add_argument(
        "--write-fraction", type=float, default=0.5,
        help="fraction of requests that are writes (default 0.5)",
    )
    tenants.add_argument(
        "--weights", default=None,
        help="comma-separated per-tenant weighted-fair shares (default uniform)",
    )
    tenants.add_argument(
        "--verify-serial", action="store_true",
        help="check per-tenant digests against private-bank serial execution",
    )
    tenants.add_argument(
        "--sweep", action="store_true",
        help="run the tenant-count x scheduler scaling sweep instead of one run",
    )
    tenants.add_argument(
        "--counts", default="1,4,16,64",
        help='sweep tenant counts (default "1,4,16,64")',
    )
    tenants.add_argument(
        "--schedulers", default="batched,round_robin",
        help='sweep schedulers (default "batched,round_robin")',
    )
    tenants.add_argument(
        "--workers", type=int, default=None,
        help="fan sweep cells across a process pool of this size "
             "(default: in-process)",
    )
    tenants.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the report (or sweep) as JSON to PATH",
    )
    tenants.add_argument(
        "--pin", action="store_true",
        help="drop machine-dependent wall-clock fields from --out "
             "(byte-stable artifacts, e.g. benchmarks/BENCH_tenancy.json)",
    )
    tenants.set_defaults(func=_cmd_tenants)

    serve = sub.add_parser(
        "serve",
        help="long-running sweep daemon: HTTP/IPC job API over one warm engine",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind host (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=8642,
        help="bind port (default 8642; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--uds", default=None, metavar="PATH",
        help="bind a Unix domain socket instead of TCP",
    )
    serve.add_argument(
        "--cache-dir", default=None,
        help="persistent trace/result cache root (default: ~/.cache/repro)",
    )
    serve.add_argument(
        "--max-concurrency", type=int, default=2,
        help="jobs executing at once (default 2)",
    )
    serve.add_argument(
        "--resume", action="store_true",
        help="replay the cache root's job journal before accepting traffic, "
             "re-enqueueing jobs a previous daemon admitted but never finished",
    )
    _add_backend_arguments(serve, default="serial", choices=("serial", "queue"))
    serve.add_argument(
        "--smoke", action="store_true",
        help="self-test: start, submit one sweep, stream events, scrape "
             "/metrics, clean shutdown; exit 1 on any failure",
    )
    serve.add_argument(
        "-n", "--instructions", type=int, default=50_000,
        help="smoke-test instruction budget (default 50000)",
    )
    serve.set_defaults(func=_cmd_serve)

    load = sub.add_parser(
        "load",
        help="load-test a sweep daemon; --levels records saturation curves",
    )
    load.add_argument(
        "--address", default=None, metavar="HOST:PORT|SOCKET",
        help="daemon address (host:port or Unix socket path)",
    )
    load.add_argument(
        "--self-hosted", action="store_true",
        help="spin up an in-process daemon for the duration of the run",
    )
    load.add_argument(
        "--clients", type=int, default=4,
        help="concurrent client sessions (default 4)",
    )
    load.add_argument(
        "--requests", type=int, default=4,
        help="jobs per client (default 4)",
    )
    load.add_argument(
        "--mode", default="closed", choices=["closed", "open"],
        help="closed: submit-wait-submit; open: timed arrivals (default closed)",
    )
    load.add_argument(
        "--gap", type=float, default=0.2,
        help="open-loop mean inter-arrival gap per client, seconds (default 0.2)",
    )
    load.add_argument("--seed", type=int, default=0, help="load seed (default 0)")
    load.add_argument(
        "--templates", type=int, default=4,
        help="distinct sweep templates in the pool (default 4)",
    )
    load.add_argument(
        "--benchmarks", default="mcf,libquantum",
        help='template benchmarks (default "mcf,libquantum")',
    )
    load.add_argument("--seeds", default="0", help='template seeds (default "0")')
    load.add_argument(
        "-n", "--instructions", type=int, default=20_000,
        help="template instruction budget (default 20000)",
    )
    load.add_argument(
        "--levels", default=None,
        help='comma-separated client counts for a saturation sweep, e.g. "1,2,4,8"',
    )
    load.add_argument(
        "--job-timeout", type=float, default=300.0,
        help="per-job completion timeout in seconds (default 300)",
    )
    load.add_argument(
        "--cache-dir", default=None,
        help="cache root for --self-hosted (default: a fresh temp dir)",
    )
    load.add_argument(
        "--max-concurrency", type=int, default=2,
        help="job concurrency for --self-hosted (default 2)",
    )
    load.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the saturation curve as JSON to PATH",
    )
    load.add_argument(
        "--pin", action="store_true",
        help="drop machine-dependent wall-clock fields from --out "
             "(byte-stable artifacts, e.g. benchmarks/BENCH_service.json)",
    )
    load.set_defaults(func=_cmd_load)

    faults = sub.add_parser(
        "faults",
        help="run scripted chaos scenarios (worker kills, artifact rot, "
             "torn writes, daemon restarts, refused connects)",
    )
    faults.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="scenario to run (repeatable; default: all). Known: "
             "worker-crash, corrupt-artifact, torn-write, daemon-restart, "
             "client-retry, corrupt-import, worker-kill-dist",
    )
    faults.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="working directory for caches/tokens (default: fresh temp dirs)",
    )
    faults.set_defaults(func=_cmd_faults)

    ingest = sub.add_parser(
        "ingest",
        help="validate, import, list, gc, and replay external trace files "
             "(text/binary/gzip formats)",
    )
    ingest.add_argument(
        "--validate", action="append", default=[], metavar="PATH",
        help="parse a trace file and report schema errors (repeatable)",
    )
    ingest.add_argument(
        "--import", dest="import_paths", action="append", default=[],
        metavar="PATH",
        help="import a trace file into the content-addressed store (repeatable)",
    )
    ingest.add_argument(
        "--list", action="store_true", help="list stored traces with digests"
    )
    ingest.add_argument(
        "--gc", action="store_true",
        help="sweep the store: quarantine corrupt entries, drop temp files",
    )
    ingest.add_argument(
        "--replay", default=None, metavar="DIGEST",
        help="streaming replay of a stored trace (digest or unique prefix)",
    )
    ingest.add_argument(
        "--scheme", default="base_dram",
        help='scheme spec for --replay (default "base_dram")',
    )
    ingest.add_argument(
        "--chunk-refs", type=int, default=65536,
        help="streaming window size in references (default 65536)",
    )
    ingest.add_argument(
        "--warmup", type=int, default=0,
        help="warmup instructions for --replay (default 0)",
    )
    ingest.add_argument(
        "--verify", action="store_true",
        help="with --replay: also run the in-memory path and require "
             "bit-identical results",
    )
    ingest.add_argument(
        "--store", default=None, metavar="DIR",
        help="ingest store directory (default: <cache>/ingest)",
    )
    ingest.set_defaults(func=_cmd_ingest)

    dist = sub.add_parser(
        "dist",
        help="distributed work-queue sweeps: submit a task board, drain it "
             "with workers from any host sharing the cache, observe progress",
    )
    dist.add_argument(
        "--cache", dest="cache_dir", required=True, metavar="DIR",
        help="shared cache root (queue lives under <DIR>/queue/)",
    )
    dist_sub = dist.add_subparsers(dest="dist_command", required=True)

    d_submit = dist_sub.add_parser(
        "submit", help="materialize a sweep as a task board (no execution)"
    )
    d_submit.add_argument(
        "--benchmarks", required=True,
        help='comma-separated benchmarks, e.g. "mcf,libquantum"',
    )
    d_submit.add_argument(
        "--schemes", required=True,
        help='comma-separated scheme specs, e.g. "base_dram,static:300"',
    )
    d_submit.add_argument(
        "--seeds", default="0", help='comma-separated seeds (default "0")'
    )
    d_submit.add_argument(
        "-n", "--instructions", type=int, default=200_000,
        help="post-warmup instruction budget per run (default 200000)",
    )

    d_status = dist_sub.add_parser("status", help="show task-board progress")
    d_status.add_argument(
        "--queue", default=None, metavar="ID",
        help="one queue id (default: every queue under the cache)",
    )

    d_workers = dist_sub.add_parser("workers", help="show worker heartbeats")
    d_workers.add_argument("--queue", required=True, metavar="ID", help="queue id")

    d_worker = dist_sub.add_parser(
        "worker", help="drain a queue from this process until it finishes"
    )
    d_worker.add_argument("--queue", required=True, metavar="ID", help="queue id")
    d_worker.add_argument(
        "--worker-id", default=None,
        help="stable worker identity (default: hostname-pid)",
    )
    d_worker.add_argument(
        "--idle-poll", type=float, default=0.05, metavar="SECONDS",
        help="sleep between claim attempts when nothing is claimable",
    )
    d_worker.add_argument(
        "--max-tasks", type=int, default=None,
        help="exit after completing this many tasks (default: drain fully)",
    )
    d_worker.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="lease time-to-live (default 10.0; see docs/operations.md)",
    )
    d_worker.add_argument(
        "--max-attempts", type=int, default=None,
        help="failed claims before a task poisons (default 3)",
    )

    dist.set_defaults(func=_cmd_dist)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Console-script entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
