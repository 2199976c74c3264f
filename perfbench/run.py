"""The repository's end-to-end benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload frontier_sweep --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` adds a traced window and prints the per-layer metrics instead.  The
last stdout line is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the lines before it give every metric with its
unit and sample count.  Any failed output check makes the exit code 1.

Every time is given in reference seconds: wall seconds divided by the
host's slowdown, probed while the program is idle (see ``hostspeed.py``).
The lines before the JSON give the wall-clock figures beside them.

Each run works in ``.perfbench_tmp/`` inside the checkout.  Where the
kernel allows it, that directory is a tmpfs mounted in a private mount
namespace (gone when the run ends), so caches, work queues and the
ingest store never wait on disk flushes; otherwise it is a plain
directory.  The filesystem measured is printed either way.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed
from layers import METRICS as LAYER_UNITS

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("frontier_sweep", "figure_service", "dist_fleet", "ingest_replay")

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_SAMPLES = 3
#: A tail percentile needs this many samples beyond it.
TAIL_SAMPLES = 10
#: Hard cap on one child process.
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "cells_per_s": "cells/s",
    "refs_per_s": "refs/s",
    "job_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}

_FS_MAGIC = {
    0x01021994: "tmpfs", 0xEF53: "ext4", 0x794C7630: "overlayfs",
    0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
}


def _libc():
    libc = ctypes.CDLL(None, use_errno=True)
    libc.unshare.argtypes = [ctypes.c_int]
    libc.mount.argtypes = [ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p,
                           ctypes.c_ulong, ctypes.c_char_p]
    libc.umount2.argtypes = [ctypes.c_char_p, ctypes.c_int]
    libc.statfs.argtypes = [ctypes.c_char_p, ctypes.c_void_p]
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    return libc


def filesystem_type(path: Path) -> str:
    buffer = ctypes.create_string_buffer(256)
    if _libc().statfs(os.fsencode(path), buffer) != 0:
        return "unknown"
    magic = ctypes.c_long.from_buffer(buffer).value & 0xFFFFFFFF
    return _FS_MAGIC.get(magic, hex(magic))


def _private_tmpfs(target: Path) -> bool:
    """Mount a tmpfs on ``target`` that only this process tree sees."""
    libc = _libc()
    clone_newns, ms_rec, ms_private = 0x00020000, 16384, 1 << 18
    if libc.unshare(clone_newns) != 0:
        return False
    if libc.mount(b"none", b"/", None, ms_rec | ms_private, None) != 0:
        return False
    return libc.mount(b"tmpfs", os.fsencode(target), b"tmpfs", 0,
                      b"size=1g,mode=0700") == 0


@contextlib.contextmanager
def scratch_directory(checkout: Path):
    base = checkout / ".perfbench_tmp"
    run_dir = base / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    mounted = _private_tmpfs(run_dir)
    try:
        yield run_dir, filesystem_type(run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if mounted:
            _libc().umount2(os.fsencode(run_dir), 2)  # MNT_DETACH
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


def _reap_descendants(timeout_s: float = 30.0) -> None:
    """Wait for every orphaned descendant this subreaper inherited."""
    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.02)


class Child:
    """One harness process, in its own process group."""

    def __init__(self, argv: list[str], env: dict) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        self.deadline = self.started + CHILD_TIMEOUT_S
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put((time.perf_counter(), line))
        self._lines.put((time.perf_counter(), None))

    def read(self, kind: str) -> tuple[dict, float]:
        """The next protocol line of ``kind`` and when it arrived."""
        while True:
            try:
                arrived, line = self._lines.get(
                    timeout=max(self.deadline - time.perf_counter(), 0.01)
                )
            except queue.Empty:
                raise RuntimeError(f"no {kind!r} line within {CHILD_TIMEOUT_S:.0f} s")
            if line is None:
                raise RuntimeError(f"benchmark process ended without a {kind!r} line")
            if line.startswith("PERFBENCH "):
                message = json.loads(line[len("PERFBENCH "):])
                if message.get("kind") == kind:
                    return message, arrived

    def finish(self, wait: bool = True) -> int:
        """Reap the child, then kill what is left of its process group."""
        code = -1
        if wait:
            with contextlib.suppress(subprocess.TimeoutExpired):
                code = self.proc.wait(timeout=max(self.deadline - time.perf_counter(), 1.0))
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        self._reader.join(timeout=10.0)
        self.proc.stdout.close()
        _reap_descendants()
        return code


def run_child(args, checkout: Path, root: Path, role: str, env: dict, probe,
              extra: list[str] = ()) -> tuple[dict, float, float, dict | None]:
    """(ready line, set-up wall seconds, host slowdown over the set-up,
    result line) of one harness process."""
    before = probe.slowdown()
    argv = [
        sys.executable, str(BENCH_DIR / "harness.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", str(root), "--repo", str(checkout), "--role", role, *extra,
    ]
    child = Child(argv, env)
    try:
        ready, ready_at = child.read("ready")
        # A measuring process goes on to run its windows, so it probes
        # the host itself, right after set-up.
        after = child.read("speed")[0]["slowdown"] if role == "measure" else None
        result = child.read("result")[0] if role == "measure" else None
    except BaseException:
        child.finish(wait=False)
        raise
    code = child.finish()
    if code != 0:
        raise RuntimeError(f"{role} process exited with {code}")
    if after is None:
        after = probe.slowdown()
    return ready, ready_at - child.started, (before + after) / 2, result


def end_to_end(timed: dict, setups: list[tuple[float, float]],
               peak_rss_mb: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics in reference seconds, and lines that give
    each with its sample count and its wall-clock figure."""
    rounds = timed["rounds"]
    ok = [job for job in timed["jobs"] if job["ok"]]
    busy = sum(r["busy_s"] for r in rounds)
    busy_ref = sum(r["busy_s"] / r["slowdown"] for r in rounds)
    latencies = [job["latency_s"] * 1e3 / rounds[job["round"]]["slowdown"] for job in ok]
    setup_ref = [wall / slowdown for wall, slowdown in setups]
    cells = sum(job["cells"] for job in ok)
    refs = sum(job["refs"] for job in ok)
    metrics = {
        "cells_per_s": cells / busy_ref if busy_ref else 0.0,
        "refs_per_s": refs / busy_ref if busy_ref else 0.0,
        "job_p50_ms": statistics.median(latencies) if latencies else 0.0,
        "setup_s": statistics.median(setup_ref),
        "peak_rss_mb": peak_rss_mb,
        "ok_rate": len(ok) / max(timed["attempted"], 1),
    }
    wall_p50 = statistics.median(job["latency_s"] * 1e3 for job in ok) if ok else 0.0
    counts = {
        "cells_per_s": f"{cells} cells in {busy_ref:.2f} ref s; wall {busy:.2f} s",
        "refs_per_s": f"{refs} refs in {busy_ref:.2f} ref s; wall {busy:.2f} s",
        "job_p50_ms": f"n={len(latencies)}; wall {wall_p50:.1f} ms",
        "setup_s": f"median of n={len(setups)}: "
                   + ", ".join(f"{value:.3f}" for value in setup_ref)
                   + "; wall " + ", ".join(f"{wall:.3f}" for wall, _ in setups),
        "peak_rss_mb": "largest process",
        "ok_rate": f"{len(ok)}/{timed['attempted']}",
    }
    lines = [
        f"  {name:<14} {value:>14.4f} {END_TO_END_UNITS[name]:<8} ({counts[name]})"
        for name, value in metrics.items()
    ]
    if len(latencies) >= TAIL_SAMPLES * 10:
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
        lines.append(f"  {'job_p90_ms':<14} {p90:>14.4f} "
                     f"{'ms':<8} (n={len(latencies)})")
    else:
        lines.append(f"  {'job_p90_ms':<14} {'-':>14} {'ms':<8} "
                     f"(needs >= {TAIL_SAMPLES * 10} jobs, have {len(latencies)})")
    by_kind: dict[str, list[float]] = {}
    for job, latency in zip(ok, latencies):
        by_kind.setdefault(job["kind"] or "job", []).append(latency)
    if len(by_kind) > 1:
        for kind, values in sorted(by_kind.items()):
            lines.append(f"  {'p50 ' + kind:<14} {statistics.median(values):>14.4f} "
                         f"{'ms':<8} (n={len(values)})")
    slowdowns = [r["slowdown"] for r in rounds]
    lines.append(f"  host slowdown {min(slowdowns):.2f}-{max(slowdowns):.2f} over "
                 f"{len(rounds)} rounds (1 = a {hostspeed.REFERENCE_UNIT_S * 1e3:g} ms "
                 "probe unit)")
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ledger", default=None,
                        help="with --trace 1: also write the per-layer shares here")
    parser.add_argument("--pin-out", default=None,
                        help="write this run's output digests here (for pins.json)")
    args = parser.parse_args(argv)

    for signum in (signal.SIGTERM, signal.SIGHUP):
        # Unwind through the finally blocks that stop children and unmount.
        signal.signal(signum, lambda number, _frame: sys.exit(128 + number))
    checkout = Path.cwd()
    if not (checkout / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {checkout} holds no src/repro; run from the root of a checkout",
              file=sys.stderr)
        return 2
    with contextlib.suppress(OSError, AttributeError):
        _libc().prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", str(BENCH_DIR)],
                   cwd=checkout, check=False, stdout=subprocess.DEVNULL)
    with scratch_directory(checkout) as (run_dir, fs_type):
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(checkout / "src")
        env["REPRO_CACHE_DIR"] = str(run_dir / "default-cache")
        probe = hostspeed.Probe()
        samples = []
        for index in range(SETUP_SAMPLES - 1):
            ready, setup_s, slowdown, _ = run_child(
                args, checkout, run_dir / f"setup-{index}", "setup", env, probe)
            samples.append((ready, setup_s, slowdown))
            shutil.rmtree(run_dir / f"setup-{index}", ignore_errors=True)
        extra = ["--pin-out", str(Path(args.pin_out).resolve())] if args.pin_out else []
        ready, setup_s, slowdown, result = run_child(
            args, checkout, run_dir / "measure", "measure", env, probe, extra)
        if not args.trace:
            samples.append((ready, setup_s, slowdown))

    windows = result["windows"]
    attempted = sum(window["attempted"] for window in windows.values())
    failed = attempted - sum(job["ok"] for window in windows.values()
                             for job in window["jobs"])
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} fs={fs_type} times in reference seconds"
          + ("" if result["rss_window_only"] else " rss=whole-process"))
    metrics, lines = end_to_end(windows["timed"], [(s, slow) for _, s, slow in samples],
                                result["peak_rss_mb"])
    print("\n".join(lines))
    for name, window in windows.items():
        for job in window["jobs"]:
            if not job["ok"]:
                print(f"  FAILED {name} job {job['client']}:{job['index']}: "
                      f"{'; '.join(job['problems'])}", file=sys.stderr)
    if args.trace:
        measured = dict(result["per_layer"])
        measured["setup.import_ms"] = statistics.median(
            r["import_ms"] / slowdown for r, _, slowdown in samples)
        measured["setup.ready_ms"] = statistics.median(
            r["ready_ms"] / slowdown for r, _, slowdown in samples)
        # Layer times of the traced window, in reference seconds too.
        traced = windows["traced"]["rounds"]
        window_slowdown = (sum(r["busy_s"] for r in traced)
                           / sum(r["busy_s"] / r["slowdown"] for r in traced))
        for name, unit in LAYER_UNITS.items():
            if unit in ("ms", "ns") and not name.startswith("setup."):
                measured[name] /= window_slowdown
        per_layer = {name: measured[name] for name in LAYER_UNITS}
        for name, value in per_layer.items():
            print(f"  {name:<36} {value:>14.4f} {LAYER_UNITS[name]}")
        reported = {name: {"value": value, "unit": LAYER_UNITS[name]}
                    for name, value in per_layer.items()}
        if args.ledger:
            ledger = dict(result["ledger"], seed=args.seed, seconds=args.seconds,
                          fs=fs_type, host_slowdown=round(window_slowdown, 3),
                          setup_ms=round(per_layer["setup.ready_ms"], 1))
            path = Path(args.ledger)
            document = json.loads(path.read_text()) if path.is_file() else {}
            document[args.workload] = ledger
            path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    else:
        reported = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                    for name, value in metrics.items()}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
