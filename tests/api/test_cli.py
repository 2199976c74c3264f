"""Smoke tests for the ``repro`` CLI (run in-process via main(argv))."""

import json

import pytest

from repro.api.engine import Engine
from repro.api.records import ResultSet
from repro.api.spec import ExperimentSpec
from repro.cli import main

#: One lattice with two pass groups, so the pool really shards it.
LATTICE = dict(
    benchmarks=("mcf", "libquantum"),
    schemes=("base_dram", "static:300", "dynamic:4x4"),
    n_instructions=40_000,
)
LATTICE_SWEEP = [
    "sweep", "--benchmarks", ",".join(LATTICE["benchmarks"]),
    "--schemes", ",".join(LATTICE["schemes"]),
    "-n", str(LATTICE["n_instructions"]),
]


@pytest.fixture(scope="module")
def lattice_digest():
    return Engine().run(ExperimentSpec(**LATTICE)).digest()


class TestRun:
    def test_run_prints_table(self, capsys):
        code = main(["run", "mcf", "-s", "base_dram", "-s", "dynamic:4x4",
                     "-n", "40000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "base_dram" in out
        assert "dynamic_R4_E4" in out
        assert "2 cells" in out

    def test_bad_scheme_is_a_clean_error(self, capsys):
        code = main(["run", "mcf", "-s", "bogus:1", "-n", "40000"])
        assert code == 2
        assert "accepted forms" in capsys.readouterr().err

    def test_bad_benchmark_is_a_clean_error(self, capsys):
        code = main(["run", "not_a_bench", "-n", "40000"])
        assert code == 2
        assert "unknown workload" in capsys.readouterr().err


class TestSweep:
    def test_sweep_with_cache_and_save(self, capsys, tmp_path):
        save_path = tmp_path / "out.json"
        argv = ["sweep", "--benchmarks", "mcf", "--schemes",
                "base_dram,static:300", "-n", "40000",
                "--cache-dir", str(tmp_path / "cache"), "--save", str(save_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 cached, 2 run" in first
        payload = json.loads(save_path.read_text())
        assert len(payload["records"]) == 2
        assert payload["spec"]["benchmarks"] == ["mcf"]

        # Second invocation: fully cached.
        assert main(argv) == 0
        assert "2 cached, 0 run" in capsys.readouterr().out

    def test_sweep_seeds_axis(self, capsys):
        assert main(["sweep", "--benchmarks", "mcf", "--schemes", "base_dram",
                     "--seeds", "0,1", "-n", "40000"]) == 0
        assert "2 cells" in capsys.readouterr().out

    def test_zero_workers_is_a_clean_error(self, capsys):
        code = main(["sweep", "--benchmarks", "mcf", "--schemes", "base_dram",
                     "-n", "40000", "--backend", "pool", "--workers", "0"])
        assert code == 2
        assert "max_workers must be >= 1" in capsys.readouterr().err

    def test_poisoned_cells_exit_1(self, capsys, tmp_path, monkeypatch):
        import repro.dist.worker as worker_module

        def always_raises(cells, trace_store=None):
            raise RuntimeError("executor down")

        monkeypatch.setattr(worker_module, "execute_cells_batch", always_raises)
        code = main(["sweep", "--benchmarks", "mcf", "--schemes", "base_dram",
                     "-n", "40000", "--backend", "queue", "--workers", "0",
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 1
        assert "1 cells: 0 cached, 0 run, 1 poisoned" in capsys.readouterr().out


class TestBackendFlags:
    @pytest.mark.parametrize("flags, name", [
        ((), "serial"),
        (("--backend", "pool", "--workers", "2"), "process_pool"),
        (("--backend", "queue", "--workers", "0"), "work_queue"),
    ])
    def test_one_digest_on_every_backend(
        self, flags, name, capsys, tmp_path, lattice_digest
    ):
        save = tmp_path / "results.json"
        argv = [*LATTICE_SWEEP, *flags, "--save", str(save)]
        if "queue" in flags:
            argv += ["--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        assert f"[{name}] 6 cells: 0 cached, 6 run" in capsys.readouterr().out
        assert ResultSet.load(save).digest() == lattice_digest

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--benchmarks", "mcf", "--schemes", "base_dram", "--workers", "2"],
         "--workers does not apply to --backend serial"),
        (["frontier", "--backend", "serial", "--workers", "2"],
         "--workers does not apply to --backend serial"),
        (["run", "mcf", "--backend", "queue"], "--backend queue needs --cache-dir"),
        (["sweep", "--benchmarks", "mcf", "--schemes", "base_dram",
          "--backend", "queue"], "--backend queue needs --cache-dir"),
        (["frontier", "--backend", "queue"], "--backend queue needs --cache-dir"),
    ])
    def test_usage_errors_exit_2(self, argv, message, capsys):
        assert main(argv) == 2
        assert message in capsys.readouterr().err


class TestFrontier:
    def test_warm_trace_pool_rerun_is_verified_and_quiet(self, capfd, tmp_path):
        argv = ["frontier", "--grid", "grid:dynamic:{rates=2..3}x{epochs=2..3}",
                "--static", "300", "--benchmarks", "mcf,libquantum",
                "-n", "40000", "--workers", "2",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        capfd.readouterr()
        # Recompute every cell on the pool against the warm trace cache:
        # the store holds both passes, so the run may compute none.  The
        # workers report the passes they compute, so a recomputed pass
        # fails the check and the run exits 1.  Nothing (no worker or
        # resource-tracker output) may reach stderr.
        assert main(argv + ["--no-cache-read"]) == 0
        captured = capfd.readouterr()
        assert "functional passes 0/0 (verified)" in captured.out
        assert captured.err == ""


class TestListWorkloads:
    def test_lists_registry(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("mcf", "astar", "perlbench", "h264ref"):
            assert name in out
        assert "rivers" in out  # inputs column


class TestLeakage:
    def test_full_table(self, capsys):
        assert main(["leakage"]) == 0
        out = capsys.readouterr().out
        assert "Leakage accounting" in out
        assert "dynamic R4 E4" in out

    def test_single_config_within_budget(self, capsys):
        assert main(["leakage", "--rates", "4", "--growth", "4",
                     "--budget", "32"]) == 0
        assert "FITS" in capsys.readouterr().out

    def test_single_config_over_budget_exits_nonzero(self, capsys):
        assert main(["leakage", "--rates", "16", "--growth", "2",
                     "--budget", "32"]) == 1
        assert "EXCEEDED" in capsys.readouterr().out

    def test_bare_budget_checks_default_config(self, capsys):
        """--budget alone must gate on R4/E4, not silently print the table."""
        assert main(["leakage", "--budget", "32"]) == 0
        out = capsys.readouterr().out
        assert "R4 E4" in out and "FITS" in out
        assert main(["leakage", "--budget", "16"]) == 1
        assert "EXCEEDED" in capsys.readouterr().out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
