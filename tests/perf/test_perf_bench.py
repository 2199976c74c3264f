"""Tests for the perf suite runner: tiers, the frontier-cell bench, and
the committed artifact's ship floors."""

import json
from pathlib import Path

import pytest

from repro.cache.hierarchy import simulate_hierarchy
from repro.cli import build_parser
from repro.core.scheme import scheme_from_spec
from repro.perf.bench import (
    PERF_TIERS,
    PerfReport,
    _measure,
    _replay_contract,
    bench_frontier_cell,
    build_perf_trace,
    run_perf_suite,
)
from repro.perf.report import check_against_baseline, load_baseline, speedup_floor
from repro.sim import timing
from repro.sim.timing import run_timing

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def small_miss_trace():
    n = 60_000
    warmup = int(n * 0.30)
    trace = build_perf_trace("libquantum", n + warmup)
    return simulate_hierarchy(trace, warmup_instructions=warmup)


class TestFrontierCellBench:
    def test_batch_is_equivalent_and_counts_configs(self, small_miss_trace):
        bench = bench_frontier_cell("libquantum", small_miss_trace, repeats=1)
        assert bench.equivalent
        assert bench.key == "frontier_cell/libquantum"
        assert bench.unit == "config-requests"
        assert bench.n == 16 * small_miss_trace.n_requests  # 16 configs
        assert bench.speedup > 0
        assert bench.fast_per_s > small_miss_trace.n_requests


class TestMeasure:
    def test_outputs_are_compared_under_the_contract(self):
        broken = _measure("t", "w", "units", 10, (2.0, "abc"), (1.0, "abd"), str)
        assert not broken.equivalent
        assert broken.checksum == "abd"  # string contracts are recorded
        same = _measure("t", "w", "units", 10, (2.0, [1, 2]), (1.0, [1, 2]), list)
        assert same.equivalent and same.checksum == ""
        assert same.speedup == 2.0 and same.fast_per_s == 10.0
        assert same.reference_per_s == 5.0 and same.key == "t/w"

    def test_replay_contract_tells_results_apart(self, small_miss_trace):
        def replay(spec, mode):
            return _replay_contract(
                run_timing(small_miss_trace, scheme_from_spec(spec), mode=mode)
            )

        assert replay("dynamic:4x4", "fast") == replay("dynamic:4x4", "reference")
        assert replay("dynamic:4x4", "fast") != replay("static:300", "fast")


class TestTierSelection:
    def test_single_tier_runs_only_that_tier(self):
        report = run_perf_suite(quick=True, repeats=1, tiers=("frontier_cell",))
        assert report.mode == "quick"
        assert [m.key for m in report.measurements] == [
            "frontier_cell/libquantum", "frontier_cell/mcf"
        ]
        assert report.all_equivalent

    def test_the_frontier_cell_tier_reaches_the_batched_kernel(self, monkeypatch):
        """The routing rule keeps the pinned grid on its dense streams batched."""
        calls = set()
        kernel = timing._replay_slotted_batch

        def counting(miss_trace, controllers, *args):
            calls.add((miss_trace.source_name, len(controllers)))
            return kernel(miss_trace, controllers, *args)

        monkeypatch.setattr(timing, "_replay_slotted_batch", counting)
        report = run_perf_suite(quick=True, repeats=1, tiers=("frontier_cell",))
        assert report.all_equivalent
        assert calls == {("libquantum", 16), ("mcf", 16)}

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown perf tier"):
            run_perf_suite(quick=True, repeats=1, tiers=("warp",))

    def test_the_sweep_tier_is_retired(self):
        assert PERF_TIERS == (
            "functional", "timing", "oram", "frontier_cell", "tenancy_step"
        )
        with pytest.raises(ValueError, match="unknown perf tier"):
            run_perf_suite(quick=True, repeats=1, tiers=("sweep",))

    def test_cli_tier_choices_are_the_suite_tiers(self):
        parser = build_parser()
        args = parser.parse_args(["perf", "--tier", "oram", "--tier", "timing"])
        assert args.tier == ["oram", "timing"]
        with pytest.raises(SystemExit):
            parser.parse_args(["perf", "--tier", "sweep"])


class TestCommittedArtifact:
    """The committed BENCH_perf.json is what 'ships'."""

    @pytest.fixture(scope="class")
    def committed(self):
        payload = json.loads((REPO_ROOT / "benchmarks" / "BENCH_perf.json").read_text())
        return PerfReport.from_dict(payload)

    def test_is_a_full_mode_report_of_every_tier(self, committed):
        assert committed.mode == "full"
        assert committed.n_instructions == 1_000_000
        assert {m.tier for m in committed.measurements} == set(PERF_TIERS)
        assert committed.all_equivalent

    def test_ships_above_every_floor(self, committed):
        """Headline floors, and no functional kernel below its oracle."""
        floored = [m for m in committed.measurements if speedup_floor(m) > 0]
        assert {m.key for m in floored} >= {
            "functional/kernel_stream", "functional/mcf", "oram/oram_burst",
            "frontier_cell/libquantum", "tenancy_step/tenants_16",
        }
        for m in floored:
            assert m.speedup >= speedup_floor(m), f"{m.key} ships at {m.speedup:.2f}x"

    def test_is_refused_by_the_quick_mode_baseline(self, committed):
        baseline = load_baseline(REPO_ROOT / "benchmarks" / "baselines.json")
        (failure,) = check_against_baseline(committed, baseline)
        assert "full mode" in failure and "quick mode" in failure

    def test_records_the_checksummed_contracts(self, committed):
        by_key = {m.key: m for m in committed.measurements}
        assert len(by_key["functional/kernel_stream"].checksum) == 64
        assert len(by_key["oram/oram_burst"].checksum) == 64
