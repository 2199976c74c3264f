"""Tests for perf report serialization and the baseline gate.

The gate tests run over the committed baseline's own (tier, workload)
pairs: a report that measures exactly the pinned numbers passes, and each
pair in turn is slowed, broken or pushed below its floor.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.perf.bench import (
    FRONTIER_CELL_WORKLOADS,
    ORAM_WORKLOAD,
    PERF_SCHEMES,
    PERF_TIERS,
    PERF_WORKLOADS,
    TENANCY_TENANTS,
    TIMING_WORKLOADS,
    Measurement,
    PerfReport,
    bench_functional,
    bench_oram,
    bench_timing,
    build_oram_trace,
    build_perf_trace,
)
from repro.perf.report import (
    FUNCTIONAL_SHIP_FLOOR,
    SPEEDUP_FLOORS,
    TOLERANCE,
    check_against_baseline,
    load_baseline,
    report_to_baseline,
    save_report,
    speedup_floor,
    write_baseline,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE = load_baseline(REPO_ROOT / "benchmarks" / "baselines.json")
PINNED = BASELINE["pinned"]
PINNED_KEYS = sorted(PINNED)


def _at(key: str, per_s: float, speedup: float, equivalent: bool = True) -> Measurement:
    """A measurement of ``key`` at exactly this throughput and speedup."""
    tier, workload = key.split("/", 1)
    return Measurement(
        tier=tier, workload=workload, unit="units", n=per_s,
        reference_s=speedup, fast_s=1.0, equivalent=equivalent,
    )


def _pinned(key: str, **overrides) -> Measurement:
    """``key`` at its pinned throughput and speedup, unless overridden."""
    values = {"per_s": PINNED[key]["per_s"], "speedup": PINNED[key]["speedup"]}
    values.update(overrides)
    return _at(key, **values)


def _report(*replacements: Measurement, mode: str = "quick", tiers=PERF_TIERS) -> PerfReport:
    """Every pinned pair of ``tiers`` at its pinned numbers, with each
    replacement standing in for the pinned measurement of its key."""
    by_key = {m.key: m for m in replacements}
    return PerfReport(
        mode=mode, n_instructions=300_000, repeats=3,
        measurements=[
            by_key.get(key, _pinned(key))
            for key in PINNED_KEYS
            if key.split("/", 1)[0] in tiers
        ],
    )


def _label(key: str) -> str:
    tier, workload = key.split("/", 1)
    return f"{tier}[{workload}]"


#: Every pinned pair with a speedup floor: the headline floors plus the
#: ship floor on each functional workload.
FLOORED_KEYS = [key for key in PINNED_KEYS if speedup_floor(_pinned(key)) > 0]


class TestGateOverPinnedPairs:
    def test_pinned_numbers_pass(self):
        assert check_against_baseline(_report(), BASELINE) == []

    @pytest.mark.parametrize("key", PINNED_KEYS)
    def test_one_and_a_half_times_slower_fails(self, key):
        slow = _pinned(key, per_s=PINNED[key]["per_s"] / 1.5)
        failures = check_against_baseline(_report(slow), BASELINE)
        assert len(failures) == 1
        assert failures[0].startswith(_label(key))
        assert f"more than {TOLERANCE:.0%} below baseline" in failures[0]

    @pytest.mark.parametrize("key", PINNED_KEYS)
    def test_a_quarter_slower_passes(self, key):
        dropped = _pinned(key, per_s=PINNED[key]["per_s"] * 0.75)
        assert check_against_baseline(_report(dropped), BASELINE) == []

    @pytest.mark.parametrize("key", PINNED_KEYS)
    def test_equivalence_mismatch_fails(self, key):
        broken = _pinned(key, equivalent=False)
        failures = check_against_baseline(_report(broken), BASELINE)
        assert len(failures) == 1
        assert failures[0].startswith(_label(key))
        assert "correctness bug" in failures[0]

    @pytest.mark.parametrize("key", FLOORED_KEYS)
    def test_just_below_floor_fails(self, key):
        floor = speedup_floor(_pinned(key))
        failures = check_against_baseline(
            _report(_pinned(key, speedup=floor * 0.99)), BASELINE
        )
        assert len(failures) == 1
        assert failures[0].startswith(_label(key))
        assert f"{floor:.1f}x floor" in failures[0]

    @pytest.mark.parametrize("key", FLOORED_KEYS)
    def test_at_floor_passes(self, key):
        floor = speedup_floor(_pinned(key))
        at_floor = _pinned(key, speedup=floor)
        assert check_against_baseline(_report(at_floor), BASELINE) == []

    @pytest.mark.parametrize("tier", PERF_TIERS)
    def test_tier_restricted_report_passes(self, tier):
        """A ``--tier`` report isn't failed for the tiers it did not run."""
        restricted = _report(tiers=(tier,))
        assert {m.tier for m in restricted.measurements} == {tier}
        assert check_against_baseline(restricted, BASELINE) == []

    @pytest.mark.parametrize("key", sorted(SPEEDUP_FLOORS))
    def test_missing_headline_fails(self, key):
        """The tier ran, but its headline workload is absent."""
        report = _report()
        headline = next(m for m in report.measurements if m.key == key)
        report.measurements.remove(headline)
        report.measurements.append(_at(f"{key}_other", 1.0, 50.0))
        failures = check_against_baseline(report, BASELINE)
        assert failures == [f"{_label(key)}: headline workload not measured"]


class TestGateRules:
    def test_floors_are_the_headline_and_ship_floors(self):
        assert SPEEDUP_FLOORS == {
            "functional/kernel_stream": 5.0,
            "oram/oram_burst": 10.0,
            "frontier_cell/libquantum": 5.0,
            "tenancy_step/tenants_16": 3.0,
        }
        assert FUNCTIONAL_SHIP_FLOOR == 1.0
        assert TOLERANCE == 0.30
        assert speedup_floor(_at("functional/mcf", 1.0, 2.0)) == 1.0
        assert speedup_floor(_at("timing/mcf/base_dram", 1.0, 2.0)) == 0.0

    def test_unknown_measurements_are_ignored(self):
        extra = _at("functional/new_workload", 1.0, 2.0)
        report = _report()
        report.measurements.append(extra)
        assert check_against_baseline(report, BASELINE) == []

    def test_unknown_functional_workload_keeps_ship_floor(self):
        report = _report()
        report.measurements.append(_at("functional/new_workload", 1.0, 0.85))
        failures = check_against_baseline(report, BASELINE)
        assert failures == [
            "functional[new_workload]: speedup 0.85x is below its 1.0x floor"
        ]

    def test_cross_mode_comparison_is_one_failure_naming_both_modes(self):
        failures = check_against_baseline(_report(mode="full"), BASELINE)
        assert len(failures) == 1
        assert "full mode" in failures[0] and "quick mode" in failures[0]

    def test_cross_mode_skips_throughput_but_keeps_equivalence(self):
        slow_and_broken = [
            _pinned(PINNED_KEYS[0], per_s=1.0),
            _pinned(PINNED_KEYS[1], equivalent=False),
        ]
        failures = check_against_baseline(
            _report(*slow_and_broken, mode="full"), BASELINE
        )
        assert len(failures) == 2
        assert "correctness bug" in failures[0]
        assert failures[1].startswith("mode:")

    def test_baseline_without_mode_is_refused(self):
        legacy = {"tolerance": 0.3, "functional": {}}
        failures = check_against_baseline(_report(), legacy)
        assert len(failures) == 1 and "None mode" in failures[0]


class TestSerialization:
    def test_report_round_trip(self, tmp_path):
        report = _report()
        path = tmp_path / "BENCH_perf.json"
        save_report(report, path)
        payload = json.loads(path.read_text())
        assert payload["version"] == 5
        assert payload["mode"] == "quick"
        assert PerfReport.from_dict(payload) == report

    def test_baseline_round_trip(self, tmp_path):
        report = _report(_pinned("functional/kernel_stream", per_s=1_000_000.4))
        path = tmp_path / "baselines.json"
        write_baseline(report, path)
        baseline = load_baseline(path)
        assert set(baseline) == {"mode", "pinned"}
        assert baseline["mode"] == "quick"
        assert baseline["pinned"]["functional/kernel_stream"] == {
            "per_s": 1_000_000, "speedup": PINNED["functional/kernel_stream"]["speedup"]
        }
        assert check_against_baseline(report, baseline) == []

    def test_baseline_records_the_report_mode(self):
        assert report_to_baseline(_report(mode="full"))["mode"] == "full"

    def test_render_lists_every_measurement_once(self):
        report = _report(_pinned("oram/oram_burst", equivalent=False))
        text = report.render()
        assert text.count("[ok]") == len(PINNED_KEYS) - 1
        assert text.count("[MISMATCH]") == 1
        for tier in PERF_TIERS:
            assert f"\n{tier} (units/sec" in text


class TestRealBenches:
    """Tiny real measurements: the equivalence flags must come back true."""

    def test_functional_bench_is_equivalent(self):
        bench = bench_functional("kernel_stream", 30_000, repeats=1)
        assert bench.equivalent
        assert bench.key == "functional/kernel_stream"
        assert bench.unit == "refs" and bench.n > 0
        assert len(bench.checksum) == 64

    def test_timing_bench_is_equivalent(self):
        warmup = int(30_000 * 0.30)
        from repro.cache.hierarchy import simulate_hierarchy

        miss_trace = simulate_hierarchy(
            build_perf_trace("libquantum", 30_000 + warmup), warmup_instructions=warmup
        )
        bench = bench_timing("libquantum", miss_trace, "dynamic:4x4", repeats=1)
        assert bench.equivalent
        assert bench.key == "timing/libquantum/dynamic:4x4"
        assert bench.n == miss_trace.n_requests > 0

    def test_kernel_stream_trace_is_l1_resident(self):
        trace = build_perf_trace("kernel_stream", 50_000)
        assert trace.name == "kernel_stream"
        # 16 KB region / 64 B lines = 256 distinct lines.
        lines = np.unique(np.asarray(trace.addresses) // 64)
        assert len(lines) <= 256

    def test_unknown_workload_falls_through_to_registry(self):
        with pytest.raises(ValueError, match="unknown workload"):
            build_perf_trace("not_a_workload", 10_000)

    def test_oram_bench_is_equivalent_and_fast(self):
        bench = bench_oram(n_accesses=300, repeats=1)
        assert bench.equivalent
        assert bench.speedup > 1.0  # full 10x is asserted at bench scale in CI
        assert bench.n == 300 and bench.key == "oram/oram_burst"
        assert len(bench.checksum) == 64

    def test_oram_trace_mix(self):
        addresses, is_write = build_oram_trace(10_000)
        dummy_fraction = float(np.mean(addresses == -1))
        assert 0.05 < dummy_fraction < 0.15
        assert 0.25 < float(np.mean(is_write)) < 0.40


class TestCommittedBaseline:
    """The repository's committed perf artifacts stay loadable and sane."""

    def test_holds_only_the_mode_and_pinned_numbers(self):
        assert set(BASELINE) == {"mode", "pinned"}
        assert BASELINE["mode"] == "quick"

    def test_pins_every_pair_the_suite_measures(self):
        expected = (
            {f"functional/{w}" for w in PERF_WORKLOADS}
            | {f"timing/{w}/{s}" for w in TIMING_WORKLOADS for s in PERF_SCHEMES}
            | {f"oram/{ORAM_WORKLOAD}"}
            | {f"frontier_cell/{w}" for w in FRONTIER_CELL_WORKLOADS}
            | {f"tenancy_step/tenants_{TENANCY_TENANTS}"}
        )
        assert set(PINNED) == expected
        assert set(SPEEDUP_FLOORS) <= expected
