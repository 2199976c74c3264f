"""Pareto correctness for the frontier analysis.

The load-bearing properties, checked with hypothesis over random point
clouds:

* no returned frontier point is dominated by any candidate;
* every pruned candidate is dominated by some frontier point;
* leakage and slowdown are antitone along the front (leak strictly
  increasing, slowdown strictly decreasing);
* the frontier is invariant to input order;
* the N-objective ``pareto_set`` agrees with the 2-axis sweep when given
  the same two objectives, and with the quadratic scan it replaced
  (:func:`reference_pareto_set`) on 2 and 3 objectives;
* a whole report agrees with one built from ``ResultSet.select``/``get``
  queries, each benchmark entry matched on its exact input;
* its means (:func:`exact_mean`) are :func:`statistics.mean`'s, to the bit.
"""

import json
import math
import random
from statistics import StatisticsError, mean

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.frontier import (
    AGGREGATE,
    POWER_AWARE_OBJECTIVES,
    BenchmarkFrontier,
    FrontierPoint,
    FrontierReport,
    exact_mean,
    frontier_from_resultset,
    knee_point,
    pareto_front,
    pareto_set,
)
from repro.api.engine import Engine
from repro.api.records import ResultSet, RunRecord
from repro.api.spec import ExperimentSpec, split_benchmark
from repro.core.scheme import DynamicScheme, scheme_from_spec


def make_point(spec="dynamic:4x4", leak=32.0, slow=5.0, power=0.5, bench="mcf"):
    return FrontierPoint(
        benchmark=bench,
        scheme_spec=spec,
        scheme_name=spec.replace(":", "_"),
        leakage_bits=leak,
        slowdown=slow,
        power_watts=power,
    )


finite = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)

point_clouds = st.lists(
    st.tuples(finite, finite, finite), min_size=1, max_size=40
).map(
    lambda rows: [
        make_point(spec=f"static:{i + 1}", leak=leak, slow=slow, power=power)
        for i, (leak, slow, power) in enumerate(rows)
    ]
)


class TestParetoFrontProperties:
    @settings(max_examples=100, deadline=None)
    @given(points=point_clouds)
    def test_no_front_point_is_dominated(self, points):
        front = pareto_front(points)
        for member in front:
            assert not any(other.dominates(member) for other in points)

    @settings(max_examples=100, deadline=None)
    @given(points=point_clouds)
    def test_every_pruned_point_is_dominated_or_duplicate(self, points):
        front = pareto_front(points)
        keys = {(p.leakage_bits, p.slowdown) for p in front}
        for point in points:
            if (point.leakage_bits, point.slowdown) in keys:
                continue
            assert any(member.dominates(point) for member in front)

    @settings(max_examples=100, deadline=None)
    @given(points=point_clouds)
    def test_front_is_antitone(self, points):
        front = pareto_front(points)
        for left, right in zip(front, front[1:]):
            assert left.leakage_bits < right.leakage_bits
            assert left.slowdown > right.slowdown

    @settings(max_examples=100, deadline=None)
    @given(points=point_clouds, seed=st.randoms())
    def test_front_invariant_to_input_order(self, points, seed):
        shuffled = list(points)
        seed.shuffle(shuffled)
        assert pareto_front(shuffled) == pareto_front(points)

    @settings(max_examples=100, deadline=None)
    @given(points=point_clouds)
    def test_two_axis_pareto_set_matches_front(self, points):
        front = pareto_front(points)
        survivors = pareto_set(points, objectives=("leakage_bits", "slowdown"))
        assert sorted(p.scheme_spec for p in front) == sorted(
            p.scheme_spec for p in survivors
        )

    def test_infinite_leakage_never_on_front(self):
        points = [
            make_point(spec="base_oram", leak=math.inf, slow=1.0),
            make_point(spec="static:300", leak=0.0, slow=5.0),
        ]
        front = pareto_front(points)
        assert [p.scheme_spec for p in front] == ["static:300"]

    def test_exact_ties_keep_lexicographically_smallest(self):
        points = [
            make_point(spec="dynamic:4x4", leak=32.0, slow=5.0),
            make_point(spec="dynamic:2x2", leak=32.0, slow=5.0),
        ]
        assert [p.scheme_spec for p in pareto_front(points)] == ["dynamic:2x2"]


class TestPowerAwareParetoSet:
    @settings(max_examples=100, deadline=None)
    @given(points=point_clouds)
    def test_no_survivor_dominated_in_three_objectives(self, points):
        survivors = pareto_set(points)
        objectives = ("leakage_bits", "slowdown", "power_watts")
        for member in survivors:
            assert not any(other.dominates(member, objectives) for other in points)

    @settings(max_examples=100, deadline=None)
    @given(points=point_clouds)
    def test_front_members_survive_power_awareness(self, points):
        """Adding an objective can only grow the non-dominated set."""
        front_keys = {(p.leakage_bits, p.slowdown) for p in pareto_front(points)}
        survivor_keys = {
            (p.leakage_bits, p.slowdown) for p in pareto_set(points)
        }
        assert front_keys <= survivor_keys


class TestKneePoint:
    def test_empty_front_raises(self):
        with pytest.raises(ValueError):
            knee_point(())

    def test_single_point_is_its_own_knee(self):
        point = make_point()
        assert knee_point((point,)) is point

    def test_knee_prefers_balanced_configuration(self):
        front = (
            make_point(spec="static:300", leak=0.0, slow=10.0),
            make_point(spec="dynamic:4x8", leak=16.0, slow=2.0),
            make_point(spec="dynamic:4x2", leak=64.0, slow=1.9),
        )
        assert knee_point(front).scheme_spec == "dynamic:4x8"


def build_sweep_records() -> ResultSet:
    """A hand-built 2-benchmark sweep with a known frontier."""
    rows = []
    # (scheme, mcf cycles, h264 cycles, power)
    table = [
        ("base_dram", 100.0, 100.0, 0.1),
        ("base_oram", 400.0, 150.0, 0.4),   # inf leakage: never a candidate
        ("static:300", 500.0, 200.0, 0.6),
        ("dynamic:4x4", 450.0, 260.0, 0.5),
        ("dynamic:2x8", 480.0, 190.0, 0.45),
    ]
    for bench, cycles_index in (("mcf", 1), ("h264ref", 2)):
        for entry in table:
            scheme = scheme_from_spec(entry[0])
            leakage = scheme.leakage()
            rows.append(
                RunRecord(
                    benchmark=bench,
                    input_name=None,
                    label=f"{bench}/default",
                    scheme_spec=entry[0],
                    scheme_name=scheme.name,
                    seed=0,
                    n_instructions=1000,
                    cycles=entry[cycles_index],
                    ipc=1000 / entry[cycles_index],
                    power_watts=entry[3],
                    memory_power_watts=entry[3] / 2,
                    real_accesses=10,
                    dummy_accesses=5,
                    dummy_fraction=1 / 3,
                    oram_timing_leakage_bits=leakage.oram_timing_bits,
                    termination_leakage_bits=leakage.termination_bits,
                )
            )
    return ResultSet(records=tuple(rows))


class TestFrontierFromResultset:
    def test_per_benchmark_and_aggregate_structure(self):
        report = frontier_from_resultset(build_sweep_records())
        assert set(report.benchmarks) == {"mcf", "h264ref"}
        assert report.aggregate.benchmark == AGGREGATE
        # base_dram (baseline) and base_oram (inf leakage) are not candidates.
        candidate_specs = {p.scheme_spec for p in report.aggregate.points}
        assert candidate_specs == {"static:300", "dynamic:4x4", "dynamic:2x8"}

    def test_slowdowns_are_normalized_by_baseline(self):
        report = frontier_from_resultset(build_sweep_records())
        mcf = {p.scheme_spec: p for p in report.benchmarks["mcf"].points}
        assert mcf["static:300"].slowdown == pytest.approx(5.0)
        assert mcf["dynamic:4x4"].slowdown == pytest.approx(4.5)

    def test_known_frontier(self):
        report = frontier_from_resultset(build_sweep_records())
        mcf_front = [p.scheme_spec for p in report.benchmarks["mcf"].front]
        # static:300 (0 bits, 5.0x) then dynamic:4x4 (32 bits, 4.5x);
        # dynamic:2x8 (11 bits, 4.8x) is on the front between them.
        assert mcf_front == ["static:300", "dynamic:2x8", "dynamic:4x4"]
        h264_front = [p.scheme_spec for p in report.benchmarks["h264ref"].front]
        assert h264_front == ["static:300", "dynamic:2x8"]

    def test_lattice_coordinates_attached_to_dynamic_points(self):
        report = frontier_from_resultset(build_sweep_records())
        points = {p.scheme_spec: p for p in report.aggregate.points}
        assert points["dynamic:4x4"].n_rates == 4
        assert points["dynamic:4x4"].growth == 4
        assert points["dynamic:4x4"].learner == "averaging"
        assert points["static:300"].n_rates is None

    def test_render_mentions_knee_and_counts(self):
        text = frontier_from_resultset(build_sweep_records()).render(
            per_benchmark=True
        )
        assert "knee" in text
        assert "Aggregate Pareto frontier" in text
        assert "Frontier: mcf" in text

    def test_json_round_trip(self, tmp_path):
        report = frontier_from_resultset(build_sweep_records())
        path = tmp_path / "frontier.json"
        report.save_json(path)
        # Strict RFC-8259: must parse with a vanilla JSON parser.
        json.loads(path.read_text())
        reloaded = FrontierReport.load_json(path)
        assert reloaded.to_dict() == report.to_dict()

    def test_csv_export(self, tmp_path):
        import csv

        report = frontier_from_resultset(build_sweep_records())
        path = tmp_path / "frontier.csv"
        report.save_csv(path)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        # 3 candidates x (2 benchmarks + aggregate)
        assert len(rows) == 9
        front_rows = [r for r in rows if r["benchmark"] == "mcf" and r["on_front"] == "True"]
        assert {r["scheme_spec"] for r in front_rows} == {
            "static:300", "dynamic:2x8", "dynamic:4x4"
        }
        assert sum(r["knee"] == "True" for r in rows if r["benchmark"] == "mcf") == 1


def reference_pareto_set(points, objectives=POWER_AWARE_OBJECTIVES):
    """The quadratic scan ``pareto_set`` replaced: every candidate is
    checked against every other candidate."""
    candidates = [
        p
        for p in sorted(points, key=lambda p: p.scheme_spec)
        if all(math.isfinite(getattr(p, obj)) for obj in objectives)
    ]
    survivors = []
    seen_keys = set()
    for point in candidates:
        key = tuple(getattr(point, obj) for obj in objectives)
        if key in seen_keys:
            continue
        if not any(other.dominates(point, objectives) for other in candidates):
            survivors.append(point)
            seen_keys.add(key)
    return tuple(survivors)


# A small integer grid makes exact ties, duplicates and repeated scheme
# specs common; inf exercises the finiteness filter.
grid_value = st.one_of(st.integers(0, 3).map(float), st.just(math.inf))
grid_clouds = st.lists(
    st.tuples(
        st.sampled_from(["static:1", "static:2", "dynamic:2x2", "dynamic:4x4"]),
        grid_value, grid_value, grid_value,
    ),
    max_size=40,
).map(
    lambda rows: [
        make_point(spec=spec, leak=leak, slow=slow, power=power)
        for spec, leak, slow, power in rows
    ]
)


class TestParetoSetOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        points=grid_clouds,
        objectives=st.sampled_from([
            ("leakage_bits", "slowdown"),
            ("slowdown", "power_watts"),
            POWER_AWARE_OBJECTIVES,
        ]),
    )
    def test_matches_the_quadratic_scan(self, points, objectives):
        fast = pareto_set(points, objectives)
        reference = reference_pareto_set(points, objectives)
        # Identity, not equality: ties must keep the very same point.
        assert [id(p) for p in fast] == [id(p) for p in reference]


def reference_report(results: ResultSet, baseline: str = "base_dram") -> FrontierReport:
    """A report built from ``ResultSet.select``/``get`` queries, matching
    each entry's exact input (``input_name=None`` for a bare entry)."""
    entries = list(dict.fromkeys(
        r.benchmark if r.input_name is None else f"{r.benchmark}/{r.input_name}"
        for r in results
    ))
    candidates = sorted({r.scheme_spec for r in results} - {baseline})
    per_benchmark = {}
    for entry in entries:
        name, input_name = split_benchmark(entry)
        points = []
        for spec in candidates:
            rows = results.select(benchmark=name, scheme=spec, input_name=input_name)
            if not rows or not math.isfinite(rows[0].oram_timing_leakage_bits):
                continue
            scheme = scheme_from_spec(spec)
            dynamic = isinstance(scheme, DynamicScheme)
            points.append(FrontierPoint(
                benchmark=entry,
                scheme_spec=spec,
                scheme_name=rows[0].scheme_name,
                leakage_bits=rows[0].oram_timing_leakage_bits,
                slowdown=mean(
                    row.cycles
                    / results.get(name, baseline, row.seed, input_name=input_name).cycles
                    for row in rows
                ),
                power_watts=mean(row.power_watts for row in rows),
                n_rates=len(scheme.rates) if dynamic else None,
                growth=scheme.schedule.growth if dynamic else None,
                learner=scheme.learner_kind if dynamic else None,
            ))
        per_benchmark[entry] = BenchmarkFrontier(
            entry, tuple(points), pareto_front(points), reference_pareto_set(points)
        )
    aggregate_points = []
    for spec in candidates:
        placed = [
            p for bf in per_benchmark.values() for p in bf.points if p.scheme_spec == spec
        ]
        if len(placed) != len(per_benchmark):
            continue
        aggregate_points.append(FrontierPoint(
            benchmark=AGGREGATE,
            scheme_spec=spec,
            scheme_name=placed[0].scheme_name,
            leakage_bits=placed[0].leakage_bits,
            slowdown=mean(p.slowdown for p in placed),
            power_watts=mean(p.power_watts for p in placed),
            n_rates=placed[0].n_rates,
            growth=placed[0].growth,
            learner=placed[0].learner,
        ))
    aggregate = BenchmarkFrontier(
        AGGREGATE, tuple(aggregate_points), pareto_front(aggregate_points),
        reference_pareto_set(aggregate_points),
    )
    return FrontierReport(benchmarks=per_benchmark, aggregate=aggregate)


SYNTHETIC_SCHEMES = (
    "base_dram", "base_oram", "static:300", "static:1300",
    "dynamic:4x4", "dynamic:4x4:threshold", "dynamic:2x8", "dynamic:6x2",
)


def synthetic_records(rng: random.Random) -> ResultSet:
    """Three seeds over one workload's bare entry and two named inputs
    plus a second workload; a bare entry's rows must never mix with its
    named inputs'.  Cycles come from a small grid, so slowdowns tie."""
    rows = []
    for bench, input_name in (("astar", None), ("astar", "rivers"),
                              ("astar", "biglakes"), ("mcf", None)):
        for seed in (0, 1, 2):
            base = float(rng.choice((1000, 2000, 4000)))
            for spec in SYNTHETIC_SCHEMES:
                scheme = scheme_from_spec(spec)
                leakage = scheme.leakage()
                factor = 1.0 if spec == "base_dram" else rng.choice((2.0, 3.5, 5.0, 8.0))
                power = rng.choice((0.25, 0.5, 0.75))
                rows.append(RunRecord(
                    benchmark=bench, input_name=input_name,
                    label=f"{bench}/{input_name or 'default'}",
                    scheme_spec=spec, scheme_name=scheme.name, seed=seed,
                    n_instructions=1000, cycles=base * factor,
                    ipc=1000 / (base * factor), power_watts=power,
                    memory_power_watts=power / 2, real_accesses=10,
                    dummy_accesses=5, dummy_fraction=1 / 3,
                    oram_timing_leakage_bits=leakage.oram_timing_bits,
                    termination_leakage_bits=leakage.termination_bits,
                ))
    return ResultSet(records=tuple(rows))


class TestReportMatchesSelectQueries:
    @pytest.mark.parametrize("seed", range(8))
    def test_report_matches_reference(self, seed):
        results = synthetic_records(random.Random(seed))
        report = frontier_from_resultset(results)
        assert list(report.benchmarks) == ["astar", "astar/biglakes", "astar/rivers", "mcf"]
        assert report.to_dict() == reference_report(results).to_dict()


class TestBareEntryUsesItsOwnRows:
    """A bare entry (``astar``) must not average in the rows of the same
    workload's named inputs (``astar/biglakes``)."""

    def test_bare_and_named_inputs_stay_apart(self):
        spec = ExperimentSpec(
            benchmarks=("astar", "astar/biglakes"),
            schemes=("base_dram", "static:300", "dynamic:4x4"),
            seeds=(0,),
            n_instructions=20_000,
        )
        results = Engine().run(spec)
        report = frontier_from_resultset(results)
        for entry, input_name in (("astar", None), ("astar/biglakes", "biglakes")):
            points = {p.scheme_spec: p for p in report.benchmarks[entry].points}
            for scheme in ("static:300", "dynamic:4x4"):
                own = (
                    results.get("astar", scheme, 0, input_name=input_name).cycles
                    / results.get("astar", "base_dram", 0, input_name=input_name).cycles
                )
                assert points[scheme].slowdown == own, (entry, scheme)
        bare = {p.scheme_spec: p.slowdown for p in report.benchmarks["astar"].points}
        named = {
            p.scheme_spec: p.slowdown for p in report.benchmarks["astar/biglakes"].points
        }
        assert bare["dynamic:4x4"] != named["dynamic:4x4"]


def _same_float(got, want) -> bool:
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


#: Finite floats of every magnitude: subnormals, huge exponents, both signs.
_ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SUBNORMAL = st.integers(-(2**52) + 1, 2**52 - 1).map(lambda m: math.ldexp(m, -1074))
_HUGE = st.floats(1e300, 1.7976931348623157e308).flatmap(
    lambda v: st.sampled_from([v, -v])
)


class TestExactMean:
    """``exact_mean`` is ``statistics.mean``, correctly rounded, to the bit."""

    @given(st.lists(st.one_of(_ANY_FINITE, _SUBNORMAL, _HUGE), min_size=1, max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_matches_statistics_mean(self, values):
        assert _same_float(exact_mean(values), mean(values))

    @given(
        st.lists(_SUBNORMAL, min_size=1, max_size=8),
        st.lists(_HUGE, min_size=1, max_size=8),
        st.lists(st.floats(0.5, 50.0), min_size=1, max_size=8),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_mixed_magnitudes(self, tiny, huge, ordinary, rng):
        values = tiny + huge + ordinary
        rng.shuffle(values)
        assert _same_float(exact_mean(values), mean(values))
        assert _same_float(exact_mean(tiny + ordinary), mean(tiny + ordinary))

    def test_generator_input(self):
        values = [1.0, 2.0, 4.0]
        assert exact_mean(v for v in values) == mean(values)

    def test_falls_back_outside_finite_floats(self):
        assert exact_mean([1, 2]) == mean([1, 2]) == 1.5
        assert math.isinf(exact_mean([1.0, math.inf]))
        assert math.isnan(exact_mean([1.0, math.nan]))
        with pytest.raises(StatisticsError):
            exact_mean([])
