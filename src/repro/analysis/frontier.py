"""Pareto-frontier analysis over leakage–efficiency sweeps (Sections 9.5, 9.6).

The paper's headline result is not any single configuration but the
*trade-off curve*: how many ORAM-timing bits a configuration may leak
(``|E| * lg |R|``, :mod:`repro.core.leakage`) versus how much slowdown it
imposes over insecure DRAM.  This module turns a
:class:`~repro.api.records.ResultSet` produced by a design-space sweep
(:mod:`repro.frontier`) into exact Pareto sets:

* :func:`frontier_from_resultset` — per-benchmark and aggregate frontier
  points with dominated-configuration pruning;
* :func:`pareto_front` — the exact minimization frontier over
  ``(leakage_bits, slowdown)``; along the returned front leakage is
  strictly increasing and slowdown strictly decreasing (antitone), which
  is the property the acceptance tests assert;
* :func:`knee_point` — the configuration closest to the normalized utopia
  point, i.e. the "knee" where spending more bits stops buying speed;
* :class:`FrontierReport` — rendering plus lossless JSON and flat CSV
  export.

Definitional care (see docs/tradeoffs.md): the frontier is computed over
the *provable bound*, not the realized ``expended_leakage_bits`` — two
runs of different lengths expend different budgets, but the design-space
question ("which configuration do I ship?") is about the bound.  Records
with a non-finite bound (``base_dram``, ``base_oram``) are never frontier
candidates; they serve as the slowdown baseline and performance oracle.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from operator import le
from pathlib import Path
from statistics import mean
from typing import Iterable, Sequence

from repro.analysis.tables import Table, format_value
from repro.api.records import ResultSet, RunRecord
from repro.api.spec import split_benchmark
from repro.core.scheme import DynamicScheme, scheme_from_spec

#: Aggregate pseudo-benchmark label (mirrors the paper's "Avg" column).
AGGREGATE = "aggregate"

_SAVE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class FrontierPoint:
    """One scheme configuration placed in the leakage–slowdown plane.

    ``slowdown`` is the runtime multiplier over ``base_dram`` for one
    benchmark (seed-averaged), or the suite mean for the aggregate
    frontier.  ``leakage_bits`` is the scheme's provable ORAM-timing
    bound; the lattice coordinates (``n_rates``, ``growth``,
    ``learner``) are carried for dynamic schemes so exports stay
    self-describing.
    """

    benchmark: str
    scheme_spec: str
    scheme_name: str
    leakage_bits: float
    slowdown: float
    power_watts: float
    n_rates: int | None = None
    growth: int | None = None
    learner: str | None = None

    def dominates(
        self,
        other: "FrontierPoint",
        objectives: tuple[str, ...] = ("leakage_bits", "slowdown"),
    ) -> bool:
        """Weak Pareto dominance: no worse on every objective, better on one.

        All objectives are minimized — fewer leaked bits, less slowdown,
        fewer Watts are all better.  The default axes are the paper's
        headline trade-off; pass ``("leakage_bits", "slowdown",
        "power_watts")`` for the power-aware design-space view (the
        static strawmen stop dominating once their dummy-access power
        bill counts, Section 9.3).
        """
        mine = [getattr(self, obj) for obj in objectives]
        theirs = [getattr(other, obj) for obj in objectives]
        if any(m > t for m, t in zip(mine, theirs)):
            return False
        return any(m < t for m, t in zip(mine, theirs))

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        payload = asdict(self)
        if not math.isfinite(self.leakage_bits):
            payload["leakage_bits"] = repr(self.leakage_bits)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FrontierPoint":
        """Rebuild a point saved by :meth:`to_dict`."""
        data = dict(payload)
        data["leakage_bits"] = float(data["leakage_bits"])
        return cls(**data)


def pareto_front(points: Iterable[FrontierPoint]) -> tuple[FrontierPoint, ...]:
    """The exact Pareto set of ``points``, canonically ordered.

    Returned sorted by leakage ascending; along the front leakage is
    strictly increasing and slowdown strictly decreasing.  Exact ties on
    both axes keep the lexicographically smallest ``scheme_spec`` so the
    frontier is deterministic regardless of input order.
    """
    ordered = sorted(
        points, key=lambda p: (p.leakage_bits, p.slowdown, p.scheme_spec)
    )
    front: list[FrontierPoint] = []
    best_slowdown = math.inf
    for point in ordered:
        if not math.isfinite(point.leakage_bits):
            continue
        if point.slowdown < best_slowdown:
            # Equal-leakage points arrive slowdown-ascending, so only the
            # first of each leakage level can pass this test.
            front.append(point)
            best_slowdown = point.slowdown
    return tuple(front)


def dominated(points: Sequence[FrontierPoint]) -> tuple[FrontierPoint, ...]:
    """The pruned complement of :func:`pareto_front` (for reporting)."""
    front = set(id(p) for p in pareto_front(points))
    return tuple(p for p in points if id(p) not in front)


#: The power-aware design-space objectives (Section 9.3's full story).
POWER_AWARE_OBJECTIVES = ("leakage_bits", "slowdown", "power_watts")


def pareto_set(
    points: Iterable[FrontierPoint],
    objectives: tuple[str, ...] = POWER_AWARE_OBJECTIVES,
) -> tuple[FrontierPoint, ...]:
    """Non-dominated subset under an arbitrary objective tuple.

    The general N-objective form of :func:`pareto_front` (which is the
    fast exact special case for the two headline axes).  Points with a
    non-finite value on any objective are excluded, exact duplicates on
    all objectives keep only the lexicographically smallest
    ``scheme_spec``, and survivors come back in ``scheme_spec`` order.

    Candidates are visited in lexicographic objective order, so a
    point's dominators all come before it; since dominance is
    transitive, checking it against the survivors kept so far is as
    exact as checking it against every candidate.
    """
    candidates = []
    for point in sorted(points, key=lambda p: p.scheme_spec):
        key = tuple(getattr(point, obj) for obj in objectives)
        if all(math.isfinite(value) for value in key):
            candidates.append((key, len(candidates), point))
    kept: list[tuple] = []
    for key, rank, point in sorted(candidates, key=lambda c: c[:2]):
        # A survivor no worse on every objective dominates or duplicates it.
        if not any(all(map(le, seen, key)) for seen, _, _ in kept):
            kept.append((key, rank, point))
    return tuple(point for _, _, point in sorted(kept, key=lambda c: c[1]))


def knee_point(front: Sequence[FrontierPoint]) -> FrontierPoint:
    """The front point nearest the normalized utopia corner.

    Both axes are normalized to [0, 1] over the front's span, and the
    point minimizing the Euclidean distance to (0, 0) — least leakage,
    least slowdown — wins.  With a degenerate span (single point, or all
    points equal on an axis) the distance reduces to the other axis.
    """
    if not front:
        raise ValueError("knee_point needs a non-empty frontier")
    leak_lo = min(p.leakage_bits for p in front)
    leak_span = max(p.leakage_bits for p in front) - leak_lo
    slow_lo = min(p.slowdown for p in front)
    slow_span = max(p.slowdown for p in front) - slow_lo

    def distance(point: FrontierPoint) -> float:
        leak = (point.leakage_bits - leak_lo) / leak_span if leak_span else 0.0
        slow = (point.slowdown - slow_lo) / slow_span if slow_span else 0.0
        return math.hypot(leak, slow)

    return min(front, key=lambda p: (distance(p), p.scheme_spec))


@lru_cache(maxsize=4096)
def _lattice_coordinates(scheme_spec: str) -> tuple[int | None, int | None, str | None]:
    """(|R|, growth, learner) for dynamic schemes, Nones otherwise."""
    scheme = scheme_from_spec(scheme_spec)
    if isinstance(scheme, DynamicScheme):
        return len(scheme.rates), scheme.schedule.growth, scheme.learner_kind
    return None, None, None


def frontier_points(
    results: ResultSet,
    benchmark: str,
    schemes: Sequence[str] | None = None,
    baseline: str = "base_dram",
) -> tuple[FrontierPoint, ...]:
    """Place every candidate scheme of one benchmark in the plane.

    ``benchmark`` is one spec entry: ``"astar"`` places only the rows run
    on astar's default input, ``"astar/rivers"`` only those on rivers.
    ``slowdown`` averages over all seeds present for the (entry, scheme)
    pair, each seed normalized by its own baseline run.  A scheme matches
    a row's spec string or its name, as in :meth:`ResultSet.select`.
    Schemes without a finite leakage bound are skipped (they cannot sit
    on a leakage frontier); the baseline itself is never a candidate.
    """
    bench_name, input_name = split_benchmark(benchmark)
    # One pass over the records: this entry's rows by scheme (in record
    # order, keyed by spec and by name) and its baseline cycles by seed.
    by_scheme: dict[str, list[RunRecord]] = {}
    baseline_cycles: dict[int, list[float]] = {}
    all_specs: set[str] = set()
    for record in results:
        all_specs.add(record.scheme_spec)
        if record.benchmark != bench_name or record.input_name != input_name:
            continue
        by_scheme.setdefault(record.scheme_spec, []).append(record)
        if record.scheme_name != record.scheme_spec:
            by_scheme.setdefault(record.scheme_name, []).append(record)
        if baseline in (record.scheme_spec, record.scheme_name):
            baseline_cycles.setdefault(record.seed, []).append(record.cycles)

    def baseline_run(seed: int) -> float:
        matches = baseline_cycles.get(seed, [])
        if len(matches) != 1:
            raise KeyError(
                f"expected exactly one record for ({bench_name!r}, {baseline!r}, "
                f"seed={seed}), found {len(matches)}"
            )
        return matches[0]

    candidates = schemes
    if candidates is None:
        candidates = [s for s in all_specs if s != baseline]
    points = []
    for scheme_spec in sorted(candidates):
        rows = by_scheme.get(scheme_spec)
        if not rows or not math.isfinite(rows[0].oram_timing_leakage_bits):
            continue
        ratios = [row.cycles / baseline_run(row.seed) for row in rows]
        n_rates, growth, learner = _lattice_coordinates(scheme_spec)
        points.append(
            FrontierPoint(
                benchmark=benchmark,
                scheme_spec=scheme_spec,
                scheme_name=rows[0].scheme_name,
                leakage_bits=rows[0].oram_timing_leakage_bits,
                slowdown=mean(ratios),
                power_watts=mean(row.power_watts for row in rows),
                n_rates=n_rates,
                growth=growth,
                learner=learner,
            )
        )
    return tuple(points)


@dataclass
class BenchmarkFrontier:
    """One benchmark's candidate cloud and its Pareto subsets.

    ``front`` is the headline (leakage, slowdown) frontier;
    ``power_survivors`` is the 3-objective non-dominated set with
    ``power_watts`` added, which is where the dynamic family earns its
    keep against the fast static anchors.
    """

    benchmark: str
    points: tuple[FrontierPoint, ...]
    front: tuple[FrontierPoint, ...]
    power_survivors: tuple[FrontierPoint, ...] = ()

    @property
    def knee(self) -> FrontierPoint:
        """The knee configuration of this benchmark's front."""
        return knee_point(self.front)

    @property
    def n_dominated(self) -> int:
        """How many candidate configurations the 2-axis front prunes."""
        return len(self.points) - len(self.front)


@dataclass
class FrontierReport:
    """Per-benchmark and aggregate Pareto frontiers of one sweep.

    ``benchmarks`` maps benchmark entry -> :class:`BenchmarkFrontier`;
    ``aggregate`` uses suite-mean slowdowns (the paper's "Avg" view).
    ``meta`` carries sweep diagnostics (cache stats, backend) and is
    excluded from :meth:`save_json` like ResultSet's.
    """

    benchmarks: dict[str, BenchmarkFrontier]
    aggregate: BenchmarkFrontier
    meta: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def knees(self) -> dict[str, FrontierPoint]:
        """Knee configuration per benchmark plus the aggregate's.

        Benchmarks whose front is empty (no finite-leakage candidate ran
        there) are skipped rather than raised on, so a partial sweep
        still renders.
        """
        out = {
            name: bf.knee for name, bf in self.benchmarks.items() if bf.front
        }
        if self.aggregate.front:
            out[AGGREGATE] = self.aggregate.knee
        return out

    @property
    def n_configurations(self) -> int:
        """Candidate configurations considered (aggregate cloud size)."""
        return len(self.aggregate.points)

    # ------------------------------------------------------------------
    # Rendering and export
    # ------------------------------------------------------------------

    def render(self, per_benchmark: bool = False) -> str:
        """Aligned tables: the aggregate front, then per-benchmark knees."""
        sections = [self._render_front(self.aggregate, "Aggregate Pareto frontier")]
        if per_benchmark:
            for name, bf in self.benchmarks.items():
                sections.append(self._render_front(bf, f"Frontier: {name}"))
        knee_rows = [
            [
                name,
                point.scheme_spec,
                format_value(point.leakage_bits, 1),
                format_value(point.slowdown, 2),
                format_value(point.power_watts, 3),
            ]
            for name, point in self.knees().items()
        ]
        sections.append(
            Table(
                "Knee configurations (nearest normalized utopia)",
                ["bench", "scheme", "leak bits", "slowdown x", "power W"],
                knee_rows,
            ).render()
        )
        return "\n\n".join(sections)

    @staticmethod
    def _render_front(bf: BenchmarkFrontier, title: str) -> str:
        knee_spec = bf.knee.scheme_spec if bf.front else None
        rows = [
            [
                point.scheme_spec,
                format_value(point.leakage_bits, 1),
                format_value(point.slowdown, 2),
                format_value(point.power_watts, 3),
                "<-- knee" if point.scheme_spec == knee_spec else "",
            ]
            for point in bf.front
        ]
        subtitle = (
            f"{title}  ({len(bf.points)} candidates, "
            f"{bf.n_dominated} dominated, {len(bf.front)} on front, "
            f"{len(bf.power_survivors)} power-aware survivors)"
        )
        return Table(
            subtitle, ["scheme", "leak bits", "slowdown x", "power W", ""], rows
        ).render()

    def to_dict(self) -> dict:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""

        def frontier_payload(bf: BenchmarkFrontier) -> dict:
            return {
                "benchmark": bf.benchmark,
                "points": [p.to_dict() for p in bf.points],
                "front": [p.to_dict() for p in bf.front],
                "power_survivors": [p.to_dict() for p in bf.power_survivors],
                "knee": bf.knee.to_dict() if bf.front else None,
            }

        return {
            "format_version": _SAVE_FORMAT_VERSION,
            "benchmarks": {
                name: frontier_payload(bf) for name, bf in self.benchmarks.items()
            },
            "aggregate": frontier_payload(self.aggregate),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FrontierReport":
        """Rebuild a report saved by :meth:`to_dict` / :meth:`save_json`."""

        def frontier_from(payload: dict) -> BenchmarkFrontier:
            return BenchmarkFrontier(
                benchmark=payload["benchmark"],
                points=tuple(
                    FrontierPoint.from_dict(p) for p in payload["points"]
                ),
                front=tuple(FrontierPoint.from_dict(p) for p in payload["front"]),
                power_survivors=tuple(
                    FrontierPoint.from_dict(p)
                    for p in payload.get("power_survivors", ())
                ),
            )

        return cls(
            benchmarks={
                name: frontier_from(bf)
                for name, bf in payload["benchmarks"].items()
            },
            aggregate=frontier_from(payload["aggregate"]),
        )

    def save_json(self, path: str | Path) -> None:
        """Write the full report (points, fronts, knees) as strict JSON."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=1, sort_keys=True, allow_nan=False)
        )

    @classmethod
    def load_json(cls, path: str | Path) -> "FrontierReport":
        """Rebuild a report saved by :meth:`save_json`."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    def save_csv(self, path: str | Path) -> None:
        """Flat CSV: one row per (benchmark, configuration) with flags."""
        columns = [
            "benchmark", "scheme_spec", "scheme_name", "leakage_bits",
            "slowdown", "power_watts", "n_rates", "growth", "learner",
            "on_front", "knee",
        ]
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=columns)
            writer.writeheader()
            frontiers = dict(self.benchmarks)
            frontiers[AGGREGATE] = self.aggregate
            for bf in frontiers.values():
                on_front = {p.scheme_spec for p in bf.front}
                knee_spec = bf.knee.scheme_spec if bf.front else None
                for point in bf.points:
                    row = point.to_dict()
                    row["on_front"] = point.scheme_spec in on_front
                    row["knee"] = point.scheme_spec == knee_spec
                    writer.writerow(row)


def frontier_from_resultset(
    results: ResultSet,
    benchmarks: Sequence[str] | None = None,
    schemes: Sequence[str] | None = None,
    baseline: str = "base_dram",
) -> FrontierReport:
    """Compute per-benchmark and aggregate frontiers from sweep records.

    ``benchmarks`` defaults to the ResultSet's spec axis (or every
    benchmark present).  The aggregate frontier positions each scheme at
    its mean slowdown across benchmarks — matching
    :meth:`ResultSet.mean_overhead` — so a scheme must be good *on
    average* to survive aggregate pruning, while per-benchmark fronts
    expose workload-specific knees (the paper's per-benchmark learned
    rates, Section 9.4).
    """
    if benchmarks is None:
        if results.spec is not None:
            benchmarks = list(results.spec.benchmarks)
        else:
            seen: dict[str, None] = {}
            for record in results:
                entry = (
                    record.benchmark
                    if record.input_name is None
                    else f"{record.benchmark}/{record.input_name}"
                )
                seen.setdefault(entry)
            benchmarks = list(seen)
    per_benchmark: dict[str, BenchmarkFrontier] = {}
    for entry in benchmarks:
        points = frontier_points(results, entry, schemes=schemes, baseline=baseline)
        per_benchmark[entry] = BenchmarkFrontier(
            benchmark=entry,
            points=points,
            front=pareto_front(points),
            power_survivors=pareto_set(points),
        )

    by_scheme: dict[str, list[FrontierPoint]] = {}
    for bf in per_benchmark.values():
        for point in bf.points:
            by_scheme.setdefault(point.scheme_spec, []).append(point)
    aggregate_points = tuple(
        FrontierPoint(
            benchmark=AGGREGATE,
            scheme_spec=spec,
            scheme_name=points[0].scheme_name,
            leakage_bits=points[0].leakage_bits,
            slowdown=mean(p.slowdown for p in points),
            power_watts=mean(p.power_watts for p in points),
            n_rates=points[0].n_rates,
            growth=points[0].growth,
            learner=points[0].learner,
        )
        for spec, points in sorted(by_scheme.items())
        if len(points) == len(per_benchmark)  # only schemes run on every benchmark
    )
    aggregate = BenchmarkFrontier(
        benchmark=AGGREGATE,
        points=aggregate_points,
        front=pareto_front(aggregate_points),
        power_survivors=pareto_set(aggregate_points),
    )
    return FrontierReport(benchmarks=per_benchmark, aggregate=aggregate)
