"""Uniform result containers for the declarative experiment API.

A :class:`RunRecord` is the flattened outcome of one spec cell — every
scalar the evaluation reports (cycles, IPC, power, dummy fraction,
leakage bound) plus optional windowed series when the spec asked for
them.  A :class:`ResultSet` is an ordered collection of records with the
query, tabulation, and (de)serialization helpers that used to be
re-implemented by every per-figure result class.

Records hold only JSON-native types (no numpy arrays), so a ResultSet
round-trips losslessly through :meth:`ResultSet.save` /
:meth:`ResultSet.load` and two runs of the same spec — on any backend —
serialize to identical bytes once rows are sorted.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from statistics import mean
from typing import Iterator

from repro.api.spec import ExperimentSpec

#: Sentinel distinguishing "no filter" from "filter on None".
_ANY = object()

_SAVE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class RunRecord:
    """Flattened outcome of one (benchmark, scheme, seed) cell.

    ``label`` is the simulator's ``"name/input"`` tag; ``input_name`` is
    the spec's requested input (``None`` means the workload default).
    Two leakage views are carried (docs/tradeoffs.md defines both):
    ``oram_timing_leakage_bits`` / ``termination_leakage_bits`` are the
    scheme's provable *bound* (program-independent; ``inf`` for the
    unprotected baselines), while ``expended_leakage_bits`` is the part
    of that budget this bounded run actually spent — ``lg |R|`` bits per
    epoch entered (``epochs_expended`` of them).
    """

    benchmark: str
    input_name: str | None
    label: str
    scheme_spec: str
    scheme_name: str
    seed: int
    n_instructions: int
    cycles: float
    ipc: float
    power_watts: float
    memory_power_watts: float
    real_accesses: int
    dummy_accesses: int
    dummy_fraction: float
    oram_timing_leakage_bits: float
    termination_leakage_bits: float
    epochs_expended: int = 0
    expended_leakage_bits: float = 0.0
    epoch_rates: tuple[int, ...] = ()
    epoch_transitions: tuple[int, ...] = ()
    ipc_windows: tuple[float, ...] = ()
    access_windows: tuple[float, ...] = ()

    @property
    def total_accesses(self) -> int:
        """Real + dummy ORAM/DRAM accesses."""
        return self.real_accesses + self.dummy_accesses

    @property
    def total_leakage_bits(self) -> float:
        """Bound across both channels: ORAM timing + termination."""
        return self.oram_timing_leakage_bits + self.termination_leakage_bits

    @property
    def final_rate(self) -> int | None:
        """Rate of the last epoch (None for non-epoch schemes)."""
        return self.epoch_rates[-1] if self.epoch_rates else None

    def sort_key(self) -> tuple:
        """Canonical ordering: benchmark, input, scheme, seed."""
        return (self.benchmark, self.input_name or "", self.scheme_spec, self.seed)

    def to_dict(self) -> dict:
        """JSON-ready representation: every field by name, series as tuples.

        Unbounded leakage (``inf``) is encoded as the *string* ``"inf"``
        so the output stays strict RFC-8259 JSON (bare ``Infinity``
        tokens are a Python-only extension that jq, browsers, and pandas
        all reject).  Built from the fields directly: it is what every
        result-cache write and :meth:`ResultSet.digest` encode, and
        ``dataclasses.asdict`` would deep-copy each series first.
        """
        payload = {name: getattr(self, name) for name in _RECORD_FIELDS}
        for key in _LEAKAGE_FIELDS:
            if not math.isfinite(payload[key]):
                payload[key] = repr(payload[key])
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        """Rebuild a record saved by :meth:`to_dict`."""
        known = {f.name for f in fields(cls)}
        data = {k: v for k, v in payload.items() if k in known}
        for key in ("oram_timing_leakage_bits", "termination_leakage_bits"):
            data[key] = float(data[key])
        data["expended_leakage_bits"] = float(data.get("expended_leakage_bits", 0.0))
        data["epochs_expended"] = int(data.get("epochs_expended", 0))
        for key in ("epoch_rates", "epoch_transitions"):
            data[key] = tuple(int(v) for v in data.get(key, ()))
        for key in ("ipc_windows", "access_windows"):
            data[key] = tuple(float(v) for v in data.get(key, ()))
        return cls(**data)


_RECORD_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(RunRecord))
_LEAKAGE_FIELDS = (
    "oram_timing_leakage_bits",
    "termination_leakage_bits",
    "expended_leakage_bits",
)


@dataclass
class ResultSet:
    """An ordered, queryable collection of :class:`RunRecord` rows.

    ``meta`` carries session diagnostics (backend name, cache hit counts,
    ``passes_computed``) and is deliberately excluded from :meth:`save` so
    that repeated runs of the same spec serialize byte-identically.
    """

    records: tuple[RunRecord, ...]
    spec: ExperimentSpec | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.records = tuple(sorted(self.records, key=RunRecord.sort_key))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.records)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def select(
        self,
        benchmark: str | None = None,
        scheme: str | None = None,
        seed: int | None = None,
        input_name=_ANY,
    ) -> list[RunRecord]:
        """Filter records; ``scheme`` matches the spec string or the name.

        ``benchmark`` accepts either a bare name or ``"name/input"``.
        """
        if benchmark is not None and "/" in benchmark and input_name is _ANY:
            benchmark, input_name = benchmark.split("/", 1)
        out = []
        for record in self.records:
            if benchmark is not None and record.benchmark != benchmark:
                continue
            if scheme is not None and scheme not in (
                record.scheme_spec, record.scheme_name
            ):
                continue
            if seed is not None and record.seed != seed:
                continue
            if input_name is not _ANY and record.input_name != input_name:
                continue
            out.append(record)
        return out

    def get(
        self,
        benchmark: str,
        scheme: str,
        seed: int | None = None,
        input_name=_ANY,
    ) -> RunRecord:
        """The unique record matching the filters (KeyError otherwise)."""
        matches = self.select(benchmark, scheme, seed, input_name)
        if len(matches) != 1:
            raise KeyError(
                f"expected exactly one record for ({benchmark!r}, {scheme!r}, "
                f"seed={seed}), found {len(matches)}"
            )
        return matches[0]

    def schemes(self) -> list[str]:
        """Distinct scheme names, in first-seen order."""
        seen: dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.scheme_name)
        return list(seen)

    def overhead(
        self,
        benchmark: str,
        scheme: str,
        seed: int | None = None,
        baseline: str = "base_dram",
        input_name=_ANY,
    ) -> float:
        """Runtime multiplier of ``scheme`` vs ``baseline`` on one benchmark."""
        result = self.get(benchmark, scheme, seed, input_name)
        base = self.get(benchmark, baseline, seed if seed is not None else result.seed,
                        input_name if input_name is not _ANY else result.input_name)
        return result.cycles / base.cycles

    def mean_overhead(self, scheme: str, baseline: str = "base_dram") -> float:
        """Suite-average runtime multiplier vs ``baseline`` (Fig 6 "Avg")."""
        ratios = [
            record.cycles
            / self.get(record.benchmark, baseline, record.seed, record.input_name).cycles
            for record in self.select(scheme=scheme)
        ]
        if not ratios:
            raise KeyError(f"no records for scheme {scheme!r}")
        return mean(ratios)

    def mean_power(self, scheme: str) -> float:
        """Suite-average absolute power (W) for one scheme."""
        rows = self.select(scheme=scheme)
        if not rows:
            raise KeyError(f"no records for scheme {scheme!r}")
        return mean(record.power_watts for record in rows)

    # ------------------------------------------------------------------
    # Tabulation and persistence
    # ------------------------------------------------------------------

    def to_rows(self) -> list[dict]:
        """Scalar columns of every record, one dict per row.

        The flat-table view (windowed series excluded) for CSV export or
        DataFrame construction.
        """
        rows = []
        for record in self.records:
            row = record.to_dict()
            for series in ("epoch_rates", "epoch_transitions",
                           "ipc_windows", "access_windows"):
                row.pop(series)
            row["total_accesses"] = record.total_accesses
            row["final_rate"] = record.final_rate
            total = record.total_leakage_bits
            row["total_leakage_bits"] = total if math.isfinite(total) else repr(total)
            rows.append(row)
        return rows

    def render(self, title: str | None = None) -> str:
        """Aligned text table of the scalar columns.

        When a ``base_dram`` run exists for a row's (benchmark, seed), a
        normalized ``perf x`` column is included, matching the paper's
        reporting convention.
        """
        # Imported lazily: repro.analysis pulls in repro.api (the figure
        # converters and the report), so a module-level import here
        # would be circular.
        from repro.analysis.tables import Table, format_value

        have_baseline = any(r.scheme_name == "base_dram" for r in self.records)
        rows = []
        for record in self.records:
            perf = "-"
            if have_baseline and record.scheme_name != "base_dram":
                try:
                    perf = format_value(
                        self.overhead(record.benchmark, record.scheme_spec,
                                      record.seed, input_name=record.input_name)
                    )
                except KeyError:
                    pass
            leak = record.oram_timing_leakage_bits
            rows.append([
                record.label,
                record.scheme_name,
                str(record.seed),
                format_value(record.ipc, 4),
                perf,
                format_value(record.power_watts, 3),
                f"{record.dummy_fraction:.0%}",
                "inf" if leak == float("inf") else format_value(leak, 0),
            ])
        if title is None:
            title = (self.spec.name if self.spec and self.spec.name else "Experiment results")
        return Table(
            title,
            ["bench", "scheme", "seed", "IPC", "perf x", "power W", "dummy", "leak bits"],
            rows,
        ).render()

    def digest(self) -> str:
        """Content digest over the canonically ordered records.

        Volatile ``meta`` is excluded, records are already sorted, and
        serialization is strict JSON — so two runs of the same spec
        digest identically regardless of backend, cache temperature, or
        recovery retries.  The chaos suite pins fault-injected sweeps
        against fault-free digests with exactly this.
        """
        payload = json.dumps(
            [record.to_dict() for record in self.records],
            sort_keys=True, allow_nan=False,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def save(self, path: str | Path) -> None:
        """Write spec + records as JSON (volatile ``meta`` excluded)."""
        payload = {
            "format_version": _SAVE_FORMAT_VERSION,
            "spec": self.spec.to_dict() if self.spec else None,
            "records": [record.to_dict() for record in self.records],
        }
        Path(path).write_text(
            json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)
        )

    @classmethod
    def load(cls, path: str | Path) -> "ResultSet":
        """Rebuild a ResultSet saved by :meth:`save`."""
        payload = json.loads(Path(path).read_text())
        spec = payload.get("spec")
        return cls(
            records=tuple(RunRecord.from_dict(r) for r in payload["records"]),
            spec=ExperimentSpec.from_dict(spec) if spec else None,
        )
