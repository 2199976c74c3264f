"""Declarative experiment specifications.

An :class:`ExperimentSpec` names *what* to measure — the cross product of
benchmarks, schemes, and seeds, plus the shared simulation parameters —
without saying *how* to run it.  The :class:`~repro.api.engine.Engine`
expands the spec into independent :class:`Cell` work units, executes them
on a pluggable backend (in-process or a process pool), and deduplicates
work through a persistent cache keyed by each cell's content hash.

Benchmarks are named ``"mcf"`` or ``"astar/rivers"`` (name/input);
schemes use the :func:`repro.core.scheme.scheme_from_spec` grammar
(``"base_dram"``, ``"static:300"``, ``"dynamic:4x4"``, ...).  Both stay
strings so specs are hashable, JSON-serializable, and CLI-friendly.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cached_property
from typing import Iterator

from repro.core.scheme import expand_scheme_grid, is_grid_spec, scheme_from_spec
from repro.util.validation import check_in_range, check_positive
from repro.workloads.registry import get_workload

#: Bump to invalidate persisted *result* entries after a semantics change.
#: v2: RunRecord gained epochs_expended / expended_leakage_bits.
CACHE_SCHEMA_VERSION = 2

#: Bump to invalidate persisted *trace* entries.  Kept separate from the
#: result schema: traces are the expensive artifact, and a result-shape
#: change (like v2's new RunRecord fields) leaves them byte-identical.
TRACE_SCHEMA_VERSION = 1

#: ``json.dumps(..., sort_keys=True)`` without building an encoder per call.
_SORTED_JSON = json.JSONEncoder(sort_keys=True)


class SpecError(ValueError):
    """A malformed experiment spec: a field missing, of the wrong type,
    or out of range.

    Raised at construction (and by :meth:`ExperimentSpec.from_dict`)
    before any work is planned.  It subclasses :class:`ValueError`, so
    the ``repro`` CLI prints it as ``error: ...`` and the service answers
    it with HTTP 400.
    """


def _string_entries(value, name: str) -> tuple[str, ...]:
    """``value`` as a tuple of strings, or :class:`SpecError`."""
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        raise SpecError(f"{name} must be a list of strings, got {value!r}")
    entries = tuple(value)
    for entry in entries:
        if not isinstance(entry, str):
            raise SpecError(f"{name} entries must be strings, got {entry!r}")
    return entries


def _integer(value, name: str) -> int:
    """``value`` as an int (bools and floats refused), or :class:`SpecError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise SpecError(f"{name} must be an integer, got {value!r}")
    return int(value)


def split_benchmark(entry: str) -> tuple[str, str | None]:
    """Split a ``"name"`` or ``"name/input"`` benchmark entry."""
    if not isinstance(entry, str) or not entry:
        raise ValueError(f"benchmark entry must be a non-empty string, got {entry!r}")
    name, _, input_name = entry.partition("/")
    return name, (input_name or None)


@dataclass(frozen=True)
class Cell:
    """One independent (benchmark, scheme, seed) unit of work.

    Carries every parameter that influences its result, so its
    :meth:`content_hash` is a complete cache key: two cells with equal
    hashes are guaranteed (up to :data:`CACHE_SCHEMA_VERSION`) to produce
    identical :class:`~repro.api.records.RunRecord` rows.
    """

    benchmark: str
    input_name: str | None
    scheme_spec: str
    seed: int
    n_instructions: int
    warmup_fraction: float
    write_buffer_entries: int
    n_windows: int | None
    record_requests: bool

    @property
    def label(self) -> str:
        """Human-readable cell id, e.g. ``astar/rivers+static:300@0``."""
        bench = self.benchmark if self.input_name is None else (
            f"{self.benchmark}/{self.input_name}"
        )
        return f"{bench}+{self.scheme_spec}@{self.seed}"

    def to_dict(self) -> dict:
        """Every field by name, in declaration order (JSON-native values)."""
        return {name: getattr(self, name) for name in _CELL_FIELDS}

    def content_hash(self) -> str:
        """Stable hex digest of every result-determining parameter.

        Computed once per cell object and kept on it: the engine, the
        result cache and the work queue all key the same cell.  The kept
        digest is not a field, so ``==``, ``hash()`` and ``asdict`` ignore
        it, and ``dataclasses.replace`` builds a cell that digests afresh.
        """
        return self._content_hash

    @cached_property
    def _content_hash(self) -> str:
        payload = _SORTED_JSON.encode({"version": CACHE_SCHEMA_VERSION, **self.to_dict()})
        return hashlib.sha256(payload.encode()).hexdigest()


#: The cell's field names; its dict form and its cache key cover exactly these.
_CELL_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(Cell))


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative sweep: benchmarks x schemes x seeds at fixed sim params.

    Attributes:
        benchmarks: Entries ``"name"`` or ``"name/input"``; validated
            against the workload registry at construction.
        schemes: Scheme spec strings (``scheme_from_spec`` grammar).
            ``grid:`` entries expand in place to their concrete schemes
            (``expand_scheme_grid``); entries are canonicalized through
            ``.spec`` and duplicates (including alias spellings) are
            dropped.
        seeds: Workload-generation seeds; one full sweep runs per seed.
        n_instructions: Post-warmup instruction budget per run.
        warmup_fraction: Extra cache-warming prefix (excluded from timing).
        write_buffer_entries: Non-blocking write buffer depth.
        n_windows: When set, each record also carries windowed IPC /
            access-rate series and epoch-transition marks at this
            resolution (Figures 2 and 7).
        record_requests: Keep per-request arrays during timing replay even
            when ``n_windows`` is unset.
        name: Optional label for reports; never part of cache keys.
    """

    benchmarks: tuple[str, ...]
    schemes: tuple[str, ...]
    seeds: tuple[int, ...] = (0,)
    n_instructions: int = 1_000_000
    warmup_fraction: float = 0.30
    write_buffer_entries: int = 8
    n_windows: int | None = None
    record_requests: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        # Accept any iterable for the axes; normalize to tuples so the
        # spec stays hashable.  Grid specs (``"grid:dynamic:..."``) are
        # macro entries: each expands in place to its concrete scheme
        # strings, so cells — and therefore cache keys — only ever see
        # single-scheme specs.  Scheme entries are canonicalized through
        # ``scheme_from_spec(...).spec`` before dedup, so alias
        # spellings ("dynamic:4x4:avg") cannot produce duplicate cells
        # or cache entries; parsing here also raises early for bad specs.
        # Every failure is a SpecError.
        benchmarks = _string_entries(self.benchmarks, "benchmarks")
        object.__setattr__(self, "benchmarks", benchmarks)
        schemes: list[str] = []
        for entry in _string_entries(self.schemes, "schemes"):
            try:
                expanded = expand_scheme_grid(entry) if is_grid_spec(entry) else (entry,)
                for scheme in expanded:
                    canonical = scheme_from_spec(scheme).spec
                    if canonical not in schemes:
                        schemes.append(canonical)
            except ValueError as error:
                raise SpecError(str(error)) from error
        object.__setattr__(self, "schemes", tuple(schemes))
        if not hasattr(self.seeds, "__iter__") or isinstance(self.seeds, str):
            raise SpecError(f"seeds must be a list of integers, got {self.seeds!r}")
        object.__setattr__(
            self, "seeds", tuple(_integer(seed, "seeds entry") for seed in self.seeds)
        )
        for name in ("n_instructions", "write_buffer_entries"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.n_windows is not None:
            object.__setattr__(self, "n_windows", _integer(self.n_windows, "n_windows"))
        if isinstance(self.warmup_fraction, bool) or not isinstance(
            self.warmup_fraction, numbers.Real
        ):
            raise SpecError(
                f"warmup_fraction must be a number, got {self.warmup_fraction!r}"
            )
        if not isinstance(self.record_requests, bool):
            raise SpecError(
                f"record_requests must be true or false, got {self.record_requests!r}"
            )
        if not isinstance(self.name, str):
            raise SpecError(f"name must be a string, got {self.name!r}")
        if not self.benchmarks:
            raise SpecError("ExperimentSpec needs at least one benchmark")
        if not self.schemes:
            raise SpecError("ExperimentSpec needs at least one scheme")
        if not self.seeds:
            raise SpecError("ExperimentSpec needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise SpecError(f"seeds must be distinct, got {self.seeds}")
        try:
            check_positive(self.n_instructions, "n_instructions")
            check_in_range(self.warmup_fraction, 0.0, 1.0, "warmup_fraction")
            check_positive(self.write_buffer_entries, "write_buffer_entries")
            if self.n_windows is not None:
                check_positive(self.n_windows, "n_windows")
            for entry in self.benchmarks:
                bench, input_name = split_benchmark(entry)
                workload = get_workload(bench)  # raises for unknown names
                if input_name is not None and input_name not in workload.inputs:
                    raise ValueError(
                        f"{bench} has inputs {workload.inputs}, not {input_name!r}"
                    )
        except ValueError as error:
            raise SpecError(str(error)) from error

    @property
    def n_cells(self) -> int:
        """Number of independent work units the spec expands to."""
        return len(self.benchmarks) * len(self.schemes) * len(self.seeds)

    def cells(self) -> Iterator[Cell]:
        """Expand to independent cells, benchmark-major.

        Benchmark-major order keeps cells that share a functional cache
        pass adjacent, which maximizes in-process trace reuse on the
        serial backend and cache locality on the pool.
        """
        for entry in self.benchmarks:
            bench, input_name = split_benchmark(entry)
            for seed in self.seeds:
                for scheme in self.schemes:
                    yield Cell(
                        benchmark=bench,
                        input_name=input_name,
                        scheme_spec=scheme,
                        seed=seed,
                        n_instructions=self.n_instructions,
                        warmup_fraction=self.warmup_fraction,
                        write_buffer_entries=self.write_buffer_entries,
                        n_windows=self.n_windows,
                        record_requests=self.record_requests,
                    )

    def to_dict(self) -> dict:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        payload = asdict(self)
        payload["benchmarks"] = list(self.benchmarks)
        payload["schemes"] = list(self.schemes)
        payload["seeds"] = list(self.seeds)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSpec":
        """Rebuild a spec saved by :meth:`to_dict`; unknown keys are ignored.

        Raises :class:`SpecError` if ``payload`` is not a mapping or
        lacks a required field, and as construction does for bad values.
        """
        if not isinstance(payload, dict):
            raise SpecError(f"spec must be a JSON object, got {payload!r}")
        for field in fields(cls):
            if field.default is MISSING and field.name not in payload:
                raise SpecError(f"spec is missing {field.name!r}")
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})

    def single(self, benchmark: str, scheme: str, seed: int | None = None) -> "ExperimentSpec":
        """A one-cell sub-spec with the same simulation parameters."""
        return ExperimentSpec(
            benchmarks=(benchmark,),
            schemes=(scheme,),
            seeds=(self.seeds[0] if seed is None else seed,),
            n_instructions=self.n_instructions,
            warmup_fraction=self.warmup_fraction,
            write_buffer_entries=self.write_buffer_entries,
            n_windows=self.n_windows,
            record_requests=self.record_requests,
            name=self.name,
        )
