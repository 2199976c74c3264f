"""Cache keys and record encoding are pinned byte for byte.

A cell's content hash names its result-cache entry and its queue task,
so a key that moves orphans every cache written before it.  The pins
below are the digests these cells had when the hash was still built
with ``dataclasses.asdict``; the record checks compare ``to_dict``
with the ``asdict``-built dict it replaced.
"""

import math
import pickle
from dataclasses import asdict, fields, replace

import pytest

from repro.api.records import RunRecord
from repro.api.spec import Cell, ExperimentSpec
from tests.api.conftest import build_record

BARE = Cell(
    benchmark="mcf", input_name=None, scheme_spec="dynamic:4x4", seed=0,
    n_instructions=200_000, warmup_fraction=0.3, write_buffer_entries=8,
    n_windows=None, record_requests=False,
)
WITH_INPUT = Cell(
    benchmark="astar", input_name="rivers", scheme_spec="static:300", seed=1,
    n_instructions=50_000, warmup_fraction=0.3, write_buffer_entries=8,
    n_windows=None, record_requests=False,
)
WINDOWED = Cell(
    benchmark="libquantum", input_name=None, scheme_spec="base_dram", seed=2,
    n_instructions=100_000, warmup_fraction=0.25, write_buffer_entries=4,
    n_windows=16, record_requests=True,
)

PINNED = {
    "bare": (BARE, "af9050daf71338abd4ae055495f97fb8ce42fa4b8be3bd72e7104c819205882d"),
    "name/input": (
        WITH_INPUT, "53d7da1a2b5d96afafb2eb2e292ad35708f4a7021625c7d92a23596abf557906"
    ),
    "windowed": (
        WINDOWED, "5aa9d5f3b382e8c158f5f19f896d0b00fc73aa9f8b328600637bb16bfb4d99dd"
    ),
}


def fresh(cell: Cell) -> Cell:
    """An equal cell that has not computed its hash yet."""
    return Cell(**asdict(cell))


class TestPinnedCellHashes:
    @pytest.mark.parametrize("name", PINNED)
    def test_hash_is_pinned(self, name):
        cell, digest = PINNED[name]
        assert fresh(cell).content_hash() == digest

    def test_spec_expansion_gives_the_pinned_cells(self):
        spec = ExperimentSpec(
            benchmarks=("astar/rivers",), schemes=("static:300",), seeds=(1,),
            n_instructions=50_000,
        )
        (cell,) = spec.cells()
        assert cell == WITH_INPUT
        assert cell.content_hash() == PINNED["name/input"][1]

    @pytest.mark.parametrize("name", PINNED)
    @pytest.mark.parametrize("hashed_first", [False, True])
    def test_hash_survives_a_pickle_round_trip(self, name, hashed_first):
        cell, digest = PINNED[name]
        original = fresh(cell)
        if hashed_first:
            original.content_hash()
        clone = pickle.loads(pickle.dumps(original))
        assert clone == original
        assert clone.content_hash() == digest

    def test_replace_gets_its_own_hash(self):
        base = fresh(BARE)
        base.content_hash()
        for change in ({"seed": 1}, {"n_windows": 4}, {"input_name": "x"},
                       {"record_requests": True}):
            changed = replace(base, **change)
            assert changed.content_hash() == fresh(changed).content_hash()
            assert changed.content_hash() != base.content_hash(), change
        assert replace(base).content_hash() == PINNED["bare"][1]

    @pytest.mark.parametrize("name", PINNED)
    def test_kept_hash_is_not_part_of_the_value(self, name):
        cell, _ = PINNED[name]
        hashed, unhashed = fresh(cell), fresh(cell)
        hashed.content_hash()
        assert hashed == unhashed
        assert hash(hashed) == hash(unhashed)
        assert asdict(hashed) == asdict(unhashed)
        assert list(asdict(hashed)) == [f.name for f in fields(Cell)]
        assert repr(hashed) == repr(unhashed)

    @pytest.mark.parametrize("name", PINNED)
    def test_dict_form_matches_asdict(self, name):
        cell, _ = PINNED[name]
        assert cell.to_dict() == asdict(cell)
        assert list(cell.to_dict()) == list(asdict(cell))
        assert Cell(**cell.to_dict()) == cell


def asdict_encoding(record: RunRecord) -> dict:
    """``RunRecord.to_dict`` as it was built with ``dataclasses.asdict``."""
    payload = asdict(record)
    for key in ("oram_timing_leakage_bits", "termination_leakage_bits",
                "expended_leakage_bits"):
        if not math.isfinite(payload[key]):
            payload[key] = repr(payload[key])
    return payload


RECORDS = {
    "finite": build_record(),
    "inf-leakage": build_record(
        scheme="base_oram", oram_timing_leakage_bits=math.inf,
        termination_leakage_bits=math.inf, expended_leakage_bits=math.inf,
    ),
    "series": build_record(
        scheme="dynamic:4x4", input_name="rivers", epochs_expended=3,
        expended_leakage_bits=6.0, epoch_rates=(10_000, 256, 1290),
        epoch_transitions=(0, 4096, 65536), ipc_windows=(0.5, 0.25, 1.0 / 3.0),
        access_windows=(12.0, 8.5, 0.0),
    ),
}


class TestRecordEncoding:
    @pytest.mark.parametrize("name", RECORDS)
    def test_to_dict_matches_asdict(self, name):
        record = RECORDS[name]
        encoded, expected = record.to_dict(), asdict_encoding(record)
        assert encoded == expected
        assert list(encoded) == list(expected)
        assert {k: type(v) for k, v in encoded.items()} == {
            k: type(v) for k, v in expected.items()
        }

    def test_series_stay_tuples_and_inf_is_a_string(self):
        series = RECORDS["series"].to_dict()
        assert series["epoch_rates"] == (10_000, 256, 1290)
        assert isinstance(series["ipc_windows"], tuple)
        unbounded = RECORDS["inf-leakage"].to_dict()
        for key in ("oram_timing_leakage_bits", "termination_leakage_bits",
                    "expended_leakage_bits"):
            assert unbounded[key] == "inf"

    @pytest.mark.parametrize("name", RECORDS)
    def test_round_trip(self, name):
        record = RECORDS[name]
        assert RunRecord.from_dict(record.to_dict()) == record
