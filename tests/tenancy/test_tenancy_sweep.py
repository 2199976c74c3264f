"""Sweep grid: digest stability, wall-clock exclusion, pinned shape."""

import json

import repro.tenancy.sweep as sweep_module
from repro.tenancy import TenancyConfig, run_tenancy_sweep
from repro.tenancy.sweep import (
    WALL_CLOCK_KEYS,
    deterministic_records,
    records_digest,
)

BASE = TenancyConfig(blocks_per_tenant=16, requests_per_tenant=16)
COUNTS = (1, 2)
SCHEDULERS = ("batched", "round_robin")


def small_sweep():
    return run_tenancy_sweep(
        base=BASE, tenant_counts=COUNTS, schedulers=SCHEDULERS
    )


class TestSweepGrid:
    def test_one_record_per_cell_in_grid_order(self):
        result = small_sweep()
        assert [(r["n_tenants"], r["scheduler"]) for r in result.records] == [
            (n, s) for n in COUNTS for s in SCHEDULERS
        ]

    def test_digest_is_reproducible(self):
        assert small_sweep().digest() == small_sweep().digest()

    def test_pooled_sweep_matches_serial_digest(self, monkeypatch):
        pools = []

        class RecordingPool(sweep_module.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", RecordingPool)
        pooled = run_tenancy_sweep(
            base=BASE, tenant_counts=COUNTS, schedulers=SCHEDULERS, max_workers=2
        )
        assert pools == [2]  # max_workers alone selects the pool
        assert pooled.digest() == small_sweep().digest()

    def test_digest_ignores_wall_clock_fields(self):
        records = [dict(r) for r in small_sweep().records]
        before = records_digest(records)
        for record in records:
            for key in WALL_CLOCK_KEYS:
                record[key] = 123456.789
        assert records_digest(records) == before

    def test_digest_tracks_deterministic_fields(self):
        records = [dict(r) for r in small_sweep().records]
        before = records_digest(records)
        records[0]["latency_p99_slots"] += 1
        assert records_digest(records) != before

    def test_deterministic_records_strip_only_wall_keys(self):
        records = list(small_sweep().records)
        stripped = deterministic_records(records)
        for raw, clean in zip(records, stripped):
            assert set(raw) - set(clean) == set(WALL_CLOCK_KEYS)


class TestSweepSerialization:
    def test_pinned_payload_is_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        small_sweep().save_json(a, deterministic=True)
        small_sweep().save_json(b, deterministic=True)
        assert a.read_bytes() == b.read_bytes()

    def test_pinned_payload_embeds_matching_digest(self, tmp_path):
        path = tmp_path / "sweep.json"
        result = small_sweep()
        result.save_json(path, deterministic=True)
        payload = json.loads(path.read_text())
        assert payload["digest"] == result.digest()
        assert records_digest(list(payload["records"])) == payload["digest"]
        for record in payload["records"]:
            assert "requests_per_second" not in record

    def test_render_has_one_row_per_cell(self):
        text = small_sweep().render()
        assert "Tenancy scaling" in text
        assert text.count("batched") == len(COUNTS)
        assert text.count("round_robin") == len(COUNTS)
