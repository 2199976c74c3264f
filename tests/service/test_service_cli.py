"""CLI surface: ``repro serve --smoke`` and ``repro load``."""

import json

from repro.cli import main

FAST_LOAD = [
    "load", "--self-hosted", "--clients", "2", "--requests", "2",
    "-n", "20000", "--benchmarks", "mcf", "--templates", "2",
]


class TestServeSmoke:
    def test_smoke_passes_end_to_end(self, capsys, tmp_path):
        assert main([
            "serve", "--smoke", "-n", "20000",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        assert "daemon up at" in out
        assert "smoke OK" in out

    def test_smoke_passes_on_the_queue_backend(self, capsys):
        assert main([
            "serve", "--smoke", "-n", "40000", "--backend", "queue", "--workers", "0",
        ]) == 0
        assert "smoke OK" in capsys.readouterr().out

    def test_smoke_streams_lifecycle_events(self, capsys, tmp_path):
        main(["serve", "--smoke", "-n", "20000",
              "--cache-dir", str(tmp_path / "cache")])
        out = capsys.readouterr().out
        for kind in ("queued", "started", "progress", "done"):
            assert kind in out


class TestLoad:
    def test_self_hosted_closed_loop_is_redundancy_free(self, capsys):
        assert main(FAST_LOAD) == 0
        out = capsys.readouterr().out
        assert "redundant 0" in out

    def test_requires_an_address_or_self_hosting(self, capsys):
        assert main(["load"]) == 2
        assert "--address" in capsys.readouterr().err

    def test_saturation_levels_pin_to_json(self, capsys, tmp_path):
        out_path = tmp_path / "curve.json"
        assert main([
            *FAST_LOAD, "--levels", "1,2", "--pin", "--out", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "Service saturation curve" in out
        assert "total redundant functional passes: 0 (OK)" in out
        document = json.loads(out_path.read_text())
        assert document["total_redundant_passes"] == 0
        assert [level["profile"]["clients"] for level in document["levels"]] == [1, 2]
        # Level 1 pays the lattice cold; level 2 must ride the warm cache.
        assert document["levels"][0]["functional_passes_new"] == 1
        assert document["levels"][1]["functional_passes_new"] == 0
        assert all("duration_s" not in level for level in document["levels"])
