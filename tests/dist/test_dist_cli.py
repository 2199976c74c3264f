"""``repro dist``: the operator surface over the work queue."""

import json

import pytest

from repro.cli import main

SWEEP = [
    "--benchmarks", "mcf",
    "--schemes", "base_dram,static:300",
    "--seeds", "0",
    "-n", "40000",
]


def dist(cache, *argv) -> list[str]:
    return ["dist", "--cache", str(cache), *argv]


class TestSubmitStatus:
    def test_submit_then_status_round_trip(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert main(dist(cache, "submit", *SWEEP)) == 0
        out = capsys.readouterr().out
        assert "1 tasks / 2 cells" in out
        assert "drain it with: repro dist --cache" in out
        queue_id = out.split()[1]

        assert main(dist(cache, "status")) == 0
        status = capsys.readouterr().out
        assert queue_id in status
        assert "active" in status
        assert "tasks 0/1 done" in status

    def test_submit_is_idempotent(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        main(dist(cache, "submit", *SWEEP))
        first = capsys.readouterr().out.split()[1]
        main(dist(cache, "submit", *SWEEP))
        assert capsys.readouterr().out.split()[1] == first

    def test_status_unknown_queue_exits_2(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        main(dist(cache, "submit", *SWEEP))
        capsys.readouterr()
        assert main(dist(cache, "status", "--queue", "nope")) == 2
        assert "no queue" in capsys.readouterr().err

    def test_status_empty_cache(self, capsys, tmp_path):
        assert main(dist(tmp_path / "empty", "status")) == 0
        assert "no queues" in capsys.readouterr().out


class TestWorker:
    def test_worker_drains_submitted_queue(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        main(dist(cache, "submit", *SWEEP))
        queue_id = capsys.readouterr().out.split()[1]

        assert main(dist(cache, "worker", "--queue", queue_id,
                         "--worker-id", "cli-test")) == 0
        assert "1 task(s) completed" in capsys.readouterr().out

        main(dist(cache, "status", "--queue", queue_id))
        assert "finished" in capsys.readouterr().out

        assert main(dist(cache, "workers", "--queue", queue_id)) == 0
        workers_out = capsys.readouterr().out
        assert "cli-test" in workers_out
        assert "done" in workers_out

    def test_worker_unknown_queue_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no queue"):
            main(dist(tmp_path / "cache", "worker", "--queue", "missing"))

    def test_workers_before_any_heartbeat(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        main(dist(cache, "submit", *SWEEP))
        queue_id = capsys.readouterr().out.split()[1]
        assert main(dist(cache, "workers", "--queue", queue_id)) == 0
        assert "no workers have reported" in capsys.readouterr().out


class TestRun:
    def test_run_inline_end_to_end(self, capsys, tmp_path):
        # `repro sweep --backend queue` is the one-call submit + fleet +
        # assembly over the board that `dist` operates.
        queue = ["sweep", *SWEEP, "--backend", "queue", "--workers", "0",
                 "--cache-dir", str(tmp_path / "cache")]
        save = tmp_path / "results.json"
        assert main([*queue, "--save", str(save)]) == 0
        out = capsys.readouterr().out
        assert "[work_queue] 2 cells: 0 cached, 2 run" in out
        payload = json.loads(save.read_text())
        assert len(payload["records"]) == 2

        # Warm rerun: everything from cache, nothing recomputed.
        assert main(queue) == 0
        assert "2 cached, 0 run" in capsys.readouterr().out

    def test_dist_run_subcommand_is_gone(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(dist(tmp_path / "cache", "run", *SWEEP))
        assert exit_info.value.code == 2
        assert "invalid choice: 'run'" in capsys.readouterr().err
