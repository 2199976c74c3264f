"""WorkQueue lease state machine: claims, renewals, reaps, poison.

Every test drives the queue with an injected fake clock, so lease
expiry is exact and nothing sleeps.  Execution never happens here —
tasks are boards of cells, and the machine under test is purely the
filesystem protocol.
"""

import json

import pytest

from repro import obs
from repro.api.spec import Cell
from repro.dist.queue import (
    DEFAULT_LEASE_TTL_S,
    MalformedTask,
    WorkQueue,
    list_queues,
    task_id_for_cells,
)


def make_cell(scheme: str = "base_dram", seed: int = 0, benchmark: str = "mcf") -> Cell:
    return Cell(
        benchmark=benchmark, input_name=None, scheme_spec=scheme, seed=seed,
        n_instructions=10_000, warmup_fraction=0.3, write_buffer_entries=8,
        n_windows=None, record_requests=False,
    )


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def queue(tmp_path, clock):
    # Two seeds x two schemes: two tasks (one per functional pass) of
    # two cells each.
    cells = [
        make_cell(scheme, seed)
        for seed in (0, 1)
        for scheme in ("base_dram", "static:300")
    ]
    return WorkQueue.for_cells(
        tmp_path / "cache", cells, lease_ttl_s=10.0, max_attempts=3, clock=clock
    )


class TestBoardConstruction:
    def test_groups_by_functional_pass(self, tmp_path, clock):
        # 2 benchmarks x 2 schemes x 2 seeds = 8 cells but only 4
        # functional passes -> 4 tasks, schemes grouped together.
        cells = [
            make_cell(scheme, seed, benchmark)
            for benchmark in ("mcf", "libquantum")
            for seed in (0, 1)
            for scheme in ("base_dram", "static:300")
        ]
        queue = WorkQueue.for_cells(tmp_path / "cache", cells, clock=clock)
        assert len(queue.task_ids()) == 4
        assert queue.stats()["cells"] == 8

    def test_task_ids_are_content_addressed(self):
        cells = [make_cell("base_dram"), make_cell("static:300")]
        assert task_id_for_cells(cells) == task_id_for_cells(list(reversed(cells)))
        assert task_id_for_cells(cells) != task_id_for_cells(cells[:1])

    def test_resubmission_reattaches(self, tmp_path, clock, queue):
        done_task = queue.task_ids()[0]
        queue.claim("w1")  # may claim either task; complete by id instead
        queue.complete(done_task, "w1")
        again = WorkQueue.for_cells(
            tmp_path / "cache",
            [
                make_cell(scheme, seed)
                for seed in (0, 1)
                for scheme in ("base_dram", "static:300")
            ],
            clock=clock,
        )
        assert again.root == queue.root
        assert again.is_done(done_task)

    def test_round_trips_cells(self, queue):
        task = queue.load_task(queue.task_ids()[0])
        assert task is not None
        assert {cell.scheme_spec for cell in task.cells} == {
            "base_dram", "static:300"
        }
        assert all(isinstance(cell, Cell) for cell in task.cells)

    def test_validates_parameters(self, tmp_path):
        with pytest.raises(ValueError, match="lease_ttl_s"):
            WorkQueue(tmp_path, lease_ttl_s=0.0)
        with pytest.raises(ValueError, match="max_attempts"):
            WorkQueue(tmp_path, max_attempts=0)

    def test_list_queues(self, tmp_path, clock, queue):
        queues = list_queues(tmp_path / "cache")
        assert [qid for qid, _ in queues] == [queue.root.name]
        assert list_queues(tmp_path / "empty") == []


class TestClaim:
    def test_claim_creates_live_lease(self, queue, clock):
        claim = queue.claim("w1")
        assert claim is not None
        assert claim.attempt == 1
        assert claim.deadline == clock.now + 10.0
        assert queue.state_of(claim.task_id) == "claimed"

    def test_no_double_claim_of_live_lease(self, queue):
        first = queue.claim("w1")
        second = queue.claim("w2")
        assert first is not None and second is not None
        assert first.task_id != second.task_id
        assert queue.claim("w3") is None  # board exhausted

    def test_claim_skips_done_and_poisoned(self, queue):
        task_a, task_b = queue.task_ids()
        queue._poison(task_a)
        claim = queue.claim("w1")
        assert claim is not None and claim.task_id == task_b
        queue.complete(task_b, "w1")
        assert queue.claim("w1") is None

    def test_counter_bumped(self, queue):
        before = obs.snapshot()
        queue.claim("w1")
        assert obs.delta(before)["leases_claimed"] == 1

    def test_claim_respects_requeue_backoff(self, queue, clock):
        claim = queue.claim("w1")
        other = queue.claim("w1")  # take the other task off the board
        queue.complete(other.task_id, "w1")
        clock.advance(11.0)  # expire the first claim
        queue.reap_expired()
        backoff = json.loads(
            (queue.root / "backoff" / f"{claim.task_id}.json").read_text()
        )
        # Inside the jittered window the sole remaining task is not
        # claimable (the window can legitimately be zero-length).
        if backoff["not_before"] > clock.now:
            assert queue.claim("w1") is None
        clock.advance(60.0)  # far past any jittered window
        reclaim = queue.claim("w1")
        assert reclaim is not None
        assert reclaim.task_id == claim.task_id
        assert reclaim.attempt == 2

    def test_expired_lease_is_reaped_then_reclaimed(self, queue, clock):
        claim = queue.claim("w1")
        clock.advance(10.5)
        queue.reap_expired()  # expired lease -> failed marker + backoff
        clock.advance(60.0)  # clear the jittered requeue window
        reclaims = [queue.claim("w2"), queue.claim("w3")]
        attempts = {c.task_id: c.attempt for c in reclaims if c is not None}
        assert attempts.get(claim.task_id) == 2


class TestRenew:
    def test_owner_extends_live_lease(self, queue, clock):
        claim = queue.claim("w1")
        clock.advance(5.0)
        new_deadline = queue.renew(claim.task_id, "w1")
        assert new_deadline == clock.now + 10.0

    def test_non_owner_refused(self, queue):
        claim = queue.claim("w1")
        assert queue.renew(claim.task_id, "w2") is None

    def test_expired_lease_never_renewed(self, queue, clock):
        claim = queue.claim("w1")
        clock.advance(10.5)
        assert queue.renew(claim.task_id, "w1") is None

    def test_missing_lease_refused(self, queue):
        assert queue.renew(queue.task_ids()[0], "w1") is None


class TestReap:
    def test_live_lease_never_reaped(self, queue, clock):
        queue.claim("w1")
        assert queue.reap_expired() == 0

    def test_expired_lease_moves_to_failed_marker(self, queue, clock):
        claim = queue.claim("w1")
        clock.advance(10.5)
        before = obs.snapshot()
        assert queue.reap_expired() == 1
        delta = obs.delta(before)
        assert delta["leases_expired"] == 1
        assert delta["tasks_requeued"] == 1
        assert (queue.root / "failed" / f"{claim.task_id}.1").exists()
        assert queue.lease_of(claim.task_id) is None
        assert queue.state_of(claim.task_id) == "pending"

    def test_racing_reapers_resolve_to_one(self, queue, clock):
        queue.claim("w1")
        clock.advance(10.5)
        assert queue.reap_expired() == 1
        assert queue.reap_expired() == 0  # marker already moved


class TestCompleteAndRelease:
    def test_complete_marks_done_and_releases(self, queue):
        claim = queue.claim("w1")
        queue.complete(claim.task_id, "w1")
        assert queue.is_done(claim.task_id)
        assert queue.lease_of(claim.task_id) is None
        assert queue.state_of(claim.task_id) == "done"

    def test_complete_by_stale_owner_keeps_live_lease(self, queue, clock):
        claim = queue.claim("w1")
        clock.advance(10.5)
        queue.reap_expired()
        clock.advance(60.0)
        reclaimed = None
        for worker in ("w2", "w3"):
            got = queue.claim(worker)
            if got is not None and got.task_id == claim.task_id:
                reclaimed = got
        assert reclaimed is not None
        queue.complete(claim.task_id, "w1")  # the *old* owner completes late
        assert queue.is_done(claim.task_id)  # results are idempotent: fine
        assert queue.lease_of(claim.task_id) is not None  # w2's lease survives

    def test_release_failed_counts_as_attempt(self, queue, clock):
        claim = queue.claim("w1")
        before = obs.snapshot()
        assert queue.release_failed(claim.task_id, "w1", error="boom")
        assert obs.delta(before)["tasks_requeued"] == 1
        assert queue.attempts_used(claim.task_id) == 1
        marker = queue.root / "failed" / f"{claim.task_id}.1"
        assert "boom" in marker.read_text()

    def test_release_by_non_owner_refused(self, queue):
        claim = queue.claim("w1")
        assert not queue.release_failed(claim.task_id, "w2")


class TestPoison:
    def test_poisons_after_max_attempts(self, tmp_path, clock):
        # One task so every claim lands on it; three crashed claims
        # (claim -> expire -> reap) must poison, never a fourth claim.
        queue = WorkQueue.for_cells(
            tmp_path / "solo", [make_cell()],
            lease_ttl_s=10.0, max_attempts=3, clock=clock,
        )
        task_id = queue.task_ids()[0]
        for attempt in (1, 2, 3):
            clock.advance(120.0)  # clear any requeue backoff window
            claim = queue.claim("w1")
            assert claim is not None and claim.attempt == attempt
            clock.advance(10.5)
            queue.reap_expired()
        assert queue.is_poisoned(task_id)
        assert queue.finished()
        clock.advance(120.0)
        assert queue.claim("w1") is None

    def test_poison_terminal_and_counted(self, queue, clock):
        task_id = queue.task_ids()[0]
        before = obs.snapshot()
        queue._poison(task_id)
        delta = obs.delta(before)
        assert queue.is_poisoned(task_id)
        assert delta["tasks_poisoned"] == 1
        assert delta["cells_poisoned"] == 2  # both cells of the task
        queue._poison(task_id)  # idempotent: no double count
        assert obs.delta(before)["tasks_poisoned"] == 1

    def test_finished_includes_poisoned(self, queue):
        task_a, task_b = queue.task_ids()
        queue._poison(task_a)
        assert not queue.finished()
        claim = queue.claim("w1")
        queue.complete(claim.task_id, "w1")
        assert queue.finished()


class TestObservability:
    def test_stats_counts_states(self, queue, clock):
        task_a, task_b = queue.task_ids()
        queue._poison(task_a)
        stats = queue.stats()
        assert stats == {
            "pending": 1, "claimed": 0, "done": 0, "poisoned": 1,
            "tasks": 2, "cells": 4, "cells_done": 0,
        }
        claim = queue.claim("w1")
        queue.complete(claim.task_id, "w1")
        stats = queue.stats()
        assert stats["done"] == 1 and stats["cells_done"] == 2

    def test_worker_heartbeats(self, queue, clock):
        queue.record_worker("w1", status="running", task="abc")
        clock.advance(5.0)
        queue.record_worker("w2", status="idle")
        docs = queue.workers_seen()
        assert [doc["worker"] for doc in docs] == ["w2", "w1"]
        assert docs[1]["status"] == "running"

    def test_default_ttl_sane(self):
        assert DEFAULT_LEASE_TTL_S > 0


def _malformed_payloads(task_id: str, cell: Cell) -> dict[str, bytes]:
    """The three ways a task file fails to parse into cells."""
    cell_dict = dict(vars(cell))
    return {
        "garbage-bytes": b"\x9f\x00not json{{",
        "no-cells": json.dumps({"task_id": task_id}).encode(),
        "unknown-cell-field": json.dumps(
            {"task_id": task_id, "cells": [dict(cell_dict, colour="red")]}
        ).encode(),
    }


class TestMalformedTasks:
    """A task file that does not parse into cells poisons on first claim."""

    @pytest.fixture
    def solo(self, tmp_path, clock):
        return WorkQueue.for_cells(
            tmp_path / "cache", [make_cell()],
            lease_ttl_s=10.0, max_attempts=3, clock=clock,
        )

    @pytest.mark.parametrize("kind", ["garbage-bytes", "no-cells", "unknown-cell-field"])
    def test_poisons_after_one_claim(self, solo, kind):
        task_id = solo.task_ids()[0]
        solo._task_path(task_id).write_bytes(
            _malformed_payloads(task_id, make_cell())[kind]
        )
        before = obs.snapshot()
        assert solo.claim("w1") is None
        assert solo.is_poisoned(task_id)
        assert solo.lease_of(task_id) is None
        assert solo.finished()
        poison = json.loads(solo._poison_path(task_id).read_text())
        assert poison["reason"].startswith("malformed-task")
        assert poison["last_worker"] == "w1"
        delta = obs.delta(before)
        assert delta["tasks_poisoned"] == 1
        assert delta.get("cells_poisoned", 0) == 0
        assert delta.get("leases_claimed", 0) == 0
        assert solo.stats() == {
            "pending": 0, "claimed": 0, "done": 0, "poisoned": 1,
            "tasks": 1, "cells": 0, "cells_done": 0,
        }

    def test_cells_that_do_not_hash_to_the_task_id_poison(self, solo):
        task_id = solo.task_ids()[0]
        edited = dict(vars(make_cell()), n_instructions=10**12)
        solo._task_path(task_id).write_text(
            json.dumps({"task_id": task_id, "cells": [edited]})
        )
        assert solo.claim("w1") is None
        assert solo.is_poisoned(task_id)

    def test_load_task_raises_typed_error(self, solo):
        task_id = solo.task_ids()[0]
        solo._task_path(task_id).write_bytes(b"[1, 2]")
        with pytest.raises(MalformedTask):
            solo.load_task(task_id)
        with pytest.raises(ValueError):
            solo.load_task(task_id)

    def test_inline_worker_finishes_a_board_of_malformed_tasks(self, tmp_path):
        import threading

        from repro.api.cache import ExperimentCache
        from repro.dist.worker import Worker

        cache = ExperimentCache(tmp_path / "cache")
        cells = [make_cell(seed=seed) for seed in (0, 1, 2)]
        queue = WorkQueue.for_cells(cache.root, cells)
        for task_id, kind in zip(
            queue.task_ids(), ("garbage-bytes", "no-cells", "unknown-cell-field")
        ):
            queue._task_path(task_id).write_bytes(
                _malformed_payloads(task_id, make_cell())[kind]
            )
        worker = Worker(cache, queue, worker_id="inline", idle_poll_s=0.01)
        runner = threading.Thread(target=worker.run, daemon=True)
        runner.start()
        runner.join(timeout=5.0)
        assert not runner.is_alive(), "worker wedged on malformed task files"
        assert queue.finished()
        assert worker.tasks_completed == 0
        assert queue.stats()["poisoned"] == 3
