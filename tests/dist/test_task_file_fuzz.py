"""Fuzzing the queue's task files.

Hypothesis mutates a real task file — whole-payload replacements,
dropped and added keys, retyped cell fields, truncated or random bytes —
and drives the board with claims and completions under a fake clock.
Whatever the file holds, nothing raises (in particular no ``TypeError``,
``KeyError`` or ``IndexError`` out of ``claim`` or ``stats``), and a
bounded drain ends with the board finished: the task is either done
(the mutation left it parseable) or poisoned on its first claim.
"""

import json
import shutil
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.api.spec import Cell
from repro.dist.queue import WorkQueue

CELL = Cell(
    benchmark="mcf", input_name=None, scheme_spec="base_dram", seed=0,
    n_instructions=10_000, warmup_fraction=0.3, write_buffer_entries=8,
    n_windows=None, record_requests=False,
)
FIELDS = sorted(vars(CELL))


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_task_files(draw, task_id: str) -> bytes:
    """A task file for ``task_id`` after one random mutation."""
    cell = dict(vars(CELL))
    payload = {"task_id": task_id, "cells": [cell]}
    kind = draw(st.sampled_from([
        "replace-payload", "drop-key", "set-key", "replace-cells",
        "drop-field", "add-field", "set-field", "extra-cell",
        "truncate", "random-bytes",
    ]))
    if kind == "replace-payload":
        payload = draw(json_values)
    elif kind == "drop-key":
        del payload[draw(st.sampled_from(["task_id", "cells"]))]
    elif kind == "set-key":
        payload[draw(st.sampled_from(["task_id", "cells", "extra"]))] = draw(json_values)
    elif kind == "replace-cells":
        payload["cells"] = draw(st.lists(json_values, max_size=3))
    elif kind == "drop-field":
        del cell[draw(st.sampled_from(FIELDS))]
    elif kind == "add-field":
        cell[draw(st.text(min_size=1, max_size=8))] = draw(json_values)
    elif kind == "set-field":
        cell[draw(st.sampled_from(FIELDS))] = draw(json_values)
    elif kind == "extra-cell":
        payload["cells"].append(draw(json_values))
    raw = json.dumps(payload).encode()
    if kind == "truncate":
        raw = raw[: draw(st.integers(min_value=0, max_value=len(raw) - 1))]
    elif kind == "random-bytes":
        raw = draw(st.binary(max_size=64))
    return raw


@settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_mutated_task_file_never_wedges_or_crashes_the_board(data):
    tmp = tempfile.mkdtemp(prefix="task-fuzz-")
    try:
        clock = FakeClock()
        queue = WorkQueue.for_cells(tmp, [CELL], max_attempts=3, clock=clock)
        (task_id,) = queue.task_ids()
        raw = data.draw(mutated_task_files(task_id))
        queue._task_path(task_id).write_bytes(raw)

        stats = queue.stats()
        assert stats["tasks"] == 1 and stats["cells"] in (0, 1)
        before = obs.snapshot()
        for _ in range(8):
            if queue.finished():
                break
            clock.now += 61.0  # past every TTL and backoff window
            claim = queue.claim("fuzz")
            if claim is not None:
                assert claim.task.cells == (CELL,)
                queue.complete(claim.task_id, "fuzz")
        assert queue.finished()
        if queue.is_poisoned(task_id):
            assert obs.delta(before)["tasks_poisoned"] == 1
            assert queue.stats()["cells"] == 0
        else:
            assert queue.is_done(task_id)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
