"""Replay-machine edge cases the equivalence suites do not pin.

``run_timing`` feeds a replay machine the whole miss trace as one chunk
and ``run_timing_streaming`` feeds it miss chunks, so every state the
machine carries across a chunk boundary must reproduce the one-chunk
replay.  base_dram carries the last ``entries`` store completions into
its vectorized write-buffer-stall check; the straddling tests below make
a store stall on an entry admitted in an earlier chunk.  The slot
machines replay whole episodes in lockstep windows; the last part pins
that kernel against the scalar oracle and its routing rule.
"""

import numpy as np
import pytest

from repro.cache.hierarchy import MissChunk
from repro.cache.write_buffer import WriteBuffer
from repro.core.epochs import EpochSchedule
from repro.core.scheme import (
    BaseDramScheme,
    DynamicScheme,
    StaticScheme,
    scheme_from_spec,
)
from repro.cpu.trace import EnergyEvents, MissTrace
from repro.sim import timing
from repro.sim.streaming import miss_trace_chunks, run_timing_streaming
from repro.sim.timing import run_timing, run_timing_batch


def store_heavy_trace(n=400, seed=0) -> MissTrace:
    """Mostly stores, short gaps, and zero-gap store bursts that overflow
    even an 8-entry buffer at base_dram's 40-cycle latency."""
    rng = np.random.default_rng(seed)
    gaps = np.where(rng.random(n) < 0.4, 0.0, rng.uniform(0.0, 30.0, n))
    gaps[rng.random(n) < 0.05] = 400.5
    blocking = rng.random(n) < 0.15
    for start in range(20, n - 20, 97):
        gaps[start:start + 20] = 0.0
        blocking[start:start + 20] = False
    return MissTrace(
        gap_cycles=gaps,
        is_blocking=blocking,
        instruction_index=np.arange(1, n + 1, dtype=np.int64) * 5,
        total_compute_cycles=77.25,
        n_instructions=n * 5,
        energy=EnergyEvents(n_instructions=n * 5, n_memory_refs=n),
        source_name="stores",
        source_input="x",
    )


def stalls_with_blockers(miss_trace, entries, scheme=None) -> list[tuple[int, int]]:
    """(stalled store, store it waits for) request indices under
    ``scheme`` (base_dram by default), read off the reference controller
    and write buffer."""
    controller = (scheme or BaseDramScheme()).build_controller()
    buffer = WriteBuffer(entries=entries)
    admitted: list[int] = []
    pairs = []
    core = 0.0
    requests = zip(miss_trace.gap_cycles.tolist(), miss_trace.is_blocking.tolist())
    for index, (gap, blocking) in enumerate(requests):
        issue = core + gap
        completion = controller.serve(issue)
        if blocking:
            core = completion
            continue
        stalls_before = buffer.full_stalls
        core = buffer.admit(issue, completion)
        if buffer.full_stalls > stalls_before:
            # A full buffer holds exactly the last `entries` admits.
            pairs.append((index, admitted[-entries]))
        admitted.append(index)
    return pairs


STRADDLE_CASES = [
    (entries, chunk)
    for entries in (1, 2, 8)
    for chunk in range(1, 2 * entries + 2)
]


@pytest.mark.usefixtures("replay_routing")
class TestBaseDramStallsAcrossChunks:
    @pytest.mark.parametrize(
        "entries,chunk", STRADDLE_CASES,
        ids=[f"entries{e}-chunk{c}" for e, c in STRADDLE_CASES],
    )
    def test_streamed_matches_reference(self, entries, chunk):
        miss_trace = store_heavy_trace()
        pairs = stalls_with_blockers(miss_trace, entries)
        carried = [
            (stalled, blocker) for stalled, blocker in pairs
            if blocker // chunk < stalled // chunk
        ]
        assert carried, "some store must wait on an entry from an earlier chunk"

        reference = run_timing(
            miss_trace, BaseDramScheme(), write_buffer_entries=entries,
            record_requests=False, mode="reference",
        )
        streamed = run_timing_streaming(
            miss_trace_chunks(miss_trace, chunk), miss_trace, BaseDramScheme(),
            write_buffer_entries=entries,
        )
        assert streamed.cycles == reference.cycles
        assert streamed.controller.real_accesses == reference.controller.real_accesses
        assert streamed.power_watts == reference.power_watts


#: Every replay entry point, as ``replay(miss_trace, scheme, entries)``.
#: The batch path adds two slot schemes so the batched kernel runs too.
REPLAY_PATHS = {
    "run_timing-fast": lambda trace, scheme, entries: run_timing(
        trace, scheme, write_buffer_entries=entries, mode="fast"
    ),
    "run_timing-reference": lambda trace, scheme, entries: run_timing(
        trace, scheme, write_buffer_entries=entries, mode="reference"
    ),
    "run_timing_batch": lambda trace, scheme, entries: run_timing_batch(
        trace,
        [scheme, scheme_from_spec("static:300"), scheme_from_spec("dynamic:4x4")],
        write_buffer_entries=entries,
    ),
    "run_timing_streaming": lambda trace, scheme, entries: run_timing_streaming(
        miss_trace_chunks(trace, 7), trace, scheme, write_buffer_entries=entries
    ),
}


@pytest.mark.usefixtures("replay_routing")
class TestWriteBufferDepthValidation:
    @pytest.mark.parametrize("entries", [0, -1])
    @pytest.mark.parametrize("path", sorted(REPLAY_PATHS))
    @pytest.mark.parametrize(
        "spec", ["base_dram", "base_oram", "static:300", "dynamic:4x4"]
    )
    def test_non_positive_depth_is_a_value_error(self, path, spec, entries):
        with pytest.raises(ValueError, match="entries must be positive"):
            REPLAY_PATHS[path](store_heavy_trace(n=60), scheme_from_spec(spec), entries)


# ----------------------------------------------------------------------
# Episode lockstep of the slot machines (sim/timing.py::_replay_episodes)
# ----------------------------------------------------------------------

#: Tiny epochs, so short traces cross many epoch boundaries.
FAST_EPOCHS = EpochSchedule(first_epoch_cycles=1 << 10, growth=2, tmax_cycles=1 << 40)

SLOT_SCHEMES = {
    "static": StaticScheme(rate=19, oram_latency=37),
    "dynamic": DynamicScheme(schedule=FAST_EPOCHS, initial_rate=25, oram_latency=37),
}


def episode_trace(n_episodes, stores, gap=50.25, store_gap=0.0) -> MissTrace:
    """`n_episodes` episodes of `stores` stores each, then a load."""
    blocking = np.tile([False] * stores + [True], n_episodes)
    gaps = np.tile([store_gap] * stores + [gap], n_episodes)
    n = len(gaps)
    return MissTrace(
        gap_cycles=gaps,
        is_blocking=blocking,
        instruction_index=np.arange(1, n + 1, dtype=np.int64) * 3,
        total_compute_cycles=11.5,
        n_instructions=n * 3,
        energy=EnergyEvents(n_instructions=n * 3, n_memory_refs=n),
        source_name="episodes",
        source_input="x",
    )


def assert_matches_reference(miss_trace, scheme, entries=8):
    """Fast (in memory, recording requests) equals the scalar oracle."""
    reference = run_timing(
        miss_trace, scheme, write_buffer_entries=entries, mode="reference"
    )
    fast = run_timing(miss_trace, scheme, write_buffer_entries=entries)
    assert fast.cycles == reference.cycles
    assert fast.controller == reference.controller
    assert fast.epochs == reference.epochs
    assert (
        fast.request_completion_times.tobytes()
        == reference.request_completion_times.tobytes()
    )
    return fast


@pytest.fixture
def windows(monkeypatch):
    """Every call of the episode kernel, as (episodes offered, what it
    returned)."""
    returned = []
    kernel = timing._replay_episodes

    def spy(gaps, ends, *args):
        run = kernel(gaps, ends, *args)
        returned.append((len(ends), run))
        return run

    monkeypatch.setattr(timing, "_replay_episodes", spy)
    return returned


@pytest.mark.parametrize("replay_routing", ["always"], indirect=True)
@pytest.mark.parametrize("kind", sorted(SLOT_SCHEMES))
class TestEpisodeLockstep:
    def test_a_failed_check_falls_back_and_stays_identical(
        self, replay_routing, kind, windows, monkeypatch
    ):
        # One dummy too many in each first-pass step: the second pass must
        # catch it, and the loop serves every window instead.
        exact = timing._dummy_slots

        def skewed(arrival, free, step):
            counts = exact(arrival, free, step)
            counts[0] += 1.0
            return counts

        monkeypatch.setattr(timing, "_dummy_slots", skewed)
        assert_matches_reference(store_heavy_trace(), SLOT_SCHEMES[kind])
        runs = [run for _, run in windows]
        assert None in runs
        assert not any(run.episodes for run in runs if run is not None)

    @pytest.mark.parametrize("entries", [1, 2, 8])
    def test_episodes_longer_than_the_buffer_stall_identically(
        self, replay_routing, kind, windows, entries
    ):
        miss_trace = episode_trace(40, stores=entries + 3)
        scheme = SLOT_SCHEMES[kind]
        assert len(stalls_with_blockers(miss_trace, entries, scheme)) >= 40
        assert_matches_reference(miss_trace, scheme, entries=entries)
        assert any(run is not None and run.episodes for _, run in windows)

    def test_small_trace_cut_at_every_position(self, replay_routing, kind):
        # Chunks that start and end mid-episode, at every position.
        miss_trace = store_heavy_trace(n=90, seed=4)
        scheme = SLOT_SCHEMES[kind]
        reference = run_timing(
            miss_trace, scheme, record_requests=False, mode="reference"
        )
        for cut in range(1, len(miss_trace.gap_cycles)):
            chunks = [
                MissChunk(
                    gap_cycles=miss_trace.gap_cycles[part],
                    is_blocking=miss_trace.is_blocking[part],
                    instruction_index=miss_trace.instruction_index[part],
                )
                for part in (slice(0, cut), slice(cut, None))
            ]
            streamed = run_timing_streaming(chunks, miss_trace, scheme)
            assert streamed.cycles == reference.cycles, cut
            assert streamed.controller == reference.controller, cut
            assert streamed.epochs == reference.epochs, cut

    def test_recorded_completions_in_request_order(self, replay_routing, kind, windows):
        miss_trace = store_heavy_trace(n=300, seed=9)
        fast = assert_matches_reference(miss_trace, SLOT_SCHEMES[kind])
        completions = fast.request_completion_times
        assert len(completions) == 300
        assert (np.diff(completions) > 0).all()  # one access after another
        assert any(run is not None and run.episodes for _, run in windows)


def machine_states(miss_trace, scheme, cuts, entries):
    """The slot machine's state after each chunk (everything but the
    controller and the completions), the chunks ending before ``cuts``."""
    _, machine = timing._open_replay(scheme, entries, False, "fast")
    states = []
    for lo, hi in zip([0, *cuts], [*cuts, len(miss_trace.gap_cycles)]):
        machine.feed(MissChunk(
            gap_cycles=miss_trace.gap_cycles[lo:hi],
            is_blocking=miss_trace.is_blocking[lo:hi],
            instruction_index=miss_trace.instruction_index[lo:hi],
        ))
        state = dict(vars(machine))
        del state["controller"]
        state["buffer"] = list(state["buffer"])
        states.append(state)
    return states


@pytest.mark.parametrize("kind", sorted(SLOT_SCHEMES))
@pytest.mark.parametrize("entries", [1, 2, 8])
def test_windows_commit_the_loops_state(kind, entries, windows, each_replay_routing):
    """After every chunk, a machine that ran lockstep windows holds the
    state the per-request loop reaches: timeline, core, write buffer,
    counters, epoch.  Half the chunks end on a blocking request, so a
    window's own state is what the chunk leaves."""
    miss_trace = store_heavy_trace(n=400, seed=2)
    loads = np.flatnonzero(miss_trace.is_blocking)
    cuts = sorted({*(loads[::4] + 1).tolist(), *range(37, 400, 37)} - {400})
    states = []
    each_replay_routing(lambda: states.append(
        machine_states(miss_trace, SLOT_SCHEMES[kind], cuts, entries)
    ))
    loop, lockstep = states
    assert any(run is not None and run.episodes for _, run in windows)
    assert lockstep == loop


@pytest.mark.parametrize("replay_routing", ["always"], indirect=True)
def test_an_epoch_boundary_inside_a_window(replay_routing, windows):
    # Long gaps fire dummies, so the FAST_EPOCHS boundaries fall inside
    # 64-request windows: the window commits the episodes before the
    # boundary and the loop serves the one that reaches it.
    miss_trace = episode_trace(200, stores=1, gap=137.5, store_gap=3.0)
    fast = assert_matches_reference(miss_trace, SLOT_SCHEMES["dynamic"])
    assert len(fast.epochs) > 5
    assert all(run is not None for _, run in windows)
    assert any(0 < run.episodes < offered for offered, run in windows)


class TestEpisodeRouting:
    """The default constants: which chunks and windows reach the kernel."""

    def test_chunks_below_the_minimum_stay_in_the_loop(self, windows):
        scheme = StaticScheme(rate=300)
        short = episode_trace(timing.LOCKSTEP_MIN_REQUESTS // 2 - 1, stores=1)
        assert len(short.gap_cycles) < timing.LOCKSTEP_MIN_REQUESTS
        assert_matches_reference(short, scheme)
        assert windows == []
        assert_matches_reference(episode_trace(3000, stores=1), scheme)
        assert windows and all(run is not None and run.episodes for _, run in windows)

    def test_a_narrow_window_stays_in_the_loop(self, windows):
        # One episode of 600 stores makes the windows around it pay 600
        # numpy steps for a few thousand requests.
        miss_trace = episode_trace(3000, stores=1)
        blocking = miss_trace.is_blocking.copy()
        blocking[100:700] = False
        narrow = MissTrace(**{**vars(miss_trace), "is_blocking": blocking})
        assert_matches_reference(narrow, StaticScheme(rate=300))
        assert windows == []

    def test_dynamic_windows_wait_for_room_in_the_epoch(self, windows):
        # The paper-scale dynamic:4x4 epochs start small: the first windows
        # would cross boundaries, so the loop serves them.
        miss_trace = episode_trace(3000, stores=1)
        assert_matches_reference(miss_trace, scheme_from_spec("dynamic:4x4"))
        served = sum(run.requests for _, run in windows if run is not None)
        assert 0 < served < len(miss_trace.gap_cycles)
