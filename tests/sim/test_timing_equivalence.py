"""Property-based equivalence: fast timing replay vs scalar reference.

For any miss trace, scheme, and write-buffer depth, ``mode="fast"`` must
produce a SimResult bit-identical to ``mode="reference"``: same cycles,
same controller counters (including the float waste accumulator), same
epoch history, and byte-identical per-request completion arrays.  Small
epoch schedules force many rate transitions; a 1-entry write buffer
forces the full-buffer stall paths.  Every case runs with the slot
machines' episode lockstep forced off and forced on (the
``replay_routing`` fixtures of ``tests/conftest.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.epochs import EpochSchedule
from repro.core.scheme import (
    BaseDramScheme,
    BaseOramScheme,
    DynamicScheme,
    StaticScheme,
)
from repro.cpu.trace import EnergyEvents, MissTrace
from repro.sim.timing import run_timing

#: A schedule with tiny epochs so short runs cross many transitions.
FAST_EPOCHS = EpochSchedule(first_epoch_cycles=1 << 10, growth=2, tmax_cycles=1 << 40)


def make_miss_trace(gaps, blocking, tail=123.5):
    n = len(gaps)
    return MissTrace(
        gap_cycles=np.asarray(gaps, dtype=np.float64),
        is_blocking=np.asarray(blocking[:n], dtype=bool),
        instruction_index=np.arange(1, n + 1, dtype=np.int64) * 7,
        total_compute_cycles=tail,
        n_instructions=max(1, n * 10),
        energy=EnergyEvents(n_instructions=max(1, n * 10), n_memory_refs=n),
        source_name="prop",
        source_input="x",
    )


def assert_replay_identical(miss_trace, scheme, entries=8, record_requests=True):
    ref = run_timing(
        miss_trace, scheme, write_buffer_entries=entries,
        record_requests=record_requests, mode="reference",
    )
    fast = run_timing(
        miss_trace, scheme, write_buffer_entries=entries,
        record_requests=record_requests, mode="fast",
    )
    assert fast.cycles == ref.cycles
    assert fast.n_instructions == ref.n_instructions
    assert fast.controller.real_accesses == ref.controller.real_accesses
    assert fast.controller.dummy_accesses == ref.controller.dummy_accesses
    assert fast.controller.total_waste == ref.controller.total_waste
    assert fast.epochs == ref.epochs
    assert (
        np.asarray(fast.request_completion_times, dtype=np.float64).tobytes()
        == np.asarray(ref.request_completion_times, dtype=np.float64).tobytes()
    )
    assert fast.power_watts == ref.power_watts
    return fast


SCHEMES = [
    BaseDramScheme(),
    BaseOramScheme(oram_latency=37),
    StaticScheme(rate=19, oram_latency=37),
    StaticScheme(rate=500, oram_latency=1488),
    DynamicScheme(schedule=FAST_EPOCHS, initial_rate=25, oram_latency=37),
]


class TestPropertyEquivalence:
    @given(
        gaps=st.lists(
            st.one_of(
                st.floats(0.0, 5000.0, allow_nan=False),
                st.just(0.0),
                st.integers(0, 100_000).map(float),
            ),
            min_size=0, max_size=120,
        ),
        blocking=st.lists(st.booleans(), min_size=120, max_size=120),
        scheme_index=st.integers(0, len(SCHEMES) - 1),
        entries=st.sampled_from([1, 2, 8]),
        record=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_trace_any_scheme(
        self, each_replay_routing, gaps, blocking, scheme_index, entries, record
    ):
        miss_trace = make_miss_trace(gaps, blocking)
        each_replay_routing(lambda: assert_replay_identical(
            miss_trace, SCHEMES[scheme_index],
            entries=entries, record_requests=record,
        ))


@pytest.mark.usefixtures("replay_routing")
class TestStallPaths:
    def test_flat_dram_full_buffer_falls_back(self):
        """Zero-gap non-blocking bursts overflow the write buffer; the
        vectorized base_dram kernel must detect it and fall back to the
        exact reference behaviour."""
        n = 40
        miss_trace = make_miss_trace([0.0] * n, [False] * n)
        result = assert_replay_identical(
            miss_trace, BaseDramScheme(), entries=2
        )
        assert result.controller.real_accesses == n

    def test_flat_dram_no_stall_stays_vectorized(self):
        miss_trace = make_miss_trace([100.0] * 20, [True, False] * 10)
        assert_replay_identical(miss_trace, BaseDramScheme(), entries=8)

    def test_slotted_write_buffer_stalls(self):
        n = 30
        miss_trace = make_miss_trace([0.0] * n, [False] * n)
        assert_replay_identical(
            miss_trace, StaticScheme(rate=11, oram_latency=7), entries=1
        )


@pytest.mark.usefixtures("replay_routing")
class TestDummyAndEpochPaths:
    def test_long_idle_gap_fires_many_dummies(self):
        """A single huge gap covers thousands of dummy slots — the
        closed-form advance must count them exactly."""
        miss_trace = make_miss_trace([1_000_000.5, 10.0], [True, True])
        result = assert_replay_identical(
            miss_trace, StaticScheme(rate=300, oram_latency=1488)
        )
        assert result.controller.dummy_accesses > 500

    def test_trailing_dummies_after_last_request(self):
        miss_trace = make_miss_trace([10.0], [True], tail=500_000.0)
        assert_replay_identical(miss_trace, StaticScheme(rate=100, oram_latency=50))

    def test_epoch_transitions_mid_idle(self):
        """Rate changes at epoch boundaries inside one idle window."""
        scheme = DynamicScheme(schedule=FAST_EPOCHS, initial_rate=20, oram_latency=10)
        miss_trace = make_miss_trace(
            [50_000.0, 0.25, 80_000.75, 3.0, 200_000.0], [True] * 5
        )
        result = assert_replay_identical(miss_trace, scheme)
        assert len(result.epochs) > 3

    def test_empty_trace_still_runs_dummy_timeline(self):
        miss_trace = make_miss_trace([], [], tail=100_000.0)
        result = assert_replay_identical(
            miss_trace, StaticScheme(rate=64, oram_latency=16)
        )
        assert result.controller.dummy_accesses > 100

    def test_observable_trace_uses_reference_kernel(self):
        miss_trace = make_miss_trace([10.0, 2000.0], [True, True])
        scheme = StaticScheme(rate=100, oram_latency=50)
        fast = run_timing(miss_trace, scheme, record_observable_trace=True, mode="fast")
        ref = run_timing(
            miss_trace, scheme, record_observable_trace=True, mode="reference"
        )
        assert fast.observable_access_times.tobytes() == ref.observable_access_times.tobytes()
        assert len(fast.observable_access_times) == fast.controller.total_accesses

    def test_invalid_mode_rejected(self):
        miss_trace = make_miss_trace([1.0], [True])
        with pytest.raises(ValueError, match="mode"):
            run_timing(miss_trace, BaseDramScheme(), mode="warp")
