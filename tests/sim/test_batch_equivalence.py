"""Property-based equivalence: config-batched replay vs per-scheme replay.

For any miss trace and any mix of schemes, ``run_timing_batch`` must
return, per config, a SimResult element-wise identical to the per-scheme
``run_timing`` oracle: same cycles, same controller counters (including
the float waste accumulator), same epoch records (rates, start cycles,
raw learner estimates — the leakage-bit accounting derives from these),
and byte-identical per-request completion arrays.  Degenerate batches of
size one and batches mixing static/dynamic/baseline schemes are part of
the property space, as are small epoch schedules (many transitions) and
a 1-entry write buffer (store stretches pop immediately).

``run_timing_batch`` routes its slot schemes by a cost rule
(``batch_pays``), so the same property is also checked on the batched
kernel itself, and the router is tested on both sides of the rule.
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
    dynamic,
    expand_scheme_grid,
    scheme_from_spec,
)
from repro.cpu.trace import EnergyEvents, MissTrace
from repro.frontier import FrontierConfig
from repro.perf.bench import FRONTIER_CELL_GRID
from repro.sim import timing
from repro.sim.simulator import SecureProcessorSim, SimConfig
from repro.sim.timing import (
    BATCH_MIN_CONFIGS,
    BATCH_SPARSE_CONFIGS,
    _build_result,
    _replay_slotted_batch,
    batch_pays,
    run_timing,
    run_timing_batch,
)

#: A schedule with tiny epochs so short runs cross many transitions.
FAST_EPOCHS = EpochSchedule(first_epoch_cycles=1 << 10, growth=2, tmax_cycles=1 << 40)

#: The scheme pool batches draw from: baselines, statics, and dynamics
#: with both learners at several (|R|, growth) lattice points.
SCHEME_POOL = [
    BaseDramScheme(),
    BaseOramScheme(oram_latency=37),
    StaticScheme(rate=19, oram_latency=37),
    StaticScheme(rate=300, oram_latency=1488),
    StaticScheme(rate=1300, oram_latency=1488),
    DynamicScheme(schedule=FAST_EPOCHS, initial_rate=25, oram_latency=37),
    DynamicScheme(
        schedule=FAST_EPOCHS, initial_rate=25, oram_latency=37,
        learner_kind="threshold",
    ),
    dynamic(4, 4),
    dynamic(2, 2, learner_kind="threshold"),
    dynamic(8, 9),
    DynamicScheme(
        schedule=FAST_EPOCHS, initial_rate=40, oram_latency=11,
        log_discretize=False,
    ),
    DynamicScheme(
        schedule=FAST_EPOCHS, initial_rate=40, oram_latency=11,
        exact_divide=True,
    ),
]


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


#: The slot schemes of the pool: what the batched kernel replays.
SLOT_POOL = [
    scheme for scheme in SCHEME_POOL
    if not isinstance(scheme, (BaseDramScheme, BaseOramScheme))
]


def assert_batch_identical(miss_trace, schemes, entries=8, record_requests=True):
    """run_timing_batch == [run_timing(...)] element-wise, per config."""
    batch = run_timing_batch(
        miss_trace, schemes, write_buffer_entries=entries,
        record_requests=record_requests,
    )
    return assert_matches_oracle(miss_trace, schemes, batch, entries, record_requests)


def batched_kernel(miss_trace, schemes, entries=8, record_requests=True):
    """Replay slot ``schemes`` on the batched kernel, whatever the rule says."""
    controllers = [scheme.build_controller() for scheme in schemes]
    replays = _replay_slotted_batch(miss_trace, controllers, entries, record_requests)
    return [
        _build_result(
            miss_trace, scheme, controller, end_time, completions,
            record_requests, record_observable_trace=False,
        )
        for scheme, controller, (end_time, completions)
        in zip(schemes, controllers, replays)
    ]


def assert_matches_oracle(miss_trace, schemes, batch, entries, record_requests):
    """Each of ``batch`` equals its scheme's ``run_timing`` oracle."""
    assert len(batch) == len(schemes)
    for scheme, got in zip(schemes, batch):
        want = run_timing(
            miss_trace, scheme, write_buffer_entries=entries,
            record_requests=record_requests,
        )
        assert got.scheme_name == want.scheme_name
        assert got.cycles == want.cycles
        assert got.n_instructions == want.n_instructions
        assert got.controller.real_accesses == want.controller.real_accesses
        assert got.controller.dummy_accesses == want.controller.dummy_accesses
        assert got.controller.total_waste == want.controller.total_waste
        assert got.epochs == want.epochs
        assert (
            np.asarray(got.request_completion_times, dtype=np.float64).tobytes()
            == np.asarray(want.request_completion_times, dtype=np.float64).tobytes()
        )
        assert got.power_watts == want.power_watts
    return batch


class TestPropertyEquivalence:
    @given(
        gaps=st.lists(
            st.one_of(
                st.floats(0.0, 5000.0, allow_nan=False),
                st.just(0.0),
                st.integers(0, 100_000).map(float),
            ),
            min_size=0, max_size=100,
        ),
        blocking=st.lists(st.booleans(), min_size=100, max_size=100),
        scheme_indices=st.lists(
            st.integers(0, len(SCHEME_POOL) - 1),
            min_size=1, max_size=6,
        ),
        entries=st.sampled_from([1, 2, 8]),
        record=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_trace_any_batch(
        self, gaps, blocking, scheme_indices, entries, record
    ):
        miss_trace = make_miss_trace(gaps, blocking)
        schemes = [SCHEME_POOL[i] for i in scheme_indices]
        assert_batch_identical(
            miss_trace, schemes, entries=entries, record_requests=record
        )


    @given(
        gaps=st.lists(
            st.one_of(
                st.floats(0.0, 5000.0, allow_nan=False),
                st.just(0.0),
                st.integers(0, 100_000).map(float),
            ),
            min_size=0, max_size=100,
        ),
        blocking=st.lists(st.booleans(), min_size=100, max_size=100),
        scheme_indices=st.lists(
            st.integers(0, len(SLOT_POOL) - 1), min_size=2, max_size=10,
        ),
        entries=st.sampled_from([1, 2, 8]),
        record=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_trace_any_batch_through_batched_kernel(
        self, gaps, blocking, scheme_indices, entries, record
    ):
        """The batched kernel stays exact wherever the rule would route."""
        miss_trace = make_miss_trace(gaps, blocking)
        schemes = [SLOT_POOL[i] for i in scheme_indices]
        assert_matches_oracle(
            miss_trace, schemes,
            batched_kernel(miss_trace, schemes, entries, record),
            entries, record,
        )


def _count_batches(monkeypatch) -> list:
    """Record the config count of every batched-kernel call."""
    calls = []
    kernel = timing._replay_slotted_batch

    def counting(miss_trace, controllers, *args):
        calls.append(len(controllers))
        return kernel(miss_trace, controllers, *args)

    monkeypatch.setattr(timing, "_replay_slotted_batch", counting)
    return calls


def _workload_trace(benchmark, input_name=None):
    sim = SecureProcessorSim(SimConfig(n_instructions=40_000))
    return sim.miss_trace(benchmark, input_name)


#: The default frontier sweep's 115 slot configs (its schemes but base_dram).
FRONTIER_GRID_115 = FrontierConfig().schemes()[1:]


class TestRouting:
    """Both sides of ``n >= 8 + 200*s``: the path taken, and bit-identity."""

    def test_figure6_batch_on_a_sparse_trace_replays_single(self, monkeypatch):
        miss_trace = _workload_trace("gobmk")
        schemes = [
            scheme_from_spec(spec)
            for spec in ("base_dram", "base_oram", "dynamic:4x4",
                         "static:300", "static:500", "static:1300")
        ]
        calls = _count_batches(monkeypatch)
        assert_batch_identical(miss_trace, schemes, record_requests=False)
        assert calls == []

    def test_frontier_cell_grid_on_libquantum_stays_batched(self, monkeypatch):
        miss_trace = _workload_trace("libquantum")
        schemes = [scheme_from_spec(spec) for spec in expand_scheme_grid(FRONTIER_CELL_GRID)]
        calls = _count_batches(monkeypatch)
        assert_batch_identical(miss_trace, schemes, record_requests=False)
        assert calls == [16]

    def test_frontier_grid_on_h264ref_replays_single(self, monkeypatch):
        miss_trace = _workload_trace("h264ref")
        schemes = [scheme_from_spec(spec) for spec in FRONTIER_GRID_115]
        assert len(schemes) == 115
        calls = _count_batches(monkeypatch)
        assert_batch_identical(miss_trace, schemes, record_requests=False)
        assert calls == []

    def test_rule_boundary_is_exact(self):
        """With 5 of 100 gaps above the rate, 18 configs batch and 17 do not."""
        miss_trace = make_miss_trace([10.0] * 95 + [500.0] * 5, [True] * 100)
        threshold = BATCH_MIN_CONFIGS + BATCH_SPARSE_CONFIGS * 0.05
        assert threshold == 18
        static = StaticScheme(rate=300, oram_latency=37)
        assert batch_pays(miss_trace, [static.build_controller()] * 18)
        assert not batch_pays(miss_trace, [static.build_controller()] * 17)

    def test_the_smallest_rate_sets_the_sparsity(self):
        """A dynamic config's fastest candidate rate counts, not its start."""
        miss_trace = make_miss_trace([400.0] * 100, [True] * 100)
        slow = [StaticScheme(rate=1000).build_controller()] * BATCH_MIN_CONFIGS
        assert batch_pays(miss_trace, slow)  # no gap reaches rate 1000
        fast = dynamic(4, 4).build_controller()  # starts at 10000, can go to 256
        assert fast.rate > 400 > fast.learner.rates.fastest
        assert not batch_pays(miss_trace, slow + [fast])

    def test_dense_batches_below_the_minimum_replay_single(self, monkeypatch):
        miss_trace = make_miss_trace([1.0] * 50, [True] * 50)
        schemes = [StaticScheme(rate=100 + i, oram_latency=37) for i in range(7)]
        calls = _count_batches(monkeypatch)
        assert_batch_identical(miss_trace, schemes)
        assert calls == []
        assert_batch_identical(miss_trace, schemes + [StaticScheme(rate=99)])
        assert calls == [8]


class TestBatchShapes:
    def test_singleton_batch(self):
        """A degenerate batch of one slot scheme matches its oracle."""
        miss_trace = make_miss_trace([100.0, 3.5, 0.0, 9000.0], [True] * 4)
        assert_batch_identical(miss_trace, [StaticScheme(rate=300)])

    def test_singleton_batch_through_batched_kernel(self):
        """The batched kernel itself is exact at n_configs == 1."""
        miss_trace = make_miss_trace(
            [50.0] * 30 + [100_000.0] + [10.0] * 30,
            ([True, True, False] * 21)[:61],
        )
        scheme = DynamicScheme(schedule=FAST_EPOCHS, initial_rate=25, oram_latency=37)
        controller = scheme.build_controller()
        end_time, completions = _replay_slotted_batch(
            miss_trace, [controller], entries=8, record_requests=True
        )[0]
        want = run_timing(miss_trace, scheme)
        assert end_time == pytest.approx(want.cycles, abs=0)
        assert completions.tobytes() == want.request_completion_times.tobytes()
        assert controller.stats.dummy_accesses == want.controller.dummy_accesses
        assert controller.stats.total_waste == want.controller.total_waste
        assert controller.rate_history == want.epochs

    def test_mixed_static_dynamic_and_baselines(self):
        miss_trace = make_miss_trace(
            [120.0, 0.25, 44.0, 3000.5, 7.0] * 12, [True, False] * 30
        )
        schemes = [
            scheme_from_spec(spec)
            for spec in (
                "base_dram", "base_oram", "static:300",
                "dynamic:4x4", "dynamic:2x2:threshold", "static:1300",
            )
        ]
        assert_batch_identical(miss_trace, schemes)

    def test_duplicate_schemes_get_independent_controllers(self):
        miss_trace = make_miss_trace([75.0] * 40, [True] * 40)
        results = assert_batch_identical(
            miss_trace, [StaticScheme(rate=100), StaticScheme(rate=100)]
        )
        assert results[0].controller is not results[1].controller

    def test_empty_trace_batch(self):
        miss_trace = make_miss_trace([], [], tail=50_000.0)
        results = assert_batch_identical(
            miss_trace,
            [StaticScheme(rate=64, oram_latency=16), dynamic(4, 4)],
        )
        assert results[0].controller.dummy_accesses > 100

    def test_empty_scheme_list(self):
        miss_trace = make_miss_trace([1.0], [True])
        assert run_timing_batch(miss_trace, []) == []

    def test_store_stretches_exercise_buffer_paths(self):
        """Long store stretches pop the 1-entry buffer immediately."""
        miss_trace = make_miss_trace(
            [5.0] * 60, ([True] + [False] * 5) * 10
        )
        assert_batch_identical(
            miss_trace,
            [StaticScheme(rate=11, oram_latency=7), dynamic(2, 2)],
            entries=1,
        )

    def test_leakage_accounting_matches_per_scheme(self):
        """Expended leakage bits derive from identical epoch counts."""
        miss_trace = make_miss_trace([200.0] * 80, [True] * 80)
        schemes = [
            DynamicScheme(schedule=FAST_EPOCHS, initial_rate=25, oram_latency=37),
            DynamicScheme(
                schedule=FAST_EPOCHS, initial_rate=25, oram_latency=37,
                learner_kind="threshold",
            ),
        ]
        batch = run_timing_batch(miss_trace, schemes)
        for scheme, got in zip(schemes, batch):
            want = run_timing(miss_trace, scheme)
            assert len(got.epochs) == len(want.epochs)
            assert scheme.expended_leakage_bits(len(got.epochs)) == (
                scheme.expended_leakage_bits(len(want.epochs))
            )

    def test_reference_mode_delegates_to_oracle(self):
        miss_trace = make_miss_trace([10.0, 2000.0, 5.0], [True, False, True])
        schemes = [StaticScheme(rate=100, oram_latency=50), dynamic(4, 4)]
        batch = run_timing_batch(miss_trace, schemes, mode="reference")
        for scheme, got in zip(schemes, batch):
            want = run_timing(miss_trace, scheme, mode="reference")
            assert got.cycles == want.cycles
            assert got.controller.dummy_accesses == want.controller.dummy_accesses

    def test_invalid_mode_rejected(self):
        miss_trace = make_miss_trace([1.0], [True])
        with pytest.raises(ValueError, match="mode"):
            run_timing_batch(miss_trace, [StaticScheme(rate=10)], mode="warp")
