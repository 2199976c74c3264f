"""Property-based equivalence: vectorized hierarchy pass vs scalar oracle.

The contract is *byte equivalence*: for any trace, configuration, and
warm-up split, the vectorized kernel must produce a MissTrace whose
arrays are bit-identical to the scalar reference's and whose scalar
accounting (compute cycles, instruction counts, energy events) is equal.
Small cache geometries make evictions, back-invalidations, and dirty
writebacks dense enough for short random traces to exercise every path.
Every case runs with the lockstep mode forced off and forced on (the
``functional_routing`` and ``each_routing`` fixtures), except
``TestRouting``, which checks the rule at its calibrated constants.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.hierarchy import (
    HierarchyConfig,
    simulate_hierarchy,
    simulate_hierarchy_reference,
)
from repro.cache.vectorized import (
    DEFAULT_CHUNK_REFS,
    VectorizedHierarchyPass,
    hierarchy_pass_vectorized,
)
from repro.cpu.core import DEFAULT_CORE
from repro.cpu.trace import MemoryTrace

#: Tiny hierarchy: 2-set/2-way L1 over 2 sets x 4-way L2, 64 B lines.
#: A 32-line address pool thrashes it constantly.
TINY = HierarchyConfig(
    l1i_bytes=256, l1i_ways=2,
    l1d_bytes=256, l1d_ways=2,
    l2_bytes=512, l2_ways=4,
    line_bytes=64,
)


def make_trace(lines, stores, gaps, name="prop"):
    n = len(lines)
    return MemoryTrace(
        name=name,
        input_name="x",
        addresses=np.asarray(lines, dtype=np.uint64) * 64,
        is_store=np.asarray(stores[:n], dtype=bool),
        gap_instructions=np.asarray(gaps[:n], dtype=np.int64),
    )


def assert_bit_identical(trace, config, warmup=0, chunk_refs=None):
    ref = simulate_hierarchy_reference(
        trace, config, DEFAULT_CORE, warmup_instructions=warmup
    )
    if chunk_refs is None:
        fast = simulate_hierarchy(
            trace, config, DEFAULT_CORE, warmup_instructions=warmup, mode="fast"
        )
    else:
        fast = hierarchy_pass_vectorized(
            trace, config, DEFAULT_CORE,
            warmup_instructions=warmup, chunk_refs=chunk_refs,
        )
    assert fast.gap_cycles.tobytes() == ref.gap_cycles.tobytes()
    assert fast.is_blocking.tobytes() == ref.is_blocking.tobytes()
    assert fast.instruction_index.tobytes() == ref.instruction_index.tobytes()
    assert fast.total_compute_cycles == ref.total_compute_cycles
    assert type(fast.total_compute_cycles) is type(ref.total_compute_cycles)
    assert fast.n_instructions == ref.n_instructions
    assert fast.energy == ref.energy
    assert fast.checksum() == ref.checksum()


class TestPropertyEquivalence:
    @given(
        lines=st.lists(st.integers(0, 31), min_size=0, max_size=300),
        stores=st.lists(st.booleans(), min_size=300, max_size=300),
        gaps=st.lists(st.integers(0, 40), min_size=300, max_size=300),
        warmup=st.sampled_from([0, 1, 37, 500, 10_000]),
    )
    @settings(max_examples=80, deadline=None)
    def test_tiny_hierarchy(self, each_routing, lines, stores, gaps, warmup):
        trace = make_trace(lines, stores, gaps)
        each_routing(lambda: assert_bit_identical(trace, TINY, warmup=warmup))

    @given(
        lines=st.lists(st.integers(0, 31), min_size=1, max_size=200),
        stores=st.lists(st.booleans(), min_size=200, max_size=200),
        gaps=st.lists(st.integers(0, 10), min_size=200, max_size=200),
        chunk_refs=st.sampled_from([1, 3, 7, 64]),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunk_boundaries(self, each_routing, lines, stores, gaps, chunk_refs):
        """Chunking must be invisible: any chunk size, same bytes."""
        trace = make_trace(lines, stores, gaps)
        each_routing(lambda: assert_bit_identical(trace, TINY, chunk_refs=chunk_refs))

    @given(
        lines=st.lists(
            st.one_of(
                st.integers(0, 7),           # hot set (hits)
                st.integers(0, 1 << 30),     # cold sweep (misses)
            ),
            min_size=0, max_size=400,
        ),
        stores=st.lists(st.booleans(), min_size=400, max_size=400),
        gaps=st.lists(st.integers(0, 100), min_size=400, max_size=400),
    )
    @settings(max_examples=40, deadline=None)
    def test_paper_hierarchy_mixed_locality(self, each_routing, lines, stores, gaps):
        """Paper-scale geometry with mixed hot/cold reference streams."""
        trace = make_trace(lines, stores, gaps)
        each_routing(lambda: assert_bit_identical(trace, None, warmup=0))


@pytest.mark.usefixtures("functional_routing")
class TestEdgeCases:
    def test_empty_trace(self):
        assert_bit_identical(make_trace([], [], []), TINY)

    def test_single_reference(self):
        assert_bit_identical(make_trace([5], [True], [3]), TINY)

    def test_trace_ending_on_miss_keeps_float_tail(self):
        """Regression: an empty post-miss tail must stay float 0.0."""
        trace = make_trace([1, 2, 3, 4, 5, 6, 7, 8], [False] * 8, [0] * 8)
        assert_bit_identical(trace, TINY)

    def test_warmup_swallows_everything(self):
        trace = make_trace([1, 2, 3], [False, True, False], [5, 5, 5])
        assert_bit_identical(trace, TINY, warmup=10_000)

    def test_warmup_boundary_at_first_reference(self):
        trace = make_trace([1, 2, 1, 2], [False] * 4, [10, 0, 0, 0])
        assert_bit_identical(trace, TINY, warmup=1)

    def test_warmup_splits_a_run(self):
        # Same line on both sides of the warm-up boundary.
        trace = make_trace([4, 4, 4, 4, 4, 9], [False, True] * 3, [3] * 6)
        assert_bit_identical(trace, TINY, warmup=9)

    def test_invalid_mode_rejected(self):
        trace = make_trace([1], [False], [0])
        with pytest.raises(ValueError, match="mode"):
            simulate_hierarchy(trace, TINY, DEFAULT_CORE, mode="turbo")

    def test_invalid_chunk_refs_rejected(self):
        trace = make_trace([1], [False], [0])
        with pytest.raises(ValueError, match="chunk_refs"):
            hierarchy_pass_vectorized(trace, TINY, DEFAULT_CORE, chunk_refs=0)


@pytest.mark.usefixtures("functional_routing")
class TestWorkloadEquivalence:
    """Full registry workloads at a reduced budget, both warm-up splits."""

    @pytest.mark.parametrize("workload", ["mcf", "h264ref", "libquantum", "sjeng"])
    @pytest.mark.parametrize("warmup", [0, 30_000])
    def test_registry_workload(self, workload, warmup):
        from repro.workloads.registry import build_trace

        trace = build_trace(workload, seed=0, n_instructions=100_000)
        assert_bit_identical(trace, None, warmup=warmup)

    def test_grouped_segment_sums_path(self):
        """A miss-dense trace with > 4096 misses takes the length-grouped
        reconstruction path (sequential vectorized adds per length class)
        and must stay bit-identical to the reference accumulator."""
        rng = np.random.default_rng(11)
        n = 9_000
        lines = rng.integers(0, 4096, size=n)  # thrashes TINY constantly
        stores = rng.random(n) < 0.3
        gaps = rng.integers(0, 6, size=n)
        trace = make_trace(lines.tolist(), stores.tolist(), gaps.tolist())
        assert_bit_identical(trace, TINY)
        assert_bit_identical(trace, TINY, warmup=2_000)


#: An L1 with more sets than its L2: 8-set/2-way L1 over a 4-set/8-way L2.
#: Lanes follow L2's sets, so an L2 victim's back-invalidation can land in
#: another L1 set of its lane than the one the missing line fills.
WIDE_L1 = HierarchyConfig(
    l1i_bytes=256, l1i_ways=2,
    l1d_bytes=1024, l1d_ways=2,
    l2_bytes=2048, l2_ways=8,
    line_bytes=64,
)


@pytest.mark.usefixtures("functional_routing")
class TestDirtyBits:
    def test_l2_victim_dirty_in_l1_merges_into_its_writeback(self):
        # Line 0 is stored to, then kept in L1 by hits between fresh even
        # lines.  L1 hits never refresh L2's LRU, so the fifth line of L2
        # set 0 evicts line 0 while it is still resident and dirty in L1:
        # L2's own copy is clean, and only the merged L1 bit makes the
        # writeback.
        lines = [0, 2, 0, 4, 0, 6, 0, 8]
        trace = make_trace(lines, [True] + [False] * 7, [1] * 8)
        ref = simulate_hierarchy_reference(trace, TINY, DEFAULT_CORE)
        assert ref.energy.writebacks == 1
        assert not ref.is_blocking[-1], "the writeback follows the last miss"
        assert_bit_identical(trace, TINY)
        for chunk_refs in (1, 3):
            assert_bit_identical(trace, TINY, chunk_refs=chunk_refs)

    @pytest.mark.parametrize("warmup", [0, 4], ids=["counted", "warming"])
    def test_dirty_l1_victim_in_warmup_leaves_l2_clean(self, warmup):
        # Line 0 is stored to, then evicted from L1 by lines 2 and 4.
        # Counted, its dirty bit moves into L2, and line 8 later evicts it
        # from L2 as a writeback; during warm-up the bit is dropped, and
        # the same eviction writes nothing back.
        trace = make_trace([0, 2, 4, 6, 8], [True] + [False] * 4, [0] * 5)
        ref = simulate_hierarchy_reference(
            trace, TINY, DEFAULT_CORE, warmup_instructions=warmup
        )
        assert ref.energy.writebacks == (1 if warmup == 0 else 0)
        assert ref.energy.llc_misses == (5 if warmup == 0 else 2)
        for chunk_refs in (None, 1, 2):
            assert_bit_identical(trace, TINY, warmup=warmup, chunk_refs=chunk_refs)

    @pytest.mark.parametrize("seed", range(3))
    def test_l2_with_fewer_sets_than_l1(self, seed):
        rng = np.random.default_rng(seed)
        writebacks = 0
        for _ in range(20):
            n = int(rng.integers(1, 400))
            lines = np.repeat(rng.integers(0, 96, size=n), rng.integers(1, 3, size=n))[:n]
            trace = make_trace(lines.tolist(), (rng.random(n) < 0.4).tolist(),
                               rng.integers(0, 12, size=n).tolist())
            warmup = int(rng.choice([0, 50, 600]))
            chunk_refs = int(rng.choice([7, 64, 1 << 14]))
            assert_bit_identical(trace, WIDE_L1, warmup=warmup, chunk_refs=chunk_refs)
            writebacks += simulate_hierarchy_reference(
                trace, WIDE_L1, DEFAULT_CORE, warmup_instructions=warmup
            ).energy.writebacks
        assert writebacks > 0


class TestRouting:
    """The lockstep rule at its calibrated constants (unpatched)."""

    @pytest.fixture
    def lockstep_calls(self, monkeypatch):
        calls = []
        classify = VectorizedHierarchyPass._lockstep

        def counted(machine, lines, *args):
            calls.append(len(lines))
            return classify(machine, lines, *args)

        monkeypatch.setattr(VectorizedHierarchyPass, "_lockstep", counted)
        return calls

    def test_a_long_mcf_stream_runs_in_lockstep(self, lockstep_calls):
        from repro.cache.streaming import run_functional_streaming
        from repro.workloads.registry import build_trace

        trace = build_trace("mcf", seed=0, n_instructions=2_000_000)
        streamed = run_functional_streaming(trace, chunk_refs=1 << 16)
        n_sub_slices = -(-trace.n_references // DEFAULT_CHUNK_REFS)
        assert len(lockstep_calls) == n_sub_slices
        ref = simulate_hierarchy_reference(trace, None, DEFAULT_CORE)
        assert streamed.checksum() == ref.checksum()
        assert streamed.energy == ref.energy

    def test_figure6_traces_at_40k_stay_on_the_dict_modes(self, lockstep_calls):
        from repro.api.figures import FIG6_BENCHMARKS
        from repro.sim.simulator import SimConfig
        from repro.workloads.registry import build_trace

        config = SimConfig(n_instructions=40_000)
        warmup = int(config.n_instructions * config.warmup_fraction)
        for name, input_name in FIG6_BENCHMARKS:
            trace = build_trace(name, seed=0, input_name=input_name,
                                n_instructions=config.n_instructions + warmup)
            simulate_hierarchy(trace, warmup_instructions=warmup)
        assert lockstep_calls == []
