"""Tests for address-pattern primitives."""

import numpy as np
import pytest

import repro.workloads.patterns as patterns_module
from repro.util.rng import make_rng
from repro.workloads.patterns import (
    concat,
    interleave,
    pointer_chase,
    shared_scatters,
    stream,
    strided_sweep,
    uniform_working_set,
    zipf_working_set,
)
from repro.workloads.registry import build_trace


def rng():
    return make_rng(42, "patterns-test")


class TestStream:
    def test_sequential_addresses(self):
        segment = stream(rng(), 10, base=0, region_bytes=1 << 20, stride_bytes=8)
        assert list(segment.addresses[:4]) == [0, 8, 16, 24]

    def test_wraps_at_region_end(self):
        segment = stream(rng(), 10, base=0, region_bytes=32, stride_bytes=8)
        assert segment.addresses.max() < 32

    def test_store_fraction_respected(self):
        segment = stream(rng(), 5000, base=0, region_bytes=1 << 20, store_fraction=0.3)
        assert 0.25 < segment.is_store.mean() < 0.35

    def test_gap_mean(self):
        segment = stream(rng(), 5000, base=0, region_bytes=1 << 20, mean_gap=20.0)
        assert 17 < segment.gap_instructions.mean() < 23

    def test_zero_gap(self):
        segment = stream(rng(), 10, base=0, region_bytes=1 << 20, mean_gap=0.0)
        assert (segment.gap_instructions == 0).all()

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            stream(rng(), 0, base=0, region_bytes=64)
        with pytest.raises(ValueError):
            stream(rng(), 1, base=0, region_bytes=0)


class TestUniformWorkingSet:
    def test_addresses_within_region(self):
        segment = uniform_working_set(rng(), 1000, base=1 << 30, region_bytes=1 << 16)
        assert segment.addresses.min() >= 1 << 30
        assert segment.addresses.max() < (1 << 30) + (1 << 16)

    def test_line_aligned(self):
        segment = uniform_working_set(rng(), 100, base=0, region_bytes=1 << 16)
        assert (segment.addresses % 64 == 0).all()

    def test_covers_region(self):
        segment = uniform_working_set(rng(), 5000, base=0, region_bytes=64 * 64)
        assert len(np.unique(segment.addresses)) > 50


class TestZipfWorkingSet:
    def test_skewed_distribution(self):
        segment = zipf_working_set(rng(), 10000, base=0, region_bytes=1 << 20, skew=1.5)
        _values, counts = np.unique(segment.addresses, return_counts=True)
        # The hottest line dominates: zipf head heaviness.
        assert counts.max() > 10 * np.median(counts)

    def test_higher_skew_smaller_hot_set(self):
        mild = zipf_working_set(rng(), 5000, base=0, region_bytes=1 << 20, skew=1.2)
        sharp = zipf_working_set(rng(), 5000, base=0, region_bytes=1 << 20, skew=2.5)
        assert len(np.unique(sharp.addresses)) < len(np.unique(mild.addresses))

    def test_rejects_skew_at_most_one(self):
        with pytest.raises(ValueError):
            zipf_working_set(rng(), 10, base=0, region_bytes=1 << 16, skew=1.0)

    def test_scatter_is_shared_only_inside_one_build(self):
        def segment():
            return zipf_working_set(rng(), 2000, base=0, region_bytes=1 << 20,
                                    seed_permutation=9)

        alone = segment()
        with shared_scatters():
            shared = [segment(), segment()]
            memo = patterns_module._SCATTERS.get()
            assert list(memo) == [(9, (1 << 20) // 64)]
        assert patterns_module._SCATTERS.get() is None
        for other in shared:
            assert np.array_equal(other.addresses, alone.addresses)

    @pytest.mark.parametrize(("name", "seed", "digest"), [
        ("bzip2", 0, "cb78ba5b64684c50cce61edab4e1813af6207a50baf5903e80c60fa076eb4e83"),
        ("bzip2", 7, "dec1730738b4d5937c6a49a78141e5196ded8f03800cbb081faa3b12f1d1b18c"),
        ("gobmk", 0, "2915381d1d2e5d9294eb403147de4634db33e79849853853289003258c1a1986"),
        ("gobmk", 7, "fe6099c8e832766dfc0e68fbca331c01acd242957f2fab205450c82cecd8bcb5"),
    ])
    def test_traces_that_reuse_a_scatter_keep_their_digest(self, name, seed, digest):
        # Pinned before scatters were shared within a build: bzip2 draws
        # one scatter 4 times, gobmk 20-40 times over 3 regions.
        trace = build_trace(name, seed=seed, n_instructions=40_000)
        assert trace.content_digest() == digest


class TestPointerChase:
    def test_no_reuse_within_lap(self):
        n_lines = 128
        segment = pointer_chase(rng(), n_lines, base=0, region_bytes=n_lines * 64)
        assert len(np.unique(segment.addresses)) == n_lines

    def test_multiple_laps_cover_region(self):
        n_lines = 32
        segment = pointer_chase(rng(), 3 * n_lines, base=0, region_bytes=n_lines * 64)
        assert len(segment.addresses) == 3 * n_lines


class TestStridedSweep:
    def test_stride_respected(self):
        segment = strided_sweep(rng(), 5, base=0, region_bytes=1 << 20, stride_bytes=256)
        assert list(segment.addresses[:3]) == [0, 256, 512]


class TestCompose:
    def test_concat_preserves_order(self):
        a = stream(rng(), 5, base=0, region_bytes=1 << 16)
        b = stream(rng(), 5, base=1 << 20, region_bytes=1 << 16)
        joined = concat([a, b])
        assert joined.n_refs == 10
        assert joined.addresses[5] >= 1 << 20

    def test_concat_rejects_empty(self):
        with pytest.raises(ValueError):
            concat([])

    def test_interleave_alternates(self):
        a = stream(rng(), 6, base=0, region_bytes=1 << 16)
        b = stream(rng(), 6, base=1 << 20, region_bytes=1 << 16)
        mixed = interleave(rng(), a, b, chunk_refs=2)
        assert mixed.n_refs == 12
        # First chunk from a, second from b.
        assert mixed.addresses[0] < 1 << 20
        assert mixed.addresses[2] >= 1 << 20

    def test_interleave_handles_uneven(self):
        a = stream(rng(), 7, base=0, region_bytes=1 << 16)
        b = stream(rng(), 3, base=1 << 20, region_bytes=1 << 16)
        mixed = interleave(rng(), a, b, chunk_refs=2)
        assert mixed.n_refs == 10

    def test_segment_instruction_count(self):
        segment = stream(rng(), 10, base=0, region_bytes=1 << 16, mean_gap=5.0)
        assert segment.n_instructions == int(segment.gap_instructions.sum()) + 10
