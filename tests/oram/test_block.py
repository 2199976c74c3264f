"""Tests for block/bucket serialization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.oram.block import (
    Block,
    deserialize_block,
    deserialize_bucket,
    serialize_block,
    serialize_bucket,
    serialized_block_bytes,
)


class TestBlock:
    def test_dummy_flag(self):
        assert Block.dummy(32).is_dummy
        assert not Block(address=0, leaf=0, data=b"x").is_dummy

    def test_dummy_payload_is_zero(self):
        assert Block.dummy(16).data == bytes(16)


class TestBlockSerialization:
    @given(
        st.integers(min_value=0, max_value=2**40),
        st.integers(min_value=0, max_value=2**30),
        st.binary(min_size=0, max_size=32),
    )
    def test_roundtrip(self, address, leaf, data):
        block = Block(address=address, leaf=leaf, data=data)
        restored = deserialize_block(serialize_block(block, 32), 32)
        assert restored.address == address
        assert restored.leaf == leaf
        assert restored.data[: len(data)] == data

    def test_dummy_roundtrip(self):
        raw = serialize_block(Block.dummy(32), 32)
        assert deserialize_block(raw, 32).is_dummy

    def test_fixed_size(self):
        raw = serialize_block(Block(address=1, leaf=2, data=b"ab"), 32)
        assert len(raw) == serialized_block_bytes(32)

    def test_oversize_payload_rejected(self):
        with pytest.raises(ValueError):
            serialize_block(Block(address=0, leaf=0, data=b"x" * 33), 32)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            deserialize_block(b"short", 32)


class TestBucketSerialization:
    def test_padding_to_z(self):
        blocks = [Block(address=1, leaf=0, data=b"a")]
        raw = serialize_bucket(blocks, z=4, block_bytes=32)
        assert len(raw) == 4 * serialized_block_bytes(32)

    def test_roundtrip_drops_dummies(self):
        blocks = [
            Block(address=7, leaf=3, data=b"seven"),
            Block(address=9, leaf=1, data=b"nine"),
        ]
        raw = serialize_bucket(blocks, z=4, block_bytes=32)
        restored = deserialize_bucket(raw, z=4, block_bytes=32)
        assert {b.address for b in restored} == {7, 9}

    def test_all_buckets_same_size(self):
        """Fixed-size buckets are what make encrypted buckets uniform."""
        empty = serialize_bucket([], z=3, block_bytes=64)
        full = serialize_bucket(
            [Block(address=i, leaf=0, data=b"x") for i in range(3)], z=3, block_bytes=64
        )
        assert len(empty) == len(full)

    def test_overfull_rejected(self):
        blocks = [Block(address=i, leaf=0, data=b"") for i in range(5)]
        with pytest.raises(ValueError):
            serialize_bucket(blocks, z=4, block_bytes=32)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            deserialize_bucket(b"x" * 10, z=4, block_bytes=32)
