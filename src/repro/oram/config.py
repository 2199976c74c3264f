"""Path ORAM configuration and derived tree geometry.

The paper's evaluation (Section 9.1.2) uses a 4 GB-capacity Path ORAM with a
1 GB working set, Z = 3 blocks per bucket, 64-byte cache-line blocks, and
3 levels of recursion with 32-byte position-map blocks.  ``ORAMConfig``
captures those knobs; :class:`TreeGeometry` derives everything downstream
code needs (level count, bucket count, bytes per path) from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.bitops import ceil_div, ceil_lg
from repro.util.units import GB, pretty_bytes
from repro.util.validation import check_positive


@dataclass(frozen=True)
class ORAMConfig:
    """User-facing Path ORAM parameters.

    Attributes:
        capacity_bytes: Total data capacity of the ORAM (paper: 4 GB).
        block_bytes: Size of a data block; one LLC cache line (paper: 64 B).
        blocks_per_bucket: Z, real-block slots per tree bucket (paper: 3).
        recursion_levels: Number of position-map ORAMs stacked on top of the
            data ORAM (paper: 3).  0 means the full position map is on-chip.
        recursive_block_bytes: Block size of position-map ORAMs (paper: 32 B).
        leaf_label_bytes: Bytes to store one leaf label inside a position-map
            block.  4 bytes covers trees up to 2**32 leaves.
        bucket_header_bytes: Per-bucket metadata (addresses, leaf labels,
            validity bits, encryption nonce/MAC space) transferred along with
            the payload on every path read/write.
        utilization: Fraction of block slots expected to hold real data; used
            to size the tree so the stash stays small.  Path ORAM provisions
            roughly 2x the working set in slots.
    """

    capacity_bytes: int = 4 * GB
    block_bytes: int = 64
    blocks_per_bucket: int = 3
    recursion_levels: int = 3
    recursive_block_bytes: int = 32
    leaf_label_bytes: int = 4
    bucket_header_bytes: int = 16
    utilization: float = 0.5

    def __post_init__(self) -> None:
        check_positive(self.capacity_bytes, "capacity_bytes")
        check_positive(self.block_bytes, "block_bytes")
        check_positive(self.blocks_per_bucket, "blocks_per_bucket")
        check_positive(self.recursive_block_bytes, "recursive_block_bytes")
        check_positive(self.leaf_label_bytes, "leaf_label_bytes")
        if self.recursion_levels < 0:
            raise ValueError(f"recursion_levels must be >= 0, got {self.recursion_levels}")
        if not 0.0 < self.utilization <= 1.0:
            raise ValueError(f"utilization must be in (0, 1], got {self.utilization}")

    @property
    def n_blocks(self) -> int:
        """Number of addressable data blocks."""
        return ceil_div(self.capacity_bytes, self.block_bytes)

    @property
    def labels_per_recursive_block(self) -> int:
        """How many leaf labels fit in one position-map ORAM block."""
        return max(1, self.recursive_block_bytes // self.leaf_label_bytes)

    def data_geometry(self) -> "TreeGeometry":
        """Geometry of the data (level-0) ORAM tree."""
        return TreeGeometry.for_block_count(
            n_blocks=self.n_blocks,
            blocks_per_bucket=self.blocks_per_bucket,
            block_bytes=self.block_bytes,
            bucket_header_bytes=self.bucket_header_bytes,
            utilization=self.utilization,
        )

    def recursion_geometries(self) -> list["TreeGeometry"]:
        """Geometries of the position-map ORAMs, outermost (largest) first.

        ORAM_1 stores the data ORAM's position map, ORAM_2 stores ORAM_1's,
        and so on, each shrinking by ``labels_per_recursive_block``.  The
        final (smallest) map lives on-chip and has no tree.
        """
        geometries: list[TreeGeometry] = []
        entries = self.n_blocks
        for _ in range(self.recursion_levels):
            entries = ceil_div(entries, self.labels_per_recursive_block)
            geometries.append(
                TreeGeometry.for_block_count(
                    n_blocks=entries,
                    blocks_per_bucket=self.blocks_per_bucket,
                    block_bytes=self.recursive_block_bytes,
                    bucket_header_bytes=self.bucket_header_bytes,
                    utilization=self.utilization,
                )
            )
        return geometries

    def all_geometries(self) -> list["TreeGeometry"]:
        """Data geometry followed by recursion geometries."""
        return [self.data_geometry(), *self.recursion_geometries()]

    @property
    def onchip_posmap_entries(self) -> int:
        """Entries in the final on-chip position map after recursion."""
        entries = self.n_blocks
        for _ in range(self.recursion_levels):
            entries = ceil_div(entries, self.labels_per_recursive_block)
        return entries

    def path_bytes_per_direction(self) -> int:
        """Bytes moved reading (or writing) one path of *every* ORAM.

        An ORAM access touches one full path in the data ORAM plus one path
        in each recursive position-map ORAM (paper Section 3.1 / 9.1.2: the
        total is 12.1 KB per direction for the paper's parameters).
        """
        return sum(geometry.path_bytes for geometry in self.all_geometries())

    def describe(self) -> str:
        """Multi-line human-readable summary of the configuration."""
        lines = [
            f"Path ORAM: capacity={pretty_bytes(self.capacity_bytes)}, "
            f"Z={self.blocks_per_bucket}, block={self.block_bytes} B, "
            f"recursion={self.recursion_levels} x {self.recursive_block_bytes} B blocks",
        ]
        for index, geometry in enumerate(self.all_geometries()):
            role = "data" if index == 0 else f"posmap-{index}"
            lines.append(f"  ORAM[{role}]: {geometry.describe()}")
        lines.append(
            f"  path bytes/direction={pretty_bytes(self.path_bytes_per_direction())}, "
            f"on-chip posmap entries={self.onchip_posmap_entries}"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class TreeGeometry:
    """Derived shape of a single Path ORAM binary tree.

    Levels are numbered 0 (root) .. ``levels - 1`` (leaves), so a path
    touches ``levels`` buckets.  Buckets are indexed in heap order: the root
    is bucket 0 and bucket ``i`` has children ``2i + 1`` and ``2i + 2``.
    """

    levels: int
    blocks_per_bucket: int
    block_bytes: int
    bucket_header_bytes: int = 16
    _derived: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_positive(self.levels, "levels")
        check_positive(self.blocks_per_bucket, "blocks_per_bucket")
        check_positive(self.block_bytes, "block_bytes")

    @classmethod
    def for_block_count(
        cls,
        n_blocks: int,
        blocks_per_bucket: int,
        block_bytes: int,
        bucket_header_bytes: int = 16,
        utilization: float = 0.5,
    ) -> "TreeGeometry":
        """Size a tree so ``n_blocks`` fill at most ``utilization`` of slots."""
        check_positive(n_blocks, "n_blocks")
        slots_needed = ceil_div(n_blocks, blocks_per_bucket)
        # Total buckets in a tree with 2**h leaves is 2**(h+1) - 1; find the
        # smallest height whose slot count, derated by utilization, fits.
        target_buckets = ceil_div(slots_needed, 1)
        target_buckets = max(1, int(target_buckets / utilization))
        height = max(0, ceil_lg(target_buckets + 1) - 1)
        return cls(
            levels=height + 1,
            blocks_per_bucket=blocks_per_bucket,
            block_bytes=block_bytes,
            bucket_header_bytes=bucket_header_bytes,
        )

    @property
    def n_leaves(self) -> int:
        """Number of leaf buckets (2 ** (levels - 1))."""
        return 1 << (self.levels - 1)

    @property
    def n_buckets(self) -> int:
        """Total buckets in the tree (2 ** levels - 1)."""
        return (1 << self.levels) - 1

    @property
    def n_slots(self) -> int:
        """Total real-block slots across all buckets."""
        return self.n_buckets * self.blocks_per_bucket

    @property
    def bucket_bytes(self) -> int:
        """Bytes per encrypted bucket (payload + header)."""
        return self.blocks_per_bucket * self.block_bytes + self.bucket_header_bytes

    @property
    def path_bytes(self) -> int:
        """Bytes in one root-to-leaf path (one direction)."""
        return self.levels * self.bucket_bytes

    def describe(self) -> str:
        """Single-line geometry summary."""
        return (
            f"levels={self.levels}, leaves={self.n_leaves}, buckets={self.n_buckets}, "
            f"path={pretty_bytes(self.path_bytes)}"
        )


#: The exact configuration evaluated in the paper (Section 9.1.2).
PAPER_ORAM_CONFIG = ORAMConfig()

#: A small configuration convenient for functional tests and examples.
TEST_ORAM_CONFIG = ORAMConfig(
    capacity_bytes=64 * 1024,
    block_bytes=64,
    blocks_per_bucket=4,
    recursion_levels=0,
)
