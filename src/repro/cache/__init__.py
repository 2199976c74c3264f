"""Cache substrate: set-associative caches, inclusive hierarchy, write buffer.

The hierarchy pass ships as a kernel pair of resumable machines with one
``feed``/``finish`` interface: the vectorized
:class:`~repro.cache.vectorized.VectorizedHierarchyPass` (the default,
``mode="fast"``) and the scalar oracle
:class:`~repro.cache.hierarchy.StreamingHierarchyPass`
(``mode="reference"``), byte-equivalent to each other.
``simulate_hierarchy`` runs the machine ``mode`` picks over the whole
trace as one chunk (``simulate_hierarchy_reference`` is the oracle's
one-chunk run), and :mod:`repro.cache.streaming` feeds the same machines
bounded chunks for streamed traces.
"""

from repro.cache.cache import CacheStats, EvictedLine, SetAssociativeCache
from repro.cache.hierarchy import (
    HierarchyConfig,
    PAPER_HIERARCHY,
    simulate_hierarchy,
    simulate_hierarchy_reference,
)
from repro.cache.write_buffer import WriteBuffer

__all__ = [
    "CacheStats",
    "EvictedLine",
    "SetAssociativeCache",
    "HierarchyConfig",
    "PAPER_HIERARCHY",
    "simulate_hierarchy",
    "simulate_hierarchy_reference",
    "WriteBuffer",
]
