"""Cache substrate: set-associative caches, inclusive hierarchy, write buffer.

The hierarchy pass ships as a kernel pair: ``simulate_hierarchy`` runs
the vectorized kernel (:mod:`repro.cache.vectorized`) by default, and
``simulate_hierarchy_reference`` is the scalar oracle it is
byte-equivalent to.  The oracle is a one-chunk run of the resumable
:class:`~repro.cache.hierarchy.StreamingHierarchyPass`, which
:mod:`repro.cache.streaming` feeds in bounded chunks for streamed traces.
"""

from repro.cache.cache import CacheStats, EvictedLine, SetAssociativeCache
from repro.cache.hierarchy import (
    HierarchyConfig,
    PAPER_HIERARCHY,
    simulate_hierarchy,
    simulate_hierarchy_reference,
)
from repro.cache.replacement import (
    FIFOPolicy,
    LRUPolicy,
    POLICIES,
    TreePLRUPolicy,
    make_policy,
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
    "FIFOPolicy",
    "LRUPolicy",
    "POLICIES",
    "TreePLRUPolicy",
    "make_policy",
    "WriteBuffer",
]
