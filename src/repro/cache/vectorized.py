"""Vectorized functional cache pass: the fast kernel behind
:func:`repro.cache.hierarchy.simulate_hierarchy` and the streamed
functional pass of :mod:`repro.cache.streaming`.

:class:`VectorizedHierarchyPass` is a resumable machine with the scalar
oracle's interface (:class:`~repro.cache.hierarchy.StreamingHierarchyPass`):
:meth:`~VectorizedHierarchyPass.feed` advances it over one chunk and
returns that chunk's requests, :meth:`~VectorizedHierarchyPass.finish`
returns the trace-level totals.  For **any** chunking its output is
bit-identical to the oracle's — every float in ``gap_cycles`` and
``total_compute_cycles`` is built from the same IEEE-754 operations in
the same order — while the per-reference work runs in numpy and C-level
bulk operations wherever the cache state allows it.  A fed chunk is
worked through in sub-slices of at most ``chunk_refs`` references, so
the machine's transient memory is bounded whatever the chunk size;
:func:`hierarchy_pass_vectorized` is a one-chunk run.

The kernel exploits four structural facts about the hierarchy pass:

1. **Same-line runs are guaranteed L1 hits.**  Consecutive references to
   one cache line cannot miss after the first (nothing else touches the
   set in between), so each sub-slice is run-compressed with array ops
   and only *run heads* enter the state machine.  The trailing
   references of a run contribute one boolean OR (the run's dirty bit,
   precomputed per run with ``np.logical_or.reduceat``).  A sub-slice
   always starts a new run: a head whose line the previous sub-slice
   just touched is resident, so it takes the hit path and changes
   nothing a continued run would not.

2. **L1 membership is constant between L1 misses.**  Hits reorder the
   LRU stack and merge dirty bits but never change *which* lines are
   resident.  The kernel therefore scans ahead with a vectorized
   membership test (``np.searchsorted`` against a sorted snapshot of the
   ≤ sets*ways resident lines) and commits whole hit prefixes at C speed:
   LRU positions via one ``dict.update`` (timestamp LRU, see below) and
   dirty bits via one bulk update of the stored lines.  Only the first
   non-member — a true L1 miss — drops to the scalar slow path, which
   runs the exact reference eviction/back-invalidation machinery.  After
   a miss the snapshot is stale, so the rest of the window steps through
   a lean scalar loop before the next vectorized scan; the window size
   adapts so miss-dense phases spend no time on doomed vector scans.

3. **Insertion-order LRU ≡ timestamp LRU.**  The reference models each
   set as an insertion-ordered dict whose first key is the victim.  A
   key's position in that order is exactly the index of its last touch,
   so keeping ``line -> last-touch index`` (the reference's position in
   the whole trace) and evicting the resident line of the set with the
   smallest timestamp selects the identical victim.  Timestamps are what
   make bulk hit commits possible: a single ``dict.update`` with "last
   write wins" reproduces any sequence of move-to-MRU operations.

4. **The sets partition the hierarchy.**  L2's set-index bits contain
   L1's (10 against 7 at the paper's geometry), so every L2 set lies
   inside one L1 set: a dirty L1 victim's writeback and an L2 victim's
   back-invalidation never leave the L1 set of the reference that caused
   them.  The hierarchy is therefore ``min(l1_sets, l2_sets)``
   independent state machines, one per *lane* (``line & (lanes - 1)``;
   the smaller level's sets, so a geometry whose L2 has fewer sets than
   its L1 stays exact).  Lanes share no set, so each lane's heads can run
   in trace order while the lanes advance side by side.

Run heads are classified in one of three modes, picked per sub-slice.
Hit-dense phases take the vector mode (fact 2); miss-dense phases the
scalar loop, or — when the sub-slice is large and its heads spread over
many lanes (:func:`lockstep_pays`) — the **lockstep** mode: the heads
are ordered by lane and each numpy step advances the next head of every
lane at once (one per lane, so at most 128 at the paper's geometry),
over flat per-way arrays of stamps, dirty bits and L2 lines
(:class:`LockstepState`).  Stamps are the trace positions of each way's
last touch, so fact 3 holds for L2 as it does for L1.  An all-miss
stream such as mcf misses L2 on nearly every run head, and there one
lockstep step (a few dozen numpy calls over about 100 heads) replaces
about 100 scalar misses of about 2 µs each.  The cache state lives in
one form at a time: the dicts for the vector and scalar modes, the
arrays for lockstep, converted only when the mode changes.  Every mode
yields the same per-head outcomes, so the accounting below is shared.

The cycle/instruction accounting is reconstructed per sub-slice from the
per-reference outcome levels: the accumulator left open by the previous
sub-slice, then ``gap * cpi`` and the level cost of each reference, are
interleaved into one array and each inter-miss segment is summed
strictly left to right — short segments column by column (one
elementwise add per term position across every segment at once), long
ones with ``np.cumsum`` (a sequential recurrence).  Both are
bit-identical to the reference's running ``+=``; the pairwise
``np.add.reduce`` is deliberately **not** used, and neither is builtin
``sum``, whose float path is compensated from Python 3.12 on.

In the dict modes L2 keeps the reference's insertion-ordered dicts,
keyed by line rather than tag (within one set each determines the other,
and the line needs no shifting back on eviction).  An L2 access happens
only on an L1 miss, but that is not rare: mcf misses L2 on 390,579 of
its 391,176 run heads at the ingest budget, which is why miss-dense
slices take the lockstep mode.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from typing import TYPE_CHECKING

import numpy as np

from repro.cache.hierarchy import (
    PAPER_HIERARCHY,
    FunctionalSummary,
    HierarchyConfig,
    MissChunk,
    _energy_events,
)
from repro.cpu.core import DEFAULT_CORE, CoreModel
from repro.cpu.trace import MemoryTrace, MissTrace
from repro.util.bitops import floor_lg

if TYPE_CHECKING:
    from repro.ingest.formats import TraceChunk, TraceHeader

#: Default sub-slice size, in references.  Bounds the per-slice numpy
#: arrays and Python lists: one 16384-reference slice of mcf, the most
#: miss-dense workload, peaks at about 4.4 MB of traced allocation
#: (the scalar pass takes 8.6 MB for a 65536-reference chunk).  Sizes
#: from 4096 to 32768 run within about 10% of each other.
DEFAULT_CHUNK_REFS = 1 << 14

#: Adaptive window bounds for the vectorized membership scan (in run
#: heads).  The window doubles after a fully-hit scan and halves after a
#: scan that dies early, so miss-dense phases degrade to the scalar loop
#: without paying for vector scans that cannot run ahead.
_WINDOW_MIN = 128
_WINDOW_MAX = 1 << 16
#: Scalar-mode burst bounds (in run heads).  Bursts double while the
#: observed hit rate stays below the vector-mode re-entry threshold.
_SCALAR_BURST_MIN = 256
_SCALAR_BURST_MAX = 1 << 14
#: Rebuild the membership snapshot after this many installs/removals;
#: below it, the removed-lines correction is cheaper than a rebuild.
_SNAPSHOT_DRIFT_MAX = 64
#: Hit ranges shorter than this step through the scalar loop — a
#: dict.update round-trip costs more than a few inline hits.
_BULK_RANGE_MIN = 16
#: Segments of at most this many accounting terms are summed column by
#: column; each longer one takes its own ``np.cumsum``.
_SHORT_SEGMENT = 64
#: A scalar burst or lockstep sub-slice whose run heads hit L1 at least
#: this often puts the machine in its hit-dense (vector) mode.
_HIT_DENSE = 31 / 32
#: Lockstep routing (:func:`lockstep_pays`): a miss-dense machine whose
#: state is in the dicts moves it into arrays for a sub-slice of at least
#: this many run heads ...
LOCKSTEP_MIN_HEADS = 3072
#: ... that offers at least this many heads per lockstep step (its head
#: count over the head count of its busiest lane).
LOCKSTEP_MIN_WIDTH = 32
#: Line number of an empty L2 way (lines are never negative).
_EMPTY_LINE = -1
#: Stamp of an empty way: below every trace position, so an empty way is
#: always the victim of its set.
_EMPTY_STAMP = -1


def lockstep_pays(
    n_heads: int, lane_max: int, miss_dense: bool, in_arrays: bool
) -> bool:
    """Whether a sub-slice of ``n_heads`` run heads, ``lane_max`` of them
    in its busiest lane, runs faster in lockstep than in the dict modes.

    A lockstep step costs a few dozen numpy calls over at most one head
    per lane, so it pays only while steps are wide (``n_heads >=
    LOCKSTEP_MIN_WIDTH * lane_max``) and the machine is in its
    miss-dense mode: a hit-dense machine commits hits in bulk far more
    cheaply.  Entering lockstep also moves the cache state out of the
    dicts, which only a large sub-slice (``LOCKSTEP_MIN_HEADS``) repays;
    a machine already in lockstep (``in_arrays``) stays while steps are
    wide, so a stream's small trailing sub-slices do not convert the
    state back and forth.  The rule reads only its inputs, and every
    mode is bit-identical, so the choice moves time, never a result
    (calibration: DESIGN.md "Miss-dense slices run set-parallel").
    """
    return (
        miss_dense
        and (in_arrays or n_heads >= LOCKSTEP_MIN_HEADS)
        and n_heads >= LOCKSTEP_MIN_WIDTH * lane_max
    )


def hierarchy_pass_vectorized(
    trace: MemoryTrace,
    config,
    core: CoreModel,
    warmup_instructions: int = 0,
    chunk_refs: int = DEFAULT_CHUNK_REFS,
) -> MissTrace:
    """Run the vectorized hierarchy pass; bit-identical to the reference.

    Parameters mirror :func:`repro.cache.hierarchy.simulate_hierarchy`;
    ``chunk_refs`` bounds the references worked through at once.
    """
    machine = VectorizedHierarchyPass(
        trace, config, core,
        warmup_instructions=warmup_instructions, chunk_refs=chunk_refs,
    )
    requests = machine.feed(trace)
    return machine.finish().with_requests(requests)


class VectorizedHierarchyPass:
    """The vectorized functional pass as a resumable machine.

    Interface and contract are the scalar
    :class:`~repro.cache.hierarchy.StreamingHierarchyPass`'s: ``header``
    is a :class:`~repro.ingest.formats.TraceHeader` or the
    :class:`MemoryTrace` itself; :meth:`feed` takes a
    :class:`~repro.ingest.formats.TraceChunk` (or a whole trace as the
    only chunk) and returns its requests; :meth:`finish` returns the
    :class:`FunctionalSummary`.  Feeding after finish, or finishing
    twice, raises ``RuntimeError``.

    All loop state lives on the object and is loaded into locals once
    per feed: the L1 stamps, dirty set and rows, the L2 sets (or, in
    lockstep, the same state as :class:`LockstepState` arrays), the
    membership snapshot and its removed-lines log, the adaptive
    window/burst mode, the reference and instruction offsets, the
    warm-up flag, the open inter-miss cycle accumulator and the energy
    tallies.
    """

    def __init__(
        self,
        header: TraceHeader | MemoryTrace,
        config: HierarchyConfig | None = None,
        core: CoreModel | None = None,
        warmup_instructions: int = 0,
        chunk_refs: int = DEFAULT_CHUNK_REFS,
    ) -> None:
        if chunk_refs <= 0:
            raise ValueError(f"chunk_refs must be positive, got {chunk_refs}")
        config = config if config is not None else PAPER_HIERARCHY
        core = core if core is not None else DEFAULT_CORE
        self.header = header
        self.config = config
        self.warmup_instructions = warmup_instructions
        self.chunk_refs = chunk_refs

        self._line_shift = floor_lg(config.line_bytes)
        l1_sets_count = config.l1d_bytes // config.line_bytes // config.l1d_ways
        l2_sets_count = config.l2_bytes // config.line_bytes // config.l2_ways
        self._l1_mask = l1_sets_count - 1
        self._l2_mask = l2_sets_count - 1
        # Every set of the smaller level lies inside one lane, and so do
        # the sets of the larger level it maps onto: the lanes partition
        # the hierarchy into independent state machines.
        self._lane_mask = min(l1_sets_count, l2_sets_count) - 1
        self._l1_ways = config.l1d_ways
        self._l2_ways = config.l2_ways

        l1_hit_cycles = core.load_hit_cycles(1)
        self._level_cycles = (
            l1_hit_cycles, core.load_hit_cycles(2), core.load_miss_onchip_cycles(),
        )
        self._store_issue = core.store_issue_cycles
        local_fraction = header.local_ref_fraction
        self._cpi = (
            (1.0 - local_fraction) * core.nonmem_cpi(header.mix)
            + local_fraction * l1_hit_cycles
        )

        # L1: timestamp LRU keyed by line number.  Membership == key in
        # l1_stamp; victim of a set == resident line with the smallest
        # stamp.  l1_dirty holds only *dirty* lines (absence == clean),
        # and only resident ones: a line leaving L1 takes its entry along,
        # so an install finds none to clear.
        self._l1_stamp: dict[int, int] = {}
        self._l1_dirty: dict[int, bool] = {}
        self._l1_rows: list[list[int]] = [[] for _ in range(l1_sets_count)]
        # L2: the reference's insertion-ordered dicts, keyed by line
        # (within a set, line and tag determine each other) -> dirty.
        self._l2_sets: list[dict[int, bool]] = [dict() for _ in range(l2_sets_count)]
        # The same state in lockstep form, held instead of the dicts while
        # the machine runs set-parallel; None while the dicts hold it.
        self._arrays: LockstepState | None = None
        # Sorted snapshot of resident L1 lines for the vectorized
        # membership scan, and the lines removed since it was built.
        # The snapshot may be arbitrarily stale and classification stays
        # exact: a snapshot member is resident unless it appears in the
        # log (checked with one vectorized isin per window), and a
        # non-member head always re-checks live state before being
        # treated as a miss.
        self._snapshot = np.empty(0, dtype=np.int64)
        self._snapshot_drift = 0
        self._removed_log: list[int] = []
        # Start in scalar mode: a cheap probe burst decides whether the
        # trace is hit-dense enough for vector scans to pay for
        # themselves.  Hit-heavy workloads promote after one burst;
        # pathological all-miss traces (mcf) never pay for a doomed scan.
        self._vector_mode = False
        self._vector_fails = 0
        self._window = 1024
        self._scalar_burst = _SCALAR_BURST_MIN

        self._n_refs = 0  # references fed so far, warm-up included
        self._instructions = 0  # instructions fed so far, warm-up included
        self._base = 0  # instructions up to the first counted reference
        self._warm = warmup_instructions <= 0
        self._cycles_acc = 0.0  # the open inter-miss segment's sum
        self._n_counted = 0
        self._l2_hits = 0
        self._llc_misses = 0
        self._writebacks = 0
        self._finished = False

    def feed(self, chunk: TraceChunk | MemoryTrace) -> MissChunk:
        """Advance the pass over one chunk; emit its request stream."""
        if self._finished:
            raise RuntimeError("feed() after finish()")
        addresses = chunk.addresses
        stores_in = chunk.is_store
        gaps_in = chunk.gap_instructions
        n_in = len(addresses)

        line_shift = np.uint64(self._line_shift)
        l1_mask, l2_mask = self._l1_mask, self._l2_mask
        lane_mask = self._lane_mask
        l1_ways, l2_ways = self._l1_ways, self._l2_ways
        chunk_refs = self.chunk_refs
        warmup_instructions = self.warmup_instructions

        stamp = self._l1_stamp
        l1_dirty = self._l1_dirty
        l1_rows = self._l1_rows
        l2_sets = self._l2_sets
        snapshot = self._snapshot
        snapshot_drift = self._snapshot_drift
        removed_log = self._removed_log
        removed_append = removed_log.append
        vector_mode = self._vector_mode
        vector_fails = self._vector_fails
        window = self._window
        scalar_burst = self._scalar_burst
        n_refs = self._n_refs
        instructions = self._instructions
        base = self._base
        warm = self._warm
        cycles_acc = self._cycles_acc
        n_counted = self._n_counted
        l2_hits = self._l2_hits
        llc_misses = self._llc_misses
        writebacks = self._writebacks

        def process_miss(line: int, ref_i: int, dirty_in: bool) -> None:
            """One L1 miss through the exact reference machinery.

            ``dirty_in`` is the run's OR of store flags — the dirty bit
            the install leaves behind (head store, then run-hit ORs).
            """
            nonlocal snapshot_drift
            snapshot_drift += 1
            counted = ref_i >= warm_at
            l2_set = l2_sets[line & l2_mask]
            if line in l2_set:
                l2_set[line] = l2_set.pop(line)
                if counted:
                    l2h_append(ref_i)
            else:
                if counted:
                    miss_append(ref_i)
                if len(l2_set) >= l2_ways:
                    victim_line = next(iter(l2_set))
                    victim_dirty = l2_set.pop(victim_line)
                    # Inclusive hierarchy: back-invalidate L1.
                    if victim_line in stamp:
                        del stamp[victim_line]
                        l1_rows[victim_line & l1_mask].remove(victim_line)
                        removed_append(victim_line)
                        if l1_dirty.pop(victim_line, False):
                            victim_dirty = True
                    if victim_dirty and counted:
                        wb_append(ref_i)
                l2_set[line] = False
            # ---- Fill L1 ----
            row = l1_rows[line & l1_mask]
            if len(row) >= l1_ways:
                victim_line = row[0]
                best = stamp[victim_line]
                for cand in row:
                    cand_stamp = stamp[cand]
                    if cand_stamp < best:
                        best = cand_stamp
                        victim_line = cand
                row.remove(victim_line)
                del stamp[victim_line]
                removed_append(victim_line)
                if l1_dirty.pop(victim_line, False) and counted:
                    # Dirty L1 victim writes back into L2 (on-chip).  The
                    # reference's warm-up replay drops the dirty bit.
                    wb_l2_set = l2_sets[victim_line & l2_mask]
                    if victim_line in wb_l2_set:
                        wb_l2_set[victim_line] = True
            row.append(line)
            stamp[line] = ref_i
            if dirty_in:
                l1_dirty[line] = True

        def commit_hits(lo: int, hi: int, seg_lo: int, seg_hi: int, seg) -> None:
            """Bulk-commit the hit heads [lo, hi) of the sub-slice."""
            stamp.update(zip(c_lines[lo:hi], c_pos[lo:hi]))
            stored = seg[seg_lo:seg_hi][run_any_store[lo:hi]]
            if len(stored):
                l1_dirty.update(zip(stored.tolist(), repeat(True)))

        pieces: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for lo in range(0, n_in, chunk_refs):
            hi = min(lo + chunk_refs, n_in)
            n = hi - lo
            gaps = gaps_in[lo:hi]
            stores = stores_in[lo:hi]
            cum_instr = np.cumsum(gaps + 1)
            cum_instr += instructions
            if warm:
                i_warm = 0
            else:
                i_warm = int(np.searchsorted(cum_instr, warmup_instructions, side="left"))
            # Trace position of the first counted reference: misses at or
            # after it emit requests; earlier ones only warm the caches.
            warm_at = n_refs + i_warm

            # Run compression: a head is any reference whose line differs
            # from its predecessor's.  Non-head references are
            # guaranteed L1 hits.
            lines_np = (addresses[lo:hi] >> line_shift).astype(np.int64)
            head_mask = np.empty(n, dtype=bool)
            head_mask[0] = True
            np.not_equal(lines_np[1:], lines_np[:-1], out=head_mask[1:])
            head_idx = np.flatnonzero(head_mask)
            # Dirty contribution of each run: OR of its references'
            # store flags (boolean reduceat is exact).
            run_any_store = np.logical_or.reduceat(stores, head_idx)
            head_lines_np = lines_np[head_idx]
            del lines_np, head_mask
            n_heads = len(head_idx)
            lane_max = 0
            if not vector_mode:
                lanes = head_lines_np & lane_mask
                lane_heads = np.bincount(lanes)
                lane_max = int(lane_heads.max())
            if lockstep_pays(n_heads, lane_max, not vector_mode, self._arrays is not None):
                # ---- lockstep mode: miss-dense slices, set-parallel ----
                if self._arrays is None:
                    self._arrays = self._to_arrays()
                l2_hit_refs, miss_refs, wb_refs, hits = self._lockstep(
                    head_lines_np, head_idx + n_refs, run_any_store, warm_at,
                    lanes, lane_heads,
                )
                if hits >= n_heads * _HIT_DENSE:
                    vector_mode = True
                    vector_fails = 0
                    window = 1024
            else:
                if self._arrays is not None:
                    self._to_dicts()
                    # The membership snapshot predates the lockstep run.
                    snapshot_drift = _SNAPSHOT_DRIFT_MAX + 1
                    scalar_burst = _SCALAR_BURST_MIN
                c_lines = head_lines_np.tolist()
                c_pos = (head_idx + n_refs).tolist()
                c_store = run_any_store.tolist()
                c_len = len(c_lines)

                # Outcome event streams (counted references only), in head
                # order, as trace positions: L2 hits, LLC misses, and the
                # misses whose L2 victim was dirty (a writeback request).
                l2_hit_refs: list[int] = []
                miss_refs: list[int] = []
                wb_refs: list[int] = []
                l2h_append = l2_hit_refs.append
                miss_append = miss_refs.append
                wb_append = wb_refs.append

                j = 0
                while j < c_len:
                    if not vector_mode:
                        # ---- scalar mode: miss-dense phases ----
                        # The miss path is inlined (a function call per miss
                        # is what made the all-miss pointer chase slower than
                        # the reference) and skips removal logging: the
                        # snapshot is rebuilt wholesale at vector re-entry,
                        # so the removed log has nothing to correct.
                        burst_end = min(j + scalar_burst, c_len)
                        burst_len = burst_end - j
                        hits = 0
                        for line, pos_j, stored in zip(
                            c_lines[j:burst_end], c_pos[j:burst_end], c_store[j:burst_end]
                        ):
                            if line in stamp:
                                stamp[line] = pos_j
                                if stored:
                                    l1_dirty[line] = True
                                hits += 1
                                continue
                            counted = pos_j >= warm_at
                            l2_set = l2_sets[line & l2_mask]
                            if line in l2_set:
                                l2_set[line] = l2_set.pop(line)
                                if counted:
                                    l2h_append(pos_j)
                            else:
                                if counted:
                                    miss_append(pos_j)
                                if len(l2_set) >= l2_ways:
                                    victim_line = next(iter(l2_set))
                                    victim_dirty = l2_set.pop(victim_line)
                                    # Inclusive hierarchy: back-invalidate L1.
                                    if victim_line in stamp:
                                        del stamp[victim_line]
                                        l1_rows[victim_line & l1_mask].remove(victim_line)
                                        if l1_dirty.pop(victim_line, False):
                                            victim_dirty = True
                                    if victim_dirty and counted:
                                        wb_append(pos_j)
                                l2_set[line] = False
                            # ---- Fill L1 ----
                            row = l1_rows[line & l1_mask]
                            if len(row) >= l1_ways:
                                victim_line = row[0]
                                best = stamp[victim_line]
                                for cand in row:
                                    cand_stamp = stamp[cand]
                                    if cand_stamp < best:
                                        best = cand_stamp
                                        victim_line = cand
                                row.remove(victim_line)
                                del stamp[victim_line]
                                if l1_dirty.pop(victim_line, False) and counted:
                                    # Dirty L1 victim writes back into L2.
                                    wb_l2_set = l2_sets[victim_line & l2_mask]
                                    if victim_line in wb_l2_set:
                                        wb_l2_set[victim_line] = True
                            row.append(line)
                            stamp[line] = pos_j
                            if stored:
                                l1_dirty[line] = True
                        j = burst_end
                        if hits >= burst_len * _HIT_DENSE:
                            vector_mode = True
                            vector_fails = 0
                            window = 1024
                            # Scalar-mode misses skip the removal log, so the
                            # membership snapshot must be rebuilt from live
                            # state before the next vectorized scan.
                            snapshot_drift = _SNAPSHOT_DRIFT_MAX + 1
                        else:
                            scalar_burst = min(scalar_burst * 2, _SCALAR_BURST_MAX)
                        continue

                    # ---- vector mode: membership scan over a window of heads ----
                    if snapshot_drift > _SNAPSHOT_DRIFT_MAX:
                        if stamp:
                            snapshot = np.sort(np.fromiter(
                                stamp.keys(), dtype=np.int64, count=len(stamp)
                            ))
                        else:
                            snapshot = np.empty(0, dtype=np.int64)
                        removed_log.clear()
                        snapshot_drift = 0
                    w_end = min(j + window, c_len)
                    w_len = w_end - j
                    seg = head_lines_np[j:w_end]
                    if len(snapshot):
                        pos = np.searchsorted(snapshot, seg)
                        member = snapshot[np.minimum(pos, len(snapshot) - 1)] == seg
                        if removed_log:
                            # A snapshot member removed since the rebuild would
                            # be a false hit: route it through the scalar path,
                            # which consults live state and classifies exactly.
                            member &= ~np.isin(
                                seg, np.asarray(removed_log, dtype=np.int64)
                            )
                        scalar_pos = np.flatnonzero(~member)
                    else:
                        scalar_pos = np.arange(w_len)

                    if not len(scalar_pos):
                        # Fully-hit window: one bulk commit.  Last-write-wins
                        # timestamps reproduce any move-to-MRU sequence; dirty
                        # bits OR in each stored run.
                        commit_hits(j, w_end, 0, w_len, seg)
                        j = w_end
                        if window < _WINDOW_MAX:
                            window <<= 1
                        vector_fails = 0
                        continue

                    # Mixed window: bulk-commit the guaranteed-hit ranges
                    # between scalar positions; step everything else through
                    # live state.  Short ranges go scalar too.  Misses
                    # processed *inside* this window evict lines the
                    # top-of-window mask knows nothing about, so once the
                    # removed log grows, later ranges are validated against
                    # the delta before committing.
                    win_removed = len(removed_log)
                    delta: set[int] = set()
                    prev = 0
                    n_scalar = len(scalar_pos)
                    for sp in scalar_pos.tolist():
                        if sp - prev >= _BULK_RANGE_MIN:
                            if len(removed_log) != win_removed:
                                delta.update(removed_log[win_removed:])
                                win_removed = len(removed_log)
                            if not delta or delta.isdisjoint(c_lines[j + prev:j + sp]):
                                commit_hits(j + prev, j + sp, prev, sp, seg)
                                prev = sp
                        for k in range(j + prev, j + sp + 1):
                            line = c_lines[k]
                            if line in stamp:
                                stamp[line] = c_pos[k]
                                if c_store[k]:
                                    l1_dirty[line] = True
                            else:
                                process_miss(line, c_pos[k], c_store[k])
                        prev = sp + 1
                    # Trailing hit range after the last scalar position.
                    if prev < w_len:
                        bulk = w_len - prev >= _BULK_RANGE_MIN
                        if bulk and len(removed_log) != win_removed:
                            delta.update(removed_log[win_removed:])
                            win_removed = len(removed_log)
                        if bulk and (not delta or delta.isdisjoint(c_lines[j + prev:w_end])):
                            commit_hits(j + prev, w_end, prev, w_len, seg)
                        else:
                            for k in range(j + prev, w_end):
                                line = c_lines[k]
                                if line in stamp:
                                    stamp[line] = c_pos[k]
                                    if c_store[k]:
                                        l1_dirty[line] = True
                                else:
                                    process_miss(line, c_pos[k], c_store[k])
                    j = w_end
                    # Adapt: shrink on missy windows, drop to scalar mode when
                    # vector scans stop paying for themselves.
                    if n_scalar * 8 >= w_len:  # >= 12.5% scalar heads
                        vector_fails += 1
                        if window > _WINDOW_MIN:
                            window >>= 1
                        if vector_fails >= 2:
                            vector_mode = False
                            scalar_burst = _SCALAR_BURST_MIN
                    else:
                        vector_fails = 0

            # ---- Accounting for the sub-slice ----
            if i_warm == n:
                # Warm-up throughout: the reference accrues gap cycles
                # only, and keeps them if the trace ends before warm-up
                # does.
                terms = np.empty(n + 1)
                terms[0] = cycles_acc
                terms[1:] = gaps * self._cpi
                cycles_acc = float(np.cumsum(terms)[-1])
            else:
                fresh = not warm
                if fresh:
                    # Warm-up ends here: the reference resets its
                    # counters right after adding this reference's gap
                    # cycles, discarding them.
                    warm = True
                    base = int(cum_instr[i_warm])
                    cycles_acc = 0.0
                piece, cycles_acc = self._requests(
                    gaps[i_warm:], stores[i_warm:], cum_instr[i_warm:] - base,
                    warm_at, fresh, cycles_acc, l2_hit_refs, miss_refs, wb_refs,
                )
                if piece is not None:
                    pieces.append(piece)
                n_counted += n - i_warm
                l2_hits += len(l2_hit_refs)
                llc_misses += len(miss_refs)
                writebacks += len(wb_refs)
            instructions = int(cum_instr[-1])
            n_refs += n

        self._snapshot = snapshot
        self._snapshot_drift = snapshot_drift
        self._vector_mode = vector_mode
        self._vector_fails = vector_fails
        self._window = window
        self._scalar_burst = scalar_burst
        self._n_refs = n_refs
        self._instructions = instructions
        self._base = base
        self._warm = warm
        self._cycles_acc = cycles_acc
        self._n_counted = n_counted
        self._l2_hits = l2_hits
        self._llc_misses = llc_misses
        self._writebacks = writebacks

        if not pieces:
            return MissChunk.empty()
        if len(pieces) == 1:
            return MissChunk(*pieces[0])
        return MissChunk(*(np.concatenate(column) for column in zip(*pieces)))

    def _to_arrays(self) -> LockstepState:
        """Move the cache state out of the dicts into lockstep arrays."""
        n1, w1 = len(self._l1_rows), self._l1_ways
        n2, w2 = len(self._l2_sets), self._l2_ways
        state = LockstepState(n1, w1, n2, w2)
        set_idx, way_idx = _ways_filled([len(ways) for ways in self._l2_sets])
        if len(set_idx):
            flat2 = set_idx * w2 + way_idx
            state.l2_line[flat2] = list(chain.from_iterable(self._l2_sets))
            # Insertion order is LRU order, and every line was inserted by
            # an earlier reference, so the way index is a stamp below the
            # next trace position that keeps the order.
            state.l2_stamp[flat2] = way_idx
            state.l2_dirty[flat2] = list(
                chain.from_iterable(ways.values() for ways in self._l2_sets)
            )
        set_idx, way_idx = _ways_filled([len(row) for row in self._l1_rows])
        if len(set_idx):
            flat1 = set_idx * w1 + way_idx
            lines = list(chain.from_iterable(self._l1_rows))
            stamp, dirty = self._l1_stamp, self._l1_dirty
            state.l1_stamp[flat1] = [stamp[line] for line in lines]
            state.l1_dirty[flat1] = [line in dirty for line in lines]
            # Inclusion: every L1 line has an L2 way; link the two.
            lines_np = np.array(lines, dtype=np.int64)
            s2 = lines_np & self._l2_mask
            flat2 = s2 * w2 + (state.l2_lines.take(s2, axis=0) == lines_np[:, None]).argmax(axis=1)
            state.l1_link[flat1] = flat2
            state.l2_link[flat2] = flat1

        self._l1_stamp.clear()
        self._l1_dirty.clear()
        for row in self._l1_rows:
            row.clear()
        for ways in self._l2_sets:
            ways.clear()
        return state

    def _to_dicts(self) -> None:
        """Move the cache state out of the lockstep arrays into the dicts."""
        state = self._arrays
        self._arrays = None
        flat1 = np.flatnonzero(state.l1_stamps >= 0)
        lines = state.l2_line[state.l1_link[flat1]].tolist()
        self._l1_stamp.update(zip(lines, state.l1_stamp[flat1].tolist()))
        self._l1_dirty.update(
            dict.fromkeys(compress(lines, state.l1_dirty[flat1].tolist()), True)
        )
        rows = self._l1_rows
        for line, set_index in zip(lines, (flat1 // self._l1_ways).tolist()):
            rows[set_index].append(line)
        # Each set in stamp order; its empty ways sort first.
        order = np.argsort(state.l2_stamps, axis=1)
        lines = np.take_along_axis(state.l2_lines, order, axis=1).tolist()
        dirty = np.take_along_axis(state.l2_dirties, order, axis=1).tolist()
        empty = (state.l2_lines < 0).sum(axis=1).tolist()
        for ways, set_lines, set_dirty, first in zip(self._l2_sets, lines, dirty, empty):
            if first < len(set_lines):
                ways.update(zip(set_lines[first:], set_dirty[first:]))

    def _lockstep(self, lines, pos, stores, warm_at, lanes, lane_heads):
        """Classify a sub-slice's run heads set-parallel, on the arrays.

        ``lines``, ``pos`` and ``stores`` are the heads' lines, trace
        positions and run dirty bits; ``lanes`` and ``lane_heads`` their
        lanes and the head count of each lane.  Each step advances the
        next head of every lane that has one.  Lanes share no set, so a
        step's heads touch disjoint ways and their numpy updates commute;
        within a lane the heads run in trace order, as in the oracle.

        Returns the counted L2-hit, LLC-miss and writeback positions in
        trace order, as the dict modes' event lists, and the L1 hit count.
        """
        state = self._arrays
        l1_stamp, l1_dirty, l1_link = state.l1_stamp, state.l1_dirty, state.l1_link
        l2_line, l2_stamp, l2_dirty, l2_link = (
            state.l2_line, state.l2_stamp, state.l2_dirty, state.l2_link
        )
        l1_stamps, l2_lines, l2_stamps = state.l1_stamps, state.l2_lines, state.l2_stamps
        l1_scratch, l2_scratch = state.l1_scratch, state.l2_scratch
        n = len(lines)
        # Sort by lane (stable: trace order within a lane), then by rank
        # within the lane: step t is the heads of rank t, a contiguous run.
        by_lane = _stable_order(lanes, len(lane_heads))
        firsts = np.cumsum(lane_heads) - lane_heads
        rank = np.arange(n) - np.repeat(firsts, lane_heads)
        order = by_lane[_stable_order(rank, int(lane_heads.max()))]
        bounds = np.cumsum(np.bincount(rank)).tolist()
        x_all = lines[order]
        p_all = pos[order]
        st_all = stores[order]
        counted_all = p_all >= warm_at
        # Warm-up drops a dirty L1 victim's bit; past it, nothing is masked.
        warming = not counted_all.all()
        s1_all = x_all & self._l1_mask
        s2_all = x_all & self._l2_mask
        base1_all = s1_all * self._l1_ways
        base2_all = s2_all * self._l2_ways
        # Per head, in step order: an L1 hit; for an L1 miss, an L2 hit and
        # the victim's dirty bit (a writeback if it missed L2, counted).
        l1_hit = np.zeros(n, dtype=bool)
        l2_hit = np.zeros(n, dtype=bool)
        wb = np.zeros(n, dtype=bool)

        a = 0
        for b in bounds:
            # ---- Lookup: L2 holds every L1 line, linked to its L1 way ----
            x = x_all[a:b]
            s2 = s2_all[a:b]
            base2 = base2_all[a:b]
            way2 = base2 + (l2_lines.take(s2, axis=0) == x[:, None]).argmax(axis=1)
            in_l2 = l2_line[way2] == x
            way1 = l2_link[way2]
            hit = in_l2 & (way1 != l1_scratch)
            s1 = s1_all[a:b]
            base1 = base1_all[a:b]
            p = p_all[a:b]
            st = st_all[a:b]
            step = slice(a, b)
            if np.count_nonzero(hit):
                # ---- L1 hits: move to MRU, merge the run's dirty bit ----
                hi = np.flatnonzero(hit)
                l1_hit[a + hi] = True
                way1 = way1[hi]
                l1_stamp[way1] = p[hi]
                l1_dirty[way1] |= st[hi]
                mi = np.flatnonzero(~hit)
                if not len(mi):
                    a = b
                    continue
                x = x[mi]
                s2 = s2[mi]
                base2 = base2[mi]
                way2 = way2[mi]
                in_l2 = in_l2[mi]
                s1 = s1[mi]
                base1 = base1[mi]
                p = p[mi]
                st = st[mi]
                step = a + mi
            l2_hit[step] = in_l2

            # ---- L2: a hit moves to MRU; a miss takes the LRU way ----
            way2 = np.where(
                in_l2, way2, base2 + l2_stamps.take(s2, axis=0).argmin(axis=1)
            )
            # Inclusive hierarchy: back-invalidate the victim from L1 and
            # merge its dirty bit.  A victim not in L1 (and a line that hit
            # L2, which is not in L1 either) links to the L1 scratch way,
            # so the writes below land there and change nothing.  An
            # emptied way keeps a stale dirty bit that nothing reads: no L2
            # way links to it, and it links to the L2 scratch way.
            back = l2_link[way2]
            dirty = l2_dirty[way2] | l1_dirty[back]
            l1_stamp[back] = _EMPTY_STAMP
            l1_link[back] = l2_scratch
            wb[step] = dirty
            l2_line[way2] = x
            l2_stamp[way2] = p
            l2_dirty[way2] = dirty & in_l2

            # ---- Fill L1: the LRU way; a dirty victim writes into L2 ----
            way1 = base1 + l1_stamps.take(s1, axis=0).argmin(axis=1)
            # The evicted line's L2 way: the L2 scratch way if the L1 way
            # was empty.
            out = l1_link[way1]
            if warming:
                l2_dirty[out] |= l1_dirty[way1] & counted_all[step]
            else:
                l2_dirty[out] |= l1_dirty[way1]
            l2_link[out] = l1_scratch
            l1_stamp[way1] = p
            l1_dirty[way1] = st
            l1_link[way1] = way2
            l2_link[way2] = way1
            a = b

        hits = int(np.count_nonzero(l1_hit))
        llc_miss = ~(l1_hit | l2_hit)
        llc_miss &= counted_all
        l2_hit &= counted_all
        wb &= llc_miss
        return (
            np.sort(p_all[l2_hit]), np.sort(p_all[llc_miss]), np.sort(p_all[wb]), hits,
        )

    def _requests(
        self, gaps, stores, instr, first, fresh, acc,
        l2_hit_refs, miss_refs, wb_refs,
    ):
        """The requests of a sub-slice's counted references, and the
        accumulator they leave open.

        ``gaps`` and ``stores`` cover the counted references, the first
        of which sits at trace position ``first``; ``instr`` holds each
        one's instruction index (the count since warm-up ended).
        ``acc`` is the open segment's sum so far, and ``fresh`` marks the
        reference at which warm-up ended (its gap cycles are discarded).
        """
        miss_idx = np.array(miss_refs, dtype=np.int64)
        miss_idx -= first

        # Cost terms in the reference's accumulation order: the open
        # accumulator, then per reference its gap cycles and its
        # level-dependent (or store-issue) cost.
        terms = np.empty(2 * len(gaps) + 1)
        terms[0] = acc
        np.multiply(gaps, self._cpi, out=terms[1::2])
        if fresh:
            terms[1] = 0.0
        l1_hit, l2_hit, miss_onchip = self._level_cycles
        op_terms = terms[2::2]
        op_terms.fill(l1_hit)
        if len(l2_hit_refs):
            op_terms[np.array(l2_hit_refs, dtype=np.int64) - first] = l2_hit
        op_terms[miss_idx] = miss_onchip
        op_terms[stores] = self._store_issue
        seg_sums, acc = _segment_sums(terms, 2 * miss_idx + 3)
        if not len(miss_idx):
            return None, acc

        blocking = ~stores[miss_idx]
        inst = instr[miss_idx]
        if not len(wb_refs):
            return (seg_sums, blocking, inst), acc
        # Interleave miss requests with their writebacks (gap 0.0, non-
        # blocking, same instruction index).
        counts = np.ones(len(miss_idx), dtype=np.int64)
        counts[np.searchsorted(miss_idx, np.array(wb_refs, dtype=np.int64) - first)] = 2
        slots = np.cumsum(counts)
        slots -= counts
        n_out = len(miss_idx) + len(wb_refs)
        gap_out = np.zeros(n_out)
        gap_out[slots] = seg_sums
        blocking_out = np.zeros(n_out, dtype=bool)
        blocking_out[slots] = blocking
        return (gap_out, blocking_out, np.repeat(inst, counts)), acc

    def finish(self) -> FunctionalSummary:
        """Close the pass and compute the trace-level totals."""
        if self._finished:
            raise RuntimeError("finish() called twice")
        self._finished = True
        header = self.header
        # The reference resets its instruction count when warm-up ends,
        # and never does if the trace ends first (_base stays 0).
        n_instructions = self._instructions - self._base
        l1_misses = self._l2_hits + self._llc_misses
        return FunctionalSummary(
            total_compute_cycles=self._cycles_acc,
            n_instructions=n_instructions,
            energy=_energy_events(
                header, self.config, n_instructions, self._n_refs,
                l1d_hits=self._n_counted - l1_misses, l1d_refills=l1_misses,
                l2_hits=self._l2_hits, l2_refills=self._llc_misses,
                llc_misses=self._llc_misses, writebacks=self._writebacks,
            ),
            source_name=header.name,
            source_input=header.input_name,
        )


def _segment_sums(terms: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, float]:
    """Left-to-right sums of the consecutive segments of ``terms`` that
    end (exclusive) at ``ends``, and the sum of the open tail after them.

    Every sum is a strictly sequential recurrence, bit-identical to a
    running ``+=``: short segments add column by column (segments sorted
    by length, so the ones still open at each column form a prefix),
    long ones each take one ``np.cumsum``.
    """
    n_seg = len(ends)
    tail = terms[ends[-1]:] if n_seg else terms
    open_sum = float(np.cumsum(tail)[-1]) if len(tail) else 0.0
    sums = np.empty(n_seg)
    if not n_seg:
        return sums, open_sum
    starts = np.empty(n_seg, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1]
    lengths = ends - starts

    short = lengths <= _SHORT_SEGMENT
    rows = np.arange(n_seg)
    if not short.all():
        for row in np.flatnonzero(~short).tolist():
            sums[row] = np.cumsum(terms[starts[row]:ends[row]])[-1]
        rows = rows[short]
    if len(rows):
        # Longest first; ties may land in any order.
        rows = rows[np.argsort(-lengths[rows])]
        row_starts = starts[rows]
        # open_rows[c]: how many segments have a term in column c.
        open_rows = len(rows) - np.cumsum(np.bincount(lengths[rows]))
        acc = terms[row_starts]
        for column, live in enumerate(open_rows[1:-1].tolist(), start=1):
            acc[:live] += terms[row_starts[:live] + column]
        sums[rows] = acc
    return sums, open_sum


class LockstepState:
    """The cache state in the lockstep mode's form.

    Flat per-way arrays, way ``w`` of set ``s`` at ``s * ways + w``, each
    with one scratch way at the end: L1 stamps and dirty bits, and L2
    lines, stamps and dirty bits.  A stamp is the trace position of the
    way's last touch (for L2, its line's last L1 miss), so the way with
    the smallest stamp is the oracle's first-inserted key; an empty way's
    stamp is below every position.  Inclusion makes L2 the directory:
    every L1 line sits in L2, and the two ways link to each other
    (``l1_link`` / ``l2_link``).  An empty L1 way links to the L2 scratch
    way and an L2 line outside L1 to the L1 scratch way, so a step writes
    through a link unconditionally.  The ``(sets, ways)`` views exclude
    the scratch ways.
    """

    def __init__(self, n1: int, w1: int, n2: int, w2: int) -> None:
        self.l1_scratch = n1 * w1
        self.l2_scratch = n2 * w2
        self.l1_stamp = np.full(n1 * w1 + 1, _EMPTY_STAMP, dtype=np.int64)
        self.l1_dirty = np.zeros(n1 * w1 + 1, dtype=bool)
        self.l1_link = np.full(n1 * w1 + 1, self.l2_scratch, dtype=np.intp)
        self.l2_line = np.full(n2 * w2 + 1, _EMPTY_LINE, dtype=np.int64)
        self.l2_stamp = np.full(n2 * w2 + 1, _EMPTY_STAMP, dtype=np.int64)
        self.l2_dirty = np.zeros(n2 * w2 + 1, dtype=bool)
        self.l2_link = np.full(n2 * w2 + 1, self.l1_scratch, dtype=np.intp)
        self.l1_stamps = self.l1_stamp[:-1].reshape(n1, w1)
        self.l2_lines = self.l2_line[:-1].reshape(n2, w2)
        self.l2_stamps = self.l2_stamp[:-1].reshape(n2, w2)
        self.l2_dirties = self.l2_dirty[:-1].reshape(n2, w2)


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for keys in ``[0, bound)``;
    16-bit keys take numpy's radix sort, about 10x faster."""
    if bound <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


def _ways_filled(sizes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Set and way indices of the first ``sizes[s]`` ways of each set."""
    counts = np.asarray(sizes, dtype=np.int64)
    set_idx = np.repeat(np.arange(len(counts)), counts)
    firsts = np.cumsum(counts) - counts
    return set_idx, np.arange(len(set_idx)) - np.repeat(firsts, counts)
