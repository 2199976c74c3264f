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

The kernel exploits three structural facts about the hierarchy pass:

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

The L2 side keeps the reference's insertion-ordered dicts, keyed by line
rather than tag (within one set each determines the other, and the line
needs no shifting back on eviction): every L2 access is already a rare
scalar event (an L1 miss), so there is nothing to vectorize there.
"""

from __future__ import annotations

from itertools import repeat
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
    per feed: the L1 stamps, dirty set and rows, the L2 sets, the
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
                    if hits * 32 >= burst_len * 31:  # >= ~97% hits
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
        if l2_hit_refs:
            op_terms[np.array(l2_hit_refs, dtype=np.int64) - first] = l2_hit
        op_terms[miss_idx] = miss_onchip
        op_terms[stores] = self._store_issue
        seg_sums, acc = _segment_sums(terms, 2 * miss_idx + 3)
        if not len(miss_idx):
            return None, acc

        blocking = ~stores[miss_idx]
        inst = instr[miss_idx]
        if not wb_refs:
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
