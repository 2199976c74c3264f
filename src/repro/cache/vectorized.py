"""Vectorized functional cache pass (the fast kernel behind
:func:`repro.cache.hierarchy.simulate_hierarchy`).

Produces a :class:`~repro.cpu.trace.MissTrace` **bit-identical** to the
scalar reference loop in :mod:`repro.cache.hierarchy` — every float in
``gap_cycles``/``total_compute_cycles`` is built from the same IEEE-754
operations in the same order — while doing the per-reference work in
numpy and C-level bulk operations wherever the cache state allows it.

The kernel exploits three structural facts about the hierarchy pass:

1. **Same-line runs are guaranteed L1 hits.**  Consecutive references to
   one cache line cannot miss after the first (nothing else touches the
   set in between), so the trace is run-compressed up front with array
   ops and only *run heads* enter the state machine.  The trailing
   references of a run contribute one boolean OR (the run's dirty bit,
   precomputed per run with ``np.logical_or.reduceat``).

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
   so keeping ``line -> last-touch index`` and evicting the resident
   line of the set with the smallest timestamp selects the identical
   victim.  Timestamps are what make bulk hit commits possible: a single
   ``dict.update`` with "last write wins" reproduces any sequence of
   move-to-MRU operations.

The cycle/instruction accounting is reconstructed after the fact from
the per-reference outcome levels: interleaving ``gap * cpi`` and
per-level hit costs into one array and summing each inter-miss segment
left-to-right (``np.cumsum`` is a sequential recurrence, and builtin
``sum`` over a list slice is a sequential C loop — both bit-identical to
the reference's running ``+=``; ``np.add.reduce``/``reduceat`` are
pairwise and are deliberately **not** used).

The L2 side keeps the reference's insertion-ordered dicts verbatim: every
L2 access is already a rare scalar event (an L1 miss), so there is
nothing to vectorize there.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.cache.hierarchy import _energy_events
from repro.cpu.core import CoreModel
from repro.cpu.trace import MemoryTrace, MissTrace
from repro.util.bitops import floor_lg

#: Default number of references per processing chunk.  Bounds the size of
#: the per-chunk Python lists the bulk commits consume; the numpy
#: precompute is whole-trace either way.
DEFAULT_CHUNK_REFS = 1 << 15

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


def hierarchy_pass_vectorized(
    trace: MemoryTrace,
    config,
    core: CoreModel,
    warmup_instructions: int = 0,
    chunk_refs: int = DEFAULT_CHUNK_REFS,
) -> MissTrace:
    """Run the vectorized hierarchy pass; bit-identical to the reference.

    Parameters mirror :func:`repro.cache.hierarchy.simulate_hierarchy`;
    ``chunk_refs`` bounds the per-chunk working lists.
    """
    if chunk_refs <= 0:
        raise ValueError(f"chunk_refs must be positive, got {chunk_refs}")

    line_shift = floor_lg(config.line_bytes)
    l1_sets_count = config.l1d_bytes // config.line_bytes // config.l1d_ways
    l2_sets_count = config.l2_bytes // config.line_bytes // config.l2_ways
    l1_mask = l1_sets_count - 1
    l2_mask = l2_sets_count - 1
    l2_bits = floor_lg(l2_sets_count)
    l1_ways = config.l1d_ways
    l2_ways = config.l2_ways

    l1_hit_cycles = core.load_hit_cycles(1)
    l2_hit_cycles = core.load_hit_cycles(2)
    miss_onchip_cycles = core.load_miss_onchip_cycles()
    store_issue = core.store_issue_cycles
    local_fraction = trace.local_ref_fraction
    cpi = (
        (1.0 - local_fraction) * core.nonmem_cpi(trace.mix)
        + local_fraction * l1_hit_cycles
    )

    # ------------------------------------------------------------------
    # Whole-trace numpy precompute
    # ------------------------------------------------------------------
    # MemoryTrace.__post_init__ canonicalizes (contiguous uint64/bool/
    # int64), so the arrays are consumed as-is.
    addresses = trace.addresses
    stores_np = trace.is_store
    gaps_np = trace.gap_instructions
    n_refs = len(addresses)

    if n_refs == 0:
        return _no_request_result(trace, config, 0.0, 0)

    lines_np = (addresses >> np.uint64(line_shift)).astype(np.int64)
    cum_instr = np.cumsum(gaps_np + 1)

    if warmup_instructions > 0:
        i_warm = int(np.searchsorted(cum_instr, warmup_instructions, side="left"))
    else:
        i_warm = 0
    if warmup_instructions > 0 and i_warm >= n_refs:
        # Entire trace is warm-up: the reference never resets its
        # counters, so instructions and compute cycles cover everything
        # and no requests are emitted.
        gap_costs = gaps_np.astype(np.float64) * cpi
        return _no_request_result(trace, config, float(np.cumsum(gap_costs)[-1]),
                                  int(cum_instr[-1]))

    # Run compression: a head is any reference whose line differs from
    # its predecessor's.  Non-head references are guaranteed L1 hits.
    head_mask = np.empty(n_refs, dtype=bool)
    head_mask[0] = True
    np.not_equal(lines_np[1:], lines_np[:-1], out=head_mask[1:])
    head_idx = np.flatnonzero(head_mask)
    # Dirty contribution of each run: OR of its references' store flags
    # (boolean reduceat is exact; order is irrelevant for OR).
    run_any_store = np.logical_or.reduceat(stores_np, head_idx)
    head_lines_np = lines_np[head_idx]

    # ------------------------------------------------------------------
    # Cache state
    # ------------------------------------------------------------------
    # L1: timestamp LRU keyed by line number.  Membership == key in
    # l1_stamp; victim of a set == resident line with the smallest stamp.
    # l1_dirty holds only *dirty* lines (absence == clean).
    l1_stamp: dict[int, int] = {}
    l1_dirty: dict[int, bool] = {}
    l1_rows: list[list[int]] = [[] for _ in range(l1_sets_count)]
    # L2: the reference's insertion-ordered dicts, tag -> dirty.
    l2_sets: list[dict[int, bool]] = [dict() for _ in range(l2_sets_count)]

    # Outcome event streams (counted region only), in head order.
    l2_hit_refs: list[int] = []
    miss_refs: list[int] = []
    miss_wb: list[bool] = []
    writebacks = 0

    l2h_append = l2_hit_refs.append
    miss_append = miss_refs.append
    wb_append = miss_wb.append
    stamp = l1_stamp
    #: Lines removed from L1 since the last snapshot rebuild.  The
    #: snapshot may be arbitrarily stale and classification stays exact:
    #: a snapshot member is resident unless it appears here (checked with
    #: one vectorized isin per window), and a non-member head always
    #: re-checks live state before being treated as a miss.
    removed_log: list[int] = []
    removed_append = removed_log.append

    # Sorted snapshot of resident lines for the vectorized membership
    # scan.  Rebuilt only when enough installs/removals have accumulated
    # that correcting for them costs more than a rebuild.
    snapshot = np.empty(0, dtype=np.int64)
    snapshot_drift = 0
    window = 1024
    # Start in scalar mode: a cheap probe burst decides whether the
    # trace is hit-dense enough for vector scans to pay for themselves.
    # Hit-heavy workloads promote after one burst; pathological all-miss
    # traces (mcf) never pay for a doomed vector scan.
    vector_mode = False
    vector_fails = 0
    scalar_burst = _SCALAR_BURST_MIN

    n_heads = len(head_idx)

    def process_miss(line: int, ref_i: int, dirty_in: bool) -> None:
        """One L1 miss through the exact reference machinery.

        ``dirty_in`` is the run's OR of store flags — the dirty bit the
        install leaves behind (head store, then run-hit ORs).
        """
        nonlocal writebacks, snapshot_drift
        snapshot_drift += 1
        counted = ref_i >= i_warm
        l2_set = l2_sets[line & l2_mask]
        l2_tag = line >> l2_bits
        if l2_tag in l2_set:
            l2_set[l2_tag] = l2_set.pop(l2_tag)
            if counted:
                l2h_append(ref_i)
        else:
            if counted:
                miss_append(ref_i)
            if len(l2_set) >= l2_ways:
                victim_tag = next(iter(l2_set))
                victim_dirty = l2_set.pop(victim_tag)
                victim_line = (victim_tag << l2_bits) | (line & l2_mask)
                # Inclusive hierarchy: back-invalidate L1.
                if victim_line in stamp:
                    del stamp[victim_line]
                    l1_rows[victim_line & l1_mask].remove(victim_line)
                    removed_append(victim_line)
                    if l1_dirty.pop(victim_line, False):
                        victim_dirty = True
                if counted:
                    if victim_dirty:
                        writebacks += 1
                        wb_append(True)
                    else:
                        wb_append(False)
            elif counted:
                wb_append(False)
            l2_set[l2_tag] = False
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
                # reference's warm-up replay drops the dirty bit instead.
                wb_l2_set = l2_sets[victim_line & l2_mask]
                wb_l2_tag = victim_line >> l2_bits
                if wb_l2_tag in wb_l2_set:
                    wb_l2_set[wb_l2_tag] = True
        row.append(line)
        stamp[line] = ref_i
        if dirty_in:
            l1_dirty[line] = True
        else:
            l1_dirty.pop(line, None)

    def commit_hits(lo: int, hi: int, seg_lo: int, seg_hi: int,
                    c_lines, c_pos, seg, c_base) -> None:
        """Bulk-commit the hit heads [lo, hi) (chunk-relative)."""
        l1_stamp.update(zip(c_lines[lo:hi], c_pos[lo:hi]))
        stored = seg[seg_lo:seg_hi][
            run_any_store[c_base + lo:c_base + hi]
        ]
        if len(stored):
            l1_dirty.update(zip(stored.tolist(), repeat(True)))

    h = 0  # index into head arrays
    while h < n_heads:
        chunk_end = min(h + chunk_refs, n_heads)
        # Per-chunk Python lists for bulk commits and the scalar loop.
        c_lines = head_lines_np[h:chunk_end].tolist()
        c_pos = head_idx[h:chunk_end].tolist()
        c_store = run_any_store[h:chunk_end].tolist()
        c_base = h
        c_len = chunk_end - h
        j = 0
        while j < c_len:
            if not vector_mode:
                # ---- scalar mode: miss-dense phases ----
                # The miss path is inlined (a function call per miss is
                # what made the all-miss pointer chase slower than the
                # reference) and skips removal logging: the snapshot is
                # rebuilt wholesale at vector re-entry, so the removed
                # log has nothing to correct.
                burst_end = min(j + scalar_burst, c_len)
                burst_len = burst_end - j
                hits = 0
                while j < burst_end:
                    line = c_lines[j]
                    if line in stamp:
                        stamp[line] = c_pos[j]
                        if c_store[j]:
                            l1_dirty[line] = True
                        hits += 1
                        j += 1
                        continue
                    pos_j = c_pos[j]
                    counted = pos_j >= i_warm
                    l2_set = l2_sets[line & l2_mask]
                    l2_tag = line >> l2_bits
                    if l2_tag in l2_set:
                        l2_set[l2_tag] = l2_set.pop(l2_tag)
                        if counted:
                            l2h_append(pos_j)
                    else:
                        if counted:
                            miss_append(pos_j)
                        if len(l2_set) >= l2_ways:
                            victim_tag = next(iter(l2_set))
                            victim_dirty = l2_set.pop(victim_tag)
                            victim_line = (victim_tag << l2_bits) | (line & l2_mask)
                            # Inclusive hierarchy: back-invalidate L1.
                            if victim_line in stamp:
                                del stamp[victim_line]
                                l1_rows[victim_line & l1_mask].remove(victim_line)
                                if l1_dirty.pop(victim_line, False):
                                    victim_dirty = True
                            if counted:
                                if victim_dirty:
                                    writebacks += 1
                                    wb_append(True)
                                else:
                                    wb_append(False)
                        elif counted:
                            wb_append(False)
                        l2_set[l2_tag] = False
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
                            # Dirty L1 victim writes back into L2 (on-chip).
                            wb_l2_set = l2_sets[victim_line & l2_mask]
                            wb_l2_tag = victim_line >> l2_bits
                            if wb_l2_tag in wb_l2_set:
                                wb_l2_set[wb_l2_tag] = True
                    row.append(line)
                    stamp[line] = pos_j
                    if c_store[j]:
                        l1_dirty[line] = True
                    else:
                        l1_dirty.pop(line, None)
                    j += 1
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
            seg = head_lines_np[c_base + j:c_base + w_end]
            if len(snapshot):
                pos = np.searchsorted(snapshot, seg)
                member = snapshot[np.minimum(pos, len(snapshot) - 1)] == seg
                if removed_log:
                    # A snapshot member removed since the rebuild would be
                    # a false hit: route it through the scalar path, which
                    # consults live state and classifies exactly.
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
                commit_hits(j, w_end, 0, w_len, c_lines, c_pos, seg, c_base)
                j = w_end
                if window < _WINDOW_MAX:
                    window <<= 1
                vector_fails = 0
                continue

            # Mixed window: bulk-commit the guaranteed-hit ranges between
            # scalar positions; step everything else through live state.
            # Short ranges go scalar too — a dict.update round-trip costs
            # more than a few inline hits.  Misses processed *inside* this
            # window evict lines the top-of-window mask knows nothing
            # about, so once the removed log grows, later ranges are
            # validated against the delta before committing.
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
                        commit_hits(j + prev, j + sp, prev, sp,
                                    c_lines, c_pos, seg, c_base)
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
                    commit_hits(j + prev, w_end, prev, w_len,
                                c_lines, c_pos, seg, c_base)
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
        h = chunk_end

    # ------------------------------------------------------------------
    # Vectorized reconstruction of the request stream and accounting
    # ------------------------------------------------------------------
    return _reconstruct(
        trace, config, n_refs, i_warm, warmup_instructions > 0,
        gaps_np, stores_np, cum_instr, head_idx,
        l2_hit_refs, miss_refs, miss_wb, writebacks,
        cpi, l1_hit_cycles, l2_hit_cycles, miss_onchip_cycles, store_issue,
    )


def _reconstruct(
    trace, config, n_refs, i_warm, had_warmup,
    gaps_np, stores_np, cum_instr, head_idx,
    l2_hit_refs, miss_refs, miss_wb, writebacks,
    cpi, l1_hit_cycles, l2_hit_cycles, miss_onchip_cycles, store_issue,
) -> MissTrace:
    """Rebuild the MissTrace arrays from the outcome event streams."""
    n_counted = n_refs - i_warm
    base = int(cum_instr[i_warm]) if had_warmup else 0
    n_instructions = int(cum_instr[-1]) - base

    miss_arr = np.asarray(miss_refs, dtype=np.int64)
    l2h_arr = np.asarray(l2_hit_refs, dtype=np.int64)
    wb_arr = np.asarray(miss_wb, dtype=bool)
    n_miss = len(miss_arr)
    n_l2h = len(l2h_arr)

    # Per-reference cost terms, interleaved exactly as the reference
    # accumulates them: gap cycles first, then the level-dependent cost.
    gap_costs = gaps_np[i_warm:].astype(np.float64) * cpi
    levels = np.zeros(n_counted, dtype=np.int64)
    if n_l2h:
        levels[l2h_arr - i_warm] = 1
    if n_miss:
        levels[miss_arr - i_warm] = 2
    lvl_costs = np.array([l1_hit_cycles, l2_hit_cycles, miss_onchip_cycles])
    op_cost = np.where(stores_np[i_warm:], store_issue, lvl_costs[levels])
    inter = np.empty(2 * n_counted)
    inter[0::2] = gap_costs
    inter[1::2] = op_cost
    if had_warmup:
        # The reference resets its accumulator right after adding the
        # first post-warm-up reference's gap cycles, discarding them.
        inter[0] = 0.0

    # Left-to-right segment sums between misses.  Long segments go
    # through np.cumsum (a sequential recurrence — bit-identical to the
    # running +=); many short segments are grouped by length and summed
    # with one strictly left-to-right vectorized add per element
    # position (the first operand carries no 0.0 seed, which is exact
    # anyway); the remainder goes through builtin sum on list slices (a
    # sequential C loop).  None of these is the pairwise np.add.reduce.
    seg_ends_arr = 2 * (miss_arr - i_warm) + 2
    seg_sums: list[float] = []
    if n_miss == 0 or (2 * n_counted) // max(n_miss, 1) > 512:
        append_seg = seg_sums.append
        prev = 0
        for end in seg_ends_arr.tolist():
            chunk = inter[prev:end]
            append_seg(float(np.cumsum(chunk)[-1]) if len(chunk) else 0.0)
            prev = end
        tail = inter[prev:]
        total_compute = float(np.cumsum(tail)[-1]) if len(tail) else 0.0
    else:
        starts = np.empty(n_miss, dtype=np.int64)
        starts[0] = 0
        starts[1:] = seg_ends_arr[:-1]
        lengths = seg_ends_arr - starts
        max_len = int(lengths.max())
        if n_miss >= 4096 and max_len <= 64:
            # Miss-dense trace: the segments are short and of few
            # distinct lengths, so each length class sums with
            # ``max_len`` sequential elementwise adds.
            sums = np.empty(n_miss)
            for length in np.unique(lengths).tolist():
                rows = np.flatnonzero(lengths == length)
                row_starts = starts[rows]
                acc = inter[row_starts]
                for offset in range(1, length):
                    acc = acc + inter[row_starts + offset]
                sums[rows] = acc
            seg_sums = sums.tolist()
            total_compute = float(sum(inter[int(seg_ends_arr[-1]):].tolist()))
        else:
            append_seg = seg_sums.append
            inter_list = inter.tolist()
            prev = 0
            for end in seg_ends_arr.tolist():
                append_seg(sum(inter_list[prev:end]))
                prev = end
            # float() keeps the empty-tail case a float like the
            # reference's accumulator (sum of an empty slice is int 0).
            total_compute = float(sum(inter_list[prev:]))

    # Interleave miss requests with their writebacks (gap 0.0, non-
    # blocking, same instruction index).
    counts = 1 + wb_arr.astype(np.int64)
    slots = np.cumsum(counts) - counts
    n_out = int(counts.sum()) if n_miss else 0
    gap_out = np.zeros(n_out)
    blocking_out = np.zeros(n_out, dtype=bool)
    inst_out = (
        np.repeat(cum_instr[miss_arr] - base, counts)
        if n_miss else np.empty(0, dtype=np.int64)
    )
    if n_miss:
        gap_out[slots] = seg_sums
        blocking_out[slots] = ~stores_np[miss_arr]

    l1_misses = n_miss + n_l2h
    energy = _energy_events(
        trace, config, n_instructions, n_refs,
        l1d_hits=n_counted - l1_misses, l1d_refills=l1_misses,
        l2_hits=n_l2h, l2_refills=n_miss, llc_misses=n_miss,
        writebacks=writebacks,
    )

    return MissTrace(
        gap_cycles=gap_out,
        is_blocking=blocking_out,
        instruction_index=inst_out,
        total_compute_cycles=total_compute,
        n_instructions=n_instructions,
        energy=energy,
        source_name=trace.name,
        source_input=trace.input_name,
    )


def _no_request_result(trace, config, total_compute, n_instructions) -> MissTrace:
    """MissTrace of an empty trace, or of one the warm-up budget swallows."""
    return MissTrace(
        gap_cycles=np.empty(0),
        is_blocking=np.empty(0, dtype=bool),
        instruction_index=np.empty(0, dtype=np.int64),
        total_compute_cycles=total_compute,
        n_instructions=n_instructions,
        energy=_energy_events(
            trace, config, n_instructions, trace.n_references,
            l1d_hits=0, l1d_refills=0, l2_hits=0, l2_refills=0,
            llc_misses=0, writebacks=0,
        ),
        source_name=trace.name,
        source_input=trace.input_name,
    )
