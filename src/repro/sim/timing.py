"""Event-driven timing simulation of one benchmark under one scheme.

Replays a :class:`~repro.cpu.trace.MissTrace` (produced once per benchmark
by the functional cache pass) against a memory controller built by a
scheme.  The machine model:

* the in-order core executes compute between LLC requests (the precomputed
  ``gap_cycles``), so the core timeline only interacts with memory at
  request points;
* **blocking** requests (load misses) stall the core until the response;
* **non-blocking** requests (store-miss fills, dirty writebacks) enter the
  8-entry write buffer and drain in the background; the core stalls only
  when the buffer is full (Table 1, Section 9.1.2 — this is what creates
  the Req 3 multiple-outstanding pattern of Figure 4);
* the memory controller is one of
  :class:`~repro.core.controller.FlatDramController` (base_dram),
  :class:`~repro.core.controller.UnprotectedController` (base_oram), or
  :class:`~repro.core.controller.TimingProtectedController`
  (static/dynamic) — the latter inserts dummy accesses and rate waits.

Each controller type has one resumable *replay machine* with two
methods: ``feed(chunk)`` replays one window of requests with the
carried core/write-buffer/controller state, and ``finish`` adds the
compute tail, fires the trailing dummies, and publishes the final state
onto the controller.  :func:`run_timing` feeds a machine the whole miss
trace as one chunk; :func:`repro.sim.streaming.run_timing_streaming`
feeds the same machines bounded miss chunks, so a chunked run is
bit-identical to the in-memory one for any chunking.  Two families of
machines produce **bit-identical** :class:`SimResult`\\ s:

* ``mode="reference"`` — the scalar oracle calling ``controller.serve``
  once per request (and, for slot controllers, once per *dummy slot*
  inside ``_advance``).
* ``mode="fast"`` (default) — one machine per controller type doing the
  same arithmetic in bulk.  ``base_dram`` replays each chunk as a
  handful of numpy array ops (the interleaved gap/latency ``np.cumsum``,
  seeded with the carried core time, reproduces the scalar ``+=`` chain
  exactly, because cumsum is a sequential recurrence) with a vectorized
  write-buffer-stall check; a chunk in which the buffer fills replays
  through the scalar deque loop.  Slot controllers (static/dynamic)
  replace the per-dummy-slot ``_advance`` iteration with closed-form
  integer slot arithmetic per idle window — the controller timeline
  never depends on fractional arrival times, only on comparisons against
  them, so the whole slot/dummy/epoch state machine runs on exact
  integers whose float images match the reference's accumulated floats
  bit for bit.  A blocking request resets a slot replay, so the stores
  after it plus the next blocking request form an *episode* whose
  integer timeline depends only on its own gaps: a long chunk's whole
  episodes advance in lockstep windows (:func:`_replay_episodes`, one
  numpy step per position of every episode, then a second pass that
  checks each decision against the scalar machine's own floats), and a
  chunk's head and tail, every episode that reaches an epoch boundary
  and every window the routing rule or the check turns down keep the
  per-request loop.

``record_observable_trace`` runs always use the reference machine: the
adversary-view trace wants one append per access, which is exactly the
per-event work the fast machines eliminate.

A third entry point batches the *configuration* axis:
:func:`run_timing_batch` replays one miss trace under many schemes with
the slot-controller state of every configuration held in
``(n_configs,)`` numpy arrays advanced in lockstep — the frontier
sweep's workhorse, bit-identical per config to ``run_timing`` (the
per-scheme replay stays the oracle, enforced by
``tests/sim/test_batch_equivalence.py``).  Its epoch transitions call
each crossing config's own learner, as the scalar controller does, and
its closed-form attempts back off after failures.  A cost rule
(:func:`batch_pays`) decides per call whether the lockstep batch or one
single-config replay per scheme is cheaper; the two are bit-identical,
so the rule only moves time.  The batched kernel assumes the usual
trace regime (non-negative gaps, timelines below 2**53 so
integer-valued doubles stay exact), which every generated workload
satisfies.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

import numpy as np

from repro.cache.write_buffer import WriteBuffer
from repro.core.controller import (
    EpochRecord,
    FlatDramController,
    TimingProtectedController,
    UnprotectedController,
)
from repro.core.counters import PerfCounters
from repro.cpu.trace import MissTrace
from repro.power.coefficients import PAPER_COEFFICIENTS
from repro.power.model import (
    build_breakdown,
    dram_memory_energy_nj,
    oram_memory_energy_nj,
)
from repro.sim.result import SimResult


def run_timing(
    miss_trace: MissTrace,
    scheme,
    write_buffer_entries: int = 8,
    record_requests: bool = True,
    record_observable_trace: bool = False,
    mode: str = "fast",
) -> SimResult:
    """Replay ``miss_trace`` under ``scheme``; return the full result.

    ``scheme`` is any object from :mod:`repro.core.scheme` exposing
    ``build_controller()``, ``name`` and ``is_oram``.

    With ``record_observable_trace``, the result carries the start time of
    every memory access an adversary can observe — including dummies for
    slot-enforced schemes (the Section 4.2 capability).

    ``mode`` selects the replay machine (``"fast"``/``"reference"``);
    both are bit-identical, enforced by
    ``tests/sim/test_timing_equivalence.py``.  The whole trace is fed to
    the machine as one chunk.
    """
    controller, machine = _open_replay(
        scheme, write_buffer_entries, record_requests, mode, record_observable_trace
    )
    completions = machine.feed(miss_trace)
    end_time = machine.finish(miss_trace.total_compute_cycles)
    return _build_result(
        miss_trace, scheme, controller, end_time, completions,
        record_requests, record_observable_trace,
    )


#: The two constants of :func:`batch_pays`'s rule.
BATCH_MIN_CONFIGS = 8
BATCH_SPARSE_CONFIGS = 100

#: The batched kernel replays a stretch of requests in closed form only
#: if it holds at least this many (below that, per-request stepping is
#: cheaper) ...
BATCH_RUN_MIN = 4
#: ... and certifies at most this many per attempt.  An attempt that
#: certifies nothing delays the next one by ``BATCH_BACKOFF_FIRST``
#: requests, a delay that doubles with each failure in a row and resets
#: on the next certified run (calibration: DESIGN.md "Small batches").
BATCH_RUN_CHUNK = 256
BATCH_BACKOFF_FIRST = 1


def batch_pays(miss_trace: MissTrace, controllers) -> bool:
    """Whether slot ``controllers`` replay faster as one batch than singly.

    The batched kernel pays ``(n_configs,)``-wide array work per step,
    and wins only by replaying whole stretches of requests in closed
    form.  A gap longer than a config's rate fires dummy slots and breaks
    such a stretch into per-request steps, so the rule weighs the config
    count ``n`` against the sparsity ``s``: the fraction of the trace's
    gaps longer than the smallest rate any config can run at (a static
    config's rate; a dynamic config's initial or fastest candidate
    rate).  The batch runs only when ``n >= BATCH_MIN_CONFIGS +
    BATCH_SPARSE_CONFIGS * s`` (8 + 100·s): a wide grid batches on any
    trace (n >= 108 clears every s <= 1), a figure's few configs never
    do on a sparse one.  The rule reads only its inputs, and both paths
    are bit-identical, so the choice moves time, never a result
    (calibration: DESIGN.md "Small batches").
    """
    n = len(controllers)
    if n < BATCH_MIN_CONFIGS:
        return False
    fastest = min(
        c.rate if c.learner is None else min(c.rate, c.learner.rates.fastest)
        for c in controllers
    )
    gaps = miss_trace.gap_cycles
    sparsity = np.count_nonzero(gaps > fastest) / len(gaps) if len(gaps) else 0.0
    return n >= BATCH_MIN_CONFIGS + BATCH_SPARSE_CONFIGS * sparsity


def run_timing_batch(
    miss_trace: MissTrace,
    schemes,
    write_buffer_entries: int = 8,
    record_requests: bool = True,
    mode: str = "fast",
) -> list:
    """Replay one miss trace under many schemes on the cheaper machines.

    A design-space grid replays the *same* arrival stream under every
    configuration, so the config-batched kernel carries the
    configuration axis as a numpy dimension — ``(n_configs,)`` arrays
    for rate, timeline, epoch boundary, and counters, advanced in
    lockstep over the shared requests; an epoch transition runs each
    crossing config's own learner on the counters its scalar controller
    would hold.  The slot schemes replay through it when
    :func:`batch_pays` says the batch is cheaper (a wide grid on any
    trace, a few configs only on a dense one); otherwise each replays
    on its single-config machine.  Schemes without a slot controller
    (``base_dram``/``base_oram``) always take their own machines, and
    ``mode="reference"`` delegates every scheme to the scalar oracle.

    Returns one :class:`SimResult` per scheme, in order, each
    **bit-identical** to ``run_timing(miss_trace, scheme, ...)`` on
    either route — the per-scheme replay stays the oracle, same
    contract pattern as the cache and ORAM kernel pairs (enforced by
    ``tests/sim/test_batch_equivalence.py``).
    """
    _check_replay_args(mode, write_buffer_entries)
    schemes = list(schemes)
    results: list = [None] * len(schemes)
    slotted: dict[int, TimingProtectedController] = {}
    if mode == "fast":
        for index, scheme in enumerate(schemes):
            controller = scheme.build_controller()
            if type(controller) is TimingProtectedController:
                slotted[index] = controller
    if batch_pays(miss_trace, list(slotted.values())):
        batch = _replay_slotted_batch(
            miss_trace, list(slotted.values()),
            write_buffer_entries, record_requests,
        )
        for (index, controller), (end_time, completions) in zip(slotted.items(), batch):
            results[index] = _build_result(
                miss_trace, schemes[index], controller,
                end_time, completions, record_requests,
                record_observable_trace=False,
            )
    return [
        result if result is not None else run_timing(
            miss_trace, scheme, write_buffer_entries, record_requests, mode=mode,
        )
        for scheme, result in zip(schemes, results)
    ]


# ----------------------------------------------------------------------
# Replay machines
# ----------------------------------------------------------------------
#
# ``feed(chunk)`` takes anything carrying ``gap_cycles``/``is_blocking``
# arrays (a whole MissTrace or a streamed MissChunk) and returns the
# chunk's completion times, or None when not recording them.  Each
# ``feed`` loads the carried state into locals and writes it back once.

def _check_replay_args(mode: str, write_buffer_entries: int) -> None:
    if mode not in ("fast", "reference"):
        raise ValueError(f"mode must be 'fast' or 'reference', got {mode!r}")
    if write_buffer_entries < 1:
        raise ValueError(
            f"write_buffer_entries must be positive, got {write_buffer_entries}"
        )


def _open_replay(
    scheme, write_buffer_entries, record_requests, mode,
    record_observable_trace=False,
):
    """Validate the arguments; build the controller and its machine.

    Observable-trace runs and unknown controller types take the
    reference machine.
    """
    _check_replay_args(mode, write_buffer_entries)
    controller = scheme.build_controller()
    controller.record_trace = record_observable_trace
    kind = type(controller)
    if mode == "reference" or record_observable_trace:
        machine = _ReferenceReplay
    elif kind is FlatDramController:
        machine = _FlatDramReplay
    elif kind is UnprotectedController:
        machine = _UnprotectedReplay
    elif kind is TimingProtectedController:
        machine = _StaticReplay if controller.schedule is None else _DynamicReplay
    else:
        machine = _ReferenceReplay
    return controller, machine(controller, write_buffer_entries, record_requests)


def _end_time(core, total_compute_cycles, buffer) -> float:
    """Program end: the core's compute tail or the last store's drain."""
    drain = buffer[-1] if buffer else 0.0
    return float(max(core + total_compute_cycles, drain))


class _ReferenceReplay:
    """The scalar oracle: one ``controller.serve`` call per request."""

    def __init__(self, controller, entries, record_requests) -> None:
        self.controller = controller
        self.buffer = WriteBuffer(entries=entries)
        self.record_requests = record_requests
        self.core = 0.0

    def feed(self, chunk):
        gaps = chunk.gap_cycles
        blocking = chunk.is_blocking
        n_requests = len(gaps)
        completions = (
            np.zeros(n_requests, dtype=np.float64) if self.record_requests else None
        )
        core = self.core
        serve = self.controller.serve
        admit = self.buffer.admit
        for index in range(n_requests):
            issue = core + gaps[index]
            completion = serve(issue)
            if blocking[index]:
                core = completion
            else:
                core = admit(issue, completion)
            if completions is not None:
                completions[index] = completion
        self.core = core
        return completions

    def finish(self, total_compute_cycles):
        # Tail: the core's final compute and any still-draining stores.
        end_time = max(self.core + total_compute_cycles, self.buffer.drain_all())
        self.controller.finalize(end_time)
        return end_time


class _FlatDramReplay:
    """base_dram: a stall-free chunk replays as one ``np.cumsum``.

    The scalar recurrence is ``core += gap`` then, for blocking requests,
    ``core += latency`` (the admit path returns ``now`` when the buffer
    never fills).  Interleaving those terms behind the carried core time
    and taking ``np.cumsum`` — a sequential recurrence — reproduces the
    float chain exactly.  A chunk in which some store finds the write
    buffer full replays through the scalar deque loop instead.
    """

    def __init__(self, controller, entries, record_requests) -> None:
        self.controller = controller
        self.entries = entries
        self.record_requests = record_requests
        self.core = 0.0
        self.n = 0
        # The last `entries` store completions, oldest first (-inf: no
        # store yet).  Entries that already left the buffer are at or
        # below every later issue time, so they never look in flight.
        self.recent = np.full(entries, -np.inf)

    def feed(self, chunk):
        gaps = chunk.gap_cycles
        blocking = chunk.is_blocking
        n = len(gaps)
        self.n += n
        latency = self.controller.latency
        entries = self.entries
        inter = np.empty(2 * n + 1)
        inter[0] = self.core
        inter[1::2] = gaps
        inter[2::2] = np.where(blocking, float(latency), 0.0)
        prefix = np.cumsum(inter)
        issues = prefix[1::2]
        completions = issues + latency

        stores = ~blocking
        nb = completions[stores]
        nb_issues = issues[stores]
        # With non-negative gaps completions never decrease, so a store
        # finds the buffer full iff the store `entries` admits before it
        # (carried from an earlier chunk, or in this one) is still in
        # flight at its issue time.
        head = min(entries, len(nb))
        if (self.recent[:head] > nb_issues[:head]).any() or (
            nb[:-entries] > nb_issues[entries:]
        ).any():
            return self._feed_stalling(gaps, blocking)

        self.core = float(prefix[-1])
        if len(nb) >= entries:
            self.recent = nb[-entries:].copy()
        elif len(nb):
            self.recent = np.concatenate((self.recent[len(nb):], nb))
        return completions if self.record_requests else None

    def _feed_stalling(self, gaps, blocking):
        """The scalar deque loop, for a chunk where the buffer fills."""
        gaps = gaps.tolist()
        blocking = blocking.tolist()
        n = len(gaps)
        latency = self.controller.latency
        entries = self.entries
        completions = np.zeros(n, dtype=np.float64) if self.record_requests else None

        core = self.core
        buffer = deque(self.recent.tolist())
        buf_pop = buffer.popleft
        buf_push = buffer.append

        for i in range(n):
            issue = core + gaps[i]
            completion = issue + latency
            if blocking[i]:
                core = completion
            else:
                while buffer and buffer[0] <= issue:
                    buf_pop()
                proceed = issue
                while len(buffer) >= entries:
                    oldest = buf_pop()
                    if oldest > proceed:
                        proceed = oldest
                buf_push(completion)
                core = proceed
            if completions is not None:
                completions[i] = completion

        self.core = core
        self.recent = np.array([-np.inf] * (entries - len(buffer)) + list(buffer))
        return completions

    def finish(self, total_compute_cycles):
        self.controller.stats.real_accesses = self.n
        last_store = float(self.recent[-1])
        drain = last_store if last_store > -np.inf else 0.0
        return float(max(self.core + total_compute_cycles, drain))


class _UnprotectedReplay:
    """base_oram: single-ported ORAM, no slots, no dummies."""

    def __init__(self, controller, entries, record_requests) -> None:
        self.controller = controller
        self.entries = entries
        self.record_requests = record_requests
        self.core = 0.0
        self.prev = 0.0
        self.n = 0
        self.buffer: deque = deque()

    def feed(self, chunk):
        gaps = chunk.gap_cycles.tolist()
        blocking = chunk.is_blocking.tolist()
        n = len(gaps)
        latency = self.controller.latency
        entries = self.entries
        completions = np.zeros(n, dtype=np.float64) if self.record_requests else None

        core = self.core
        prev = self.prev
        buffer = self.buffer
        buf_pop = buffer.popleft
        buf_push = buffer.append

        for i in range(n):
            issue = core + gaps[i]
            start = issue if issue > prev else prev
            completion = start + latency
            prev = completion
            if blocking[i]:
                core = completion
            else:
                while buffer and buffer[0] <= issue:
                    buf_pop()
                proceed = issue
                while len(buffer) >= entries:
                    oldest = buf_pop()
                    if oldest > proceed:
                        proceed = oldest
                buf_push(completion)
                core = proceed
            if completions is not None:
                completions[i] = completion

        self.core = core
        self.prev = prev
        self.n += n
        return completions

    def finish(self, total_compute_cycles):
        self.controller.stats.real_accesses = self.n
        return _end_time(self.core, total_compute_cycles, self.buffer)


#: The slot machines replay a chunk's whole episodes in lockstep windows
#: (:func:`_replay_episodes`) only when the chunk holds at least this
#: many requests and, in the dynamic machine, the current epoch has room
#: for as many; below that the per-request loop serves them ...
LOCKSTEP_MIN_REQUESTS = 1024
#: ... one window serves at most this many requests, which bounds its
#: arrays (about 100 bytes a request) ...
LOCKSTEP_WINDOW_REQUESTS = 8192
#: ... and it runs only if it holds at least this many requests per numpy
#: step it takes (:func:`_window_pays`; calibration: DESIGN.md "Long slot
#: replays run episodes in lockstep").
LOCKSTEP_MIN_WIDTH = 64


def _window_pays(bounds) -> bool:
    """Whether the episodes between consecutive ``bounds`` (the indices of
    the blocking requests that end them, the first bound ending the
    episode before) replay faster in one lockstep window than in the loop.

    A window takes one numpy step per position of its longest episode,
    plus about four steps' worth of fixed cost, and a step costs about as
    much as ``LOCKSTEP_MIN_WIDTH`` requests served by the loop.  The rule
    reads only its input and both paths are bit-identical, so it moves
    time, never a result.
    """
    steps = int(np.diff(bounds).max()) + 4
    return int(bounds[-1] - bounds[0]) >= LOCKSTEP_MIN_WIDTH * steps


class _SlotReplay:
    """What the two slot machines share: ``feed`` and the window commit.

    A blocking request resets a slot replay: the core waits for its
    completion, so the core time equals the controller timeline, every
    buffered store has already completed, and the last access was real.
    The stores after it plus the next blocking request therefore form an
    *episode* whose integer timeline depends only on its own gaps.
    ``feed`` serves a chunk's head (through its first blocking request)
    and its trailing stores with the subclass's per-request ``_loop``,
    and the whole episodes between them in windows of
    :func:`_replay_episodes`, which either returns the state the loop
    would reach, bit for bit, or declines and leaves the window to the
    loop.  A window runs only in a chunk of at least
    ``LOCKSTEP_MIN_REQUESTS`` requests, only while the current epoch has
    room for as many (:meth:`_room`; the episode that meets the boundary
    is the loop's, so epoch transitions and learner decisions stay
    there), and only when it is wide enough to pay (:func:`_window_pays`).
    """

    #: Static machines never reach an epoch boundary.
    epoch_end = None

    def __init__(self, controller, entries, record_requests) -> None:
        self.controller = controller
        self.entries = entries
        self.record_requests = record_requests
        self.rate = controller.rate
        self.prev = 0  # _completion_prev, exact integer timeline
        self.last_was_real = False
        # Run totals (flushed into controller.stats at the end).
        self.total_dummy = 0
        self.total_waste = 0.0
        self.n = 0
        self.core = 0.0
        self.buffer: deque = deque()

    def feed(self, chunk):
        gaps = chunk.gap_cycles
        blocking = chunk.is_blocking
        n = len(gaps)
        completions = np.zeros(n, dtype=np.float64) if self.record_requests else None
        self.n += n

        def loop(lo, hi):
            self._loop(
                gaps[lo:hi], blocking[lo:hi],
                None if completions is None else completions[lo:hi],
            )

        # Episodes are whole only between the chunk's first and last
        # blocking requests, and the reset needs non-negative gaps.
        ends = np.flatnonzero(blocking) if n >= LOCKSTEP_MIN_REQUESTS else ()
        if len(ends) < 2 or not (gaps.min() >= 0.0 and gaps.max() < np.inf):
            loop(0, n)
            return completions
        loop(0, int(ends[0]) + 1)
        e = 1  # episode e holds requests ends[e-1]+1 .. ends[e]
        while e < len(ends):
            lo = int(ends[e - 1]) + 1
            # The window: episodes e .. stop-1, at most `room` requests and
            # at most LOCKSTEP_WINDOW_REQUESTS.
            room = self._room()
            stop = int(np.searchsorted(ends, lo + min(room, LOCKSTEP_WINDOW_REQUESTS)))
            if stop == e or room < LOCKSTEP_MIN_REQUESTS or not _window_pays(
                ends[e - 1:stop]
            ):
                # The loop serves the window and the episode after it: the
                # one that would overflow it, or must meet the boundary.
                last = min(stop, len(ends) - 1)
                loop(lo, int(ends[last]) + 1)
                e = last + 1
                continue
            hi = int(ends[stop - 1]) + 1
            run = _replay_episodes(
                gaps[lo:hi], ends[e:stop] - lo, self.prev, self.rate,
                self.controller.latency, self.entries, self.epoch_end,
            )
            if run is None:
                loop(lo, hi)
                e = stop
                continue
            if run.episodes:
                self._commit(
                    run, None if completions is None else completions[lo:lo + run.requests]
                )
                e += run.episodes
            if e < stop:
                # Episode e reaches the epoch boundary: the loop serves it.
                loop(int(ends[e - 1]) + 1, int(ends[e]) + 1)
                e += 1
        loop(int(ends[-1]) + 1, n)
        return completions

    def _room(self) -> int:
        """Requests a window may serve: at most ``⌈(epoch_end − prev)/(rate
        + latency)⌉`` are served before the epoch boundary."""
        if self.epoch_end is None:
            return _UNBOUNDED
        span = self.epoch_end - self.prev
        return -(-span // (self.rate + self.controller.latency)) if span > 0 else 0

    def _commit(self, run, completions) -> None:
        """Take over the state a lockstep window reached."""
        self.prev = run.prev
        self.core = run.prev
        self.last_was_real = True
        if run.buffer is not None:
            self.buffer = deque(run.buffer)
        self.total_dummy += run.dummies
        self.total_waste = _fold(self.total_waste, run.wastes)
        if completions is not None:
            completions[:] = run.completions


class _StaticReplay(_SlotReplay):
    """Static-rate slot controller: no epochs, no learner, one rate forever.

    The controller timeline (slots, dummies) is integer-valued: every
    quantity is a sum of ``rate``/``latency`` integers, and arrival times
    only enter *comparisons*, never the arithmetic.  Keeping the timeline
    in exact Python integers therefore reproduces the reference's float
    timeline bit for bit (integer-valued doubles are exact), while an
    idle window of k dummy slots costs O(1) arithmetic instead of k loop
    iterations.  The per-request loop inlines the advance, so the common
    request — arriving inside the current slot window — costs a handful
    of local operations; a long chunk's whole episodes replay in lockstep
    windows instead (:class:`_SlotReplay`).
    """

    def _loop(self, gaps, blocking, completions):
        """Serve ``gaps``/``blocking`` (a slice of a chunk) one by one."""
        gaps = gaps.tolist()
        blocking = blocking.tolist()
        latency = self.controller.latency
        rate = self.rate
        rate_f = float(rate)
        step = rate + latency
        entries = self.entries

        prev = self.prev
        last_was_real = self.last_was_real
        total_dummy = self.total_dummy
        total_waste = self.total_waste
        core = self.core
        buffer = self.buffer
        buf_pop = buffer.popleft
        buf_push = buffer.append

        for i in range(len(gaps)):
            arrival = core + gaps[i]
            # ---- inline advance(arrival): fire dummies before the arrival ----
            if prev + rate < arrival:
                # Count of dummy slots before `arrival`: j in [0, k) with
                # prev + j*step + rate < arrival.  Estimate with float
                # division, correct with exact integer/float comparisons.
                k = int((arrival - prev - rate) // step) + 1
                if k < 1:
                    k = 1
                while k > 0 and prev + (k - 1) * step + rate >= arrival:
                    k -= 1
                while prev + k * step + rate < arrival:
                    k += 1
                prev += k * step
                total_dummy += k
                last_was_real = False
            # ---- serve(arrival) ----
            slot = prev + rate
            if arrival <= prev:
                if last_was_real:
                    waste = rate_f  # Req 3
                else:
                    waste = slot - arrival  # Req 2: dummy remainder + gap
            else:
                waste = slot - arrival  # Req 1: idle wait, <= rate
            total_waste += waste
            completion = slot + latency
            prev = completion
            last_was_real = True
            # ---- core/write-buffer reaction ----
            if blocking[i]:
                core = completion
            else:
                while buffer and buffer[0] <= arrival:
                    buf_pop()
                proceed = arrival
                while len(buffer) >= entries:
                    oldest = buf_pop()
                    if oldest > proceed:
                        proceed = oldest
                buf_push(completion)
                core = proceed
            if completions is not None:
                completions[i] = completion

        self.prev = prev
        self.last_was_real = last_was_real
        self.total_dummy = total_dummy
        self.total_waste = total_waste
        self.core = core

    def finish(self, total_compute_cycles):
        controller = self.controller
        latency = controller.latency
        rate = self.rate
        step = rate + latency
        prev = self.prev
        end_time = _end_time(self.core, total_compute_cycles, self.buffer)
        # Trailing dummies up to program termination.
        if prev + rate < end_time:
            k = int((end_time - prev - rate) // step) + 1
            if k < 1:
                k = 1
            while k > 0 and prev + (k - 1) * step + rate >= end_time:
                k -= 1
            while prev + k * step + rate < end_time:
                k += 1
            self.total_dummy += k

        # Publish the final state back onto the controller.  The epoch
        # counters never reset (no transitions), so they equal the run
        # totals; oram_cycles is n exact integer additions of `latency`,
        # which is n * latency exactly.
        n = self.n
        counters = controller.counters
        counters.access_count = n
        counters.oram_cycles = float(n * latency)
        counters.waste = self.total_waste
        controller.stats.real_accesses = n
        controller.stats.dummy_accesses = self.total_dummy
        controller.stats.total_waste = self.total_waste
        return end_time


class _DynamicReplay(_SlotReplay):
    """Epoch-driven slot controller: learner transitions at boundaries.

    The same exact-integer timeline as :class:`_StaticReplay`, with the
    advance/transition machinery in a closure the request loop only
    enters when a dummy or an epoch boundary is actually pending.  A
    lockstep window serves only episodes that end before the epoch
    boundary, at the epoch's one rate; the episode that reaches the
    boundary, and so every transition, is served by the loop.
    """

    def __init__(self, controller, entries, record_requests) -> None:
        super().__init__(controller, entries, record_requests)
        self.epoch_index = 0
        self.epoch_end = controller.schedule.epoch_length(0)
        # Epoch counters (flushed into `counters` at each learner call).
        # ``oram_cycles`` is derived: the reference accumulates `latency`
        # once per served request, and integer-valued float accumulation
        # is exact, so it always equals access_count * latency.
        self.ctr_access = 0
        self.ctr_waste = 0.0

    def _commit(self, run, completions) -> None:
        super()._commit(run, completions)
        self.ctr_access += run.requests
        self.ctr_waste = _fold(self.ctr_waste, run.wastes)

    def finish(self, total_compute_cycles):
        end_time = _end_time(self.core, total_compute_cycles, self.buffer)
        # Trailing dummies.
        self._loop(np.empty(0), np.empty(0, dtype=bool), None, until=end_time)

        # Publish the final state back onto the controller.
        controller = self.controller
        controller.rate = self.rate
        counters = controller.counters
        counters.access_count = self.ctr_access
        counters.oram_cycles = float(self.ctr_access * controller.latency)
        counters.waste = self.ctr_waste
        controller.stats.real_accesses = self.n
        controller.stats.dummy_accesses = self.total_dummy
        controller.stats.total_waste = self.total_waste
        return end_time

    def _loop(self, gaps, blocking, completions, until=None):
        """Serve the requests one by one, then fire the dummy slots
        before ``until``."""
        gaps = gaps.tolist()
        blocking = blocking.tolist()
        controller = self.controller
        latency = controller.latency
        epoch_len = controller.schedule.epoch_length
        learner = controller.learner
        counters = controller.counters
        epochs = controller.epochs
        entries = self.entries

        rate = self.rate
        rate_f = float(rate)
        step = rate + latency
        prev = self.prev
        last_was_real = self.last_was_real
        epoch_index = self.epoch_index
        epoch_end = self.epoch_end
        ctr_access = self.ctr_access
        ctr_waste = self.ctr_waste
        total_dummy = self.total_dummy
        total_waste = self.total_waste
        core = self.core
        buffer = self.buffer
        buf_pop = buffer.popleft
        buf_push = buffer.append

        def advance(until: float) -> None:
            """Fire every dummy slot starting strictly before ``until``,
            processing epoch transitions as the timeline crosses them."""
            nonlocal prev, last_was_real, total_dummy
            nonlocal rate, rate_f, step, epoch_index, epoch_end
            nonlocal ctr_access, ctr_waste
            while True:
                while prev >= epoch_end:
                    # ---- epoch transition ----
                    epoch_cycles = float(epoch_len(epoch_index))
                    counters.access_count = ctr_access
                    counters.oram_cycles = float(ctr_access * latency)
                    counters.waste = ctr_waste
                    decision = learner.decide(counters, epoch_cycles)
                    counters.reset()
                    ctr_access = 0
                    ctr_waste = 0.0
                    epoch_index += 1
                    epoch_start = epoch_end
                    rate = decision.chosen_rate
                    rate_f = float(rate)
                    step = rate + latency
                    epochs.append(
                        EpochRecord(
                            index=epoch_index,
                            start_cycle=float(epoch_start),
                            rate=rate,
                            raw_estimate=decision.raw_estimate,
                        )
                    )
                    epoch_end = epoch_start + epoch_len(epoch_index)
                if prev + rate >= until:
                    return
                # Count of dummy slots before `until`: j in [0, k) with
                # prev + j*step + rate < until.  Estimate with float
                # division and correct with exact integer/float comparisons.
                k = int((until - prev - rate) // step) + 1
                if k < 1:
                    k = 1
                while k > 0 and prev + (k - 1) * step + rate >= until:
                    k -= 1
                while prev + k * step + rate < until:
                    k += 1
                # Dummies may only fire while prev stays inside the epoch;
                # the transition at the boundary can change the rate.
                span = epoch_end - prev
                k2 = -(-span // step)
                if k2 < k:
                    k = k2
                if k <= 0:
                    continue  # epoch boundary first; transition and retry
                prev += k * step
                total_dummy += k
                last_was_real = False

        for i in range(len(gaps)):
            arrival = core + gaps[i]
            # ---- serve(arrival) ----
            if prev >= epoch_end or prev + rate < arrival:
                advance(arrival)
            slot = prev + rate
            if arrival <= prev:
                if last_was_real:
                    waste = rate_f  # Req 3
                else:
                    waste = slot - arrival  # Req 2: dummy remainder + gap
            else:
                waste = slot - arrival  # Req 1: idle wait, <= rate
            ctr_waste += waste
            total_waste += waste
            completion = slot + latency
            ctr_access += 1
            prev = completion
            last_was_real = True
            # ---- core/write-buffer reaction ----
            if blocking[i]:
                core = completion
            else:
                while buffer and buffer[0] <= arrival:
                    buf_pop()
                proceed = arrival
                while len(buffer) >= entries:
                    oldest = buf_pop()
                    if oldest > proceed:
                        proceed = oldest
                buf_push(completion)
                core = proceed
            if completions is not None:
                completions[i] = completion
        if until is not None:
            advance(until)

        self.rate = rate
        self.prev = prev
        self.last_was_real = last_was_real
        self.epoch_index = epoch_index
        self.epoch_end = epoch_end
        self.ctr_access = ctr_access
        self.ctr_waste = ctr_waste
        self.total_dummy = total_dummy
        self.total_waste = total_waste
        self.core = core


# ----------------------------------------------------------------------
# Episode-lockstep kernel of the slot machines
# ----------------------------------------------------------------------

#: Beyond this, integer-valued doubles stop being exact.
_EXACT = float(1 << 53)
#: The room of a machine with no epoch boundary.
_UNBOUNDED = 1 << 62


class _Episodes(NamedTuple):
    """What :func:`_replay_episodes` commits: its first ``episodes``
    episodes, ``requests`` requests in all."""

    episodes: int
    requests: int
    completions: np.ndarray
    wastes: np.ndarray
    dummies: int
    prev: int
    buffer: list | None  # the write buffer's new contents; None: unchanged


def _fold(total: float, values: np.ndarray) -> float:
    """``total += value`` for each value in turn, as one seeded cumsum (a
    sequential recurrence, so the float additions happen in that order)."""
    seeded = np.empty(len(values) + 1)
    seeded[0] = total
    seeded[1:] = values
    return float(np.cumsum(seeded)[-1])


def _dummy_slots(arrival, free, step):
    """Closed-form dummy count before each arrival: how many ``j >= 0``
    have ``free + j*step < arrival``, ``free`` being the slot the next
    access takes if no dummy fires.  A float estimate, which the second
    pass of :func:`_replay_episodes` checks exactly."""
    return np.ceil(np.maximum(arrival - free, 0.0) / step)


def _lanes(starts, lengths):
    """Lay a window's episodes out as lanes, longest first.

    ``running[t]`` lanes reach position t, so they are a prefix of the
    lanes, and position t of lane j sits at ``offset[t] + j`` of the
    position-major layout; ``layout[i]`` is the request at layout index
    i.  Returns ``(order, running, offset, layout)``, ``order`` being the
    episode of each lane.
    """
    order = np.argsort(-lengths)
    lane_start = starts[order]
    running = (len(lengths) - np.cumsum(np.bincount(lengths))).tolist()
    offset = [0]
    layout = np.empty(int(lengths.sum()), dtype=np.int64)
    for t, c in enumerate(running[:-1]):
        layout[offset[t]:offset[t] + c] = lane_start[:c] + t
        offset.append(offset[t] + c)
    return order, running, offset, layout


def _first_pass(g, running, offset, rate, latency, entries):
    """Each lane's integer timeline relative to its episode's start.

    ``g`` holds the gaps in the position-major layout.  Returns the dummy
    count, slot and stall flag of every request (same layout) and each
    lane's span: its blocking request's completion.
    """
    step = rate + latency
    n = offset[-1]
    dummies = np.empty(n)
    slots = np.empty(n)
    stalled = np.zeros(n, dtype=bool)
    core = np.zeros(running[0])
    free = np.full(running[0], float(rate))  # prev + rate, prev = 0
    span = np.empty(running[0])
    for t, c in enumerate(running[:-1]):
        c_next = running[t + 1]
        o = offset[t]
        a = core[:c] + g[o:o + c]
        k = _dummy_slots(a, free[:c], step)
        slot = free[:c] + k * step
        dummies[o:o + c] = k
        slots[o:o + c] = slot
        free[:c] = slot + step
        span[c_next:c] = slot[c_next:]  # the lanes whose blocking request this is
        if c_next:
            stores = a[:c_next]
            if t >= entries:
                back = slots[offset[t - entries]:offset[t - entries] + c_next] + latency
                stall = back > stores
                stalled[o:o + c_next] = stall
                core[:c_next] = np.where(stall, back, stores)
            else:
                core[:c_next] = stores
    return dummies, slots, stalled, span + latency


def _replay_episodes(gaps, ends, prev, rate, latency, entries, epoch_end):
    """Replay whole episodes of a slot machine in lockstep; None to decline.

    ``gaps`` holds a window of requests that starts right after a blocking
    request (so the core time equals the integer timeline ``prev``, every
    buffered store has completed and the last access was real) and ends
    with one; ``ends`` indexes its blocking requests, each of which ends
    an episode.  Gaps must be non-negative and finite.

    *First pass* (:func:`_first_pass`).  Each episode's integer timeline,
    relative to its own start, depends only on its gaps: one numpy step
    advances position t of every episode.  A request's dummy count is
    closed form; a store at position t stalls only if the store
    ``entries`` positions earlier in its episode is still in flight at
    its arrival (the rule :class:`_FlatDramReplay` uses: earlier
    episodes' stores drained before its start).  A cumsum of the
    episodes' spans gives their absolute starts (integer-valued doubles,
    exact below 2**53, which is checked).  With ``epoch_end`` given, the
    window ends before the first episode that reaches it.

    *Second pass.*  Every arrival is recomputed from those starts with
    the scalar machine's own float additions, and every first-pass
    decision is checked against it exactly: each dummy count from both
    sides, and each stall.  Wastes and completions are built from those
    floats.  If any check fails, nothing is committed and the caller
    replays the window through its per-request loop.
    """
    step = rate + latency
    starts = np.empty(len(ends), dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends + 1 - starts

    order, running, offset, layout = _lanes(starts, lengths)
    g = gaps[layout]
    dummies, slots, stalled, span = _first_pass(g, running, offset, rate, latency, entries)
    episode_end = np.empty(len(ends))
    episode_end[order] = span
    np.cumsum(episode_end, out=episode_end)
    episode_end += prev
    keep = len(ends)
    if epoch_end is not None and episode_end[-1] >= epoch_end:
        keep = int(np.searchsorted(episode_end, epoch_end))
        if not keep:
            return _Episodes(0, 0, None, None, 0, prev, None)
        starts, lengths = starts[:keep], lengths[:keep]
        order, running, offset, layout = _lanes(starts, lengths)
        g = gaps[layout]
        dummies, slots, stalled, span = _first_pass(
            g, running, offset, rate, latency, entries
        )
    if episode_end[keep - 1] >= _EXACT:
        return None

    # ---- second pass: absolute floats, every decision checked ----
    n = offset[-1]
    base = np.empty(keep)
    base[0] = prev
    base[1:] = episode_end[:keep - 1]
    base = base[order]
    core = base.copy()
    arrivals = np.empty(n)
    wastes = np.empty(n)
    done = np.empty(n)
    for t, c in enumerate(running[:-1]):
        c_next = running[t + 1]
        o = offset[t]
        a = core[:c] + g[o:o + c]
        slot = base[:c] + slots[o:o + c]
        np.subtract(slot, a, out=wastes[o:o + c])
        np.add(slot, latency, out=done[o:o + c])
        arrivals[o:o + c] = a
        if c_next:
            stores = a[:c_next]
            if t >= entries:
                back = done[offset[t - entries]:offset[t - entries] + c_next]
                stall = back > stores
                if (stall != stalled[o:o + c_next]).any():
                    return None
                core[:c_next] = np.where(stall, back, stores)
            else:
                core[:c_next] = stores
    # Each slot is at or after its arrival (no dummy left before it), and
    # the k-th dummy was due: slot - step < arrival, which a wait below
    # `step` implies (rounding can only make this check stricter).
    fired = dummies > 0.0
    if wastes.min() < 0.0 or (fired & (wastes >= step)).any():
        return None
    # With no dummy fired, the scalar charges the rate if the request
    # queued behind real work (Req 3: arrival <= prev, a wait of at least
    # the rate) and the wait otherwise (Req 1): the smaller, to the bit.
    # After dummies it charges the wait (Req 1/2).
    wastes = np.where(fired, wastes, np.minimum(wastes, float(rate)))

    completions = np.empty(n)
    completions[layout] = done
    in_order = np.empty(n)
    in_order[layout] = wastes
    # The write buffer keeps the last episode's stores that neither
    # drained at its last store's arrival nor were popped by a stall.
    buffer = None
    with_stores = np.flatnonzero(lengths > 1)
    if len(with_stores):
        last = int(with_stores[-1])
        first, stop = int(starts[last]), int(ends[last])
        lane = int(np.flatnonzero(order == last)[0])
        last_arrival = arrivals[offset[stop - 1 - first] + lane]
        store_done = completions[first:stop]
        drained = int(np.searchsorted(store_done[:-1], last_arrival, side="right"))
        keep_from = max(drained, len(store_done) - entries)
        buffer = store_done[keep_from:].astype(np.int64).tolist()
    return _Episodes(
        keep, n, completions, in_order, int(dummies.sum()),
        int(episode_end[keep - 1]), buffer,
    )


# ----------------------------------------------------------------------
# Config-batched slotted kernel
# ----------------------------------------------------------------------

def _replay_slotted_batch(miss_trace, controllers, entries, record_requests):
    """Advance many slot controllers in lockstep over one arrival stream.

    Per-config state lives in ``(n_configs,)`` float64 arrays.  Every
    quantity on the controller timeline is an integer-valued double
    (sums and small products of ``rate``/``latency`` integers stay well
    below 2**53), so the arithmetic is exact and each config's timeline
    matches its scalar replay bit for bit; arrival times enter only
    comparisons, exactly as in the single-config kernels.  The dummy
    counts per idle window use the same estimate-then-correct scheme as
    the scalar kernel — the correction comparisons pin a unique exact
    count, so the float estimate never leaks into the result.  An epoch
    transition is rare (a few configs cross at a time), so it runs each
    crossing config's own ``learner.decide`` on the counters its scalar
    controller would hold: the oracle's own arithmetic, per config.

    The write buffer is a per-config ring of the last ``entries``
    non-blocking completions: completions are strictly increasing, so
    draining is a vectorized count of live entries at or before the
    arrival, and the blocking flag is shared by every config (it comes
    from the trace), keeping the core-reaction branch uniform across
    the batch.

    Returns ``[(end_time, completions-or-None), ...]`` in controller
    order, with final rate/counter/stat state published back onto each
    controller (same contract as the single-config kernels).
    """
    n_cfg = len(controllers)
    # MissTrace.__post_init__ canonicalizes (contiguous float64/bool).
    gaps_np = miss_trace.gap_cycles
    blocking_np = miss_trace.is_blocking
    gaps = gaps_np.tolist()
    blocking = blocking_np.tolist()
    n = len(gaps)

    latencies = [c.latency for c in controllers]
    lat = np.array(latencies, dtype=np.float64)
    rate = np.array([float(c.rate) for c in controllers])
    step = rate + lat
    # Epoch lengths as floats: one memo per schedule, shared by the
    # configs that run it and extended on demand (None: a static config).
    memos: dict = {}
    lengths = [
        None if c.schedule is None else memos.setdefault(c.schedule, [])
        for c in controllers
    ]
    has_sched = np.array([memo is not None for memo in lengths])
    any_sched = bool(has_sched.any())

    def epoch_length(c: int, index: int) -> float:
        memo = lengths[c]
        while len(memo) <= index:
            memo.append(float(controllers[c].schedule.epoch_length(len(memo))))
        return memo[index]

    # Static configs park their boundary at +inf: `prev >= epoch_end`
    # is then never true and the transition machinery skips them.
    epoch_end = np.array([
        np.inf if lengths[c] is None else epoch_length(c, 0) for c in range(n_cfg)
    ])
    epoch_index = [0] * n_cfg

    prev = np.zeros(n_cfg)
    slot = prev + rate
    last_real = np.zeros(n_cfg, dtype=bool)
    all_real = False  # fast-path mirror of last_real.all()

    # Epoch counters: access counts derive from the shared served count
    # (every config serves every request), oram_cycles from the exact
    # identity `access_count * latency`; only waste needs a per-request
    # float accumulator (reset at transitions, so the run total is a
    # second, never-reset accumulator — float addition order matters).
    ctr_waste = np.zeros(n_cfg)
    served_at_reset = [0] * n_cfg
    total_waste = np.zeros(n_cfg)
    dummies = np.zeros(n_cfg)
    served = 0

    core = np.zeros(n_cfg)
    wb = np.zeros((n_cfg, entries))
    wb_count = np.zeros(n_cfg, dtype=np.int64)
    wb_cols = np.arange(entries)

    completions_out = np.zeros((n_cfg, n)) if record_requests else None

    def transition(mask) -> None:
        """One epoch transition for every config in ``mask``, each through
        its own learner's ``decide``: the scalar controller's arithmetic,
        on the counters it would hold."""
        for c in np.flatnonzero(mask).tolist():
            index = epoch_index[c]
            access = served - served_at_reset[c]
            counters = PerfCounters(
                access_count=access,
                oram_cycles=float(access * latencies[c]),
                waste=float(ctr_waste[c]),
            )
            decision = controllers[c].learner.decide(counters, epoch_length(c, index))
            served_at_reset[c] = served
            ctr_waste[c] = 0.0
            epoch_index[c] = index + 1
            epoch_start = float(epoch_end[c])
            rate[c] = decision.chosen_rate
            step[c] = rate[c] + lat[c]
            epoch_end[c] = epoch_start + epoch_length(c, index + 1)
            controllers[c].epochs.append(
                EpochRecord(
                    index=index + 1,
                    start_cycle=epoch_start,
                    rate=decision.chosen_rate,
                    raw_estimate=decision.raw_estimate,
                )
            )

    def advance(until) -> None:
        """Fire every dummy slot starting strictly before ``until``.

        ``until`` broadcasts over configs (scalar or per-config array);
        the loop rounds are bounded by epoch boundaries crossed, not by
        dummy counts — each round fires a closed-form batch of dummies
        capped at each config's boundary.
        """
        nonlocal prev, last_real, all_real, dummies
        while True:
            if any_sched:
                crossing = prev >= epoch_end
                while crossing.any():
                    transition(crossing)
                    crossing = prev >= epoch_end
            pending = (prev + rate) < until
            if not pending.any():
                return
            # Count of dummy slots before `until`: j in [0, k) with
            # prev + j*step + rate < until.  Estimate with float
            # division, then pin the unique exact count with integer-
            # exact comparisons (all quantities are integer-valued
            # doubles, so >=/< are exact).
            k = np.floor((until - prev - rate) / step) + 1.0
            np.maximum(k, 1.0, out=k)
            while True:
                over = pending & (k > 0.0) & ((prev + (k - 1.0) * step + rate) >= until)
                if not over.any():
                    break
                k -= over
            while True:
                under = pending & ((prev + k * step + rate) < until)
                if not under.any():
                    break
                k += under
            if any_sched:
                # Dummies may only fire while prev stays inside the
                # epoch; the boundary transition can change the rate.
                span = epoch_end - prev
                capped = pending & has_sched
                k2 = np.where(capped, np.ceil(span / step), np.inf)
                while True:
                    m = capped & (k2 > 0.0) & (((k2 - 1.0) * step) >= span)
                    if not m.any():
                        break
                    k2 -= m
                while True:
                    m = capped & ((k2 * step) < span)
                    if not m.any():
                        break
                    k2 += m
                k = np.where(capped & (k2 < k), k2, k)
            fire = pending & (k > 0.0)
            if fire.any():
                fired = np.where(fire, k, 0.0)
                prev = prev + fired * step
                dummies += fired
                last_real = last_real & ~fire
                all_real = False
            if not any_sched:
                return  # the uncapped count always reaches `until`

    def try_run(start: int, m: int) -> int:
        """Replay up to ``m`` requests from ``start`` as one closed form.

        In a stretch where no config fires a dummy or crosses an epoch
        boundary, the controller timeline of *every* request — blocking
        or not — is affine: ``prev + j*step`` per config, exactly (all
        integer-valued).  The core's position is then determined too: a
        blocking serve locks it to the (affine) completion, and in the
        controller-bound regime a non-blocking serve drains the whole
        write buffer (the arrival has passed every older completion)
        without popping, leaving ``core = arrival``.  Arrivals chain
        from the nearest completion anchor — one float rounding per
        request, evaluated matrix-wise in chain-depth passes, exactly
        as the scalar replay rounds them.

        Every assumption is *certified* per (config, request) cell with
        the same comparisons the scalar replay would make — no dummy
        pending (``arrival <= slot``), no boundary due
        (``prev < epoch_end``), stores fully draining at each stretch
        start and not draining inside one — and the run is truncated at
        the first request where any config fails.  The per-config waste
        accumulators are threaded through seeded ``np.cumsum`` calls
        (sequential recurrences), so float addition order matches the
        scalar replay bit for bit.

        Returns ``(consumed, next_attempt)``: the number of requests
        replayed (0: fall back to per-request stepping) and the first
        index where attempting another run can possibly pay off.
        """
        nonlocal prev, slot, core, ctr_waste, total_waste, served, wb, wb_count
        margin_capped = False
        if any_sched:
            # Cheap pre-bound: no column can clear certification past
            # the earliest epoch boundary, so don't build matrices for
            # it.  Columns up to margin-1 are safe by a float-slack
            # argument (the quotient's error is << 1); only the capped
            # tail column needs the exact comparison below.
            margin = float(((epoch_end - prev) / step).min())
            if margin < m:
                m = int(margin) + 1
                margin_capped = True
                if m < BATCH_RUN_MIN:
                    return 0, start + 1
        g_row = gaps_np[start:start + m]
        blk_row = blocking_np[start:start + m]
        nb_row = ~blk_row
        idx_row = np.arange(m)

        slot_mat = slot[:, None] + np.multiply.outer(step, np.arange(0.0, m))
        comp_mat = slot_mat + lat[:, None]

        # Arrival chains: a column whose predecessor was *blocking* is
        # anchored on that completion; a column whose predecessor was
        # non-blocking continues from its arrival.  Depth = distance to
        # the nearest anchor; pass d resolves every depth-d column from
        # its (already resolved) left neighbour.
        arrival = np.empty((n_cfg, m))
        arrival[:, 0] = core + g_row[0]
        if m > 1:
            arrival[:, 1:] = comp_mat[:, :-1] + g_row[None, 1:]
        chained = np.zeros(m, dtype=bool)
        chained[1:] = nb_row[:-1]
        if chained.any():
            depth_row = idx_row - np.maximum.accumulate(
                np.where(~chained, idx_row, -1)
            )
            for d in range(1, int(depth_row.max()) + 1):
                cols = np.flatnonzero(depth_row == d)
                arrival[:, cols] = arrival[:, cols - 1] + g_row[cols]

        # Certification, folded to one per-column row: the worst config's
        # slot headroom decides the no-dummy condition.  Gap sign is what
        # makes stretch-start stores drain the whole buffer automatically
        # (arrival >= newest completion >= every older one).
        diff = slot_mat - arrival
        col_ok = diff.min(axis=0) >= 0.0
        col_ok &= g_row >= 0.0
        if margin_capped:
            col_ok[m - 1] &= bool(
                ((slot_mat[:, m - 1] - rate) < epoch_end).all()
            )
        if nb_row.any():
            # Store stretches: position within a run of consecutive
            # non-blocking requests.  Position `entries` would pop —
            # break there; positions inside a stretch must not drain
            # (their arrival stays below the stretch-start completion);
            # a stretch-start store at the run head must drain every
            # carried live entry.
            nb_cols = np.flatnonzero(nb_row)
            pos_nb = nb_cols - np.maximum.accumulate(
                np.where(blk_row, idx_row, -1)
            )[nb_cols] - 1
            col_ok[nb_cols[pos_nb >= entries]] = False
            stretch_mask = (pos_nb > 0) & (pos_nb < entries)
            inside = nb_cols[stretch_mask]
            if len(inside):
                col_ok[inside] &= (
                    comp_mat[:, inside - pos_nb[stretch_mask]]
                    > arrival[:, inside]
                ).all(axis=0)
            if nb_row[0]:
                live = wb_cols >= (entries - wb_count)[:, None]
                col_ok[0] &= bool((~live | (wb <= arrival[:, 0:1])).all())
        m_cert = m if col_ok.all() else int(np.argmin(col_ok))
        if m_cert < BATCH_RUN_MIN:
            return 0, start + m_cert + 1
        if m_cert < m:
            blk_row = blk_row[:m_cert]
            nb_row = nb_row[:m_cert]
            comp_mat = comp_mat[:, :m_cert]
            arrival = arrival[:, :m_cert]
            diff = diff[:, :m_cert]

        # waste = rate when the request queued behind real work (Req 3,
        # arrival <= prev, i.e. diff >= rate up to a value-preserving
        # rounding tie), else the wait for the next slot (Req 1/2).
        waste_run = np.minimum(diff, rate[:, None])
        seeded = np.empty((n_cfg, m_cert + 1))
        seeded[:, 1:] = waste_run
        seeded[:, 0] = ctr_waste
        ctr_waste = np.cumsum(seeded, axis=1)[:, -1]
        seeded[:, 0] = total_waste
        total_waste = np.cumsum(seeded, axis=1)[:, -1]
        if completions_out is not None:
            completions_out[:, start:start + m_cert] = comp_mat

        # Post-run state: the core sits at the last completion (blocking
        # tail) or the last arrival (store tail); the buffer holds
        # exactly the trailing store stretch's completions.
        last = m_cert - 1
        core = comp_mat[:, last].copy() if blk_row[last] else arrival[:, last].copy()
        nb_cert = np.flatnonzero(nb_row)
        if len(nb_cert):
            tail = int(nb_cert[-1])
            q = tail - int(np.maximum.accumulate(
                np.where(blk_row, idx_row[:m_cert], -1)
            )[tail])
            wb_new = np.zeros((n_cfg, entries))
            wb_new[:, entries - q:] = comp_mat[:, tail - q + 1:tail + 1]
            wb = wb_new
            wb_count = np.full(n_cfg, q, dtype=np.int64)
        prev = prev + m_cert * step
        slot = prev + rate
        served += m_cert
        return m_cert, start + m_cert + (0 if m_cert == m else 1)

    # The serve loop.  Two execution grains: closed-form runs between
    # epoch boundaries (``try_run``), and per-request stepping over
    # ``(n_configs,)`` arrays for everything the certification rejects
    # (dummy windows, boundary crossings, buffer drains).  An attempt
    # that certifies nothing delays the next by ``backoff`` requests,
    # which doubles with each failure in a row until a run certifies.
    backoff = BATCH_BACKOFF_FIRST
    no_attempt_before = 0
    i = 0
    while i < n:
        if all_real and i >= no_attempt_before:
            candidate = n - i
            if candidate > BATCH_RUN_CHUNK:
                candidate = BATCH_RUN_CHUNK
            if candidate >= BATCH_RUN_MIN:
                consumed, no_attempt_before = try_run(i, candidate)
                if consumed:
                    backoff = BATCH_BACKOFF_FIRST
                    i += consumed
                    continue
                if no_attempt_before < i + backoff:
                    no_attempt_before = i + backoff
                backoff *= 2
        arrival = core + gaps[i]
        # ---- serve(arrival) ----
        stale = bool((slot < arrival).any())
        if not stale and any_sched:
            stale = bool((prev >= epoch_end).any())
        if stale:
            advance(arrival)
            slot = prev + rate
        gap_to_slot = slot - arrival
        if all_real:
            # Req 3 where the request queued behind real work, else the
            # Req 1/2 wait for the next slot.
            waste = np.where(arrival <= prev, rate, gap_to_slot)
        else:
            waste = np.where((arrival <= prev) & last_real, rate, gap_to_slot)
            last_real[:] = True
            all_real = True
        ctr_waste += waste
        total_waste += waste
        completion = slot + lat
        prev = completion
        slot = completion + rate
        served += 1
        # ---- core/write-buffer reaction (blocking flag is shared) ----
        if blocking[i]:
            core = completion
        else:
            live = wb_cols >= (entries - wb_count)[:, None]
            drained = (live & (wb <= arrival[:, None])).sum(axis=1)
            wb_count = wb_count - drained
            full = wb_count >= entries
            if full.any():
                oldest = wb[:, 0]
                core = np.where(full & (oldest > arrival), oldest, arrival)
                wb_count = wb_count - full
            else:
                core = arrival
            wb[:, :-1] = wb[:, 1:]
            wb[:, -1] = completion
            wb_count = wb_count + 1
        if completions_out is not None:
            completions_out[:, i] = completion
        i += 1

    drain = np.where(wb_count > 0, wb[:, -1], 0.0)
    end_time = np.maximum(core + miss_trace.total_compute_cycles, drain)
    advance(end_time)  # finalize: trailing dummies

    # Publish the final state back onto each controller.
    out = []
    for j, controller in enumerate(controllers):
        controller.rate = int(rate[j])
        access = served - served_at_reset[j]
        counters = controller.counters
        counters.access_count = access
        counters.oram_cycles = float(access * controller.latency)
        counters.waste = float(ctr_waste[j])
        controller.stats.real_accesses = n
        controller.stats.dummy_accesses = int(dummies[j])
        controller.stats.total_waste = float(total_waste[j])
        out.append((
            float(end_time[j]),
            completions_out[j].copy() if completions_out is not None else None,
        ))
    return out


# ----------------------------------------------------------------------
# Shared result assembly
# ----------------------------------------------------------------------

def _build_result(
    miss_trace, scheme, controller, end_time, completions,
    record_requests, record_observable_trace,
) -> SimResult:
    cycles = float(max(end_time, 1.0))
    if scheme.is_oram:
        memory_nj = oram_memory_energy_nj(
            controller.stats.total_accesses, coefficients=PAPER_COEFFICIENTS
        )
    else:
        memory_nj = dram_memory_energy_nj(
            controller.stats.total_accesses, coefficients=PAPER_COEFFICIENTS
        )
    breakdown = build_breakdown(miss_trace.energy, cycles, memory_nj)

    return SimResult(
        scheme_name=scheme.name,
        benchmark=f"{miss_trace.source_name}/{miss_trace.source_input}",
        cycles=cycles,
        n_instructions=miss_trace.n_instructions,
        controller=controller.stats,
        epochs=controller.rate_history,
        energy=miss_trace.energy,
        breakdown=breakdown,
        request_completion_times=(
            completions if completions is not None else np.empty(0)
        ),
        request_instruction_index=(
            miss_trace.instruction_index if record_requests else np.empty(0, dtype=np.int64)
        ),
        blocking_mask=(
            miss_trace.is_blocking if record_requests else np.empty(0, dtype=bool)
        ),
        observable_access_times=(
            np.asarray(controller.trace, dtype=np.float64)
            if record_observable_trace
            else np.empty(0)
        ),
    )
