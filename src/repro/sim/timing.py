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
  through the scalar deque loop.  Slot controllers (static/dynamic) keep
  the per-request loop but replace the per-dummy-slot ``_advance``
  iteration with closed-form integer slot arithmetic per idle window —
  the controller timeline never depends on fractional arrival times,
  only on comparisons against them, so the whole slot/dummy/epoch state
  machine runs on exact Python integers whose float images match the
  reference's accumulated floats bit for bit.

``record_observable_trace`` runs always use the reference machine: the
adversary-view trace wants one append per access, which is exactly the
per-event work the fast machines eliminate.

A third entry point batches the *configuration* axis:
:func:`run_timing_batch` replays one miss trace under many schemes with
the slot-controller state of every configuration held in
``(n_configs,)`` numpy arrays advanced in lockstep — the frontier
sweep's workhorse, bit-identical per config to ``run_timing`` (the
per-scheme replay stays the oracle, enforced by
``tests/sim/test_batch_equivalence.py``).  The batched kernel assumes
the usual trace regime (non-negative gaps, timelines below 2**53 so
integer-valued doubles stay exact), which every generated workload
satisfies.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.cache.write_buffer import WriteBuffer
from repro.core.controller import (
    EpochRecord,
    FlatDramController,
    TimingProtectedController,
    UnprotectedController,
)
from repro.core.learner import decide_batch
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


def run_timing_batch(
    miss_trace: MissTrace,
    schemes,
    write_buffer_entries: int = 8,
    record_requests: bool = True,
    mode: str = "fast",
) -> list:
    """Replay one miss trace under many schemes with one batched kernel.

    The frontier sweep's workhorse: a design-space grid replays the
    *same* arrival stream under every configuration, so the slot-state
    machine carries the configuration axis as a numpy dimension —
    ``(n_configs,)`` arrays for rate, timeline, epoch boundary, and
    counters, advanced in lockstep over the shared requests.  Epoch
    transitions apply as masked per-config updates with the learner
    decisions evaluated by :func:`repro.core.learner.decide_batch`.

    Returns one :class:`SimResult` per scheme, in order, each
    **bit-identical** to ``run_timing(miss_trace, scheme, ...)`` — the
    per-scheme replay stays the oracle, same contract pattern as the
    cache and ORAM kernel pairs (enforced by
    ``tests/sim/test_batch_equivalence.py``).  Schemes without a slot
    controller (``base_dram``/``base_oram``) and degenerate batches of
    one slot scheme replay through their (already fast) single-config
    machines — a batch of one is slower than them; ``mode="reference"``
    delegates every scheme to the scalar reference machine.
    """
    _check_replay_args(mode, write_buffer_entries)
    schemes = list(schemes)
    if mode == "reference":
        return [
            run_timing(
                miss_trace, scheme, write_buffer_entries,
                record_requests, mode="reference",
            )
            for scheme in schemes
        ]
    results: list = [None] * len(schemes)
    slotted: list[int] = []
    controllers: dict[int, TimingProtectedController] = {}
    for index, scheme in enumerate(schemes):
        controller = scheme.build_controller()
        if type(controller) is TimingProtectedController:
            slotted.append(index)
            controllers[index] = controller
        else:
            results[index] = run_timing(
                miss_trace, scheme, write_buffer_entries,
                record_requests, mode="fast",
            )
    if len(slotted) == 1:
        index = slotted[0]
        results[index] = run_timing(
            miss_trace, schemes[index], write_buffer_entries,
            record_requests, mode="fast",
        )
    elif slotted:
        batch = _replay_slotted_batch(
            miss_trace, [controllers[i] for i in slotted],
            write_buffer_entries, record_requests,
        )
        for index, (end_time, completions) in zip(slotted, batch):
            results[index] = _build_result(
                miss_trace, schemes[index], controllers[index],
                end_time, completions, record_requests,
                record_observable_trace=False,
            )
    return results


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


class _StaticReplay:
    """Static-rate slot controller: no epochs, no learner, one rate forever.

    The controller timeline (slots, dummies) is integer-valued: every
    quantity is a sum of ``rate``/``latency`` integers, and arrival times
    only enter *comparisons*, never the arithmetic.  Keeping the timeline
    in exact Python integers therefore reproduces the reference's float
    timeline bit for bit (integer-valued doubles are exact), while an
    idle window of k dummy slots costs O(1) arithmetic instead of k loop
    iterations.  The advance is inlined, so the common request — arriving
    inside the current slot window — costs a handful of local operations.
    """

    def __init__(self, controller, entries, record_requests) -> None:
        self.controller = controller
        self.entries = entries
        self.record_requests = record_requests
        self.prev = 0  # _completion_prev, exact integer timeline
        self.last_was_real = False
        self.total_dummy = 0
        self.total_waste = 0.0
        self.n = 0
        self.core = 0.0
        self.buffer: deque = deque()

    def feed(self, chunk):
        gaps = chunk.gap_cycles.tolist()
        blocking = chunk.is_blocking.tolist()
        n = len(gaps)
        latency = self.controller.latency
        rate = self.controller.rate
        rate_f = float(rate)
        step = rate + latency
        entries = self.entries
        completions = np.zeros(n, dtype=np.float64) if self.record_requests else None

        prev = self.prev
        last_was_real = self.last_was_real
        total_dummy = self.total_dummy
        total_waste = self.total_waste
        core = self.core
        buffer = self.buffer
        buf_pop = buffer.popleft
        buf_push = buffer.append

        for i in range(n):
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
        self.n += n
        return completions

    def finish(self, total_compute_cycles):
        controller = self.controller
        latency = controller.latency
        rate = controller.rate
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


class _DynamicReplay:
    """Epoch-driven slot controller: learner transitions at boundaries.

    The same exact-integer timeline as :class:`_StaticReplay`, with the
    advance/transition machinery in a closure the request loop only
    enters when a dummy or an epoch boundary is actually pending.
    """

    def __init__(self, controller, entries, record_requests) -> None:
        self.controller = controller
        self.entries = entries
        self.record_requests = record_requests
        self.rate = controller.rate
        self.prev = 0  # _completion_prev, exact integer timeline
        self.last_was_real = False
        self.epoch_index = 0
        self.epoch_end = controller.schedule.epoch_length(0)
        # Epoch counters (flushed into `counters` at each learner call).
        # ``oram_cycles`` is derived: the reference accumulates `latency`
        # once per served request, and integer-valued float accumulation
        # is exact, so it always equals access_count * latency.
        self.ctr_access = 0
        self.ctr_waste = 0.0
        # Run totals (flushed into controller.stats at the end).
        self.total_dummy = 0
        self.total_waste = 0.0
        self.n = 0
        self.core = 0.0
        self.buffer: deque = deque()

    def feed(self, chunk):
        return self._replay(chunk.gap_cycles.tolist(), chunk.is_blocking.tolist())

    def finish(self, total_compute_cycles):
        end_time = _end_time(self.core, total_compute_cycles, self.buffer)
        self._replay([], [], until=end_time)  # trailing dummies

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

    def _replay(self, gaps, blocking, until=None):
        """Serve the requests, then fire the dummy slots before ``until``."""
        controller = self.controller
        latency = controller.latency
        epoch_len = controller.schedule.epoch_length
        learner = controller.learner
        counters = controller.counters
        epochs = controller.epochs
        entries = self.entries
        n = len(gaps)
        completions = np.zeros(n, dtype=np.float64) if self.record_requests else None

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

        for i in range(n):
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
        self.n += n
        return completions


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
    count, so the float estimate never leaks into the result.

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

    lat = np.array([float(c.latency) for c in controllers])
    rate = np.array([float(c.rate) for c in controllers])
    step = rate + lat
    schedules = [c.schedule for c in controllers]
    learners = [c.learner for c in controllers]
    has_sched = np.array([s is not None for s in schedules])
    any_sched = bool(has_sched.any())
    # Static configs park their boundary at +inf: `prev >= epoch_end`
    # is then never true and the transition machinery skips them.
    epoch_end = np.array(
        [float(s.epoch_length(0)) if s is not None else np.inf for s in schedules]
    )
    epoch_index = np.zeros(n_cfg, dtype=np.int64)

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
    served_at_reset = np.zeros(n_cfg, dtype=np.int64)
    total_waste = np.zeros(n_cfg)
    dummies = np.zeros(n_cfg)
    served = 0

    core = np.zeros(n_cfg)
    wb = np.zeros((n_cfg, entries))
    wb_count = np.zeros(n_cfg, dtype=np.int64)
    wb_cols = np.arange(entries)

    completions_out = np.zeros((n_cfg, n)) if record_requests else None

    def transition(mask) -> None:
        """One epoch transition for every config in ``mask``."""
        idx = np.flatnonzero(mask)
        access = (served - served_at_reset[idx]).astype(np.float64)
        oram_cycles = access * lat[idx]
        epoch_cycles = np.array(
            [float(schedules[c].epoch_length(int(epoch_index[c]))) for c in idx]
        )
        raw, chosen = decide_batch(
            [learners[c] for c in idx],
            served - served_at_reset[idx],
            ctr_waste[idx],
            oram_cycles,
            epoch_cycles,
        )
        served_at_reset[idx] = served
        ctr_waste[idx] = 0.0
        epoch_index[idx] += 1
        epoch_start = epoch_end[idx]
        rate[idx] = chosen
        step[idx] = rate[idx] + lat[idx]
        next_length = np.array(
            [float(schedules[c].epoch_length(int(epoch_index[c]))) for c in idx]
        )
        epoch_end[idx] = epoch_start + next_length
        for j, c in enumerate(idx):
            controllers[c].epochs.append(
                EpochRecord(
                    index=int(epoch_index[c]),
                    start_cycle=float(epoch_start[j]),
                    rate=int(chosen[j]),
                    raw_estimate=float(raw[j]),
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
                if m < run_min:
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
        if m_cert < run_min:
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
    # (dummy windows, boundary crossings, buffer drains).
    run_min = 4  # below this, per-request stepping is cheaper
    run_chunk = 256  # certification window per attempt
    no_attempt_before = 0
    i = 0
    while i < n:
        if all_real and i >= no_attempt_before:
            candidate = n - i
            if candidate > run_chunk:
                candidate = run_chunk
            if candidate >= run_min:
                consumed, no_attempt_before = try_run(i, candidate)
                if consumed:
                    i += consumed
                    continue
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
        access = served - int(served_at_reset[j])
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
