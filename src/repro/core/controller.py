"""Timing-protected ORAM controller: periodic slots, dummies, epochs.

This is the hardware the paper adds in front of the ORAM (Figure 3).  With
rate ``r``, the next ORAM access *starts* exactly ``r`` cycles after the
previous access completes — always.  If a real request is pending at the
slot, it is served; otherwise an indistinguishable dummy access is made.
An adversary therefore observes only the slot cadence, which changes at
most once per epoch among |R| candidates.

Waste accounting follows Figure 4 exactly:

* **Req 1 (overset)**: a request arriving while the controller idles
  between slots waits for the next slot; waste += (slot start - arrival),
  at most ``r``.
* **Req 2 (underset)**: a request arriving during a dummy access rides the
  dummy out and then waits the slot gap; waste += (dummy remaining + r).
* **Req 3 (multiple outstanding)**: a request queued behind *real* work
  would have waited for the ORAM even without timing protection, so only
  the slot gap is charged: waste += r.

Epoch transitions happen at fixed absolute cycle counts from the
:class:`~repro.core.epochs.EpochSchedule`.  At each transition the learner
converts the epoch's counters into the next rate and the counters reset.
A rate change takes effect at the first slot scheduled after the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.counters import PerfCounters
from repro.core.epochs import EpochSchedule
from repro.core.learner import AveragingLearner, RateDecision


@dataclass(frozen=True)
class EpochRecord:
    """One epoch as actually executed: index, start time, rate used."""

    index: int
    start_cycle: float
    rate: int
    raw_estimate: float | None = None


@dataclass
class ControllerStats:
    """Access counts accumulated over a full run."""

    real_accesses: int = 0
    dummy_accesses: int = 0
    total_waste: float = 0.0

    @property
    def total_accesses(self) -> int:
        """Real + dummy ORAM accesses (each costs full energy/bandwidth)."""
        return self.real_accesses + self.dummy_accesses

    @property
    def dummy_fraction(self) -> float:
        """Fraction of accesses that were dummies (paper footnote 5: ~34%)."""
        if self.total_accesses == 0:
            return 0.0
        return self.dummy_accesses / self.total_accesses


class TimingProtectedController:
    """Slot-enforcing ORAM controller with optional epoch-based learning.

    Args:
        oram_latency: Cycles per ORAM access (paper: 1488).
        initial_rate: Rate for the first epoch (paper: 10000 cycles).
        schedule: Epoch schedule; ``None`` means a static scheme that never
            changes rate (the Ascend-style baseline).
        learner: Rate learner consulted at each transition; required when
            ``schedule`` is given.
    """

    def __init__(
        self,
        oram_latency: int,
        initial_rate: int,
        schedule: EpochSchedule | None = None,
        learner: AveragingLearner | None = None,
    ) -> None:
        if oram_latency <= 0:
            raise ValueError(f"oram_latency must be positive, got {oram_latency}")
        if initial_rate <= 0:
            raise ValueError(f"initial_rate must be positive, got {initial_rate}")
        if schedule is not None and learner is None:
            raise ValueError("a schedule requires a learner")
        self.latency = oram_latency
        self.rate = initial_rate
        self.schedule = schedule
        self.learner = learner
        self.counters = PerfCounters()
        self.stats = ControllerStats()
        #: When record_trace is True, the start time of every access (real
        #: or dummy) is appended here — the adversary's observable trace.
        self.record_trace = False
        self.trace: list[float] = []
        self.epochs: list[EpochRecord] = [
            EpochRecord(index=0, start_cycle=0.0, rate=initial_rate)
        ]
        self._completion_prev = 0.0
        self._last_was_real = False
        self._epoch_index = 0
        self._epoch_start = 0.0
        if schedule is not None:
            self._epoch_end: float | None = float(schedule.epoch_length(0))
        else:
            self._epoch_end = None

    # ------------------------------------------------------------------
    # Simulator-facing API
    # ------------------------------------------------------------------

    def serve(self, arrival: float) -> float:
        """Serve one real request arriving at ``arrival``; return completion.

        Requests must be submitted in non-decreasing arrival order (the
        in-order core guarantees this).  Advances the dummy/epoch timeline
        as a side effect.
        """
        self._advance(arrival)
        self._maybe_transition()
        slot = self._completion_prev + self.rate
        if arrival <= self._completion_prev:
            if self._last_was_real:
                waste = float(self.rate)  # Req 3
            else:
                waste = slot - arrival  # Req 2: dummy remainder + gap
        else:
            waste = slot - arrival  # Req 1: idle wait, <= rate
        self.counters.record_waste(waste)
        self.stats.total_waste += waste
        completion = slot + self.latency
        self.counters.record_real_access(self.latency)
        self.stats.real_accesses += 1
        if self.record_trace:
            self.trace.append(slot)
        self._completion_prev = completion
        self._last_was_real = True
        return completion

    def finalize(self, end_time: float) -> None:
        """Account trailing dummy accesses up to program termination."""
        self._advance(end_time)

    @property
    def rate_history(self) -> list[EpochRecord]:
        """Epochs as executed (index, start cycle, rate)."""
        return list(self.epochs)

    # ------------------------------------------------------------------
    # Internal timeline machinery
    # ------------------------------------------------------------------

    def _advance(self, until: float) -> None:
        """Fire every dummy slot that starts strictly before ``until``."""
        while True:
            self._maybe_transition()
            slot = self._completion_prev + self.rate
            if slot >= until:
                return
            if self.record_trace:
                self.trace.append(slot)
            self._completion_prev = slot + self.latency
            self.stats.dummy_accesses += 1
            self._last_was_real = False

    def _maybe_transition(self) -> None:
        """Process epoch boundaries crossed by the last completion."""
        if self._epoch_end is None:
            return
        while self._completion_prev >= self._epoch_end:
            epoch_cycles = float(self.schedule.epoch_length(self._epoch_index))
            decision: RateDecision = self.learner.decide(self.counters, epoch_cycles)
            self.counters.reset()
            self._epoch_index += 1
            self._epoch_start = self._epoch_end
            self.rate = decision.chosen_rate
            self.epochs.append(
                EpochRecord(
                    index=self._epoch_index,
                    start_cycle=self._epoch_start,
                    rate=decision.chosen_rate,
                    raw_estimate=decision.raw_estimate,
                )
            )
            self._epoch_end += float(self.schedule.epoch_length(self._epoch_index))


class UnprotectedController:
    """``base_oram``: serve requests back-to-back, no slots, no dummies.

    Insecure over the timing channel but the performance/power oracle the
    paper normalizes against.
    """

    def __init__(self, oram_latency: int) -> None:
        if oram_latency <= 0:
            raise ValueError(f"oram_latency must be positive, got {oram_latency}")
        self.latency = oram_latency
        self.stats = ControllerStats()
        self.record_trace = False
        self.trace: list[float] = []
        self._completion_prev = 0.0

    def serve(self, arrival: float) -> float:
        """Serve as soon as the (single-ported) ORAM is free."""
        start = max(arrival, self._completion_prev)
        completion = start + self.latency
        if self.record_trace:
            self.trace.append(start)
        self._completion_prev = completion
        self.stats.real_accesses += 1
        return completion

    def finalize(self, end_time: float) -> None:
        """Nothing to do: no dummy timeline."""

    @property
    def rate_history(self) -> list[EpochRecord]:
        """No epochs for the unprotected baseline."""
        return []


class FlatDramController:
    """``base_dram``: fixed-latency insecure DRAM (Section 9.1.2: 40 cycles)."""

    def __init__(self, latency: int = 40) -> None:
        if latency <= 0:
            raise ValueError(f"latency must be positive, got {latency}")
        self.latency = latency
        self.stats = ControllerStats()
        self.record_trace = False
        self.trace: list[float] = []

    def serve(self, arrival: float) -> float:
        """Flat latency; bandwidth unconstrained at in-order request rates."""
        self.stats.real_accesses += 1
        if self.record_trace:
            self.trace.append(arrival)
        return arrival + self.latency

    def finalize(self, end_time: float) -> None:
        """Nothing to finalize."""

    @property
    def rate_history(self) -> list[EpochRecord]:
        """No epochs for DRAM."""
        return []
