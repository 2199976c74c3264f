"""Bit-leakage accounting (Sections 2.1, 6, 10).

The leakage measure: count the distinct observable timing traces a program
could have generated; the worst-case bit leakage is the base-2 logarithm
of that count.  Everything here is exact arithmetic over Python big
integers (trace counts routinely dwarf 2**64) or closed-form bounds.

Channels modeled:

* **Dynamic-scheme ORAM timing**: |R| candidate rates over |E| epochs
  give ``|R| ** |E|`` schedules -> ``|E| * lg |R|`` bits.
* **Early termination**: a program observably terminating at any of Tmax
  instants leaks ``lg Tmax`` bits; discretizing ("round termination up to
  the next 2^k cycles") reduces this to ``lg(Tmax / 2^k)`` bits.
* **No protection** (footnote 4): for every termination time t, every
  t-bit string where each 1 is followed by at least OLAT-1 zeros is a
  distinct trace; the count is ``sum_t sum_i C(t - i*(OLAT-1), i)`` and
  the resulting leakage is astronomical.
* **Static rate**: exactly one trace -> 0 bits (plus termination).
* **Composition** (Section 10): channels multiply trace counts, so bit
  leakage across channels is additive.
* **Probabilistic subtlety** (Section 10): an encoding program can leak
  L' > L bits with probability 2^(L-1) / 2^(L'), learned all-or-nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.core.epochs import EpochSchedule, PAPER_TMAX
from repro.util.validation import check_positive


def dynamic_timing_leakage_bits(n_epochs: int, n_rates: int) -> float:
    """ORAM timing leakage of the dynamic scheme: ``|E| * lg |R|`` bits.

    Section 2.2.1: |R|^|E| rate schedules.  The *values* in R and the
    learner's choices do not appear — only the counts (Section 2.2.2).

    >>> dynamic_timing_leakage_bits(16, 4)   # R4/E4, Section 9.3
    32.0
    >>> dynamic_timing_leakage_bits(32, 4)   # R4/E2, Example 6.1
    64.0
    """
    check_positive(n_epochs, "n_epochs")
    check_positive(n_rates, "n_rates")
    return n_epochs * math.log2(n_rates)


def termination_leakage_bits(
    tmax_cycles: int = PAPER_TMAX, discretize_to_cycles: int = 1
) -> float:
    """Early-termination leakage: ``lg(Tmax / granularity)`` bits.

    With no discretization (granularity 1) this is the paper's 62 bits for
    Tmax = 2^62.  Rounding termination up to the next 2^30 cycles leaves
    lg(2^32) = 32 bits (Section 6).

    >>> termination_leakage_bits()
    62.0
    >>> termination_leakage_bits(discretize_to_cycles=2**30)
    32.0
    """
    check_positive(tmax_cycles, "tmax_cycles")
    check_positive(discretize_to_cycles, "discretize_to_cycles")
    if discretize_to_cycles > tmax_cycles:
        raise ValueError("discretization granularity exceeds Tmax")
    return math.log2(tmax_cycles / discretize_to_cycles)


def total_leakage_bits(
    schedule: EpochSchedule,
    n_rates: int,
    discretize_to_cycles: int = 1,
) -> float:
    """Upper bound on total leakage: ORAM timing + early termination.

    Section 6.1: the trace count is bounded by (number of epoch schedules)
    x (number of termination times), so the bits add:
    ``|E|*lg|R| + lg Tmax``.

    >>> from repro.core.epochs import paper_schedule
    >>> total_leakage_bits(paper_schedule(growth=4), 4)   # 32 + 62, Section 9.3
    94.0
    """
    return dynamic_timing_leakage_bits(schedule.max_epochs, n_rates) + (
        termination_leakage_bits(schedule.tmax_cycles, discretize_to_cycles)
    )


def static_timing_leakage_bits() -> float:
    """A single offline-chosen periodic rate yields one trace: 0 bits."""
    return 0.0


# ----------------------------------------------------------------------
# No-protection trace counting (footnote 4)
# ----------------------------------------------------------------------

def unprotected_trace_count(total_time: int, oram_latency: int) -> int:
    """Exact count of ORAM timing traces with no protection.

    For every termination time ``t <= total_time`` and every access count
    ``i``, each trace is a t-slot string of i accesses where consecutive
    accesses are separated by at least ``oram_latency`` slots (an access
    occupies the ORAM for OLAT cycles).  Footnote 4 gives the count
    ``sum_t sum_i C(t - i*(OLAT-1), i)``.

    Exact big-integer evaluation; use moderate ``total_time`` (<= ~20k) or
    the logarithmic bound below for paper-scale numbers.
    """
    check_positive(total_time, "total_time")
    check_positive(oram_latency, "oram_latency")
    total = 0
    for t in range(1, total_time + 1):
        max_accesses = t // oram_latency if oram_latency > 1 else t
        for i in range(1, max_accesses + 1):
            slots = t - i * (oram_latency - 1)
            if slots < i:
                break
            total += math.comb(slots, i)
    return total


def unprotected_leakage_bits(total_time: int, oram_latency: int) -> float:
    """lg of :func:`unprotected_trace_count` (exact, small scales)."""
    count = unprotected_trace_count(total_time, oram_latency)
    return math.log2(count) if count > 0 else 0.0


def unprotected_leakage_bits_estimate(total_time: float, oram_latency: int) -> float:
    """Scalable lower-bound estimate of unprotected leakage in bits.

    The dominant term is the number of access/no-access patterns of a
    ``total_time``-slot run where accesses occupy OLAT slots: at least
    ``binary-entropy packing`` of one access per OLAT slots, i.e. about
    ``total_time / OLAT`` free binary choices.  This is the "astronomical"
    comparison point of Example 6.1: ~10^9 bits for a 1-second run.
    """
    check_positive(oram_latency, "oram_latency")
    if total_time <= 0:
        return 0.0
    return total_time / oram_latency


# ----------------------------------------------------------------------
# Composition across channels (Section 10)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelTraceCount:
    """One leakage channel described by how many traces it can generate.

    ``lg_trace_count`` is stored (rather than the raw count) so channels
    with astronomically many traces compose without big-int blowups.
    """

    name: str
    lg_trace_count: float

    def __post_init__(self) -> None:
        if self.lg_trace_count < 0:
            raise ValueError(f"lg_trace_count must be >= 0, got {self.lg_trace_count}")

    @property
    def leakage_bits(self) -> float:
        """Worst-case bits this channel leaks in isolation."""
        return self.lg_trace_count

    @classmethod
    def from_count(cls, name: str, trace_count: int) -> "ChannelTraceCount":
        """Build from an exact trace count."""
        check_positive(trace_count, "trace_count")
        # math.log2 on huge ints is exact enough via int.bit_length refinement.
        return cls(name=name, lg_trace_count=_lg_bigint(trace_count))


def compose_channels(channels: list[ChannelTraceCount]) -> float:
    """Total leakage of independent channels: additive in bits.

    Section 10: N channels generating |T_i| traces each yield
    ``prod |T_i|`` combinations, i.e. ``sum lg |T_i|`` bits.

    >>> compose_channels([ChannelTraceCount("oram-timing", 32.0),
    ...                   ChannelTraceCount("termination", 62.0)])
    94.0
    """
    if not channels:
        return 0.0
    return sum(channel.lg_trace_count for channel in channels)


def _lg_bigint(value: int) -> float:
    """lg of a (possibly huge) positive integer with float care."""
    if value <= 0:
        raise ValueError(f"value must be positive, got {value}")
    if value.bit_length() <= 52:
        return math.log2(value)
    shift = value.bit_length() - 52
    return math.log2(value >> shift) + shift


# ----------------------------------------------------------------------
# Probabilistic leakage subtlety (Section 10)
# ----------------------------------------------------------------------

def probabilistic_overleak(l_bits: float, l_prime_bits: int) -> float:
    """Probability an encoding program leaks L' > L bits all-or-nothing.

    Section 10's example: with ``2^L`` traces available, a program can
    signal "the user's first L' bits match a fixed assignment" through one
    trace; for uniformly distributed user data the adversary then learns
    all L' bits with probability ``(2^L - 1) / 2^L'``.
    """
    if l_bits < 0:
        raise ValueError(f"l_bits must be >= 0, got {l_bits}")
    check_positive(l_prime_bits, "l_prime_bits")
    if l_prime_bits <= l_bits:
        raise ValueError("L' must exceed L for the subtlety to matter")
    return (2.0**l_bits - 1.0) / (2.0**l_prime_bits)


# ----------------------------------------------------------------------
# Replay accounting (Section 4.3 / 8)
# ----------------------------------------------------------------------

def replayed_leakage_bits(per_run_bits: float, n_runs: int) -> float:
    """Leakage after N replays without run-once protection: ``N * L``.

    Each replay with fresh parameters multiplies the joint trace count, so
    bits add per run — the attack Section 8's forgotten-session-key scheme
    forecloses.
    """
    if per_run_bits < 0:
        raise ValueError(f"per_run_bits must be >= 0, got {per_run_bits}")
    check_positive(n_runs, "n_runs")
    return per_run_bits * n_runs


# ----------------------------------------------------------------------
# Paper-configuration summaries
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LeakageReport:
    """Leakage decomposition for one scheme configuration."""

    scheme: str
    oram_timing_bits: float
    termination_bits: float

    @property
    def total_bits(self) -> float:
        """Sum across channels."""
        return self.oram_timing_bits + self.termination_bits


@lru_cache(maxsize=1024)
def report_for_dynamic(
    schedule: EpochSchedule, n_rates: int, discretize_to_cycles: int = 1
) -> LeakageReport:
    """Leakage report for a dynamic configuration (e.g. R4/E4 -> 32+62).

    Memoized per argument: reports are frozen, and a sweep asks for the
    same few once per cell.
    """
    return LeakageReport(
        scheme=f"dynamic_R{n_rates}_E{schedule.growth}",
        oram_timing_bits=dynamic_timing_leakage_bits(schedule.max_epochs, n_rates),
        termination_bits=termination_leakage_bits(
            schedule.tmax_cycles, discretize_to_cycles
        ),
    )


@lru_cache(maxsize=16)
def report_for_static(tmax_cycles: int = PAPER_TMAX) -> LeakageReport:
    """Leakage report for any static-rate scheme (0 + 62 bits), memoized."""
    return LeakageReport(
        scheme="static",
        oram_timing_bits=static_timing_leakage_bits(),
        termination_bits=termination_leakage_bits(tmax_cycles),
    )
