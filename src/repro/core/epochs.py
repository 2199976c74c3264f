"""Epoch schedules (the paper's E) and their leakage arithmetic.

Program runtime is split into epochs; the ORAM rate may change only at
epoch transitions, so the number of distinct timing traces — and hence the
leakage bound — is controlled by how many epochs fit in the maximum
runtime Tmax (Section 6).  The paper's family: each epoch is ``growth``
times the previous (growth = 2 is "epoch doubling", inspired by slow
doubling in Askarov et al.), with the first epoch long enough for the
learner to observe and short enough not to dominate runtime (2^30 cycles
at paper scale).

Epoch-count arithmetic matches the paper's:
``|E| = (lg Tmax - lg first) / lg growth`` — 32 epochs for doubling from
2^30 to Tmax = 2^62, 16 for growth 4 (Example 6.1, Section 9.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count

from repro.util.bitops import ceil_lg
from repro.util.validation import check_positive

#: The paper's maximum runtime: 2^62 cycles (~150 years at 1 GHz).
PAPER_TMAX_LG = 62
PAPER_TMAX = 1 << PAPER_TMAX_LG

#: Paper-scale first epoch: 2^30 cycles (~1 second at 1 GHz).
PAPER_FIRST_EPOCH_LG = 30

#: Simulation-scale first epoch: 2^15 cycles, preserving the *number* of
#: epochs a scaled run expends (see DESIGN.md scaling notes).
SIM_FIRST_EPOCH_LG = 15


@dataclass(frozen=True)
class EpochSchedule:
    """Geometric epoch schedule: lengths ``first, first*g, first*g^2, ...``.

    Attributes:
        first_epoch_cycles: Length of epoch 0 (power of two).
        growth: Multiplicative factor between consecutive epochs (the
            paper's E2/E4/E8/E16 configurations use 2/4/8/16).
        tmax_cycles: Maximum program runtime, for leakage accounting only.
    """

    first_epoch_cycles: int = 1 << PAPER_FIRST_EPOCH_LG
    growth: int = 2
    tmax_cycles: int = PAPER_TMAX

    def __post_init__(self) -> None:
        check_positive(self.first_epoch_cycles, "first_epoch_cycles")
        if self.growth < 2:
            raise ValueError(f"growth must be >= 2, got {self.growth}")
        if self.tmax_cycles < self.first_epoch_cycles:
            raise ValueError("tmax_cycles must be >= first_epoch_cycles")

    @property
    def max_epochs(self) -> int:
        """Epochs expended by a program running to Tmax (Section 6).

        The paper's accounting: ``(lg Tmax - lg first) / lg growth``,
        rounded up — 32 for (2^30, x2, 2^62), 16 for (2^30, x4, 2^62).

        >>> paper_schedule(growth=2).max_epochs
        32
        >>> paper_schedule(growth=4).max_epochs
        16
        """
        lg_span = math.log2(self.tmax_cycles) - math.log2(self.first_epoch_cycles)
        lg_growth = math.log2(self.growth)
        return max(1, math.ceil(lg_span / lg_growth - 1e-9))

    def epoch_length(self, index: int) -> int:
        """Cycle length of epoch ``index`` (0-based)."""
        if index < 0:
            raise ValueError(f"epoch index must be >= 0, got {index}")
        return self.first_epoch_cycles * self.growth**index

    def boundaries(self, horizon_cycles: int | None = None):
        """Yield cumulative epoch-end times up to ``horizon_cycles``.

        Without a horizon, yields ``max_epochs`` boundaries.
        """
        cumulative = 0
        for index in count():
            if horizon_cycles is None and index >= self.max_epochs:
                return
            cumulative += self.epoch_length(index)
            if horizon_cycles is not None and cumulative - self.epoch_length(index) >= horizon_cycles:
                return
            yield cumulative

    def epochs_until(self, runtime_cycles: int) -> int:
        """Number of epochs a run of ``runtime_cycles`` enters."""
        check_positive(runtime_cycles, "runtime_cycles")
        cumulative = 0
        for index in count():
            cumulative += self.epoch_length(index)
            if runtime_cycles <= cumulative:
                return index + 1
        raise AssertionError("unreachable")

    def describe(self) -> str:
        """One-line summary, e.g. ``E4: first=2^30, <=16 epochs to Tmax``."""
        first_lg = ceil_lg(self.first_epoch_cycles)
        return (
            f"E{self.growth}: first=2^{first_lg} cycles, "
            f"<= {self.max_epochs} epochs to Tmax=2^"
            f"{ceil_lg(self.tmax_cycles)}"
        )


def paper_schedule(growth: int = 4) -> EpochSchedule:
    """Paper-scale schedule: first epoch 2^30 cycles, Tmax 2^62."""
    return EpochSchedule(
        first_epoch_cycles=1 << PAPER_FIRST_EPOCH_LG,
        growth=growth,
        tmax_cycles=PAPER_TMAX,
    )


def sim_schedule(growth: int = 4, first_epoch_lg: int = SIM_FIRST_EPOCH_LG) -> EpochSchedule:
    """Simulation-scale schedule preserving per-run epoch counts.

    The paper's 200-250 billion-instruction runs expend 9-11 epochs under
    doubling from 2^30; scaled runs of a few million instructions expend a
    comparable count when the first epoch is 2^15 cycles.  Tmax shrinks by
    the same factor, so ``max_epochs`` — and therefore the ORAM-timing
    leakage bound ``|E| * lg |R|`` — is identical to the paper-scale
    schedule's (32 bits for R4/E4, etc.).

    >>> sim_schedule(growth=4).max_epochs == paper_schedule(growth=4).max_epochs
    True
    >>> sim_schedule(growth=2).first_epoch_cycles
    32768
    """
    tmax_lg = PAPER_TMAX_LG - PAPER_FIRST_EPOCH_LG + first_epoch_lg
    return EpochSchedule(
        first_epoch_cycles=1 << first_epoch_lg,
        growth=growth,
        tmax_cycles=1 << tmax_lg,
    )
