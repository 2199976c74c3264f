"""Candidate ORAM access-rate sets (the paper's R).

An ORAM rate of ``r`` cycles means the next ORAM access starts ``r``
cycles after the previous access *completes* (Section 2.1 notation).  The
paper selects the extreme rates empirically (Section 9.2): 256 cycles at
the fast end (below ~200 the rate is underset on average for mcf) and
32768 at the slow end (beyond ~30000, compute-bound programs idle so much
their power drops below base_dram).  Intermediate candidates are spaced
evenly on a lg scale, giving memory-bound workloads a denser selection.

With |R| = 4 this yields exactly the paper's R = {256, 1290, 6501, 32768}.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_positive


@dataclass(frozen=True)
class RateSet:
    """An ordered set of candidate ORAM rates (cycles, fastest first)."""

    rates: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.rates:
            raise ValueError("RateSet requires at least one rate")
        if any(rate <= 0 for rate in self.rates):
            raise ValueError(f"rates must be positive, got {self.rates}")
        if list(self.rates) != sorted(self.rates):
            raise ValueError(f"rates must be sorted ascending, got {self.rates}")
        if len(set(self.rates)) != len(self.rates):
            raise ValueError(f"rates must be distinct, got {self.rates}")

    def __len__(self) -> int:
        return len(self.rates)

    def __iter__(self):
        return iter(self.rates)

    def __getitem__(self, index: int) -> int:
        return self.rates[index]

    @property
    def fastest(self) -> int:
        """Smallest (most frequent) rate."""
        return self.rates[0]

    @property
    def slowest(self) -> int:
        """Largest (least frequent) rate."""
        return self.rates[-1]

    def nearest(self, raw_rate: float) -> int:
        """Discretize a predicted rate to the closest candidate.

        Implements Section 7.1.3: ``argmin over r in R of |raw - r|``.
        |R| is small (2-16), so the hardware does this as a sequential
        scan; ties break toward the faster rate, which errs on the side of
        performance rather than power.

        >>> RateSet((256, 1290, 6501, 32768)).nearest(900)
        1290
        >>> RateSet((256, 1290, 6501, 32768)).nearest(500)
        256
        """
        best = self.rates[0]
        best_distance = abs(raw_rate - best)
        for rate in self.rates[1:]:
            distance = abs(raw_rate - rate)
            if distance < best_distance:
                best = rate
                best_distance = distance
        return best

    def nearest_log(self, raw_rate: float) -> int:
        """Log-space discretization (ablation alternative to :meth:`nearest`).

        Since candidates are lg-spaced, distance in log space weights
        relative rather than absolute error.  Not what the paper specifies;
        provided for the ablation bench.
        """
        import math

        clamped = max(raw_rate, 1e-9)
        best = self.rates[0]
        best_distance = abs(math.log2(clamped) - math.log2(best))
        for rate in self.rates[1:]:
            distance = abs(math.log2(clamped) - math.log2(rate))
            if distance < best_distance:
                best = rate
                best_distance = distance
        return best


def lg_spaced_rates(n_rates: int, fastest: int = 256, slowest: int = 32768) -> RateSet:
    """Build |R| candidates spaced evenly on a lg scale (Section 9.2).

    The extreme rates are the paper's empirically chosen endpoints
    (256 at the fast end, 32768 at the slow end); intermediate
    candidates fall at equal lg intervals, truncated to integers.

    >>> lg_spaced_rates(4).rates
    (256, 1290, 6501, 32768)
    >>> lg_spaced_rates(2).rates
    (256, 32768)
    >>> len(lg_spaced_rates(8))
    8
    """
    check_positive(n_rates, "n_rates")
    check_positive(fastest, "fastest")
    if n_rates == 1:
        return RateSet((fastest,))
    if slowest <= fastest:
        raise ValueError(f"slowest ({slowest}) must exceed fastest ({fastest})")
    ratio = (slowest / fastest) ** (1.0 / (n_rates - 1))
    rates = [fastest]
    for index in range(1, n_rates - 1):
        # Truncate: 256 * 128^(2/3) = 6501.9 -> 6501, matching the paper's
        # published R = {256, 1290, 6501, 32768}.
        rates.append(int(fastest * ratio**index))
    rates.append(slowest)
    return RateSet(tuple(rates))


#: The paper's default candidate set (|R| = 4).
PAPER_RATES = lg_spaced_rates(4)

#: The initial-epoch rate used for all benchmarks (Section 9.2).
INITIAL_RATE = 10_000
