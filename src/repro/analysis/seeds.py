"""Multi-seed replication: robustness of the headline results.

The paper reports single runs of deterministic SPEC binaries; our
workloads are synthetic, so the honest analogue is to replicate each
experiment across generator seeds and report means with confidence
intervals.  ``replicate_headline`` runs the Figure 6 spec through the
engine once per seed, reduces its records to the headline deltas, and
summarizes them with Student-t intervals (scipy).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean, stdev

from repro.analysis.experiments import figure6_from_resultset
from repro.api.engine import Engine
from repro.api.figures import figure6_spec

#: The Section 9.3 deltas replicated across seeds.
HEADLINE_DELTAS: tuple[str, ...] = (
    "dyn_vs_oram_perf", "dyn_vs_oram_power", "s300_vs_dyn_power", "s1300_vs_dyn_perf",
)


@dataclass(frozen=True)
class SeededStat:
    """Mean and confidence interval of one metric across seeds."""

    name: str
    values: tuple[float, ...]

    @property
    def mean(self) -> float:
        """Sample mean."""
        return mean(self.values)

    def confidence_interval(self, level: float = 0.95) -> tuple[float, float]:
        """Student-t CI half-width around the mean."""
        # scipy is a dev dependency: importing it here keeps ``import
        # repro`` numpy-only and off scipy's ~1 s import.
        from scipy import stats

        n = len(self.values)
        if n < 2:
            return (self.mean, self.mean)
        half = stats.t.ppf(0.5 + level / 2.0, n - 1) * stdev(self.values) / n**0.5
        return (self.mean - half, self.mean + half)

    def describe(self, level: float = 0.95) -> str:
        """``name: mean [lo, hi]`` one-liner."""
        low, high = self.confidence_interval(level)
        return f"{self.name}: {self.mean:+.1%} [{low:+.1%}, {high:+.1%}]"


def replicate_headline(
    seeds: tuple[int, ...] = (0, 1, 2),
    n_instructions: int = 500_000,
) -> dict[str, SeededStat]:
    """Replicate the Section 9.3 headline deltas across workload seeds."""
    if not seeds:
        raise ValueError("at least one seed required")
    engine = Engine()
    per_seed = [
        figure6_from_resultset(
            engine.run(figure6_spec(n_instructions=n_instructions, seeds=(seed,)))
        ).headline_deltas()
        for seed in seeds
    ]
    return {
        name: SeededStat(name=name, values=tuple(deltas[name] for deltas in per_seed))
        for name in HEADLINE_DELTAS
    }
