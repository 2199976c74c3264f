"""Multi-seed replication: robustness of the headline results.

The paper reports single runs of deterministic SPEC binaries; our
workloads are synthetic, so the honest analogue is to replicate each
experiment across generator seeds and report means with confidence
intervals.  ``replicate_headline`` reruns the Figure 6 headline deltas
across seeds and summarizes them with Student-t intervals (scipy).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean, stdev

from repro.api.figures import FIG6_BENCHMARKS
from repro.core.scheme import BaseDramScheme, BaseOramScheme, StaticScheme, dynamic
from repro.sim.result import performance_overhead
from repro.sim.simulator import SecureProcessorSim, SimConfig


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


def _headline_deltas(seed: int, n_instructions: int) -> dict[str, float]:
    sim = SecureProcessorSim(SimConfig(n_instructions=n_instructions, seed=seed))
    schemes = {
        "base_oram": BaseOramScheme(),
        "dynamic": dynamic(4, 4),
        "static_300": StaticScheme(300),
        "static_1300": StaticScheme(1300),
    }
    perf = {name: [] for name in schemes}
    power = {name: [] for name in schemes}
    for benchmark, input_name in FIG6_BENCHMARKS:
        baseline = sim.run(benchmark, BaseDramScheme(), input_name=input_name,
                           record_requests=False)
        for name, scheme in schemes.items():
            result = sim.run(benchmark, scheme, input_name=input_name,
                             record_requests=False)
            perf[name].append(performance_overhead(result, baseline))
            power[name].append(result.power_watts)
    avg_perf = {name: mean(values) for name, values in perf.items()}
    avg_power = {name: mean(values) for name, values in power.items()}
    return {
        "dyn_vs_oram_perf": avg_perf["dynamic"] / avg_perf["base_oram"] - 1.0,
        "dyn_vs_oram_power": avg_power["dynamic"] / avg_power["base_oram"] - 1.0,
        "s300_vs_dyn_power": avg_power["static_300"] / avg_power["dynamic"] - 1.0,
        "s1300_vs_dyn_perf": avg_perf["static_1300"] / avg_perf["dynamic"] - 1.0,
    }


def replicate_headline(
    seeds: tuple[int, ...] = (0, 1, 2),
    n_instructions: int = 500_000,
) -> dict[str, SeededStat]:
    """Replicate the Section 9.3 headline deltas across workload seeds."""
    if not seeds:
        raise ValueError("at least one seed required")
    per_metric: dict[str, list[float]] = {}
    for seed in seeds:
        deltas = _headline_deltas(seed, n_instructions)
        for name, value in deltas.items():
            per_metric.setdefault(name, []).append(value)
    return {
        name: SeededStat(name=name, values=tuple(values))
        for name, values in per_metric.items()
    }
