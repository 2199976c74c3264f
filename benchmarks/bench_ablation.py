"""Ablations over the design choices DESIGN.md calls out.

* **Shift divider vs exact divider** (Section 7.2): Algorithm 1's
  power-of-two rounding deliberately undersets the rate by up to 2x; the
  ablation quantifies what that costs/saves against exact division.
* **Linear vs log-space discretization** (Section 7.1.3): "closest
  element of R" interpreted on the linear vs the lg scale the candidates
  are spaced on.
* **Averaging vs threshold learner** (Section 7.3): the paper's simple
  predictor vs our reconstruction of the omitted "sophisticated"
  predictor that trades performance for power explicitly.
* **First-epoch length** (Section 6.2): too short and the learner decides
  on noise; too long and the initial (arbitrary) rate dominates.
"""

from statistics import mean

from benchmarks.conftest import emit
from repro.core.epochs import sim_schedule
from repro.core.rates import lg_spaced_rates
from repro.core.scheme import BaseDramScheme, DynamicScheme
from repro.sim.result import performance_overhead

BENCHMARKS = [
    ("mcf", None), ("gobmk", None), ("hmmer", None),
    ("h264ref", None), ("perlbench", "diffmail"),
]


def _suite_average(sim, scheme):
    perfs, powers = [], []
    for benchmark, input_name in BENCHMARKS:
        baseline = sim.run(benchmark, BaseDramScheme(), input_name=input_name,
                           record_requests=False)
        result = sim.run(benchmark, scheme, input_name=input_name,
                         record_requests=False)
        perfs.append(performance_overhead(result, baseline))
        powers.append(result.power_watts)
    return mean(perfs), mean(powers)


def _sweep(sim, variants):
    rows = []
    for label, scheme in variants:
        perf, power = _suite_average(sim, scheme)
        rows.append(f"  {label:>28}: perf {perf:5.2f}x, power {power:.3f} W")
    return "\n".join(rows)


def test_bench_ablation_divider_and_discretization(benchmark, sim):
    variants = [
        ("shift divider + log nearest", DynamicScheme()),
        ("exact divider + log nearest", DynamicScheme(exact_divide=True)),
        ("shift divider + linear", DynamicScheme(log_discretize=False)),
        ("exact divider + linear",
         DynamicScheme(exact_divide=True, log_discretize=False)),
    ]
    body = benchmark.pedantic(_sweep, args=(sim, variants), rounds=1, iterations=1)
    emit("Ablation: Algorithm 1 divider and discretization scale", body)


def test_bench_ablation_learner_kind(benchmark, sim):
    variants = [
        ("averaging (Eq. 1)", DynamicScheme()),
        ("threshold, sharpness 0.1",
         DynamicScheme(learner_kind="threshold", threshold_sharpness=0.1)),
        ("threshold, sharpness 0.3",
         DynamicScheme(learner_kind="threshold", threshold_sharpness=0.3)),
        ("threshold, sharpness 0.8",
         DynamicScheme(learner_kind="threshold", threshold_sharpness=0.8)),
    ]
    body = benchmark.pedantic(_sweep, args=(sim, variants), rounds=1, iterations=1)
    emit("Ablation: Section 7.3 'sophisticated' predictor reconstruction", body)


def test_bench_ablation_first_epoch_length(benchmark, sim):
    variants = []
    for first_lg in (12, 15, 18):
        schedule = sim_schedule(growth=4, first_epoch_lg=first_lg)
        variants.append(
            (f"first epoch 2^{first_lg}", DynamicScheme(schedule=schedule))
        )
    body = benchmark.pedantic(_sweep, args=(sim, variants), rounds=1, iterations=1)
    emit("Ablation: first-epoch length sensitivity (Section 6.2)", body)


def test_bench_ablation_rate_bounds(benchmark, sim):
    """Section 9.2's bounds vs narrower/wider alternatives."""
    variants = [
        ("R4 in [256, 32768] (paper)", DynamicScheme()),
        ("R4 in [128, 65536]",
         DynamicScheme(rates=lg_spaced_rates(4, fastest=128, slowest=65536))),
        ("R4 in [512, 16384]",
         DynamicScheme(rates=lg_spaced_rates(4, fastest=512, slowest=16384))),
    ]
    body = benchmark.pedantic(_sweep, args=(sim, variants), rounds=1, iterations=1)
    emit("Ablation: rate-bound selection (Section 9.2)", body)
