"""Scheme configurations: the baselines, the dynamic proposal, and the grid grammar.

Section 9.1.6 defines the comparison points: ``base_dram`` (insecure
DRAM), ``base_oram`` (Path ORAM, no timing protection), ``static_300/500/
1300`` (single periodic rate, the Ascend-style zero-timing-leakage
strawman), and the paper's ``dynamic_R<n>_E<g>`` configurations.  Each
scheme knows how to build the controller the timing simulator drives,
how to report its leakage bound, and how to print itself back as the
spec string that rebuilds it (:func:`scheme_from_spec` / ``.spec``).

Two grammar layers live here:

* **Scheme specs** (:func:`scheme_from_spec`) name one configuration:
  ``"dynamic:4x4"``, ``"static:300"``, ``"dynamic:6x2:threshold"``, ...
* **Grid specs** (:func:`expand_scheme_grid`) name a whole *design
  space* — the cross product of rate-set sizes, epoch growths, and
  learner variants the frontier sweep explores (Sections 9.5 and 9.6),
  optionally pruned by a leakage budget:
  ``"grid:dynamic:{rates=2..6}x{epochs=3..6}:{learner=avg,threshold}"``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache

from repro.core.controller import (
    FlatDramController,
    TimingProtectedController,
    UnprotectedController,
)
from repro.core.epochs import EpochSchedule, sim_schedule
from repro.core.leakage import LeakageReport, report_for_dynamic, report_for_static
from repro.core.learner import AveragingLearner, ThresholdLearner
from repro.core.rates import INITIAL_RATE, PAPER_RATES, RateSet, lg_spaced_rates
from repro.oram.timing import PAPER_ORAM_TIMING


@dataclass(frozen=True)
class BaseDramScheme:
    """Insecure flat-latency DRAM baseline (performance reference)."""

    latency: int = 40

    @property
    def name(self) -> str:
        """Scheme label used in reports."""
        return "base_dram"

    @property
    def spec(self) -> str:
        """Canonical spec string (inverse of :func:`scheme_from_spec`)."""
        return "base_dram"

    @property
    def is_oram(self) -> bool:
        """Whether memory requests cost ORAM energy/latency."""
        return False

    def build_controller(self):
        """Construct the memory controller for a run."""
        return FlatDramController(latency=self.latency)

    def expended_leakage_bits(self, n_epochs: int) -> float:
        """Leakage realized by a bounded run: unbounded (no protection)."""
        return float("inf")

    def leakage(self) -> LeakageReport:
        """No protection at all: unbounded timing leakage.

        Reported as infinite ORAM-timing bits; the exact count for a
        bounded run comes from ``unprotected_leakage_bits``.
        """
        report = report_for_static()
        return LeakageReport(
            scheme=self.name,
            oram_timing_bits=float("inf"),
            termination_bits=report.termination_bits,
        )


@dataclass(frozen=True)
class BaseOramScheme:
    """Path ORAM without timing protection (power/perf oracle, insecure)."""

    oram_latency: int = PAPER_ORAM_TIMING.latency_cycles

    @property
    def name(self) -> str:
        """Scheme label used in reports."""
        return "base_oram"

    @property
    def spec(self) -> str:
        """Canonical spec string (inverse of :func:`scheme_from_spec`)."""
        return "base_oram"

    @property
    def is_oram(self) -> bool:
        """ORAM-backed."""
        return True

    def build_controller(self):
        """Construct the memory controller for a run."""
        return UnprotectedController(oram_latency=self.oram_latency)

    def expended_leakage_bits(self, n_epochs: int) -> float:
        """Leakage realized by a bounded run: unbounded (timing unprotected)."""
        return float("inf")

    def leakage(self) -> LeakageReport:
        """Timing unprotected: unbounded ORAM-timing leakage."""
        report = report_for_static()
        return LeakageReport(
            scheme=self.name,
            oram_timing_bits=float("inf"),
            termination_bits=report.termination_bits,
        )


@dataclass(frozen=True)
class StaticScheme:
    """Single offline-chosen periodic rate (Ascend-style, zero timing leak)."""

    rate: int
    oram_latency: int = PAPER_ORAM_TIMING.latency_cycles

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")

    @property
    def name(self) -> str:
        """Scheme label, e.g. ``static_300``."""
        return f"static_{self.rate}"

    @property
    def spec(self) -> str:
        """Canonical spec string (inverse of :func:`scheme_from_spec`)."""
        return f"static:{self.rate}"

    @property
    def is_oram(self) -> bool:
        """ORAM-backed."""
        return True

    def build_controller(self):
        """Construct the slot controller with a fixed rate forever."""
        return TimingProtectedController(
            oram_latency=self.oram_latency,
            initial_rate=self.rate,
        )

    def leakage(self) -> LeakageReport:
        """One trace over the ORAM channel: 0 bits (+ termination)."""
        return report_for_static()

    def expended_leakage_bits(self, n_epochs: int) -> float:
        """A static rate generates exactly one trace: 0 bits, always."""
        return 0.0


@dataclass(frozen=True)
class DynamicScheme:
    """The paper's proposal: |R| rates, geometric epochs, a rate learner.

    ``learner_kind`` selects 'averaging' (Equation 1 + Algorithm 1, the
    deployed design) or 'threshold' (the Section 7.3 sophisticated
    predictor reconstruction).  ``exact_divide``/``log_discretize`` are
    knobs on the averaging learner.

    Default discretization is log-space nearest: the candidates are spaced
    evenly on a lg scale (Section 9.2), so "whichever element in R is
    closest" (Section 7.1.3) is interpreted on that scale.  This matters:
    linear nearest puts the 256/1290 boundary at 773 cycles, which —
    combined with Algorithm 1's deliberate underset bias — would pin the
    paper's mid-tier benchmarks (gobmk, astar) to 256 instead of the 1290
    the paper reports them settling on.  Linear nearest remains available
    (``log_discretize=False``) and is quantified in the ablation bench.
    """

    rates: RateSet = PAPER_RATES
    schedule: EpochSchedule = field(default_factory=lambda: sim_schedule(growth=4))
    initial_rate: int = INITIAL_RATE
    oram_latency: int = PAPER_ORAM_TIMING.latency_cycles
    learner_kind: str = "averaging"
    exact_divide: bool = False
    log_discretize: bool = True
    threshold_sharpness: float = 0.30

    @property
    def name(self) -> str:
        """Scheme label: ``dynamic_R4_E4``, ``dynamic_R4_E4_threshold``."""
        base = f"dynamic_R{len(self.rates)}_E{self.schedule.growth}"
        return base if self.learner_kind == "averaging" else f"{base}_{self.learner_kind}"

    @property
    def spec(self) -> str:
        """Canonical spec string (inverse of :func:`scheme_from_spec`).

        Canonical for grammar-built schemes: the averaging learner is the
        default and stays implicit (``"dynamic:4x4"``), other learners
        are appended (``"dynamic:4x4:threshold"``).
        """
        base = f"dynamic:{len(self.rates)}x{self.schedule.growth}"
        return base if self.learner_kind == "averaging" else f"{base}:{self.learner_kind}"

    @property
    def is_oram(self) -> bool:
        """ORAM-backed."""
        return True

    def build_learner(self):
        """Construct the configured rate learner."""
        if self.learner_kind == "averaging":
            return AveragingLearner(
                self.rates,
                exact_divide=self.exact_divide,
                log_discretize=self.log_discretize,
            )
        if self.learner_kind == "threshold":
            return ThresholdLearner(
                self.rates,
                oram_latency_cycles=self.oram_latency,
                sharpness=self.threshold_sharpness,
            )
        raise ValueError(f"unknown learner_kind {self.learner_kind!r}")

    def build_controller(self):
        """Construct the epoch-driven slot controller."""
        return TimingProtectedController(
            oram_latency=self.oram_latency,
            initial_rate=self.initial_rate,
            schedule=self.schedule,
            learner=self.build_learner(),
        )

    def leakage(self) -> LeakageReport:
        """``|E| * lg |R|`` ORAM-timing bits plus termination bits."""
        return report_for_dynamic(self.schedule, len(self.rates))

    def expended_leakage_bits(self, n_epochs: int) -> float:
        """Leakage realized by a run that entered ``n_epochs`` epochs.

        The bound charges ``lg |R|`` bits per epoch *entered* (Section
        6): a run shorter than Tmax expends only part of its
        ``|E| * lg |R|`` budget.  Which rates the learner picked never
        appears — only the counts (Section 2.2.2).
        """
        if n_epochs < 0:
            raise ValueError(f"n_epochs must be >= 0, got {n_epochs}")
        return n_epochs * math.log2(len(self.rates))


@dataclass(frozen=True)
class ObliviousDramScheme:
    """Section 10 extension: the dynamic scheme on commodity DRAM, no ORAM.

    The paper observes the scheme works without ORAM *if* dummy memory
    operations are indistinguishable from real ones — which on commodity
    DRAM requires disabling/normalizing row buffers (so bank state leaks
    nothing) and physically partitioning DRAM (so the Section 3.2 scan is
    impossible).  Under those assumptions the slot machinery is identical;
    only the per-access latency/energy drop from ORAM path costs to a
    single cache-line transfer.  Address-pattern leakage is of course NOT
    protected — this is a timing-channel-only design point.

    Rates are scaled to DRAM-appropriate values: ORAM-tuned candidates
    would leave the 40-cycle memory idle virtually always.
    """

    rates: RateSet = RateSet((32, 101, 323, 1024))
    schedule: EpochSchedule = field(default_factory=lambda: sim_schedule(growth=4))
    initial_rate: int = 256
    dram_latency: int = 40

    @property
    def name(self) -> str:
        """Scheme label."""
        return f"oblivious_dram_R{len(self.rates)}_E{self.schedule.growth}"

    @property
    def spec(self) -> str:
        """Canonical spec string (inverse of :func:`scheme_from_spec`).

        The bare default prints as ``"oblivious_dram"`` — its hand-pinned
        rate set (323) differs from the lg-spaced reconstruction (322)
        that the parameterized form would rebuild.
        """
        if self == ObliviousDramScheme():
            return "oblivious_dram"
        return f"oblivious_dram:{len(self.rates)}x{self.schedule.growth}"

    @property
    def is_oram(self) -> bool:
        """Accesses cost DRAM (not ORAM) energy and latency."""
        return False

    def build_controller(self):
        """Slot controller with DRAM latency; dummies are DRAM accesses."""
        return TimingProtectedController(
            oram_latency=self.dram_latency,
            initial_rate=self.initial_rate,
            schedule=self.schedule,
            learner=AveragingLearner(self.rates, log_discretize=True),
        )

    def leakage(self) -> LeakageReport:
        """Same |E| * lg |R| arithmetic — the bound is substrate-agnostic."""
        return report_for_dynamic(self.schedule, len(self.rates))

    def expended_leakage_bits(self, n_epochs: int) -> float:
        """``lg |R|`` bits per epoch entered, as for the ORAM-backed scheme."""
        if n_epochs < 0:
            raise ValueError(f"n_epochs must be >= 0, got {n_epochs}")
        return n_epochs * math.log2(len(self.rates))


def dynamic(n_rates: int = 4, growth: int = 4, **kwargs) -> DynamicScheme:
    """Convenience builder: ``dynamic(4, 4)`` is the paper's headline config.

    >>> dynamic(4, 4).name
    'dynamic_R4_E4'
    >>> dynamic(4, 4).leakage().oram_timing_bits
    32.0
    """
    return DynamicScheme(
        rates=lg_spaced_rates(n_rates),
        schedule=sim_schedule(growth=growth),
        **kwargs,
    )


#: Grammar accepted by :func:`scheme_from_spec`, for error messages.
SCHEME_SPEC_FORMS = (
    "base_dram",
    "base_oram",
    "static:<rate>",
    "dynamic:<|R|>x<growth>[:<learner>]",
    "oblivious_dram[:<|R|>x<growth>]",
    "grid:dynamic:{rates=..}x{epochs=..}[:{learner=..}][:{budget=..}]  (expand_scheme_grid)",
)

#: Learner-segment aliases accepted by the ``dynamic:`` spec grammar.
LEARNER_ALIASES = {
    "avg": "averaging",
    "averaging": "averaging",
    "threshold": "threshold",
}


def _parse_rates_x_growth(arg: str, spec: str) -> tuple[int, int]:
    """Parse the ``<n_rates>x<growth>`` argument of dynamic-family specs."""
    parts = arg.split("x")
    if len(parts) != 2:
        raise ValueError(
            f"scheme spec {spec!r} needs an <|R|>x<growth> argument, e.g. 'dynamic:4x4'"
        )
    try:
        n_rates, growth = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"scheme spec {spec!r}: |R| and growth must be integers")
    if n_rates < 1:
        raise ValueError(f"scheme spec {spec!r}: |R| must be >= 1")
    if growth < 2:
        raise ValueError(f"scheme spec {spec!r}: growth must be >= 2")
    return n_rates, growth


def _parse_learner(arg: str, spec: str) -> str:
    """Resolve a learner-segment alias (``avg``/``averaging``/``threshold``)."""
    try:
        return LEARNER_ALIASES[arg]
    except KeyError:
        raise ValueError(
            f"scheme spec {spec!r}: unknown learner {arg!r}; "
            f"accepted: {', '.join(sorted(LEARNER_ALIASES))}"
        )


def scheme_from_spec(spec: str):
    """Build a scheme from a compact spec string.

    The declarative experiment API (:mod:`repro.api`) names schemes with
    strings so specs stay hashable, serializable, and CLI-friendly:

    - ``"base_dram"`` — insecure DRAM baseline
    - ``"base_oram"`` — Path ORAM without timing protection
    - ``"static:300"`` — static rate of 300 cycles
    - ``"dynamic:4x4"`` — the paper's dynamic scheme, |R|=4, epoch growth 4
    - ``"dynamic:4x4:threshold"`` — same lattice point, the Section 7.3
      threshold learner instead of the default averaging learner
    - ``"oblivious_dram"`` / ``"oblivious_dram:4x4"`` — Section 10 extension

    Every scheme prints itself back via ``.spec``, and
    ``scheme_from_spec(s).spec == s`` for canonical strings (averaging
    learner implicit, ``avg`` normalized away):

    >>> scheme_from_spec("dynamic:4x4").name
    'dynamic_R4_E4'
    >>> scheme_from_spec("dynamic:4x4:avg").spec
    'dynamic:4x4'
    >>> scheme_from_spec("dynamic:6x2:threshold").name
    'dynamic_R6_E2_threshold'
    >>> scheme_from_spec("static:300").leakage().oram_timing_bits
    0.0

    Raises ValueError with the accepted grammar for anything else.
    Schemes are frozen, so equal strings share one parsed scheme; each
    ``build_controller()`` call still builds a fresh controller.
    """
    if not isinstance(spec, str) or not spec:
        raise ValueError(f"scheme spec must be a non-empty string, got {spec!r}")
    return _parse_scheme(spec)


@lru_cache(maxsize=4096)
def _parse_scheme(spec: str):
    """:func:`scheme_from_spec` of a non-empty string, memoized."""
    head, _, arg = spec.partition(":")
    if head == "base_dram" and not arg:
        return BaseDramScheme()
    if head == "base_oram" and not arg:
        return BaseOramScheme()
    if head == "static":
        try:
            rate = int(arg)
        except ValueError:
            raise ValueError(f"scheme spec {spec!r}: static rate must be an integer")
        return StaticScheme(rate)
    if head == "dynamic":
        lattice, _, learner_arg = arg.partition(":")
        n_rates, growth = _parse_rates_x_growth(lattice, spec)
        learner = _parse_learner(learner_arg, spec) if learner_arg else "averaging"
        return dynamic(n_rates, growth, learner_kind=learner)
    if head == "oblivious_dram":
        if not arg:
            return ObliviousDramScheme()
        n_rates, growth = _parse_rates_x_growth(arg, spec)
        default = ObliviousDramScheme()
        return ObliviousDramScheme(
            rates=lg_spaced_rates(
                n_rates, fastest=default.rates.fastest, slowest=default.rates.slowest
            ),
            schedule=sim_schedule(growth=growth),
        )
    if head == "grid":
        raise ValueError(
            f"{spec!r} is a grid spec naming many schemes; expand it with "
            "expand_scheme_grid() before asking for a single scheme"
        )
    raise ValueError(
        f"unknown scheme spec {spec!r}; accepted forms: {', '.join(SCHEME_SPEC_FORMS)}"
    )


# ----------------------------------------------------------------------
# Grid specs: the frontier's scheme-space generator
# ----------------------------------------------------------------------

#: The default dynamic design space swept by ``repro frontier``:
#: |R| in 2..8, epoch growth in 2..9, both learners — 112 configurations.
DEFAULT_DYNAMIC_GRID = "grid:dynamic:{rates=2..8}x{epochs=2..9}:{learner=avg,threshold}"

_GRID_TERM = re.compile(r"^\{(\w+)=([^{}]+)\}$")


def _parse_int_values(text: str, term: str, spec: str) -> tuple[int, ...]:
    """Parse a brace value list: ``2..6`` (inclusive range) or ``2,4,8``."""
    text = text.strip()
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise ValueError(f"grid spec {spec!r}: {term} range {text!r} must be <int>..<int>")
        if hi < lo:
            raise ValueError(f"grid spec {spec!r}: empty {term} range {text!r}")
        return tuple(range(lo, hi + 1))
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"grid spec {spec!r}: {term} values {text!r} must be integers")
    if not values:
        raise ValueError(f"grid spec {spec!r}: {term} needs at least one value")
    if len(set(values)) != len(values):
        raise ValueError(f"grid spec {spec!r}: {term} values must be distinct")
    return values


@dataclass(frozen=True)
class SchemeGrid:
    """A dynamic-scheme design space: |R| x growth x learner, budget-pruned.

    The frontier sweep's generator (Section 9.5/9.6 explore slices of
    this space; the frontier sweeps the cross product).  ``expand()``
    yields one canonical :func:`scheme_from_spec` string per surviving
    configuration, so a grid composes with everything that already
    speaks spec strings — :class:`~repro.api.spec.ExperimentSpec`, the
    CLI, the persistent cache.

    Attributes:
        n_rates_values: Candidate-set sizes |R| to sweep.
        growth_values: Epoch growth factors to sweep (the paper's E2..E16
            axis, Section 9.6).
        learners: Learner variants (``"averaging"``, ``"threshold"``).
        budget_bits: When set, drop configurations whose ORAM-timing
            bound ``|E| * lg |R|`` exceeds this many bits (the Section 5
            user-set leakage limit applied at design time).
    """

    n_rates_values: tuple[int, ...]
    growth_values: tuple[int, ...]
    learners: tuple[str, ...] = ("averaging",)
    budget_bits: float | None = None

    def __post_init__(self) -> None:
        if not self.n_rates_values or not self.growth_values or not self.learners:
            raise ValueError("SchemeGrid needs at least one value per axis")
        if any(n < 1 for n in self.n_rates_values):
            raise ValueError(f"|R| values must be >= 1, got {self.n_rates_values}")
        if any(g < 2 for g in self.growth_values):
            raise ValueError(f"growth values must be >= 2, got {self.growth_values}")
        for learner in self.learners:
            if learner not in LEARNER_ALIASES.values():
                raise ValueError(f"unknown learner {learner!r} in grid")
        if self.budget_bits is not None and self.budget_bits < 0:
            raise ValueError(f"budget_bits must be >= 0, got {self.budget_bits}")

    @property
    def spec(self) -> str:
        """Canonical grid spec string (inverse of :func:`parse_scheme_grid`)."""

        def values(axis: tuple[int, ...]) -> str:
            if len(axis) > 2 and axis == tuple(range(axis[0], axis[-1] + 1)):
                return f"{axis[0]}..{axis[-1]}"
            return ",".join(str(v) for v in axis)

        text = f"grid:dynamic:{{rates={values(self.n_rates_values)}}}x" \
               f"{{epochs={values(self.growth_values)}}}"
        learner_names = {"averaging": "avg", "threshold": "threshold"}
        text += ":{learner=" + ",".join(learner_names[lr] for lr in self.learners) + "}"
        if self.budget_bits is not None:
            budget = self.budget_bits
            text += f":{{budget={int(budget) if budget == int(budget) else budget}}}"
        return text

    def bound_bits(self, n_rates: int, growth: int) -> float:
        """The ORAM-timing bound ``|E| * lg |R|`` of one lattice point."""
        return report_for_dynamic(sim_schedule(growth=growth), n_rates).oram_timing_bits

    def expand(self) -> tuple[str, ...]:
        """All surviving configurations as canonical scheme spec strings.

        Ordered rates-major, then growth, then learner; budget-pruned
        points are silently dropped (an empty expansion raises, because a
        frontier over nothing is a configuration error).
        """
        specs = []
        for n_rates in self.n_rates_values:
            for growth in self.growth_values:
                if (
                    self.budget_bits is not None
                    and self.bound_bits(n_rates, growth) > self.budget_bits + 1e-9
                ):
                    continue
                for learner in self.learners:
                    suffix = "" if learner == "averaging" else f":{learner}"
                    specs.append(f"dynamic:{n_rates}x{growth}{suffix}")
        if not specs:
            raise ValueError(
                f"grid {self.spec!r} expands to nothing: every configuration "
                f"exceeds the {self.budget_bits}-bit budget"
            )
        return tuple(specs)

    def __len__(self) -> int:
        return len(self.expand())


def parse_scheme_grid(spec: str) -> SchemeGrid:
    """Parse a ``grid:dynamic:...`` spec string into a :class:`SchemeGrid`.

    Grammar (segments after the lattice are optional, in this order)::

        grid:dynamic:{rates=<values>}x{epochs=<values>}[:{learner=<names>}][:{budget=<bits>}]

    ``<values>`` is an inclusive range ``2..6`` or a comma list ``2,4,8``;
    ``<names>`` draws from ``avg``/``averaging``/``threshold``.  The bare
    alias ``"grid:dynamic"`` resolves to :data:`DEFAULT_DYNAMIC_GRID`.

    >>> parse_scheme_grid("grid:dynamic:{rates=2..4}x{epochs=2,4}").n_rates_values
    (2, 3, 4)
    >>> len(parse_scheme_grid("grid:dynamic"))
    112
    """
    if not isinstance(spec, str) or not spec.startswith("grid:"):
        raise ValueError(f"grid spec must start with 'grid:', got {spec!r}")
    if spec in ("grid:dynamic", "grid:dynamic:default"):
        spec = DEFAULT_DYNAMIC_GRID
    body = spec[len("grid:"):]
    family, _, rest = body.partition(":")
    if family != "dynamic" or not rest:
        raise ValueError(
            f"unknown grid spec {spec!r}; accepted: "
            "grid:dynamic:{rates=..}x{epochs=..}[:{learner=..}][:{budget=..}]"
        )
    segments = rest.split(":")
    lattice = segments[0]
    lattice_parts = lattice.split("}x{")
    if len(lattice_parts) != 2:
        raise ValueError(
            f"grid spec {spec!r}: lattice must be {{rates=..}}x{{epochs=..}}"
        )
    terms = dict([
        _match_grid_term(lattice_parts[0] + "}", spec),
        _match_grid_term("{" + lattice_parts[1], spec),
    ])
    if set(terms) != {"rates", "epochs"}:
        raise ValueError(
            f"grid spec {spec!r}: lattice must name rates and epochs, got {sorted(terms)}"
        )
    n_rates_values = _parse_int_values(terms["rates"], "rates", spec)
    growth_values = _parse_int_values(terms["epochs"], "epochs", spec)

    learners: tuple[str, ...] = ("averaging",)
    budget_bits: float | None = None
    for segment in segments[1:]:
        key, value = _match_grid_term(segment, spec)
        if key == "learner":
            learners = tuple(
                _parse_learner(part.strip(), spec)
                for part in value.split(",")
                if part.strip()
            )
            if len(set(learners)) != len(learners):
                raise ValueError(f"grid spec {spec!r}: duplicate learners")
        elif key == "budget":
            try:
                budget_bits = float(value)
            except ValueError:
                raise ValueError(f"grid spec {spec!r}: budget must be a number")
        else:
            raise ValueError(
                f"grid spec {spec!r}: unknown term {{{key}=...}}; "
                "accepted: learner, budget"
            )
    return SchemeGrid(
        n_rates_values=n_rates_values,
        growth_values=growth_values,
        learners=learners,
        budget_bits=budget_bits,
    )


def _match_grid_term(segment: str, spec: str) -> tuple[str, str]:
    """Match one ``{key=value}`` grid segment."""
    match = _GRID_TERM.match(segment.strip())
    if match is None:
        raise ValueError(
            f"grid spec {spec!r}: segment {segment!r} is not of the form {{key=value}}"
        )
    return match.group(1), match.group(2)


def expand_scheme_grid(spec: str) -> tuple[str, ...]:
    """Expand a grid spec to concrete scheme spec strings.

    Every returned string round-trips: it parses with
    :func:`scheme_from_spec` and the parsed scheme's ``.spec`` prints the
    identical string back.

    >>> expand_scheme_grid("grid:dynamic:{rates=2..3}x{epochs=2..3}")
    ('dynamic:2x2', 'dynamic:2x3', 'dynamic:3x2', 'dynamic:3x3')
    >>> expand_scheme_grid("grid:dynamic:{rates=4}x{epochs=2,4}:{learner=threshold}")
    ('dynamic:4x2:threshold', 'dynamic:4x4:threshold')
    >>> len(expand_scheme_grid("grid:dynamic:{rates=2..8}x{epochs=2..9}:{learner=avg,threshold}"))
    112
    """
    return parse_scheme_grid(spec).expand()


def is_grid_spec(spec: str) -> bool:
    """Whether a spec string names a scheme grid rather than one scheme."""
    return isinstance(spec, str) and spec.startswith("grid:")


#: Section 9.1.6's five baselines plus the headline dynamic configuration.
def paper_baselines() -> list:
    """The comparison set of Figure 6."""
    return [
        BaseDramScheme(),
        BaseOramScheme(),
        dynamic(4, 4),
        StaticScheme(300),
        StaticScheme(500),
        StaticScheme(1300),
    ]
