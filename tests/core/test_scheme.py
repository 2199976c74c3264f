"""Tests for scheme configurations (Section 9.1.6)."""

import pytest

from repro.core.controller import (
    EpochRecord,
    FlatDramController,
    TimingProtectedController,
    UnprotectedController,
)
from repro.core.learner import AveragingLearner, ThresholdLearner
from repro.core.scheme import (
    BaseDramScheme,
    BaseOramScheme,
    DynamicScheme,
    ObliviousDramScheme,
    StaticScheme,
    dynamic,
    paper_baselines,
    scheme_from_spec,
)


class TestNames:
    def test_scheme_labels(self):
        assert BaseDramScheme().name == "base_dram"
        assert BaseOramScheme().name == "base_oram"
        assert StaticScheme(300).name == "static_300"
        assert dynamic(4, 4).name == "dynamic_R4_E4"
        assert dynamic(16, 2).name == "dynamic_R16_E2"


class TestControllers:
    def test_base_dram_controller(self):
        controller = BaseDramScheme().build_controller()
        assert isinstance(controller, FlatDramController)
        assert controller.latency == 40

    def test_base_oram_controller(self):
        controller = BaseOramScheme().build_controller()
        assert isinstance(controller, UnprotectedController)
        assert controller.latency == 1488

    def test_static_controller_never_transitions(self):
        controller = StaticScheme(500).build_controller()
        assert isinstance(controller, TimingProtectedController)
        controller.finalize(10_000_000.0)
        assert len(controller.rate_history) == 1
        assert controller.rate == 500

    def test_dynamic_controller_has_schedule(self):
        controller = dynamic(4, 4).build_controller()
        controller.finalize(10_000_000.0)
        assert len(controller.rate_history) > 1


class TestLearnersFromScheme:
    def test_default_averaging(self):
        assert isinstance(dynamic(4, 4).build_learner(), AveragingLearner)

    def test_threshold_variant(self):
        scheme = DynamicScheme(learner_kind="threshold")
        assert isinstance(scheme.build_learner(), ThresholdLearner)

    def test_unknown_learner(self):
        with pytest.raises(ValueError):
            DynamicScheme(learner_kind="magic").build_learner()


class TestLeakageReports:
    def test_static_leaks_zero_timing_bits(self):
        report = StaticScheme(300).leakage()
        assert report.oram_timing_bits == 0.0
        assert report.termination_bits == 62.0

    def test_unprotected_schemes_unbounded(self):
        assert BaseDramScheme().leakage().oram_timing_bits == float("inf")
        assert BaseOramScheme().leakage().oram_timing_bits == float("inf")

    def test_dynamic_uses_paper_arithmetic(self):
        from repro.core.epochs import paper_schedule
        from repro.core.rates import lg_spaced_rates

        scheme = DynamicScheme(
            rates=lg_spaced_rates(4), schedule=paper_schedule(growth=4)
        )
        assert scheme.leakage().oram_timing_bits == 32.0

    def test_leakage_independent_of_learner(self):
        """Section 2.2.2: learner choice does not change the bound."""
        averaging = DynamicScheme(learner_kind="averaging")
        threshold = DynamicScheme(learner_kind="threshold")
        assert averaging.leakage().total_bits == threshold.leakage().total_bits


class TestValidation:
    def test_static_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            StaticScheme(0)

    def test_paper_baselines_complete(self):
        names = {scheme.name for scheme in paper_baselines()}
        assert names == {
            "base_dram", "base_oram", "dynamic_R4_E4",
            "static_300", "static_500", "static_1300",
        }


class TestSchemeFromSpec:
    def test_baselines(self):
        assert isinstance(scheme_from_spec("base_dram"), BaseDramScheme)
        assert isinstance(scheme_from_spec("base_oram"), BaseOramScheme)

    def test_static(self):
        scheme = scheme_from_spec("static:300")
        assert isinstance(scheme, StaticScheme)
        assert scheme.rate == 300

    def test_dynamic_matches_builder(self):
        assert scheme_from_spec("dynamic:4x4") == dynamic(4, 4)
        assert scheme_from_spec("dynamic:16x2").name == "dynamic_R16_E2"

    def test_oblivious_dram(self):
        assert scheme_from_spec("oblivious_dram") == ObliviousDramScheme()
        parsed = scheme_from_spec("oblivious_dram:2x4")
        assert len(parsed.rates) == 2
        assert parsed.schedule.growth == 4
        assert parsed.rates.fastest == ObliviousDramScheme().rates.fastest

    def test_rejects_unknown_and_malformed(self):
        for bad in ("", "warp", "static:", "static:abc", "dynamic:4",
                    "dynamic:4x1", "dynamic:0x4", "base_dram:40"):
            with pytest.raises(ValueError):
                scheme_from_spec(bad)

    def test_error_lists_grammar(self):
        with pytest.raises(ValueError, match="accepted forms"):
            scheme_from_spec("nope")

    def test_rejects_non_strings(self):
        for bad in (None, 300, ["static:300"], ("dynamic:4x4",)):
            with pytest.raises(ValueError, match="non-empty string"):
                scheme_from_spec(bad)

    @pytest.mark.parametrize(
        "spec", ["static:300", "dynamic:4x4", "dynamic:6x2:threshold", "oblivious_dram:2x4"]
    )
    def test_equal_specs_give_equal_schemes_with_independent_controllers(self, spec):
        first, again = scheme_from_spec(spec), scheme_from_spec(spec)
        assert first == again
        one, other = first.build_controller(), again.build_controller()
        assert one is not other
        assert one.counters is not other.counters
        assert one.epochs is not other.epochs
        assert (one.learner is None) == (other.learner is None)
        if one.learner is not None:
            assert one.learner is not other.learner
        one.serve(10_000.0)
        assert other.stats.real_accesses == 0
        assert other.rate_history == [EpochRecord(index=0, start_cycle=0.0, rate=other.rate)]
