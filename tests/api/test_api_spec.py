"""Tests for ExperimentSpec validation, cell expansion, and hashing."""

import pytest

from repro.api.spec import Cell, ExperimentSpec, SpecError, split_benchmark

#: A valid spec payload, as the service receives it.
VALID_PAYLOAD = {"benchmarks": ["mcf"], "schemes": ["base_dram"], "n_instructions": 20_000}

#: Malformed spec payloads, each with the key it breaks.
MALFORMED_PAYLOADS = {
    "seeds-scalar": {**VALID_PAYLOAD, "seeds": 1.5},
    "n_instructions-string": {**VALID_PAYLOAD, "n_instructions": "zz"},
    "warmup_fraction-null": {**VALID_PAYLOAD, "warmup_fraction": None},
    "schemes-null": {**VALID_PAYLOAD, "schemes": None},
    "benchmarks-int": {**VALID_PAYLOAD, "benchmarks": 5},
    "schemes-missing": {"benchmarks": ["mcf"], "n_instructions": 20_000},
}


def tiny_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        benchmarks=("mcf", "astar/rivers"),
        schemes=("base_dram", "dynamic:4x4"),
        seeds=(0, 1),
        n_instructions=50_000,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestSplitBenchmark:
    def test_bare_name(self):
        assert split_benchmark("mcf") == ("mcf", None)

    def test_with_input(self):
        assert split_benchmark("astar/rivers") == ("astar", "rivers")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            split_benchmark("")


class TestValidation:
    def test_accepts_lists(self):
        spec = ExperimentSpec(benchmarks=["mcf"], schemes=["base_dram"], seeds=[0])
        assert spec.benchmarks == ("mcf",)
        assert isinstance(spec.schemes, tuple)

    def test_empty_axes_rejected(self):
        for field in ("benchmarks", "schemes", "seeds"):
            with pytest.raises(ValueError):
                tiny_spec(**{field: ()})

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            tiny_spec(benchmarks=("not_a_benchmark",))

    def test_unknown_input_rejected(self):
        with pytest.raises(ValueError, match="inputs"):
            tiny_spec(benchmarks=("astar/nope",))

    def test_bad_scheme_rejected(self):
        with pytest.raises(ValueError, match="accepted forms"):
            tiny_spec(schemes=("warp_drive:9",))

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            tiny_spec(seeds=(0, 0))

    def test_bad_scalars_rejected(self):
        with pytest.raises(ValueError):
            tiny_spec(n_instructions=0)
        with pytest.raises(ValueError):
            tiny_spec(warmup_fraction=1.5)
        with pytest.raises(ValueError):
            tiny_spec(n_windows=0)


class TestCells:
    def test_cross_product_size(self):
        spec = tiny_spec()
        cells = list(spec.cells())
        assert len(cells) == spec.n_cells == 2 * 2 * 2

    def test_cells_carry_sim_params(self):
        cell = next(tiny_spec(n_windows=10).cells())
        assert cell.n_instructions == 50_000
        assert cell.n_windows == 10
        assert cell.warmup_fraction == 0.30

    def test_input_split(self):
        cells = list(tiny_spec().cells())
        astar = [c for c in cells if c.benchmark == "astar"]
        assert all(c.input_name == "rivers" for c in astar)

    def test_label(self):
        cell = Cell("astar", "rivers", "static:300", 1, 1000, 0.3, 8, None, False)
        assert cell.label == "astar/rivers+static:300@1"


class TestContentHash:
    def test_stable(self):
        a = next(tiny_spec().cells())
        b = next(tiny_spec().cells())
        assert a.content_hash() == b.content_hash()

    def test_spec_change_changes_hash(self):
        base = next(tiny_spec().cells())
        for override in (
            {"n_instructions": 60_000},
            {"seeds": (7,)},
            {"warmup_fraction": 0.1},
            {"n_windows": 4},
            {"schemes": ("static:300",)},
        ):
            changed = next(tiny_spec(**override).cells())
            assert changed.content_hash() != base.content_hash(), override

    def test_name_never_hashes(self):
        named = next(tiny_spec(name="labeled").cells())
        assert named.content_hash() == next(tiny_spec().cells()).content_hash()


class TestMalformedSpecs:
    @pytest.mark.parametrize("payload", MALFORMED_PAYLOADS.values(),
                             ids=MALFORMED_PAYLOADS.keys())
    def test_from_dict_raises_a_spec_error(self, payload):
        with pytest.raises(SpecError) as excinfo:
            ExperimentSpec.from_dict(payload)
        assert isinstance(excinfo.value, ValueError)

    def test_from_dict_needs_a_mapping(self):
        with pytest.raises(SpecError, match="JSON object"):
            ExperimentSpec.from_dict(["mcf"])

    def test_every_validation_failure_is_a_spec_error(self):
        for overrides in ({"benchmarks": ()}, {"benchmarks": ("not_a_benchmark",)},
                          {"schemes": ("warp_drive:9",)}, {"seeds": (0, 0)},
                          {"n_instructions": 0}, {"warmup_fraction": 1.5},
                          {"n_windows": 0}, {"benchmarks": "mcf"},
                          {"seeds": ("1",)}, {"n_instructions": 2.5e5},
                          {"record_requests": "yes"}, {"name": 7}):
            with pytest.raises(SpecError):
                tiny_spec(**overrides)

    def test_valid_payload_builds(self):
        spec = ExperimentSpec.from_dict(VALID_PAYLOAD)
        assert spec.n_cells == 1 and spec.n_instructions == 20_000


class TestSerialization:
    def test_roundtrip(self):
        spec = tiny_spec(n_windows=5, name="roundtrip")
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_single(self):
        sub = tiny_spec().single("mcf", "dynamic:4x4", seed=1)
        assert sub.n_cells == 1
        cell = next(sub.cells())
        assert (cell.benchmark, cell.scheme_spec, cell.seed) == ("mcf", "dynamic:4x4", 1)
