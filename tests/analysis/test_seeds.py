"""Tests for the multi-seed replication harness."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.seeds import SeededStat, replicate_headline


class TestSeededStat:
    def test_mean(self):
        stat = SeededStat("x", (0.1, 0.2, 0.3))
        assert stat.mean == pytest.approx(0.2)

    def test_interval_brackets_mean(self):
        stat = SeededStat("x", (0.1, 0.2, 0.3))
        low, high = stat.confidence_interval()
        assert low < stat.mean < high

    def test_single_value_degenerates(self):
        stat = SeededStat("x", (0.5,))
        assert stat.confidence_interval() == (0.5, 0.5)

    def test_describe(self):
        text = SeededStat("dyn_vs_oram_perf", (0.2, 0.25)).describe()
        assert "dyn_vs_oram_perf" in text
        assert "%" in text


class TestReplication:
    @pytest.mark.slow
    def test_headline_deltas_stable_across_seeds(self):
        stats = replicate_headline(seeds=(0, 1), n_instructions=150_000)
        assert set(stats) == {
            "dyn_vs_oram_perf", "dyn_vs_oram_power",
            "s300_vs_dyn_power", "s1300_vs_dyn_perf",
        }
        # The directional claims hold for every seed, not just the mean.
        assert all(v > 0 for v in stats["dyn_vs_oram_perf"].values)
        assert all(v > 0 for v in stats["s300_vs_dyn_power"].values)
        assert all(v > 0 for v in stats["s1300_vs_dyn_perf"].values)

    def test_rejects_empty_seeds(self):
        with pytest.raises(ValueError):
            replicate_headline(seeds=())


class TestScipyIsOptional:
    @pytest.mark.parametrize("blocked", [False, True])
    def test_import_repro_leaves_scipy_alone(self, blocked):
        # scipy is a dev dependency: only the confidence interval needs
        # it, so ``import repro`` neither loads it nor fails without it.
        block = (
            "class BlockScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ModuleNotFoundError(f'{name} is blocked')\n"
            "sys.meta_path.insert(0, BlockScipy())\n"
        )
        script = (
            "import sys\n" + (block if blocked else "")
            + "import repro\nsys.exit('scipy' in sys.modules)\n"
        )
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
