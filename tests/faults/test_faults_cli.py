"""``repro faults`` CLI: scripted chaos scenarios from the shell."""

import tempfile

from repro.cli import main
from repro.faults.scenarios import SCENARIO_NAMES, run_scenario


class TestScenarioRegistry:
    def test_known_scenarios(self):
        assert set(SCENARIO_NAMES) == {
            "worker-crash", "corrupt-artifact", "torn-write",
            "daemon-restart", "client-retry", "corrupt-import",
            "worker-kill-dist",
        }

    def test_unknown_scenario_raises(self, tmp_path):
        import pytest

        with pytest.raises(KeyError, match="unknown scenario"):
            run_scenario("meteor-strike", workdir=tmp_path)


class TestFaultsCommand:
    def test_torn_write_scenario_passes(self, capsys, tmp_path):
        assert main(["faults", "--scenario", "torn-write",
                     "--workdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "scenario torn-write: OK" in out
        assert "1/1 scenarios passed" in out

    def test_reports_each_check(self, capsys, tmp_path):
        main(["faults", "--scenario", "torn-write", "--workdir", str(tmp_path)])
        out = capsys.readouterr().out
        assert "digest matches fault-free run" in out
        assert "pass" in out

    def test_unknown_scenario_exits_2(self, capsys, tmp_path):
        assert main(["faults", "--scenario", "meteor-strike",
                     "--workdir", str(tmp_path)]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_multiple_scenarios_accumulate(self, capsys, tmp_path):
        assert main([
            "faults",
            "--scenario", "torn-write",
            "--scenario", "client-retry",
            "--workdir", str(tmp_path),
        ]) == 0
        assert "2/2 scenarios passed" in capsys.readouterr().out


class TestScratchDirectories:
    def test_a_scenario_without_workdir_leaves_nothing_behind(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert run_scenario("torn-write")["ok"]
        assert list(tmp_path.iterdir()) == []

    def test_a_given_workdir_is_kept(self, tmp_path):
        workdir = tmp_path / "kept"
        assert run_scenario("torn-write", workdir=workdir)["ok"]
        assert any(workdir.iterdir())
