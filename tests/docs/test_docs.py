"""The documentation surface is executable: doctests + link integrity.

Two enforcement layers (CI's docs job runs both as shell commands; this
suite keeps them honest under plain pytest):

* every module on the doctest roster runs clean — the paper-anchored
  examples in docstrings are real, not decorative;
* every relative link and heading anchor in README/DESIGN/EXPERIMENTS/
  docs/ resolves (tools/check_docs.py), and the checker itself flags
  planted breakage.
"""

import doctest
import importlib
import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Modules whose docstring examples are part of the contract.  Keep in
#: sync with the docs job in .github/workflows/ci.yml.
DOCTESTED_MODULES = (
    "repro.core.scheme",
    "repro.core.rates",
    "repro.core.epochs",
    "repro.core.leakage",
    "repro.core.learner",
    "repro.service",
    "repro.service.jobs",
    "repro.service.metrics",
    "repro.service.client",
    "repro.service.loadgen",
    "repro.service.journal",
    "repro.faults.counters",
    "repro.faults.plan",
    "repro.util.backoff",
    "repro.ingest.errors",
    "repro.ingest.store",
    "repro.sim.simulator",
)


def load_checker():
    """Import tools/check_docs.py (not a package) as a module."""
    path = REPO_ROOT / "tools" / "check_docs.py"
    spec = importlib.util.spec_from_file_location("check_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDoctests:
    @pytest.mark.parametrize("module_name", DOCTESTED_MODULES)
    def test_module_doctests_pass(self, module_name):
        module = importlib.import_module(module_name)
        results = doctest.testmod(module, verbose=False)
        assert results.failed == 0, f"{results.failed} doctest failures in {module_name}"

    @pytest.mark.parametrize(
        "module_name, symbol",
        [("repro.core.scheme", "scheme_from_spec"),
         ("repro.core.scheme", "expand_scheme_grid"),
         ("repro.core.rates", "lg_spaced_rates")],
    )
    def test_required_symbols_carry_runnable_examples(self, module_name, symbol):
        """The issue's named symbols must have >>> examples, specifically."""
        module = importlib.import_module(module_name)
        docstring = getattr(module, symbol).__doc__ or ""
        assert ">>>" in docstring, f"{module_name}.{symbol} has no runnable example"


class TestLinkChecker:
    def test_repository_docs_are_clean(self, capsys):
        checker = load_checker()
        assert checker.main(["--root", str(REPO_ROOT)]) == 0
        out = capsys.readouterr().out
        assert "docs ok" in out

    def test_detects_broken_file_link(self, tmp_path, capsys):
        checker = load_checker()
        (tmp_path / "README.md").write_text("see [missing](docs/nope.md)\n")
        assert checker.main(["--root", str(tmp_path)]) == 1
        assert "no such file" in capsys.readouterr().err

    def test_detects_broken_anchor(self, tmp_path, capsys):
        checker = load_checker()
        (tmp_path / "README.md").write_text(
            "# Real Heading\n\nsee [bad](#not-a-heading) and [good](#real-heading)\n"
        )
        assert checker.main(["--root", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "not-a-heading" in err
        assert "real-heading" not in err

    def test_detects_broken_cross_file_anchor(self, tmp_path, capsys):
        checker = load_checker()
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "other.md").write_text("## Known Section\n")
        (tmp_path / "README.md").write_text(
            "[ok](docs/other.md#known-section) [bad](docs/other.md#ghost)\n"
        )
        assert checker.main(["--root", str(tmp_path)]) == 1
        assert "ghost" in capsys.readouterr().err

    def test_rejects_absolute_path_links(self, tmp_path, capsys):
        checker = load_checker()
        (tmp_path / "README.md").write_text("[abs](/src/repro/cli.py)\n")
        assert checker.main(["--root", str(tmp_path)]) == 1
        assert "absolute-path" in capsys.readouterr().err

    def test_ignores_external_links_and_code_fences(self, tmp_path):
        checker = load_checker()
        (tmp_path / "README.md").write_text(
            "[web](https://example.com)\n\n```\n[fake](missing.md)\n```\n"
        )
        assert checker.main(["--root", str(tmp_path)]) == 0

    def test_slugification_matches_github_conventions(self):
        checker = load_checker()
        assert checker.github_slug("The experiment API") == "the-experiment-api"
        assert checker.github_slug("`repro.frontier` — sweeps") == "reprofrontier--sweeps"
        assert checker.github_slug("Figure 8a / 8b") == "figure-8a--8b"
        # GitHub keeps identifier underscores: #x-base_dram--watts.
        assert checker.github_slug("x base_dram / Watts") == "x-base_dram--watts"

    def test_caret_in_link_text_is_still_checked(self, tmp_path, capsys):
        checker = load_checker()
        (tmp_path / "README.md").write_text("[O(n^2) scan](docs/missing.md)\n")
        assert checker.main(["--root", str(tmp_path)]) == 1
        assert "missing.md" in capsys.readouterr().err
