"""Smoke tests for the example scripts.

All examples must at least compile; the fast paper walkthrough (tiny
fixture graph, exact arithmetic) and the IC-vs-LT model comparison
(~1 s) run end to end in-process.  The larger scenario scripts run in
CI's bench-smoke job, which has a looser time budget.
"""

import os
import py_compile
import runpy

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
EXAMPLES = [
    "quickstart.py",
    "ad_campaign.py",
    "offline_index_pipeline.py",
    "model_comparison.py",
    "paper_walkthrough.py",
]


class TestExamplesCompile:
    @pytest.mark.parametrize("name", EXAMPLES)
    def test_compiles(self, name):
        py_compile.compile(
            os.path.join(EXAMPLES_DIR, name), doraise=True
        )


class TestPaperWalkthroughRuns:
    def test_runs_and_asserts_paper_numbers(self, capsys):
        """The walkthrough contains its own 4.8125 assertion."""
        path = os.path.join(EXAMPLES_DIR, "paper_walkthrough.py")
        runpy.run_path(path, run_name="__main__")
        out = capsys.readouterr().out
        assert "4.8125" in out
        assert "{b, e}" in out or "b, e" in out


class TestModelComparisonRuns:
    def test_runs_one_row_per_model(self, capsys):
        """Compiling cannot catch an import of a name the package no
        longer exports; running the script does."""
        path = os.path.join(EXAMPLES_DIR, "model_comparison.py")
        runpy.run_path(path, run_name="__main__")
        out = capsys.readouterr().out
        rows = [line.split()[0] for line in out.splitlines() if "spread=" in line]
        assert rows == ["IC", "LT"]
