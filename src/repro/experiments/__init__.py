"""Experiment harness: the paper's Section 6 as one list of experiments."""

from repro.experiments.reporting import Table
from repro.experiments.harness import ExperimentContext, ExperimentScale
from repro.experiments.registry import EXPERIMENTS, Experiment, render_report, run_all

__all__ = [
    "Table",
    "ExperimentContext",
    "ExperimentScale",
    "Experiment",
    "EXPERIMENTS",
    "run_all",
    "render_report",
]
