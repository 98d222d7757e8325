"""Shared benchmark fixtures.

The paper's tables and figures are not benchmarks here: ``repro
experiment all`` reproduces them (``src/repro/experiments/``, written to
EXPERIMENTS.md).  What remains under ``benchmarks/`` measures the code
itself — tight-loop kernels (``bench_micro_ops.py``) and the serving tier
(``bench_server_throughput.py``) — on the experiment harness's datasets,
through one session-scoped :class:`ExperimentContext` so each index is
built once.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.harness import ExperimentContext, ExperimentScale


def bench_scale() -> ExperimentScale:
    """``ExperimentScale.smoke()`` when ``KBTIM_BENCH_SCALE=smoke`` (the
    one-tiny-iteration replay ``bench_smoke.py`` wires into tier-1),
    else ``ExperimentScale.default()``."""
    name = os.environ.get("KBTIM_BENCH_SCALE", "default")
    if name not in ("smoke", "default"):
        raise ValueError(f"unknown KBTIM_BENCH_SCALE {name!r}")
    return ExperimentScale.smoke() if name == "smoke" else ExperimentScale.default()


@pytest.fixture(scope="session")
def ctx():
    """Experiment context at the campaign scale, shared by the session."""
    with ExperimentContext(bench_scale()) as context:
        yield context


def emit(table) -> None:
    """Print a result table (shown with ``pytest -s``)."""
    print()
    print(table.render())
