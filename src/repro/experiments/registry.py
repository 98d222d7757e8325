"""The paper's evaluation as one list of experiments, one runner, one report.

:data:`EXPERIMENTS` holds one :class:`Experiment` per reproduced result:
the paper's claim, the function that measures it and the function that
checks the measured table's shape.  ``repro experiment``, the tests and
the committed EXPERIMENTS.md all iterate this tuple, so none of them can
run a setting or assert a shape the others do not.
"""

from __future__ import annotations

import inspect
import os
import platform
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

from repro.experiments import ablations, figures, tables
from repro.experiments.harness import ExperimentContext, ExperimentScale
from repro.experiments.reporting import Table

__all__ = ["Experiment", "EXPERIMENTS", "run_all", "render_report"]


@dataclass(frozen=True)
class Experiment:
    """One reproduced result: ``run`` owns every setting its shape needs,
    ``check`` returns the shape conditions the table fails."""

    name: str
    claim: str
    run: Callable[[ExperimentContext], Table]
    check: Callable[[Table], List[str]]


def _first_paragraph(fn: Callable) -> str:
    """The first paragraph of ``fn``'s docstring on one line (empty under
    ``python -OO``, which strips docstrings)."""
    return " ".join((inspect.getdoc(fn) or "").split("\n\n")[0].split())


def _experiment(name: str, run, check) -> Experiment:
    """The claim is the first paragraph of ``run``'s docstring."""
    return Experiment(name, _first_paragraph(run), run, check)


EXPERIMENTS: Tuple[Experiment, ...] = (
    _experiment("table2", tables.run_table2, tables.check_table2),
    _experiment("table3", tables.run_table3, tables.check_table3),
    _experiment("table4", tables.run_table4, tables.check_table4),
    _experiment("table5", tables.run_table5, tables.check_table5),
    _experiment("table6", tables.run_table6, tables.check_table6),
    _experiment("table7", tables.run_table7, tables.check_table7),
    _experiment("table8", tables.run_table8, tables.check_table8),
    _experiment("figure4", figures.run_figure4, figures.check_figure4),
    _experiment("figure5", figures.run_figure5, figures.check_figure5),
    _experiment("figure6", figures.run_figure6, figures.check_figure6),
    _experiment("figure7", figures.run_figure7, figures.check_figure7),
    _experiment(
        "ablation_delta", ablations.run_ablation_delta, ablations.check_ablation_delta
    ),
    _experiment(
        "ablation_bufferpool",
        ablations.run_ablation_bufferpool,
        ablations.check_ablation_bufferpool,
    ),
)

#: name -> (measured table, failed shape conditions)
Results = Dict[str, Tuple[Table, List[str]]]


def run_all(
    ctx: ExperimentContext, names: Iterable[str]
) -> Tuple[Results, Dict[str, Exception]]:
    """Run and check the named experiments, in registry order.

    An experiment that raises lands in the second dict instead of
    stopping the others, so a failure is a section of the report.
    """
    wanted = set(names)
    results: Results = {}
    exceptions: Dict[str, Exception] = {}
    for experiment in EXPERIMENTS:
        if experiment.name not in wanted:
            continue
        try:
            table = experiment.run(ctx)
            results[experiment.name] = (table, experiment.check(table))
        except Exception as exc:  # reported as the experiment's verdict
            exceptions[experiment.name] = exc
    return results, exceptions


def render_report(
    scale: ExperimentScale,
    results: Results,
    exceptions: Dict[str, Exception],
    seconds: float,
) -> str:
    """The markdown report: a header, then per experiment its claim, the
    shape its check tests, its table and a verdict."""
    lines = [
        "# Experiments: the paper's evaluation, reproduced",
        "",
        f"Scale `{scale.name}` · seed {scale.seed} · wall time {seconds:.1f} s · "
        f"Python {platform.python_version()} · numpy {np.__version__} · "
        f"nproc {os.cpu_count()}",
        "",
        "The full report is `PYTHONPATH=src python -m repro experiment all "
        f"--scale {scale.name}`. Each section gives the paper's claim, the "
        "shape this repository checks, the measured table and the verdict. "
        "Absolute numbers differ from the paper: the datasets are scaled "
        "synthetic stand-ins, θ is capped and the code is pure Python "
        "(docs/ARCHITECTURE.md, \"Substitutions\").",
    ]
    for experiment in EXPERIMENTS:
        if experiment.name in exceptions:
            exc = exceptions[experiment.name]
            body, verdict = [], f"error: {type(exc).__name__}: {exc}"
        elif experiment.name in results:
            table, failed = results[experiment.name]
            body = [table.render(), ""]
            verdict = (
                f"does not reproduce: {'; '.join(failed)}" if failed else "reproduces"
            )
        else:
            continue
        checked = _first_paragraph(experiment.check)
        lines += [
            "",
            f"## {experiment.name}",
            "",
            f"**Claim.** {experiment.claim}",
            "",
            f"**Checked.** {checked}",
            "",
            *body,
            f"**Verdict:** {verdict}",
        ]
    return "\n".join(lines) + "\n"
