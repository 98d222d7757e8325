"""Figure experiments (Section 6, Figures 4-7).

Figures are reproduced as data series (one table row per plotted point);
each ``check_figure*`` returns the paper-shape conditions its series
fails, which EXPERIMENTS.md reports next to the series.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.wris import wris_query
from repro.experiments.harness import ExperimentContext, _stable_salt
from repro.experiments.reporting import (
    FAMILIES,
    Table,
    by_dataset,
    failed_conditions,
    family_of,
)
from repro.experiments.tables import workload_queries
from repro.graph.stats import in_degree_histogram, log_binned_histogram
from repro.utils.rng import optional_seed

__all__ = [
    "run_figure4",
    "run_figure5",
    "run_figure6",
    "run_figure7",
    "check_figure4",
    "check_figure5",
    "check_figure6",
    "check_figure7",
]


def run_figure4(ctx: ExperimentContext, *, bins_per_decade: int = 4) -> Table:
    """Both in-degree distributions are heavy-tailed, and Twitter's tail
    reaches far larger in-degrees than the news graph's.

    Log-binned in-degree histograms of both families' default graphs.
    """
    table = Table(
        "Figure 4: in-degree distributions",
        ("dataset", "in-degree (bin center)", "bin center / |V|", "#users"),
    )
    for family in FAMILIES:
        ds = ctx.default_dataset(family)
        degrees, counts = in_degree_histogram(ds.graph)
        centers, binned = log_binned_histogram(
            degrees, counts, bins_per_decade=bins_per_decade
        )
        for center, count in zip(centers, binned):
            center = float(center)
            table.add_row(ds.name, center, center / ds.graph.n, int(count))
    return table


def check_figure4(table: Table) -> List[str]:
    """Twitter hubs reach a larger in-degree relative to |V| than news."""
    top = {
        family_of(name): max(r[2] for r in rows)
        for name, rows in by_dataset(table).items()
    }
    return failed_conditions(
        {
            "both families plotted": sorted(top) == list(FAMILIES),
            "every bin holds users": all(c > 0 for c in table.column("#users")),
            "twitter's largest in-degree / |V| above news'": top.get("twitter", 0)
            > top.get("news", 0),
        }
    )


_SWEEP_HEADERS = (
    "WRIS time (s)",
    "RR time (s)",
    "IRR time (s)",
    "RR sets loaded (RR)",
    "RR sets loaded (IRR)",
)


def _sweep(ctx: ExperimentContext, title: str, axis: str, points) -> Table:
    """Shared Figures 5-7 machinery: one row per ``(dataset, value, query
    options)`` point with the mean execution time of all three methods and
    the mean RR sets loaded by the two indexes."""
    table = Table(title, ("dataset", axis) + _SWEEP_HEADERS)
    for ds, value, options in points:
        times = {"WRIS": [], "RR": [], "IRR": []}
        loaded = {"RR": [], "IRR": []}
        # Per-query timing is the measurand (the paper's execution-time
        # figures): disable both readers' decoded caches so every query
        # pays its own read + decode instead of hitting memory.
        with ctx.open_rr(ds, prefix_cache_keywords=0) as rr, ctx.open_irr(
            ds, decode_cache_partitions=0
        ) as irr:
            for qi, query in enumerate(workload_queries(ctx, ds, **options)):
                answers = {
                    "WRIS": wris_query(
                        ds.ic_model,
                        ds.profiles,
                        query,
                        policy=ctx.scale.policy,
                        rng=optional_seed(
                            ctx.scale.seed, _stable_salt((axis, ds.name, value, qi))
                        ),
                    ),
                    "RR": rr.query(query),
                    "IRR": irr.query(query),
                }
                for method, answer in answers.items():
                    times[method].append(answer.stats.elapsed_seconds)
                    if method in loaded:
                        loaded[method].append(answer.stats.rr_sets_loaded)
        table.add_row(
            ds.name,
            value,
            *(float(np.mean(times[m])) for m in ("WRIS", "RR", "IRR")),
            *(float(np.mean(loaded[m])) for m in ("RR", "IRR")),
        )
    return table


def _sweep_conditions(table: Table) -> Dict[str, bool]:
    """What Figures 5-7 share: both indexes beat online WRIS on average,
    every method is timed, and IRR never loads more sets than RR's θ^Q
    prefix (+1 for rounding the per-query means)."""
    wris = np.mean(table.column("WRIS time (s)"))
    return {
        "RR faster than WRIS on average": np.mean(table.column("RR time (s)")) < wris,
        "IRR faster than WRIS on average": np.mean(table.column("IRR time (s)"))
        < wris,
        "every method timed": all(t > 0 for row in table.rows for t in row[2:5]),
        "IRR loads at most RR's sets": all(r[6] <= r[5] + 1 for r in table.rows),
    }


def _ordered(table: Table) -> Dict[str, List[tuple]]:
    """Each dataset's rows sorted by the swept value."""
    return {
        name: sorted(rows, key=lambda r: r[1])
        for name, rows in by_dataset(table).items()
    }


def run_figure5(ctx: ExperimentContext) -> Table:
    """The indexes answer orders of magnitude faster than online WRIS
    (160x / 434x on Twitter); RR loads a θ-determined number of sets while
    IRR's loads grow with Q.k and stay below RR's.

    Sweeps the seed budget Q.k.
    """
    points = [
        (ctx.default_dataset(family), k, {"k": k})
        for family in FAMILIES
        for k in ctx.scale.k_values
    ]
    return _sweep(ctx, "Figure 5: varying the seed set size Q.k", "Q.k", points)


def check_figure5(table: Table) -> List[str]:
    """Indexes beat WRIS; RR loads sets; IRR's loads grow with Q.k."""
    conditions = _sweep_conditions(table)
    conditions["RR loads RR sets"] = all(
        v > 0 for v in table.column("RR sets loaded (RR)")
    )
    for name, rows in _ordered(table).items():
        conditions[f"{name}: IRR loads grow with Q.k"] = rows[-1][6] >= rows[0][6]
    return failed_conditions(conditions)


def run_figure6(ctx: ExperimentContext) -> Table:
    """The indexes stay far below WRIS for 1-6 query keywords, and the RR
    sets they touch grow with the keyword count.

    Sweeps the number of query keywords |Q.T|.
    """
    points = [
        (ctx.default_dataset(family), length, {"length": length})
        for family in FAMILIES
        for length in ctx.scale.keyword_lengths
    ]
    return _sweep(
        ctx, "Figure 6: varying the query keyword count |Q.T|", "|Q.T|", points
    )


def check_figure6(table: Table) -> List[str]:
    """Indexes beat WRIS; more keywords make the RR index load more sets."""
    conditions = _sweep_conditions(table)
    ordered = _ordered(table)
    conditions["every dataset sweeps the same >= 2 |Q.T| values"] = (
        len({tuple(r[1] for r in rows) for rows in ordered.values()}) == 1
        and all(len(rows) > 1 for rows in ordered.values())
    )
    for name, rows in ordered.items():
        conditions[f"{name}: RR loads grow with |Q.T|"] = rows[-1][5] >= rows[0][5]
    return failed_conditions(conditions)


def run_figure7(ctx: ExperimentContext) -> Table:
    """RR and IRR beat WRIS at every graph size; IRR's advantage over RR
    grows with the Twitter graph and vanishes on news.

    Sweeps the graph size |V| over every size of both families.
    """
    points = [(ds, ds.graph.n, {}) for ds in ctx.datasets()]
    return _sweep(ctx, "Figure 7: varying the graph size |V|", "|V|", points)


def check_figure7(table: Table) -> List[str]:
    """Indexes beat WRIS at every size; one row per graph, >= 2 per family."""
    conditions = _sweep_conditions(table)
    names = table.column("dataset")
    conditions["one row per graph, >= 2 sizes per family"] = len(set(names)) == len(
        names
    ) and all(sum(family_of(n) == family for n in names) > 1 for family in FAMILIES)
    return failed_conditions(conditions)
