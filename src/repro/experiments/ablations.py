"""Ablations beyond the paper's tables: the IRR partition size δ and the
buffer-pool capacity, each with its shape check."""

from __future__ import annotations

import os
from typing import List

from repro.core.irr_index import IRRIndex, IRRIndexBuilder
from repro.core.query import KBTIMQuery
from repro.datasets.workload import make_workload
from repro.experiments.harness import ExperimentContext
from repro.experiments.reporting import Table, failed_conditions
from repro.storage.iostats import IOStats
from repro.storage.pager import BufferPool

__all__ = [
    "run_ablation_delta",
    "check_ablation_delta",
    "run_ablation_bufferpool",
    "check_ablation_bufferpool",
]

DELTAS = (10, 50, 100, 200)
CAPACITIES = (8, 64, 512, 4096)


def run_ablation_delta(ctx: ExperimentContext) -> Table:
    """Not in the paper, which fixes the IRR partition size δ = 100: small
    partitions load fewer RR sets in more I/Os, large ones amortise I/O
    but load more per step.

    One three-keyword query on the default twitter graph, answered by IRR
    indexes of each δ built from the same samples.
    """
    ds = ctx.default_dataset("twitter")
    tables = ctx.keyword_tables(ds)
    query = KBTIMQuery(tuple(sorted(tables)[:3]), ctx.scale.default_k)
    table = Table(
        "Ablation: IRR partition size delta",
        ("delta", "I/Os", "RR sets loaded", "partitions", "time (s)"),
    )
    for delta in DELTAS:
        path = os.path.join(ctx.workdir, f"{ds.name}-ablation-{delta}.irr")
        IRRIndexBuilder(
            ds.ic_model, ds.profiles, policy=ctx.scale.policy, delta=delta
        ).build(path, tables=tables)
        with IRRIndex(path) as index:
            stats = index.query(query).stats
        table.add_row(
            delta,
            stats.io.read_calls,
            stats.rr_sets_loaded,
            stats.partitions_loaded,
            stats.elapsed_seconds,
        )
    table.add_note("paper setting: delta = 100")
    return table


def check_ablation_delta(table: Table) -> List[str]:
    """Finer partitions need at least as many partition loads."""
    partitions = table.column("partitions")
    return failed_conditions(
        {
            "smallest delta loads >= the partitions of the largest": partitions[0]
            >= partitions[-1],
            "every delta issues I/O": all(v > 0 for v in table.column("I/Os")),
        }
    )


def run_ablation_bufferpool(ctx: ExperimentContext) -> Table:
    """Not in the paper: a larger buffer pool turns the page reads of
    repeated queries into hits.

    The same 6-query workload replayed on the default twitter IRR index
    through a fresh buffer pool of each capacity.
    """
    ds = ctx.default_dataset("twitter")
    ctx.build_index(ds, kind="irr")
    path = ctx.index_path(ds, kind="irr")
    queries = list(make_workload(ds.profiles, length=3, k=20, n_queries=6, rng=99))
    table = Table(
        "Ablation: buffer-pool capacity (IRR, repeated queries)",
        ("capacity (pages)", "physical pages", "cached pages", "hit ratio"),
    )
    for capacity in CAPACITIES:
        stats = IOStats()
        with IRRIndex(path, stats=stats, pool=BufferPool(capacity)) as index:
            for query in queries:
                index.query(query)
        table.add_row(capacity, stats.pages_read, stats.pages_hit, stats.hit_ratio)
    return table


def check_ablation_bufferpool(table: Table) -> List[str]:
    """More cache never hurts, and a big pool serves mostly from memory."""
    ratios = table.column("hit ratio")
    return failed_conditions(
        {
            "hit ratio at the largest capacity >= at the smallest": ratios[-1]
            >= ratios[0],
            "largest capacity hit ratio > 0.5": ratios[-1] > 0.5,
        }
    )
