"""Every call into the repository's constructors lives in this file.

Workload drivers and the traced replay receive opened objects from
here, so a later change that renames a class or deletes a toggle edits
one file of the benchmark.  Only default toggles are used (``use_mmap``,
``flat_transport``, ``shared_block_cache`` and ``dispatch`` stay unset).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import (
    IRRIndex,
    IRRIndexBuilder,
    KBTIMServer,
    RRIndex,
    RRIndexBuilder,
    SupervisedServerPool,
    ThetaPolicy,
)
from repro.core.transport import ResponseReader, ResponseWriter
from repro.datasets import twitter_dataset
from repro.storage import SegmentReader

#: Fixture parameters, recorded verbatim in every run record.  ``cap`` is an
#: eighth of the issue's sizing run (2000): the driver's time cap leaves
#: room for three timed set-ups per invocation only at this size.  The
#: dataset and index seed is fixed: ``--seed`` varies the traffic, not the
#: data, because index size and per-query work differ by 10-25 % between
#: generated datasets, which would drown every bound.
FIXTURE = {
    "family": "twitter",
    "dataset_seed": 0,
    "size_index": 1,
    "n_topics": 64,
    "model": "IC",
    "epsilon": 0.5,
    "K": 100,
    "cap": 250,
    "delta": 100,
}

#: Cache capacities, in keywords, against a working set of ``n_topics``.
SERVER_CACHE_WARM = 64
SERVER_CACHE_COLD = 16
POOL_WORKERS = 2

CLIENTS = {"warm_zipf": 1, "cold_scan": 1, "pool_zipf": 2, "irr_zipf": 1}


def build_fixture(directory: str) -> Dict[str, object]:
    """Generate the dataset and build the RR and IRR indexes from one sample.

    Both builders consume the same sample tables, so the two indexes
    answer identically (Theorem 3).  Returns paths plus the offline
    layer's timings and counts.
    """
    seed = FIXTURE["dataset_seed"]
    started = time.perf_counter()
    dataset = twitter_dataset(
        size_index=FIXTURE["size_index"], n_topics=FIXTURE["n_topics"], seed=seed
    )
    model = dataset.ic_model
    policy = ThetaPolicy(
        epsilon=FIXTURE["epsilon"], K=FIXTURE["K"], cap=FIXTURE["cap"]
    )
    rr_builder = RRIndexBuilder(model, dataset.profiles, policy=policy, rng=seed)
    irr_builder = IRRIndexBuilder(
        model, dataset.profiles, policy=policy, rng=seed, delta=FIXTURE["delta"]
    )
    sample_started = time.perf_counter()
    tables = rr_builder.sample()
    sample_s = time.perf_counter() - sample_started
    rr_path = os.path.join(directory, "bench.rr")
    irr_path = os.path.join(directory, "bench.irr")
    rr_report = rr_builder.build(rr_path, tables=tables)
    irr_report = irr_builder.build(irr_path, tables=tables)
    return {
        "rr_path": rr_path,
        "irr_path": irr_path,
        "build_s": time.perf_counter() - started,
        "sample_s": sample_s,
        "rr_write_s": rr_report.seconds,
        "irr_write_s": irr_report.seconds,
        "rr_sets_total": rr_report.theta_total,
        "n_users": dataset.graph.n,
    }


def open_oracle(rr_path: str) -> RRIndex:
    """A fresh reader whose ``query`` defines the correct answers."""
    return RRIndex(rr_path)


def catalog_names(index: RRIndex) -> List[str]:
    """Indexed keyword names in topic-id order."""
    return sorted(index.catalog, key=lambda name: index.catalog[name].topic_id)


@dataclass
class Target:
    """One opened system under test, as the workload driver sees it."""

    query: Callable
    close: Callable[[], None]
    #: ``stats`` snapshot source for cache hit counters (None for IRR).
    server_stats: Optional[Callable] = None
    #: Worker pids (pool only); their peak RSS is part of the workload's.
    worker_pids: Callable[[], List[int]] = lambda: []
    #: Side-effect-free shard peek (pool only).
    shard_of: Optional[Callable] = None
    start_method: Optional[str] = None
    pool_start_s: float = 0.0
    #: The in-process reader's prefix-cache capacity (its default), recorded
    #: because ``cold_scan`` relies on the walk being longer than it.
    index_prefix_cache: Optional[int] = None


def _open_server(rr_path: str, cache_keywords: int) -> Target:
    index = RRIndex(rr_path)
    server = KBTIMServer(index, cache_keywords=cache_keywords)
    return Target(
        query=server.query,
        close=index.close,
        server_stats=lambda: server.stats,
        index_prefix_cache=index.prefix_cache_keywords,
    )


def open_target(workload: str, fixture: Dict[str, object]) -> Target:
    """Open the workload's system under test on one built fixture."""
    rr_path = str(fixture["rr_path"])
    if workload == "warm_zipf":
        return _open_server(rr_path, SERVER_CACHE_WARM)
    if workload == "cold_scan":
        return _open_server(rr_path, SERVER_CACHE_COLD)
    if workload == "pool_zipf":
        started = time.perf_counter()
        pool = SupervisedServerPool(rr_path, n_workers=POOL_WORKERS)
        return Target(
            query=pool.query,
            close=pool.close,
            server_stats=lambda: pool.stats,
            worker_pids=lambda: list(pool.pool.pids),
            shard_of=pool.shard_of,
            start_method=pool.pool.start_method,
            pool_start_s=time.perf_counter() - started,
        )
    if workload == "irr_zipf":
        index = IRRIndex(str(fixture["irr_path"]))
        return Target(query=index.query, close=index.close)
    raise ValueError(f"unknown workload {workload!r}")


def open_replay_index(rr_path: str) -> RRIndex:
    """Reader for the traced warm replay: its prefix cache holds the whole
    working set, so ``load_keyword_csr`` is the hit path a warm server takes."""
    return RRIndex(rr_path, prefix_cache_keywords=FIXTURE["n_topics"])


def open_segment_reader(rr_path: str) -> SegmentReader:
    """Raw segment access for the traced cold replay."""
    return SegmentReader(rr_path)


def open_transport(name: str) -> Tuple[ResponseWriter, ResponseReader]:
    """Both ends of one flat response segment, for the transport probe."""
    return ResponseWriter(name), ResponseReader(name)
