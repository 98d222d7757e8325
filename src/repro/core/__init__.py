"""The paper's primary contribution: KB-TIM queries and their solvers.

* :func:`~repro.core.wris.wris_query` — online WRIS (Section 3.2);
* :func:`~repro.core.wris.ris_query` — untargeted RIS baseline (Section 2.2),
  WRIS with unit weights;
* :class:`~repro.core.rr_index.RRIndexBuilder` /
  :class:`~repro.core.rr_index.RRIndex` — disk RR index (Section 4);
* :class:`~repro.core.irr_index.IRRIndexBuilder` /
  :class:`~repro.core.irr_index.IRRIndex` — incremental index (Section 5).
"""

from repro.core.chaos import (
    ChaosController,
    FaultEvent,
    FaultPlan,
    corrupt_index_copy,
)
from repro.core.coverage import (
    CoverageInstance,
    greedy_max_coverage,
)
from repro.core.estimation import (
    OptEstimate,
    deterministic_opt_floor,
    estimate_opt_lower_bound,
)
from repro.core.irr_index import DEFAULT_PARTITION_SIZE, IRRIndex, IRRIndexBuilder
from repro.core.maintenance import IndexCheckReport, verify_index
from repro.core.offline import KeywordTable, sample_keyword_tables
from repro.core.process_pool import SupervisedServerPool
from repro.core.query import KBTIMQuery
from repro.core.results import QueryStats, SeedSelection
from repro.core.rr_index import BuildReport, KeywordMeta, RRIndex, RRIndexBuilder
from repro.core.server import (
    KBTIMServer,
    PoolHealth,
    PoolSnapshot,
    ServerStats,
    ShardHealth,
)
from repro.core.sampler import (
    mean_rr_set_size,
    sample_uniform_roots,
    sample_weighted_roots,
)
from repro.core.theta import ThetaPolicy, theta_hat_w, theta_ris, theta_w, theta_wris
from repro.core.wris import ris_query, wris_query

__all__ = [
    "KBTIMQuery",
    "SeedSelection",
    "QueryStats",
    "ThetaPolicy",
    "theta_ris",
    "theta_wris",
    "theta_hat_w",
    "theta_w",
    "CoverageInstance",
    "greedy_max_coverage",
    "OptEstimate",
    "deterministic_opt_floor",
    "estimate_opt_lower_bound",
    "KeywordTable",
    "sample_keyword_tables",
    "sample_uniform_roots",
    "sample_weighted_roots",
    "mean_rr_set_size",
    "wris_query",
    "ris_query",
    "RRIndexBuilder",
    "RRIndex",
    "KBTIMServer",
    "SupervisedServerPool",
    "ShardHealth",
    "PoolHealth",
    "PoolSnapshot",
    "ServerStats",
    "FaultEvent",
    "FaultPlan",
    "ChaosController",
    "corrupt_index_copy",
    "verify_index",
    "IndexCheckReport",
    "KeywordMeta",
    "BuildReport",
    "IRRIndexBuilder",
    "IRRIndex",
    "DEFAULT_PARTITION_SIZE",
]
