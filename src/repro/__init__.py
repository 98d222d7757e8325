"""repro — reproduction of "Real-time Targeted Influence Maximization for
Online Advertisements" (Li, Zhang, Tan; PVLDB 8(10), 2015).

The package implements the Keyword-Based Targeted Influence Maximization
(KB-TIM) query and the paper's three solvers — online WRIS sampling, the
disk-based RR index, and the incremental IRR index — together with every
substrate they need: a CSR social graph, IC/LT propagation models, a
tf-idf topic-profile store, and a paged/compressed storage engine with
physical-I/O accounting.

Quickstart::

    from repro import (
        KBTIMQuery, IndependentCascade, RRIndexBuilder, RRIndex,
        TopicSpace, zipf_profiles, twitter_like, ThetaPolicy,
    )

    graph = twitter_like(2000, avg_degree=12, rng=7)
    topics = TopicSpace.default(16)
    profiles = zipf_profiles(graph.n, topics, rng=7)
    model = IndependentCascade(graph)

    builder = RRIndexBuilder(model, profiles,
                             policy=ThetaPolicy(epsilon=0.5, cap=4000), rng=7)
    builder.build("ads.rr")

    with RRIndex("ads.rr") as index:
        answer = index.query(KBTIMQuery(["music", "movies"], k=10))
        print(answer.seeds, answer.estimated_influence)

See docs/ARCHITECTURE.md for the paper-to-module map and EXPERIMENTS.md
for the reproduced tables and figures.
"""

from repro.core import (
    DEFAULT_PARTITION_SIZE,
    BuildReport,
    ChaosController,
    CoverageInstance,
    FaultEvent,
    FaultPlan,
    IRRIndex,
    IRRIndexBuilder,
    KBTIMQuery,
    KBTIMServer,
    KeywordMeta,
    KeywordTable,
    PoolHealth,
    PoolSnapshot,
    QueryStats,
    RRIndex,
    RRIndexBuilder,
    SeedSelection,
    ShardHealth,
    SupervisedServerPool,
    ThetaPolicy,
    greedy_max_coverage,
    ris_query,
    sample_keyword_tables,
    wris_query,
)
from repro.errors import (
    CorruptIndexError,
    DeadlineExceededError,
    EstimationError,
    GraphError,
    OverloadedError,
    ProfileError,
    QueryError,
    ReproError,
    ServerError,
    ShardUnavailableError,
    StorageError,
)
from repro.graph import (
    DiGraph,
    load_npz,
    news_like,
    save_npz,
    summarize,
    twitter_like,
)
from repro.profiles import ProfileStore, TopicSpace, zipf_profiles
from repro.propagation import (
    IndependentCascade,
    LinearThreshold,
    estimate_spread,
    exact_activation_probabilities,
    exact_optimal_seed_set,
    exact_spread,
)
from repro.storage import Codec, IOStats

__version__ = "1.0.0"

#: The name the frozen ``bench/tracing.py`` imports (ROADMAP item 4(e)):
#: the same function, not a second greedy.
lazy_greedy_max_coverage = greedy_max_coverage

__all__ = [
    "__version__",
    # queries & solvers
    "KBTIMQuery",
    "SeedSelection",
    "QueryStats",
    "ThetaPolicy",
    "wris_query",
    "ris_query",
    "RRIndexBuilder",
    "RRIndex",
    "IRRIndexBuilder",
    "IRRIndex",
    "KBTIMServer",
    "SupervisedServerPool",
    "ShardHealth",
    "PoolHealth",
    "PoolSnapshot",
    "FaultEvent",
    "FaultPlan",
    "ChaosController",
    "DEFAULT_PARTITION_SIZE",
    "BuildReport",
    "KeywordMeta",
    "KeywordTable",
    "sample_keyword_tables",
    "CoverageInstance",
    "greedy_max_coverage",
    # graph substrate
    "DiGraph",
    "twitter_like",
    "news_like",
    "summarize",
    "save_npz",
    "load_npz",
    # profiles
    "TopicSpace",
    "ProfileStore",
    "zipf_profiles",
    # propagation
    "IndependentCascade",
    "LinearThreshold",
    "estimate_spread",
    "exact_spread",
    "exact_activation_probabilities",
    "exact_optimal_seed_set",
    # storage
    "Codec",
    "IOStats",
    # errors
    "ReproError",
    "GraphError",
    "ProfileError",
    "QueryError",
    "StorageError",
    "CorruptIndexError",
    "EstimationError",
    "ServerError",
    "DeadlineExceededError",
    "ShardUnavailableError",
    "OverloadedError",
]
