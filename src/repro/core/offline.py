"""Offline discriminative WRIS sampling (Section 4.1).

Both disk indexes are built from the same per-keyword sample tables:
for every keyword ``w``, θ_w RR sets rooted at vertices drawn with
``ps(v, w) = tf_{v,w} / Σ_v tf_{v,w}``.  Lemma 2 shows that mixing these
per-keyword tables in proportion ``p_w = φ_w / φ_Q`` reproduces the WRIS
distribution for *any* query — which is what makes pre-computation
possible at all.

:func:`sample_keyword_tables` is the single sampling pass shared by
:class:`~repro.core.rr_index.RRIndexBuilder` and
:class:`~repro.core.irr_index.IRRIndexBuilder`; sharing it keeps Table 4's
four index variants (2 formats × 2 codecs) comparable and makes Theorem 3
(RR and IRR answer identically) directly testable on identical samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.estimation import estimate_opt_lower_bound
from repro.core.sampler import mean_rr_set_size, sample_weighted_roots
from repro.core.theta import ThetaPolicy
from repro.errors import IndexError_
from repro.profiles.store import ProfileStore
from repro.propagation.base import PropagationModel
from repro.utils.rng import RngLike, as_rng, derive_seed
from repro.utils.rrsets import FlatRRSets

__all__ = ["KeywordTable", "sample_keyword_tables"]

#: OPT-estimation budget per keyword (see
#: :func:`~repro.core.estimation.estimate_opt_lower_bound`): a first pilot
#: batch of 128 RR sets, doubled once.
_PILOT_THETA = 128
_PILOT_ROUNDS = 2


@dataclass
class KeywordTable:
    """One keyword's offline sample table and the statistics the θ bounds
    and query planner (Eqn. 11) need at query time.

    ``rr_sets`` is the keyword's θ_w RR sets as the model's sampler
    returned them: one :class:`~repro.utils.rrsets.FlatRRSets`, which the
    index writers (``invert_csr``, ``partition_keyword``, the record
    encoders) read as-is.
    """

    name: str
    topic_id: int
    theta: int
    tf_sum: float
    idf: float
    phi_w: float
    opt_lower_bound: float
    rr_sets: FlatRRSets

    @property
    def mean_rr_size(self) -> float:
        """Average RR-set cardinality (Table 5)."""
        return mean_rr_set_size(self.rr_sets)


def sample_keyword_tables(
    model: PropagationModel,
    profiles: ProfileStore,
    *,
    keywords: Optional[Sequence] = None,
    policy: Optional[ThetaPolicy] = None,
    use_theta_hat: bool = False,
    workers: int = 1,
    rng: RngLike = None,
) -> Dict[str, KeywordTable]:
    """Run Algorithm 1's sampling loop for every indexable keyword.

    Parameters
    ----------
    model:
        Propagation model over the social graph.
    profiles:
        tf-idf store; keywords with no relevant user are skipped (they can
        never be queried meaningfully).
    keywords:
        Restrict to these topics (names or ids); default: all topics.
    policy:
        θ policy; ``use_theta_hat`` selects Lemma 3's θ̂_w (the Table 3
        "θ̂_w" columns) instead of the improved Lemma 4 θ_w.
    workers:
        Number of sampling processes (the paper builds with 8 threads).
        Keywords are sharded across processes; each keyword draws from a
        seed derived *per keyword*, so any worker count — including the
        serial default — produces bit-identical tables.  Parallel builds
        ship the model to each process, so it must be picklable (IC and
        LT are).
    """
    policy = policy if policy is not None else ThetaPolicy()
    graph = model.graph
    if graph.n != profiles.n_users:
        raise IndexError_(
            f"graph has {graph.n} vertices but profiles cover "
            f"{profiles.n_users} users"
        )
    if workers < 1:
        raise IndexError_(f"workers must be >= 1, got {workers}")
    gen = as_rng(rng)
    topics = profiles.topics
    if keywords is None:
        topic_ids = list(range(topics.size))
    else:
        topic_ids = topics.ids(keywords)
    topic_ids = [t for t in topic_ids if profiles.df(t) > 0]
    if not topic_ids:
        raise IndexError_("no indexable keyword has any relevant user")

    # One derived seed per keyword, drawn up front in topic-id order, so
    # the result is invariant to the worker count and dispatch order.
    keyword_seeds = {
        topic_id: derive_seed(gen) for topic_id in sorted(topic_ids)
    }
    jobs = [
        _KeywordJob(
            topic_id=topic_id,
            seed=keyword_seeds[topic_id],
            use_theta_hat=use_theta_hat,
        )
        for topic_id in topic_ids
    ]

    if workers == 1:
        results = [
            _sample_one_keyword(model, profiles, policy, job) for job in jobs
        ]
    else:
        results = _sample_parallel(model, profiles, policy, jobs, workers)

    tables: Dict[str, KeywordTable] = {table.name: table for table in results}
    return tables


@dataclass(frozen=True)
class _KeywordJob:
    """Work order for sampling one keyword's table."""

    topic_id: int
    seed: int
    use_theta_hat: bool


def _sample_one_keyword(
    model: PropagationModel,
    profiles: ProfileStore,
    policy: ThetaPolicy,
    job: _KeywordJob,
) -> KeywordTable:
    """Estimate OPT, size θ_w, and sample one keyword's RR sets."""
    graph = model.graph
    topic_id = job.topic_id
    gen = as_rng(job.seed)
    users, probabilities = profiles.sampling_distribution(topic_id)
    tf_sum = profiles.tf_sum(topic_id)

    # tf-weighted per-user weights for the deterministic OPT floor.
    weights = np.zeros(graph.n, dtype=np.float64)
    weights[users] = profiles.users_of(topic_id)[1]

    opt_k = 1 if job.use_theta_hat else policy.effective_k_max(graph.n)
    estimate = estimate_opt_lower_bound(
        model,
        users,
        probabilities,
        tf_sum,
        weights,
        opt_k,
        epsilon=policy.epsilon,
        pilot_theta=_PILOT_THETA,
        max_rounds=_PILOT_ROUNDS,
        rng=gen,
    )
    if job.use_theta_hat:
        theta = policy.theta_hat_w(graph.n, tf_sum, estimate.lower_bound)
    else:
        theta = policy.theta_w(graph.n, tf_sum, estimate.lower_bound)

    roots = sample_weighted_roots(users, probabilities, theta, gen)
    rr_sets = model.sample_rr_sets(roots, gen)
    return KeywordTable(
        name=profiles.topics.name(topic_id),
        topic_id=topic_id,
        theta=theta,
        tf_sum=tf_sum,
        idf=profiles.idf(topic_id),
        phi_w=profiles.phi_w(topic_id),
        opt_lower_bound=estimate.lower_bound,
        rr_sets=rr_sets,
    )


# Per-process globals for the worker pool: shipping (model, profiles,
# policy) once per process instead of once per keyword.
_WORKER_STATE: dict = {}


def _init_worker(model, profiles, policy) -> None:  # pragma: no cover - subprocess
    _WORKER_STATE["args"] = (model, profiles, policy)


def _run_job(job: "_KeywordJob") -> KeywordTable:  # pragma: no cover - subprocess
    model, profiles, policy = _WORKER_STATE["args"]
    return _sample_one_keyword(model, profiles, policy, job)


def _sample_parallel(
    model: PropagationModel,
    profiles: ProfileStore,
    policy: ThetaPolicy,
    jobs,
    workers: int,
):
    """Shard keyword jobs over a process pool (the paper's 8-thread build)."""
    import pickle
    from concurrent.futures import ProcessPoolExecutor

    try:
        pickle.dumps(model)
    except Exception as exc:
        raise IndexError_(
            "parallel index construction requires a picklable propagation "
            f"model; {type(model).__name__} is not ({exc}). "
            "Use workers=1 for models that cannot be pickled."
        ) from exc

    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(model, profiles, policy),
    ) as pool:
        return list(pool.map(_run_job, jobs))
