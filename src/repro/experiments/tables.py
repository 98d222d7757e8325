"""Table experiments (Section 6, Tables 2-8).

Every ``run_table*`` function takes an :class:`ExperimentContext` and
returns a :class:`~repro.experiments.reporting.Table` whose rows mirror the
paper's layout; the first paragraph of its docstring is the paper's
claim.  Its ``check_table*`` returns the shape conditions the table fails
(``[]`` when it reproduces).  Absolute numbers differ (scaled datasets,
pure Python — see docs/ARCHITECTURE.md, "Substitutions"); the shapes are
what EXPERIMENTS.md reports.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import replace
from typing import Dict, List, Optional

import numpy as np

from repro.core.query import KBTIMQuery
from repro.core.theta import ThetaPolicy
from repro.core.wris import ris_query, wris_query
from repro.datasets.synthetic import Dataset
from repro.datasets.workload import make_workload
from repro.experiments.harness import ExperimentContext, _stable_salt
from repro.experiments.reporting import (
    FAMILIES,
    Table,
    along_families,
    failed_conditions,
    family_of,
    pairwise,
)
from repro.graph.stats import summarize
from repro.propagation.simulate import estimate_spread
from repro.storage.compression import Codec
from repro.utils.rng import optional_seed

__all__ = [
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_table6",
    "run_table7",
    "run_table8",
    "check_table2",
    "check_table3",
    "check_table4",
    "check_table5",
    "check_table6",
    "check_table7",
    "check_table8",
    "workload_queries",
]


def workload_queries(
    ctx: ExperimentContext,
    dataset: Dataset,
    *,
    length: Optional[int] = None,
    k: Optional[int] = None,
) -> List[KBTIMQuery]:
    """The context's deterministic query batch for one (dataset, point)."""
    scale = ctx.scale
    length = length if length is not None else scale.default_length
    k = k if k is not None else scale.default_k
    rng = optional_seed(scale.seed, _stable_salt((dataset.name, length, k)))
    workload = make_workload(
        dataset.profiles,
        length=length,
        k=k,
        n_queries=scale.queries_per_point,
        rng=rng,
    )
    return list(workload)


def _index_costs(ctx: ExperimentContext, ds: Dataset, variants) -> List[float]:
    """Sizes (KB) then build times (s) of ``(kind, build options)`` variants."""
    reports = [ctx.build_index(ds, kind=kind, **options) for kind, options in variants]
    return [r.file_bytes / 1024 for r in reports] + [r.seconds for r in reports]


# ----------------------------------------------------------------------
# Table 2: dataset statistics
# ----------------------------------------------------------------------
def run_table2(ctx: ExperimentContext) -> Table:
    """The evaluation runs on a news family and a Twitter family of graphs,
    each at four sizes with average degree falling as the graph grows.

    Dataset statistics of the scaled families (the paper's Table 2).
    """
    table = Table(
        "Table 2: dataset statistics (scaled families)",
        ("dataset", "#users", "#edges", "avg degree", "max in-deg"),
    )
    for ds in ctx.datasets():
        s = summarize(ds.graph)
        table.add_row(ds.name, s.n_users, s.n_edges, s.avg_degree, s.max_in_degree)
    table.add_note("paper: news 0.2M-1.4M users, twitter 10M-40M users")
    return table


def check_table2(table: Table) -> List[str]:
    """Every dataset non-empty; average degree falls as each family's graph
    grows."""
    conditions = along_families(table, by=1, value=3, grows=False)
    conditions["every dataset has users"] = all(v > 0 for v in table.column("#users"))
    return failed_conditions(conditions)


# ----------------------------------------------------------------------
# Table 3: theta-hat vs theta index cost (news family)
# ----------------------------------------------------------------------
#: Table 3's own θ policy: *uncapped*, since a cap would clamp both bound
#: variants to the same sample count and erase the contrast; ε is coarser
#: than the paper's 0.1 and K, the topic count and the news sizes smaller
#: so the uncapped θ̂_w stays pure-Python-sized.
TABLE3_POLICY = ThetaPolicy(epsilon=2.0, K=20, cap=None)


def run_table3(ctx: ExperimentContext) -> Table:
    """Indexes sampled to the loose θ̂_w bound (Lemma 3) are ~9-10x larger
    and proportionally slower to build than θ_w (Lemma 4) ones, on every
    news size.

    Disk space and build time of both variants, built in a context of its
    own with :data:`TABLE3_POLICY`, 8 topics and the first two news sizes
    of the campaign scale.
    """
    table = Table(
        "Table 3: index cost with theta_hat_w vs theta_w (news family)",
        (
            "dataset",
            "RR size θ̂ (KB)",
            "RR size θ (KB)",
            "IRR size θ̂ (KB)",
            "IRR size θ (KB)",
            "RR time θ̂ (s)",
            "RR time θ (s)",
            "IRR time θ̂ (s)",
            "IRR time θ (s)",
        ),
    )
    variants = [
        (kind, {"use_theta_hat": hat})
        for kind in ("rr", "irr")
        for hat in (True, False)
    ]
    scale = replace(
        ctx.scale, news_sizes=ctx.scale.news_sizes[:2], n_topics=8, policy=TABLE3_POLICY
    )
    with ExperimentContext(scale) as uncapped:
        for idx in scale.news_sizes:
            ds = uncapped.dataset("news", idx)
            table.add_row(ds.name, *_index_costs(uncapped, ds, variants))
    table.add_note(
        f"uncapped θ (epsilon={TABLE3_POLICY.epsilon}, K={TABLE3_POLICY.K}), "
        f"{scale.n_topics} topics"
    )
    return table


def check_table3(table: Table) -> List[str]:
    """θ̂_w RR indexes more than 2x larger and slower to build (paper: ~9x)."""
    return failed_conditions(
        {
            "θ̂_w RR index > 2x the θ_w one": pairwise(
                table, "RR size θ̂ (KB)", "RR size θ (KB)", lambda h, s: h > 2 * s
            ),
            "θ̂_w RR index slower to build": pairwise(
                table, "RR time θ̂ (s)", "RR time θ (s)", lambda h, s: h > s
            ),
        }
    )


# ----------------------------------------------------------------------
# Table 4: compressed vs uncompressed index cost
# ----------------------------------------------------------------------
def run_table4(ctx: ExperimentContext) -> Table:
    """FastPFOR-style compression cuts index size by ~50 % (news) and
    ~40 % (Twitter) at a comparable build time.

    Disk space and build time, RAW vs PFoR codec, both families.
    """
    table = Table(
        "Table 4: index cost, uncompressed vs compressed (theta_w)",
        (
            "dataset",
            "RR raw (KB)",
            "IRR raw (KB)",
            "RR pfor (KB)",
            "IRR pfor (KB)",
            "RR raw (s)",
            "IRR raw (s)",
            "RR pfor (s)",
            "IRR pfor (s)",
        ),
    )
    variants = [
        (kind, {"codec": codec})
        for codec in (Codec.RAW, Codec.PFOR)
        for kind in ("rr", "irr")
    ]
    for ds in ctx.datasets():
        table.add_row(ds.name, *_index_costs(ctx, ds, variants))
    return table


def check_table4(table: Table) -> List[str]:
    """PFoR saves at least 30 % of both indexes on every dataset."""
    return failed_conditions(
        {
            f"{kind} pfor < 0.7 x raw": pairwise(
                table, f"{kind} pfor (KB)", f"{kind} raw (KB)", lambda p, r: p < 0.7 * r
            )
            for kind in ("RR", "IRR")
        }
    )


# ----------------------------------------------------------------------
# Table 5: sum of theta_w and mean RR-set size vs graph size
# ----------------------------------------------------------------------
def run_table5(ctx: ExperimentContext) -> Table:
    """As the graph grows, Σθ_w grows (the bounds scale with ln |V|) while
    the mean RR-set size falls (the larger graphs are sparser).

    Σθ_w is Lemma 4's bound without the θ cap, from each keyword's own
    OPT^w_K estimate: the indexes sample at most the cap per keyword,
    which would flatten the sum.
    """
    table = Table(
        "Table 5: sum of theta_w and mean RR-set size vs graph size",
        ("dataset", "|V|", "sum theta_w (uncapped)", "mean RR size"),
    )
    uncapped = replace(ctx.scale.policy, cap=None)
    for ds in ctx.datasets():
        tables = ctx.keyword_tables(ds).values()
        thetas = [
            uncapped.theta_w(ds.graph.n, t.tf_sum, t.opt_lower_bound) for t in tables
        ]
        n_sets = sum(len(t.rr_sets) for t in tables)
        total_size = sum(t.rr_sets.total_size for t in tables)
        table.add_row(
            ds.name, ds.graph.n, sum(thetas), total_size / n_sets if n_sets else 0.0
        )
    table.add_note(
        f"the indexes sample min(theta_w, {ctx.scale.policy.cap}) RR sets per keyword"
    )
    return table


def check_table5(table: Table) -> List[str]:
    """Positive Σθ_w and RR sizes; along each family Σθ_w grows and the
    mean RR size falls."""
    conditions = along_families(table, by=1, value=2, grows=True)
    conditions.update(along_families(table, by=1, value=3, grows=False))
    for column in ("sum theta_w (uncapped)", "mean RR size"):
        conditions[f"every {column} > 0"] = all(v > 0 for v in table.column(column))
    return failed_conditions(conditions)


# ----------------------------------------------------------------------
# Table 6: IRR I/O count vs Q.k
# ----------------------------------------------------------------------
def run_table6(ctx: ExperimentContext) -> Table:
    """IRR's I/O count grows with the seed budget Q.k (6 -> 170 on news,
    8 -> 81 on Twitter for Q.k 10 -> 50): confirming more seeds loads more
    partitions before the NRA bound closes.

    Mean logical read calls per query on each family's default graph.
    """
    table = Table(
        "Table 6: number of I/Os for IRR when varying Q.k",
        ("dataset",) + tuple(f"k={k}" for k in ctx.scale.k_values),
    )
    for family in FAMILIES:
        ds = ctx.default_dataset(family)
        with ctx.open_irr(ds) as index:
            row = [ds.name]
            for k in ctx.scale.k_values:
                queries = workload_queries(ctx, ds, k=k)
                ios = [index.query(query).stats.io.read_calls for query in queries]
                row.append(float(np.mean(ios)))
            table.add_row(*row)
    return table


def check_table6(table: Table) -> List[str]:
    """IRR issues I/O at every Q.k, more at the largest than the smallest."""
    conditions = {
        f"{row[0]}: I/O grows with Q.k": row[-1] > row[1] for row in table.rows
    }
    conditions["every I/O count > 0"] = all(
        v > 0 for row in table.rows for v in row[1:]
    )
    return failed_conditions(conditions)


# ----------------------------------------------------------------------
# Table 7: influence spread parity across methods
# ----------------------------------------------------------------------
def run_table7(ctx: ExperimentContext) -> Table:
    """WRIS, RR(θ̂), RR and IRR return statistically indistinguishable
    influence at every Q.k: the indexes buy speed, not quality.

    Seed sets are evaluated by *independent* forward Monte-Carlo
    simulation (Eqn. 2) so the comparison does not reuse any method's own
    samples; RR(θ̂) runs on news only, as in the paper.
    """
    methods = ("WRIS", "RR(θ̂)", "RR", "IRR")
    table = Table(
        "Table 7: influence spread when varying Q.k", ("dataset", "Q.k") + methods
    )
    for family in FAMILIES:
        ds = ctx.default_dataset(family)
        with ExitStack() as stack:
            indexes = {
                "RR": stack.enter_context(ctx.open_rr(ds)),
                "IRR": stack.enter_context(ctx.open_irr(ds)),
            }
            if family == "news":
                indexes["RR(θ̂)"] = stack.enter_context(
                    ctx.open_rr(ds, use_theta_hat=True)
                )
            for k in ctx.scale.k_values:
                spreads: Dict[str, List[float]] = {}
                for qi, query in enumerate(workload_queries(ctx, ds, k=k)):
                    answers = {
                        "WRIS": wris_query(
                            ds.ic_model,
                            ds.profiles,
                            query,
                            policy=ctx.scale.policy,
                            rng=optional_seed(
                                ctx.scale.seed, _stable_salt((ds.name, k, qi))
                            ),
                        ),
                        **{m: index.query(query) for m, index in indexes.items()},
                    }
                    for method, answer in answers.items():
                        estimate = estimate_spread(
                            ds.ic_model,
                            answer.seeds,
                            n_samples=ctx.scale.mc_samples,
                            weights=ds.profiles.phi_vector(query.keywords),
                            rng=optional_seed(
                                ctx.scale.seed, _stable_salt((ds.name, k, qi, "mc"))
                            ),
                        )
                        spreads.setdefault(method, []).append(estimate.mean)
                table.add_row(ds.name, k, *(
                    float(np.mean(spreads[m])) if m in spreads else None
                    for m in methods
                ))
    return table


def check_table7(table: Table) -> List[str]:
    """RR ≡ IRR exactly; online WRIS within 35 % of the indexes."""
    return failed_conditions(
        {
            "IRR spread equals RR's (shared samples, Theorem 3)": pairwise(
                table, "IRR", "RR", lambda i, r: i == r
            ),
            "WRIS within 35 % of RR": pairwise(
                table, "WRIS", "RR", lambda w, r: abs(w - r) <= 0.35 * max(w, r, 1e-9)
            ),
        }
    )


# ----------------------------------------------------------------------
# Table 8: example query results (targeted vs untargeted)
# ----------------------------------------------------------------------
TABLE8_KEYWORDS = ("software", "journal")
TABLE8_TOP_N = 8


def run_table8(ctx: ExperimentContext) -> Table:
    """Targeted WRIS (IC and LT) surfaces keyword-relevant seeds;
    untargeted RIS returns one global seed set whatever the keyword.

    Seeds are labelled ``user<id>(<dominant topic>)`` so relevance is
    visible: targeted methods should surface seeds whose dominant topic
    matches the query keyword.
    """
    table = Table(
        "Table 8: example KB-TIM query results (top seeds)",
        ("dataset", "method", "keyword", "seeds"),
    )

    def label(ds: Dataset, user: int) -> str:
        topic_ids, tfs = ds.profiles.topics_of(user)
        if len(topic_ids) == 0:
            return f"user{user}(-)"
        dominant = int(topic_ids[int(np.argmax(tfs))])
        return f"user{user}({ds.topics.name(dominant)})"

    for family in FAMILIES:
        ds = ctx.default_dataset(family)
        for keyword in TABLE8_KEYWORDS:
            query = KBTIMQuery((keyword,), TABLE8_TOP_N)
            for method, model in (("WRIS(IC)", ds.ic_model), ("WRIS(LT)", ds.lt_model)):
                answer = wris_query(
                    model,
                    ds.profiles,
                    query,
                    policy=ctx.scale.policy,
                    rng=optional_seed(
                        ctx.scale.seed, _stable_salt((ds.name, method, keyword))
                    ),
                )
                seeds = " ".join(label(ds, s) for s in answer.seeds)
                table.add_row(ds.name, method, keyword, seeds)
        ris_answer = ris_query(
            ds.ic_model,
            TABLE8_TOP_N,
            policy=ctx.scale.policy,
            rng=optional_seed(ctx.scale.seed, _stable_salt((ds.name, "ris"))),
        )
        seeds = " ".join(label(ds, s) for s in ris_answer.seeds)
        table.add_row(ds.name, "RIS", "N.A.", seeds)
    return table


def check_table8(table: Table) -> List[str]:
    """One RIS row per family; per family and targeted model one row per
    keyword, and WRIS(IC)'s seed lists differ between keywords."""
    ris = sorted(family_of(r[0]) for r in table.rows if r[1] == "RIS")
    conditions = {
        "one RIS row per family": ris == list(FAMILIES),
        "8 targeted rows (2 families x 2 models x 2 keywords)": (
            len(table.rows) - len(ris) == 8
        ),
    }
    for family in FAMILIES:
        rows = [
            r for r in table.rows if family_of(r[0]) == family and r[1] == "WRIS(IC)"
        ]
        conditions[f"{family}: WRIS(IC) seeds differ between 2 keywords"] = (
            len({r[2] for r in rows}) == 2 and len({r[3] for r in rows}) == 2
        )
    return failed_conditions(conditions)
