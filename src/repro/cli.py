"""Command-line interface: ``python -m repro <command>``.

The paper's system has a natural operational split — generate/ingest data,
build indexes offline, serve queries online — and this CLI exposes each
stage so the library can be driven without writing Python:

``generate``
    Create a synthetic dataset (graph + profiles) on disk.
``build-index``
    Run Algorithm 1/3 over a stored dataset into an ``.rr``/``.irr`` file.
``query``
    Answer one KB-TIM query from a stored index (Algorithm 2/4).
``inspect``
    Print an index's catalog (keywords, θ_w, sizes).
``verify``
    Integrity-check an index file (CRCs, catalog, records).
``experiment``
    Reproduce one or ``all`` of the paper's tables/figures at a chosen
    scale, as the markdown report EXPERIMENTS.md is written from.
``replay``
    Drive the serving pool (supervised worker processes) over a
    synthetic query stream and report throughput/latency.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from typing import List, Optional

from repro.core.catalog import FORMAT_VERSION, RR_FORMAT, open_index
from repro.core.irr_index import IRRIndexBuilder
from repro.core.query import KBTIMQuery
from repro.core.rr_index import RRIndexBuilder
from repro.core.theta import ThetaPolicy
from repro.errors import ReproError
from repro.graph.io import load_npz as load_graph_npz
from repro.graph.io import save_npz as save_graph_npz
from repro.profiles.io import load_profiles_npz, save_profiles_npz
from repro.propagation.ic import IndependentCascade
from repro.propagation.lt import LinearThreshold
from repro.storage.compression import Codec

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="KB-TIM: real-time targeted influence maximization (VLDB'15 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("--family", choices=("news", "twitter"), required=True)
    gen.add_argument("--n", type=int, required=True, help="number of users")
    gen.add_argument("--topics", type=int, default=16, help="topic-space size")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--graph-out", required=True, help="output graph .npz")
    gen.add_argument("--profiles-out", required=True, help="output profiles .npz")

    build = sub.add_parser("build-index", help="build an RR or IRR index")
    build.add_argument("--graph", required=True, help="graph .npz")
    build.add_argument("--profiles", required=True, help="profiles .npz")
    build.add_argument("--out", required=True, help="output index file")
    build.add_argument("--kind", choices=("rr", "irr"), default="rr")
    build.add_argument("--model", choices=("ic", "lt"), default="ic")
    build.add_argument("--epsilon", type=float, default=0.5)
    build.add_argument("--k-max", type=int, default=100, help="system K")
    build.add_argument("--cap", type=int, default=None, help="per-keyword theta cap")
    build.add_argument("--delta", type=int, default=100, help="IRR partition size")
    build.add_argument("--codec", choices=("raw", "pfor"), default="pfor")
    build.add_argument(
        "--theta-hat",
        action="store_true",
        help="use the loose Lemma 3 bound instead of Lemma 4",
    )
    build.add_argument("--seed", type=int, default=0)
    build.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel sampling processes (paper: 8 threads)",
    )

    query = sub.add_parser("query", help="answer a KB-TIM query from an index")
    query.add_argument("--index", required=True)
    query.add_argument(
        "--keywords", required=True, help="comma-separated topic names"
    )
    query.add_argument("--k", type=int, required=True, help="seed budget Q.k")
    query.add_argument("--json", action="store_true", help="machine-readable output")

    inspect = sub.add_parser("inspect", help="print an index catalog")
    inspect.add_argument("--index", required=True)

    verify = sub.add_parser("verify", help="integrity-check an index file")
    verify.add_argument("--index", required=True)
    verify.add_argument(
        "--shallow",
        action="store_true",
        help="skip the deep RR-set/inverted-list cross-check",
    )

    experiment = sub.add_parser(
        "experiment",
        help="reproduce the paper's tables/figures as a markdown report",
    )
    experiment.add_argument(
        "name", help="'all' or one name of repro.experiments.EXPERIMENTS"
    )
    experiment.add_argument("--scale", choices=("smoke", "default"), default="smoke")

    rep = sub.add_parser(
        "replay", help="replay a query stream against a serving pool"
    )
    rep.add_argument("--index", required=True, help="RR or IRR index file")
    rep.add_argument(
        "--profiles", required=True, help="profiles .npz (supplies the topic space)"
    )
    rep.add_argument(
        "--workers", type=int, default=4, help="worker processes (shards)"
    )
    rep.add_argument(
        "--threads", type=int, default=4, help="closed-loop client concurrency"
    )
    rep.add_argument("--n-queries", type=int, default=48, help="stream length")
    rep.add_argument(
        "--lengths", default="1,2,3", help="comma-separated |Q.T| candidates"
    )
    rep.add_argument("--ks", default="5,10", help="comma-separated Q.k candidates")
    rep.add_argument(
        "--rate",
        type=float,
        help="open-loop Poisson arrival rate in q/s (omit for closed loop)",
    )
    rep.add_argument(
        "--warm",
        action="store_true",
        help="pre-load every keyword of the stream before measuring",
    )
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument(
        "--timeout",
        type=float,
        help=(
            "per-request deadline in seconds: enforced by the pool, and "
            "used as the goodput SLA threshold in the report"
        ),
    )
    rep.add_argument(
        "--chaos",
        metavar="PLAN.JSON",
        help=(
            "inject faults from a FaultPlan JSON file during the replay "
            "(kill/delay/drop/exhaust/corrupt); failures are recorded per "
            "query instead of aborting"
        ),
    )
    rep.add_argument(
        "--max-inflight",
        type=int,
        help=(
            "admission-control budget: beyond this many in-flight "
            "requests the pool sheds load (Overloaded)"
        ),
    )
    rep.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def _policy_from_args(args: argparse.Namespace) -> ThetaPolicy:
    return ThetaPolicy(
        epsilon=args.epsilon,
        K=args.k_max,
        cap=args.cap,
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets.synthetic import news_dataset, twitter_dataset

    builder = news_dataset if args.family == "news" else twitter_dataset
    dataset = builder(n=args.n, n_topics=args.topics, seed=args.seed)
    save_graph_npz(dataset.graph, args.graph_out)
    save_profiles_npz(dataset.profiles, args.profiles_out)
    print(
        f"generated {dataset.name}: {dataset.graph.n} users, "
        f"{dataset.graph.m} edges, {dataset.topics.size} topics"
    )
    print(f"  graph    -> {args.graph_out}")
    print(f"  profiles -> {args.profiles_out}")
    return 0


def _cmd_build_index(args: argparse.Namespace) -> int:
    graph = load_graph_npz(args.graph)
    profiles = load_profiles_npz(args.profiles)
    model = (
        IndependentCascade(graph)
        if args.model == "ic"
        else LinearThreshold(graph, weight_rng=args.seed)
    )
    codec = Codec[args.codec.upper()]
    policy = _policy_from_args(args)
    if args.kind == "rr":
        builder = RRIndexBuilder(
            model,
            profiles,
            policy=policy,
            codec=codec,
            use_theta_hat=args.theta_hat,
            workers=args.workers,
            rng=args.seed,
        )
    else:
        builder = IRRIndexBuilder(
            model,
            profiles,
            policy=policy,
            codec=codec,
            use_theta_hat=args.theta_hat,
            delta=args.delta,
            workers=args.workers,
            rng=args.seed,
        )
    report = builder.build(args.out)
    print(
        f"built {args.kind} index at {report.path}: "
        f"{len(report.keywords)} keywords, {report.theta_total:,} RR sets, "
        f"{report.file_bytes / 1024:.1f} KB in {report.seconds:.2f}s"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    keywords = tuple(kw.strip() for kw in args.keywords.split(",") if kw.strip())
    query = KBTIMQuery(keywords, args.k)
    with open_index(args.index) as index:
        answer = index.query(query)
    if args.json:
        print(
            json.dumps(
                {
                    "seeds": list(answer.seeds),
                    "estimated_influence": answer.estimated_influence,
                    "theta": answer.theta,
                    "elapsed_seconds": answer.stats.elapsed_seconds,
                    "io_read_calls": answer.stats.io.read_calls,
                    "rr_sets_loaded": answer.stats.rr_sets_loaded,
                    "partitions_loaded": answer.stats.partitions_loaded,
                    "cache_hits": answer.stats.cache_hits,
                    "cache_misses": answer.stats.cache_misses,
                }
            )
        )
    else:
        print(f"seeds: {list(answer.seeds)}")
        print(f"estimated targeted influence: {answer.estimated_influence:.3f}")
        print(
            f"cost: {answer.stats.elapsed_seconds * 1e3:.1f} ms, "
            f"{answer.stats.io.read_calls} reads, "
            f"{answer.stats.rr_sets_loaded} RR sets loaded"
        )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    with open_index(args.index) as index:
        kind = "RR" if index.FORMAT == RR_FORMAT else "IRR"
        print(
            f"{kind} index (format v{FORMAT_VERSION}): "
            f"|V|={index.n_vertices}, K={index.K}, "
            f"epsilon={index.epsilon}, codec={index.codec.name}"
        )
        print(f"{'keyword':16} {'theta_w':>9} {'phi_w':>10} {'idf':>7}")
        for name in index.keywords():
            meta = index.catalog[name]
            print(
                f"{name:16} {meta.theta:9,} {meta.phi_w:10.3f} {meta.idf:7.3f}"
            )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro import experiments

    names = [e.name for e in experiments.EXPERIMENTS]
    if args.name != "all":
        if args.name not in names:
            raise ValueError(
                f"unknown experiment {args.name!r}; choose 'all' or one of "
                + ", ".join(names)
            )
        names = [args.name]
    scale = (
        experiments.ExperimentScale.smoke()
        if args.scale == "smoke"
        else experiments.ExperimentScale.default()
    )
    started = time.perf_counter()
    with experiments.ExperimentContext(scale) as ctx:
        results, exceptions = experiments.run_all(ctx, names)
    seconds = time.perf_counter() - started
    print(experiments.render_report(scale, results, exceptions, seconds), end="")
    for exc in exceptions.values():
        traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)
    failed = exceptions or any(conditions for _table, conditions in results.values())
    return 1 if failed else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.catalog import verify_index

    report = verify_index(args.index, deep=not args.shallow)
    print(report)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import os

    from repro.core.chaos import ChaosController, FaultPlan, corrupt_index_copy
    from repro.core.process_pool import SupervisedServerPool
    from repro.datasets.workload import (
        make_mixed_workload,
        poisson_arrivals,
        replay,
    )

    profiles = load_profiles_npz(args.profiles)
    lengths = tuple(int(v) for v in args.lengths.split(",") if v.strip())
    ks = tuple(int(v) for v in args.ks.split(",") if v.strip())
    queries = make_mixed_workload(
        profiles,
        n_queries=args.n_queries,
        lengths=lengths,
        ks=ks,
        rng=args.seed,
    )
    arrivals = (
        poisson_arrivals(len(queries), args.rate, rng=args.seed)
        if args.rate is not None
        else None
    )

    plan = FaultPlan.load(args.chaos) if args.chaos else None
    index_path = args.index
    corrupted_copy = None
    if plan is not None and plan.corrupt_events():
        # At-open fault: serve a deterministically corrupted *copy* so
        # the open fails with the typed CorruptIndexError (the original
        # file is never touched).
        corrupted_copy = args.index + ".chaos-corrupt"
        corrupt_index_copy(args.index, corrupted_copy, seed=args.seed)
        index_path = corrupted_copy

    try:
        with SupervisedServerPool(
            index_path,
            n_workers=args.workers,
            request_timeout=args.timeout,
            max_inflight=args.max_inflight,
        ) as pool:
            if args.warm:
                pool.warm(sorted({kw for q in queries for kw in q.keywords}))
            chaos = ChaosController(plan, pool) if plan is not None else None
            report = replay(
                pool,
                queries,
                threads=args.threads,
                arrivals=arrivals,
                deadline=args.timeout,
                chaos=chaos,
                tolerate_errors=(
                    True if (plan is not None or args.timeout) else None
                ),
            )
            snapshot = pool.snapshot()
    finally:
        if corrupted_copy is not None and os.path.exists(corrupted_copy):
            os.unlink(corrupted_copy)

    payload = {
        "workers": args.workers,
        "threads": args.threads,
        "mode": "open" if args.rate is not None else "closed",
        "queries": report.n_queries,
        "qps": report.qps,
        "p50_ms": report.percentile_latency(50) * 1e3,
        "p95_ms": report.percentile_latency(95) * 1e3,
        "p99_ms": report.percentile_latency(99) * 1e3,
        "p99_admitted_ms": report.percentile_latency(99, admitted_only=True)
        * 1e3,
        "mean_ms": report.mean_latency * 1e3,
        "deadline_s": args.timeout,
        "goodput": report.goodput,
        "goodput_qps": report.goodput_qps,
        "failed": report.n_failed,
        "fault_events": list(report.fault_events),
        # Everything the pool reports about itself (memory, cache hit
        # ratio, restarts / retries / sheds, per-shard state) has one
        # home: the pool's versioned snapshot document.
        "snapshot": snapshot.to_dict(),
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(
            f"{payload['mode']}-loop replay: {payload['queries']} queries on "
            f"{args.workers} workers, {args.threads} client threads"
        )
        print(
            f"  {payload['qps']:.1f} q/s; p50 {payload['p50_ms']:.2f} ms, "
            f"p95 {payload['p95_ms']:.2f} ms, p99 {payload['p99_ms']:.2f} ms"
        )
        health = snapshot.health
        print(f"  keyword-cache hit ratio: {snapshot.stats.hit_ratio:.2f}")
        print(f"  memory: {health.rss_bytes / 1e6:.1f} MB worker RSS")
        if plan is not None or args.timeout:
            print(
                f"  goodput {payload['goodput']}/{payload['queries']} "
                f"({payload['goodput_qps']:.1f} q/s); "
                f"{payload['failed']} failed, {report.sheds} shed, "
                f"{report.restarts} restarts, {report.retries} retries"
            )
        for event in report.fault_events:
            print(
                f"  fault @query {event['query']}: {event['kind']}"
                + (
                    f" shard {event['shard']}"
                    if event.get("shard") is not None
                    else ""
                )
                + f" -> {event['effect']}"
            )
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "build-index": _cmd_build_index,
    "query": _cmd_query,
    "inspect": _cmd_inspect,
    "verify": _cmd_verify,
    "experiment": _cmd_experiment,
    "replay": _cmd_replay,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError) as exc:
        # Argument-validation failures from the library layer (e.g.
        # `--workers 0` hitting check_positive_int) follow the same
        # clean one-line error contract as domain failures.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
