"""Shared experiment plumbing: scales, dataset/index caching.

The paper's evaluation re-uses the same datasets and indexes across many
measurements; :class:`ExperimentContext` mirrors that by memoising

* generated datasets per ``(family, size_index)``,
* per-keyword sample tables per dataset (and θ variant),
* built index files per ``(dataset, format, codec, θ variant)``

inside one working directory, so a bench sweep pays each expensive build
exactly once — like the paper's offline phase.

:class:`ExperimentScale` bundles every knob that trades fidelity for
runtime.  ``smoke()`` keeps the whole evaluation to a few seconds for
tests and CI; ``default()`` is what EXPERIMENTS.md is written at.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
import zlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.core.irr_index import IRRIndex, IRRIndexBuilder
from repro.core.offline import KeywordTable
from repro.core.rr_index import BuildReport, RRIndex, RRIndexBuilder
from repro.core.theta import ThetaPolicy
from repro.datasets.synthetic import Dataset, news_dataset, twitter_dataset
from repro.storage.compression import Codec
from repro.utils.rng import optional_seed

__all__ = ["ExperimentScale", "ExperimentContext"]


def _stable_salt(key: object) -> int:
    """Process-independent salt (``hash()`` is randomised per process)."""
    return zlib.crc32(repr(key).encode("utf-8"))


@dataclass(frozen=True)
class ExperimentScale:
    """All knobs of one experiment campaign.

    See docs/ARCHITECTURE.md ("Substitutions") for why θ is capped: the
    cap is shared by every method, so comparisons stay fair while
    pure-Python runtimes stay interactive.
    """

    name: str
    news_sizes: Tuple[int, ...]
    twitter_sizes: Tuple[int, ...]
    n_topics: int
    policy: ThetaPolicy
    delta: int
    k_values: Tuple[int, ...]
    keyword_lengths: Tuple[int, ...]
    default_k: int
    default_length: int
    queries_per_point: int
    mc_samples: int
    seed: int = 810  # PVLDB 8(10)

    @staticmethod
    def smoke() -> "ExperimentScale":
        """Seconds-scale settings for tests and CI smoke runs.

        Two sizes per family, so the sweep shapes (Table 5, Figures 5-7)
        see a trend; the default scale's ε and online cap, because the
        Figures 5-7 shape (indexes beat online WRIS) only exists when
        WRIS pays its Theorem-2-sized sampling bill, while the offline
        cap keeps index builds smoke-sized.
        """
        return ExperimentScale(
            name="smoke",
            news_sizes=(0, 1),
            twitter_sizes=(0, 1),
            n_topics=8,
            policy=ThetaPolicy(epsilon=0.5, K=50, cap=400, online_cap=40_000),
            delta=32,
            k_values=(5, 10),
            keyword_lengths=(1, 2),
            default_k=5,
            default_length=2,
            queries_per_point=1,
            mc_samples=30,
        )

    @staticmethod
    def default() -> "ExperimentScale":
        """The benchmark-suite settings (paper-shaped, minutes overall)."""
        return ExperimentScale(
            name="default",
            news_sizes=(0, 1, 2, 3),
            twitter_sizes=(0, 1, 2, 3),
            n_topics=16,
            # cap bounds the offline per-keyword sampling budget; the
            # online methods sample their full Theorem-2 bound at query
            # time (that is the cost the indexes exist to remove), with
            # online_cap only as a runaway guard.
            policy=ThetaPolicy(epsilon=0.5, K=100, cap=1200, online_cap=40_000),
            delta=100,
            k_values=(10, 20, 30, 40, 50),
            keyword_lengths=(1, 2, 3, 4, 5, 6),
            default_k=30,
            default_length=5,
            queries_per_point=2,
            mc_samples=80,
        )


class ExperimentContext:
    """Memoising workspace for one experiment campaign."""

    def __init__(
        self,
        scale: Optional[ExperimentScale] = None,
        *,
        workdir: Optional[str] = None,
    ) -> None:
        self.scale = scale if scale is not None else ExperimentScale.default()
        self._owns_workdir = workdir is None
        self.workdir = workdir if workdir is not None else tempfile.mkdtemp(
            prefix="kbtim-exp-"
        )
        os.makedirs(self.workdir, exist_ok=True)
        self._datasets: Dict[Tuple[str, int], Dataset] = {}
        self._tables: Dict[Tuple[str, bool], Dict[str, KeywordTable]] = {}
        self._sampling_seconds: Dict[Tuple[str, bool], float] = {}
        self._builds: Dict[Tuple[str, str, int, bool], BuildReport] = {}

    # ------------------------------------------------------------------
    # datasets
    # ------------------------------------------------------------------
    def dataset(self, family: str, size_index: int) -> Dataset:
        """Generate (or fetch) one dataset of the family at a scale size."""
        key = (family, size_index)
        if key not in self._datasets:
            seed = optional_seed(self.scale.seed, _stable_salt(key))
            if family == "news":
                self._datasets[key] = news_dataset(
                    size_index, n_topics=self.scale.n_topics, seed=seed
                )
            elif family == "twitter":
                self._datasets[key] = twitter_dataset(
                    size_index, n_topics=self.scale.n_topics, seed=seed
                )
            else:
                raise ValueError(f"unknown dataset family {family!r}")
        return self._datasets[key]

    def datasets(self) -> List[Dataset]:
        """Every size of both families, news first (the paper's row order)."""
        return [self.dataset("news", i) for i in self.scale.news_sizes] + [
            self.dataset("twitter", i) for i in self.scale.twitter_sizes
        ]

    def default_dataset(self, family: str) -> Dataset:
        """The family's default size (index 0 for twitter, 1 for news —
        mirroring the paper's highlighted defaults t10M / n0.6M)."""
        if family == "twitter":
            return self.dataset("twitter", min(self.scale.twitter_sizes))
        return self.dataset(
            "news", self.scale.news_sizes[min(1, len(self.scale.news_sizes) - 1)]
        )

    # ------------------------------------------------------------------
    # sampling + index builds
    # ------------------------------------------------------------------
    def keyword_tables(
        self, dataset: Dataset, *, use_theta_hat: bool = False
    ) -> Dict[str, KeywordTable]:
        """Per-keyword offline sample tables (memoised per dataset)."""
        key = (dataset.name, use_theta_hat)
        if key not in self._tables:
            builder = RRIndexBuilder(
                dataset.ic_model,
                dataset.profiles,
                policy=self.scale.policy,
                use_theta_hat=use_theta_hat,
                rng=optional_seed(self.scale.seed, _stable_salt(key)),
            )
            started = time.perf_counter()
            self._tables[key] = builder.sample()
            self._sampling_seconds[key] = time.perf_counter() - started
        return self._tables[key]

    def index_path(
        self,
        dataset: Dataset,
        *,
        kind: str,
        codec: Codec = Codec.PFOR,
        use_theta_hat: bool = False,
    ) -> str:
        """File path for one built index variant."""
        suffix = "hat" if use_theta_hat else "std"
        return os.path.join(
            self.workdir,
            f"{dataset.name}-{kind}-{codec.name.lower()}-{suffix}.idx",
        )

    def build_index(
        self,
        dataset: Dataset,
        *,
        kind: str,
        codec: Codec = Codec.PFOR,
        use_theta_hat: bool = False,
    ) -> BuildReport:
        """Build (or fetch) one index variant; returns its build report."""
        key = (dataset.name, kind, codec.value, use_theta_hat)
        if key in self._builds:
            return self._builds[key]
        tables = self.keyword_tables(dataset, use_theta_hat=use_theta_hat)
        path = self.index_path(
            dataset, kind=kind, codec=codec, use_theta_hat=use_theta_hat
        )
        if kind == "rr":
            builder = RRIndexBuilder(
                dataset.ic_model,
                dataset.profiles,
                policy=self.scale.policy,
                codec=codec,
                use_theta_hat=use_theta_hat,
            )
        elif kind == "irr":
            builder = IRRIndexBuilder(
                dataset.ic_model,
                dataset.profiles,
                policy=self.scale.policy,
                codec=codec,
                use_theta_hat=use_theta_hat,
                delta=self.scale.delta,
            )
        else:
            raise ValueError(f"unknown index kind {kind!r}")
        report = builder.build(path, tables=tables)
        # Each index variant would pay its own sampling pass in a real
        # deployment (the paper's build times include it); fold the
        # memoised pass back into the report so Tables 3-4 are faithful.
        sampling = self._sampling_seconds.get((dataset.name, use_theta_hat), 0.0)
        report = replace(report, seconds=report.seconds + sampling)
        self._builds[key] = report
        return report

    def open_rr(
        self,
        dataset: Dataset,
        *,
        prefix_cache_keywords: Optional[int] = None,
        **kwargs,
    ) -> RRIndex:
        """Build-if-needed and open the RR index of ``dataset``.

        ``prefix_cache_keywords=0`` opens the reader with its decoded-
        block cache retaining nothing — required wherever the experiment
        measures *per-query* cold cost (the paper's figures), since the
        default cache would otherwise serve repeated keywords from memory.
        """
        self.build_index(dataset, kind="rr", **kwargs)
        reader_kwargs = {}
        if prefix_cache_keywords is not None:
            reader_kwargs["prefix_cache_keywords"] = prefix_cache_keywords
        return RRIndex(
            self.index_path(dataset, kind="rr", **kwargs), **reader_kwargs
        )

    def open_server_pool(
        self,
        dataset: Dataset,
        *,
        n_workers: int = 4,
        **pool_kwargs,
    ):
        """Build-if-needed and open the serving pool over the RR index.

        The serving-tier benchmarks (worker sweeps, replay runs) go
        through here so they share the memoised index build with every
        other experiment.  ``pool_kwargs`` pass through to
        :class:`~repro.core.process_pool.SupervisedServerPool`.
        """
        from repro.core.process_pool import SupervisedServerPool

        self.build_index(dataset, kind="rr")
        return SupervisedServerPool(
            self.index_path(dataset, kind="rr"), n_workers=n_workers, **pool_kwargs
        )

    def open_irr(
        self,
        dataset: Dataset,
        *,
        decode_cache_partitions: Optional[int] = None,
        **kwargs,
    ) -> IRRIndex:
        """Build-if-needed and open the IRR index of ``dataset``.

        ``decode_cache_partitions=0`` disables the decoded-partition
        memo — the IRR counterpart of ``open_rr``'s cache switch, for
        experiments measuring per-query cold cost.
        """
        self.build_index(dataset, kind="irr", **kwargs)
        reader_kwargs = {}
        if decode_cache_partitions is not None:
            reader_kwargs["decode_cache_partitions"] = decode_cache_partitions
        return IRRIndex(
            self.index_path(dataset, kind="irr", **kwargs), **reader_kwargs
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Remove the working directory if the context created it."""
        if self._owns_workdir and os.path.isdir(self.workdir):
            shutil.rmtree(self.workdir, ignore_errors=True)

    def __enter__(self) -> "ExperimentContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
