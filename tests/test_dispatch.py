"""Routing and the pool's surface: one rule, one class, six arguments.

Every worker serves the same immutable index, so routing decides cache
locality only, never an answer.  ``tests/test_serving_model.py`` checks
the rule after every step of every trace (refs resolve first, keyword
order and load never move a query, warm lands where traffic goes, a
drained or degraded home fails fast); pinned here:

* **The rule, byte-for-byte** — ``crc32(smallest resolved name) %
  n_shards`` over UTF-8, pinned in tables so the mapping cannot drift.
* **One class, one rule, no switch** — ``SupervisedServerPool`` takes
  the six arguments a caller sets (supervision is module constants), and
  no routing policy exists, is accepted, is exported or shows in the
  snapshot.
"""

import dataclasses
import importlib
import inspect
import zlib

import pytest

import repro
import repro.core
from repro.core.process_pool import SupervisedServerPool, shard_of_keyword
from repro.core.server import SNAPSHOT_SCHEMA, PoolSnapshot

#: The owners of the default topic names, per shard count.
KEYWORDS = ("software", "journal", "music", "book", "sport", "car", "travel", "food")
PINNED_OWNERS = {
    2: dict(zip(KEYWORDS, (1, 1, 0, 1, 0, 1, 0, 1))),
    3: dict(zip(KEYWORDS, (2, 2, 2, 2, 2, 0, 0, 1))),
    4: dict(zip(KEYWORDS, (3, 1, 2, 1, 2, 1, 2, 3))),
    8: dict(zip(KEYWORDS, (7, 5, 2, 1, 2, 5, 6, 7))),
}


class TestRule:
    @pytest.mark.parametrize("n_shards", sorted(PINNED_OWNERS))
    def test_pinned_owners(self, n_shards):
        owners = {kw: shard_of_keyword(kw, n_shards) for kw in KEYWORDS}
        assert owners == PINNED_OWNERS[n_shards]

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4, 8])
    def test_crc32_of_the_utf8_name(self, n_shards):
        for kw in [f"kw-{i:03d}" for i in range(200)] + ["musique-é", "音楽"]:
            expected = zlib.crc32(kw.encode("utf-8")) % n_shards
            assert shard_of_keyword(kw, n_shards) == expected


class TestOneRuleNoSwitch:
    def test_constructor_takes_six_arguments(self):
        params = inspect.signature(SupervisedServerPool.__init__).parameters
        assert list(params) == [
            "self",
            "path",
            "n_workers",
            "cache_keywords",
            "start_method",
            "request_timeout",
            "max_inflight",
        ]

    def test_the_pool_is_one_class(self, served_paths):
        assert SupervisedServerPool.__mro__ == (SupervisedServerPool, object)
        for package in (repro, repro.core):
            pools = [name for name in package.__all__ if name.endswith("ServerPool")]
            assert pools == ["SupervisedServerPool"]
        # What the frozen bench/targets.py reads: ``pool.pool.pids``.
        with SupervisedServerPool(served_paths["rr"], n_workers=2) as pool:
            assert pool.pool is pool
            assert pool.pool.pids == [shard.pid for shard in pool.health().shards]

    def test_routing_policy_argument_is_rejected(self, served_paths):
        # rejected at the call, before any segment or process exists
        with pytest.raises(TypeError):
            SupervisedServerPool(served_paths["rr"], n_workers=2, dispatch="crc32")

    def test_policy_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.dispatch")

    @pytest.mark.parametrize("package", [repro, repro.core])
    def test_no_routing_policy_exports(self, package):
        exported = [name for name in package.__all__ if "dispatch" in name.lower()]
        assert exported == []
        assert all(hasattr(package, name) for name in package.__all__)

    def test_snapshot_carries_no_routing_gauges(self):
        fields = [field.name for field in dataclasses.fields(PoolSnapshot)]
        assert fields == ["health", "workers", "stats", "io"]
        assert SNAPSHOT_SCHEMA == 4
