"""Self-healing serving tier (repro.core.process_pool; PR 7, one class since PR 18).

Every robustness mechanism is pinned against *injected* faults, not
asserted:

* A killed worker is restarted transparently on the next request to its
  shard, and the answers stay bit-identical to an unfaulted run.
* A crash-looping shard exhausts its restart budget, enters ``degraded``
  and fails fast with a typed :class:`ShardUnavailableError` while every
  other shard keeps serving exactly; ``restore()`` brings it back.
* Exponential backoff gates repeated restarts (``retry_after`` carried
  in the typed error, capped), a long failure-free spell resets the
  restart window, deadlines bound the supervised round trip, and a
  deadline miss poisons the pipe so a late reply is never mis-delivered.
* Admission control sheds load with a typed :class:`OverloadedError`
  (retry-after hint) once the in-flight budget is full, and the
  shed/retry/restart counters land in merged :class:`ServerStats`.
"""

import os
import signal
import threading
import time

import pytest

from repro.core.process_pool import (
    _BACKOFF_MAX,
    _BUDGET_RESET_AFTER,
    SupervisedServerPool,
)
from repro.core.query import KBTIMQuery
from repro.core.rr_index import RRIndex, RRIndexBuilder
from repro.core.server import (
    SHARD_DEGRADED,
    SHARD_DRAINED,
    SHARD_READY,
    SHARD_RESTARTING,
)
from repro.core.theta import ThetaPolicy
from repro.datasets.workload import make_mixed_workload
from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ServerError,
    ShardUnavailableError,
)

KEYWORDS = ("music", "book", "journal", "car", "travel", "food", "software")


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    from repro.graph.generators import twitter_like
    from repro.profiles.generators import zipf_profiles
    from repro.profiles.topics import TopicSpace
    from repro.propagation.ic import IndependentCascade

    graph = twitter_like(300, avg_degree=8, rng=51)
    profiles = zipf_profiles(graph.n, TopicSpace.default(8), rng=52)
    model = IndependentCascade(graph)
    path = str(tmp_path_factory.mktemp("suppool") / "s.rr")
    RRIndexBuilder(
        model, profiles, policy=ThetaPolicy(epsilon=1.0, K=30, cap=200), rng=53
    ).build(path)
    return path, profiles


@pytest.fixture(scope="module")
def workload(setup):
    _path, profiles = setup
    return make_mixed_workload(
        profiles, n_queries=20, lengths=(1, 2, 3), ks=(3, 8), rng=54
    )


@pytest.fixture(scope="module")
def expected(setup, workload):
    path, _profiles = setup
    with RRIndex(path) as index:
        return [index.query(q) for q in workload]


def _assert_same_selection(a, b):
    assert a.seeds == b.seeds
    assert a.marginal_coverages == b.marginal_coverages
    assert a.theta == b.theta
    assert a.phi_q == pytest.approx(b.phi_q)


def _kill_worker(pool: SupervisedServerPool, shard: int, unnoticed=False) -> None:
    """SIGKILL and reap one worker; ``unnoticed`` hides the death from the
    next liveness probe, so it surfaces mid-request — the retry path, not
    the heal-before-dispatch path."""
    handle = pool._workers[shard]
    handle.process.kill()
    handle.process.join(timeout=10.0)
    if unnoticed:
        real_running, lie = handle._running, iter([True])
        handle._running = lambda: next(lie, False) or real_running()


def _other_shard_keyword(pool: SupervisedServerPool, shard: int) -> str:
    return next(
        kw
        for kw in KEYWORDS
        if pool.shard_of(KBTIMQuery((kw,), 1)) != shard
    )


@pytest.mark.chaos
class TestSelfHealing:
    def test_killed_worker_heals_transparently(self, setup):
        path, _profiles = setup
        query = KBTIMQuery(("music", "book"), 4)
        with RRIndex(path) as index:
            want = index.query(query)
        with SupervisedServerPool(
            path, n_workers=3, restart_backoff=0.0
        ) as pool:
            shard = pool.shard_of(query)
            _kill_worker(pool, shard)
            got = pool.query(query)  # heals in-line, no error surfaces
            _assert_same_selection(got, want)
            assert pool.health().shards[shard].state == SHARD_READY
            assert pool.stats.restarts == 1

    def test_heal_preserves_full_workload_answers(self, setup, workload, expected):
        """Kill every shard once mid-stream: every answer stays exact."""
        path, _profiles = setup
        kill_at = {5: 0, 11: 1, 17: 2}
        with SupervisedServerPool(
            path, n_workers=3, restart_backoff=0.0
        ) as pool:
            for pos, (query, want) in enumerate(zip(workload, expected)):
                if pos in kill_at:
                    _kill_worker(pool, kill_at[pos])
                _assert_same_selection(pool.query(query), want)
            # Touch every shard so any not-yet-queried victim heals too.
            for kw in KEYWORDS:
                assert pool.query(KBTIMQuery((kw,), 2)).seeds
            assert pool.stats.restarts >= 1
            assert pool.health().healthy

    def test_query_batch_heals_dead_shard(self, setup, workload, expected):
        path, _profiles = setup
        with SupervisedServerPool(
            path, n_workers=3, restart_backoff=0.0
        ) as pool:
            _kill_worker(pool, 0)
            _kill_worker(pool, 2)
            got = pool.query_batch(workload)
        for a, b in zip(got, expected):
            _assert_same_selection(a, b)

    def test_retry_after_death_mid_request(self, setup):
        """A worker that dies *during* a request is restarted and the
        idempotent query transparently retried once."""
        path, _profiles = setup
        query = KBTIMQuery(("music",), 3)
        with SupervisedServerPool(
            path, n_workers=2, restart_backoff=0.0
        ) as pool:
            _kill_worker(pool, pool.shard_of(query), unnoticed=True)
            got = pool.query(query)
            assert got.seeds
            stats = pool.stats
            assert stats.retries == 1
            assert stats.restarts == 1

    def test_retry_heals_a_worker_another_thread_reaped(self, setup):
        """The kill-midstream race, forced.  Two threads notice one dead
        worker: one ``join`` reaps it with ``waitpid`` but has not yet
        stored the exit code when the other asks for liveness.  In that
        window ``Process.is_alive()`` gets ``ECHILD`` and reports the dead
        worker alive, so a pool that trusted it sent the query (and its
        retry) down the dead pipe and failed it.  The pool must restart
        the shard and answer."""
        path, _profiles = setup
        query = KBTIMQuery(("music",), 3)
        with RRIndex(path) as index:
            want = index.query(query)
        with SupervisedServerPool(path, n_workers=2, restart_backoff=0.0) as pool:
            process = pool._workers[pool.shard_of(query)].process
            process.kill()
            os.waitpid(process.pid, 0)  # the reaping thread's waitpid ...
            try:
                assert process.is_alive()  # ... opens the window
                got = pool.query(query)
            finally:
                process._popen.returncode = -signal.SIGKILL  # ... and closes it
            _assert_same_selection(got, want)
            assert (pool.stats.restarts, pool.stats.retries) == (1, 0)

    def test_retry_budget_exhausts_to_server_error(self, setup):
        path, _profiles = setup
        query = KBTIMQuery(("music",), 3)
        with SupervisedServerPool(
            path, n_workers=2, restart_backoff=0.0, max_retries=0
        ) as pool:
            _kill_worker(pool, pool.shard_of(query), unnoticed=True)
            with pytest.raises(ServerError, match="died"):
                pool.query(query)


@pytest.mark.chaos
class TestDegradedMode:
    def test_crash_loop_exhausts_budget_into_degraded(self, setup):
        path, _profiles = setup
        query = KBTIMQuery(("music",), 3)
        with SupervisedServerPool(
            path, n_workers=3, restart_backoff=0.0, restart_budget=2
        ) as pool:
            shard = pool.shard_of(query)
            for _ in range(2):  # two kills consume the whole budget
                _kill_worker(pool, shard)
                assert pool.query(query).seeds
            _kill_worker(pool, shard)
            started = time.perf_counter()
            with pytest.raises(ShardUnavailableError) as excinfo:
                pool.query(query)
            elapsed = time.perf_counter() - started
            assert elapsed < 1.0  # fail fast, no restart attempt
            assert excinfo.value.shard == shard
            assert excinfo.value.retry_after is None  # operator action needed
            assert "degraded" in str(excinfo.value)
            assert pool.health().shards[shard].state == SHARD_DEGRADED

            # Healthy shards keep serving with *exact* I/O accounting.
            survivor = _other_shard_keyword(pool, shard)
            sq = KBTIMQuery((survivor,), 3)
            with RRIndex(path) as index:
                want = index.query(sq)
            got = pool.query(sq)
            _assert_same_selection(got, want)
            assert got.stats.io.read_calls == want.stats.io.read_calls

            # restore() is the operator's way back.
            pool.restore(shard)
            assert pool.query(query).seeds
            assert pool.health().shards[shard].state == SHARD_READY

    def test_backoff_window_carries_retry_after(self, setup):
        path, _profiles = setup
        query = KBTIMQuery(("music",), 3)
        with SupervisedServerPool(
            path, n_workers=3, restart_backoff=30.0, restart_budget=3
        ) as pool:
            shard = pool.shard_of(query)
            _kill_worker(pool, shard)
            assert pool.query(query).seeds  # first restart is immediate
            _kill_worker(pool, shard)
            with pytest.raises(ShardUnavailableError) as excinfo:
                pool.query(query)  # second restart gated by backoff
            assert excinfo.value.shard == shard
            assert 0 < excinfo.value.retry_after <= 30.0
            assert pool.health().shards[shard].state == SHARD_RESTARTING

    def test_backoff_is_capped(self, setup):
        """However long ``restart_backoff`` asks for, a restart waits at
        most ``_BACKOFF_MAX`` seconds after the shard's latest failure."""
        path, _profiles = setup
        query = KBTIMQuery(("music",), 3)
        with SupervisedServerPool(
            path, n_workers=3, restart_backoff=1000.0, restart_budget=3
        ) as pool:
            shard = pool.shard_of(query)
            _kill_worker(pool, shard)
            assert pool.query(query).seeds  # first restart is immediate
            _kill_worker(pool, shard)
            with pytest.raises(ShardUnavailableError) as excinfo:
                pool.query(query)
            assert 0 < excinfo.value.retry_after <= _BACKOFF_MAX

    def test_restart_window_resets_after_failure_free_service(self, setup):
        """A failure older than ``_BUDGET_RESET_AFTER`` no longer counts:
        the shard restarts instead of degrading on a spent budget."""
        path, _profiles = setup
        query = KBTIMQuery(("music",), 3)
        with SupervisedServerPool(
            path, n_workers=3, restart_backoff=0.0, restart_budget=1
        ) as pool:
            shard = pool.shard_of(query)
            record = pool._shards[shard]
            _kill_worker(pool, shard)
            assert pool.query(query).seeds  # spends the whole budget
            assert record.restarts_in_window == 1
            record.last_failure_at = time.monotonic() - _BUDGET_RESET_AFTER - 1.0
            _kill_worker(pool, shard)
            assert pool.query(query).seeds  # healed, not degraded
            assert record.restarts_in_window == 1
            assert pool.health().shards[shard].state == SHARD_READY
            assert pool.stats.restarts == 2

    def test_fanout_administers_healthy_shards_before_failing(self, setup):
        path, _profiles = setup
        with SupervisedServerPool(
            path, n_workers=3, restart_backoff=0.0, restart_budget=1
        ) as pool:
            victim = pool.shard_of(KBTIMQuery(("music",), 2))
            for _ in range(2):  # exhaust the budget -> degraded
                _kill_worker(pool, victim)
                try:
                    pool.query(KBTIMQuery(("music",), 2))
                except ShardUnavailableError:
                    pass
            assert pool.health().shards[victim].state == SHARD_DEGRADED
            survivor = _other_shard_keyword(pool, victim)
            with pytest.raises(ShardUnavailableError) as excinfo:
                pool.warm(["music", survivor])
            assert excinfo.value.shard == victim
            # The surviving shard was still warmed before the raise.
            live = pool.shard_of(KBTIMQuery((survivor,), 2))
            part = pool.snapshot().workers[live]
            assert part is not None and part.stats.warm_loads == 1


@pytest.mark.chaos
class TestDeadlines:
    def test_deadline_miss_poisons_then_heals(self, setup):
        path, _profiles = setup
        query = KBTIMQuery(("music",), 3)
        with RRIndex(path) as index:
            want = index.query(query)
        with SupervisedServerPool(
            path, n_workers=2, restart_backoff=0.0
        ) as pool:
            shard = pool.shard_of(query)
            handle = pool._workers[shard]
            # Occupy the worker for 0.6s (raw send: the framing this
            # breaks is exactly what the poisoning must contain), then
            # query with a 0.05s deadline.
            handle.conn.send(("_chaos", ("sleep", 0.6)))
            with pytest.raises(DeadlineExceededError):
                pool.query(query, timeout=0.05)
            assert handle.poisoned
            # The late reply is discarded by the restart: the next query
            # heals the shard and gets *its own* (correct) answer.
            time.sleep(0.7)
            got = pool.query(query)
            _assert_same_selection(got, want)
            assert pool.stats.restarts == 1

    def test_pool_default_deadline(self, setup):
        path, _profiles = setup
        query = KBTIMQuery(("music",), 3)
        with SupervisedServerPool(
            path, n_workers=2, restart_backoff=0.0, request_timeout=0.02
        ) as pool:
            shard = pool.shard_of(query)
            handle = pool._workers[shard]
            # Occupy the worker so the default deadline fires.
            handle.conn.send(("_chaos", ("sleep", 0.5)))
            with pytest.raises(DeadlineExceededError):
                pool.query(query)
            time.sleep(0.6)
            assert pool.query(query, timeout=30.0).seeds  # healed


@pytest.mark.chaos
class TestAdmissionControl:
    def test_exhausted_budget_sheds_with_retry_after(self, setup):
        path, _profiles = setup
        query = KBTIMQuery(("music",), 3)
        with SupervisedServerPool(path, n_workers=2) as pool:
            pool.inject_admission_exhaustion(0.4)
            with pytest.raises(OverloadedError) as excinfo:
                pool.query(query)
            assert 0 < excinfo.value.retry_after <= 0.4
            assert pool.stats.sheds == 1
            assert pool.health().sheds == 1
            time.sleep(0.5)
            assert pool.query(query).seeds  # capacity is back

    def test_inflight_limit_sheds_excess_load(self, setup):
        path, _profiles = setup
        query = KBTIMQuery(("music",), 3)
        with SupervisedServerPool(path, n_workers=2, max_inflight=1) as pool:
            shard = pool.shard_of(query)
            handle = pool._workers[shard]
            errors = []

            # A framed chaos request holds the shard's pipe for 0.6s...
            sleeper = threading.Thread(
                target=lambda: handle.request("_chaos", ("sleep", 0.6))
            )
            sleeper.start()
            time.sleep(0.1)

            def occupied():
                # ...so this admitted query queues behind it, pinning
                # the in-flight gauge at the budget.
                try:
                    pool.query(query)
                except OverloadedError as exc:  # pragma: no cover
                    errors.append(exc)

            thread = threading.Thread(target=occupied)
            thread.start()
            time.sleep(0.1)
            with pytest.raises(OverloadedError) as excinfo:
                pool.query(query)
            assert excinfo.value.retry_after > 0
            sleeper.join()
            thread.join()
            assert not errors  # the admitted query completed normally
            assert pool.stats.sheds == 1

    def test_batch_admission_is_all_or_nothing(self, setup, workload):
        path, _profiles = setup
        with SupervisedServerPool(path, n_workers=2, max_inflight=5) as pool:
            with pytest.raises(OverloadedError):
                pool.query_batch(workload)  # 20 queries > budget of 5
            assert pool.query_batch(list(workload)[:5])  # fits


class TestRollingRestart:
    def test_drain_restore_cycle(self, setup):
        path, _profiles = setup
        query = KBTIMQuery(("music",), 3)
        with SupervisedServerPool(path, n_workers=3) as pool:
            shard = pool.shard_of(query)
            old_pid = pool._workers[shard].pid
            pool.drain(shard)
            pool.drain(shard)  # idempotent
            assert pool.health().shards[shard].state == SHARD_DRAINED
            with pytest.raises(ShardUnavailableError) as excinfo:
                pool.query(query)
            assert excinfo.value.shard == shard
            assert excinfo.value.retry_after is None
            # Other shards unaffected mid-drain.
            survivor = _other_shard_keyword(pool, shard)
            assert pool.query(KBTIMQuery((survivor,), 2)).seeds
            pool.restore(shard)
            assert pool.health().shards[shard].state == SHARD_READY
            assert pool._workers[shard].pid != old_pid  # fresh worker
            assert pool.query(query).seeds

    def test_health_snapshot_shape(self, setup):
        path, _profiles = setup
        with SupervisedServerPool(path, n_workers=2, max_inflight=8) as pool:
            health = pool.health()
            assert health.healthy
            assert health.available_shards == 2
            assert health.inflight == 0
            assert health.max_inflight == 8
            doc = health.to_dict()
            assert doc["healthy"] is True
            assert len(doc["shards"]) == 2
            for row in doc["shards"]:
                assert row["state"] == SHARD_READY
                assert row["alive"] is True
                assert row["restarts"] == 0
                assert row["last_error"] is None


@pytest.mark.chaos
class TestRendezvousDispatchSupervision:
    """Supervision availability feeds the dispatcher's candidate set.

    Under ``dispatch="rendezvous"`` a drained or degraded shard drops
    out of rotation and its keywords redistribute to the survivors —
    no typed error surfaces to well-behaved traffic, and the answers
    (plus per-query I/O) stay exactly what a single-node index serves.
    """

    def test_degraded_shard_leaves_rotation_survivors_exact(self, setup):
        path, _profiles = setup
        probe = KBTIMQuery((KEYWORDS[0],), 3)
        with SupervisedServerPool(
            path,
            n_workers=3,
            dispatch="rendezvous",
            restart_backoff=0.0,
            restart_budget=1,
        ) as pool:
            # Crash-loop whichever shard currently serves the probe until
            # one of them exhausts its restart budget and degrades.  Each
            # kill lands on the routed shard (peek == route on a quiet
            # pool), so every iteration either heals or degrades it.
            victim = None
            for _ in range(8):
                shard = pool.shard_of(probe)
                _kill_worker(pool, shard)
                try:
                    pool.query(probe)
                except ShardUnavailableError as exc:
                    victim = exc.shard
                    break
            assert victim is not None
            assert pool.health().shards[victim].state == SHARD_DEGRADED

            # The dispatcher stops selecting the degraded shard...
            for kw in KEYWORDS:
                assert pool.shard_of(KBTIMQuery((kw,), 3)) != victim

            # ...and the full keyword space keeps serving on the
            # survivors with bit-identical answers.  Keywords the crash
            # loop never touched are cold everywhere, so their per-query
            # I/O must match a fresh single-node index read for read.
            for kw in KEYWORDS:
                q = KBTIMQuery((kw,), 3)
                got = pool.query(q)
                with RRIndex(path) as index:
                    want = index.query(q)
                _assert_same_selection(got, want)
                if kw != KEYWORDS[0]:
                    assert got.stats.io.read_calls == want.stats.io.read_calls

            # restore() returns the shard to the candidate set.
            pool.restore(victim)
            assert pool.health().shards[victim].state == SHARD_READY
            assert pool.query(probe).seeds

    def test_drained_shard_gets_no_traffic_until_restored(self, setup):
        path, _profiles = setup
        with SupervisedServerPool(
            path, n_workers=3, dispatch="rendezvous", restart_backoff=0.0
        ) as pool:
            idle_home = {
                kw: pool.shard_of(KBTIMQuery((kw,), 3)) for kw in KEYWORDS
            }
            victim = idle_home[KEYWORDS[0]]
            owned = [kw for kw, s in idle_home.items() if s == victim]
            assert owned  # the idle mapping must give the victim keywords

            pool.drain(victim)
            assert pool.health().shards[victim].state == SHARD_DRAINED
            # Every query redistributes to the survivors and serves.
            for kw in KEYWORDS:
                assert pool.shard_of(KBTIMQuery((kw,), 3)) != victim
                assert pool.query(KBTIMQuery((kw,), 3)).seeds
            drained = pool.snapshot()
            assert drained.workers[victim] is None  # shut down, idle
            assert drained.stats.queries == len(KEYWORDS)  # the merge skips the hole

            pool.restore(victim)
            assert pool.health().shards[victim].state == SHARD_READY
            # The restored shard wins its old keywords straight back (its
            # fresh worker carries no latency penalty, so its rendezvous
            # scores only improved relative to the idle mapping)...
            for kw in owned:
                assert pool.shard_of(KBTIMQuery((kw,), 3)) == victim
            # ...and traffic actually reaches it again.
            assert pool.query(KBTIMQuery((owned[0],), 3)).seeds
            part = pool.snapshot().workers[victim]
            assert part is not None and part.stats.queries == 1


class TestObservability:
    def test_stats_merge_worker_and_supervision_counters(self, setup, workload):
        path, _profiles = setup
        with SupervisedServerPool(path, n_workers=3) as pool:
            for query in workload:
                pool.query(query)
            stats = pool.stats
            assert stats.queries == len(workload)
            assert stats.restarts == 0
            assert stats.sheds == 0
            assert stats.mean_latency > 0


class TestLifecycleAndValidation:
    def test_close_is_idempotent_and_fails_fast_after(self, setup):
        path, _profiles = setup
        pool = SupervisedServerPool(path, n_workers=2)
        with pool:
            assert pool.query(KBTIMQuery(("music",), 2)).seeds
        pool.close()
        with pytest.raises(ServerError):
            pool.query(KBTIMQuery(("music",), 2))
        with pytest.raises(ServerError):
            pool.health()
        pool.close()

    def test_the_pool_is_one_class(self, setup):
        import repro
        import repro.core

        assert SupervisedServerPool.__mro__ == (SupervisedServerPool, object)
        for package in (repro, repro.core):
            pools = [name for name in package.__all__ if name.endswith("ServerPool")]
            assert pools == ["SupervisedServerPool"]
        path, _profiles = setup
        with SupervisedServerPool(path, n_workers=2, request_timeout=7.5) as pool:
            assert pool.pool is pool and not hasattr(pool, "_pool")
            # One deadline: admin fan-outs and snapshot reads are bounded by it too.
            assert pool.request_timeout == 7.5
            snapshot = pool.snapshot()
            assert [part.cached_keywords for part in snapshot.workers] == [(), ()]
            assert snapshot.health.rss_bytes > 0

    def test_knob_validation(self, setup):
        path, _profiles = setup
        with pytest.raises(ValueError):
            SupervisedServerPool(path, max_retries=-1)
        with pytest.raises(ValueError):
            SupervisedServerPool(path, restart_budget=0)
        with pytest.raises(ValueError):
            SupervisedServerPool(path, restart_backoff=-1.0)
        with pytest.raises(ValueError):
            SupervisedServerPool(path, max_inflight=0)

    def test_harness_opens_supervised_pool(self, tmp_path):
        from repro.experiments.harness import ExperimentContext, ExperimentScale

        with ExperimentContext(ExperimentScale.smoke(), workdir=str(tmp_path)) as ctx:
            ds = ctx.default_dataset("twitter")
            with ctx.open_server_pool(ds, n_workers=2, max_inflight=16) as pool:
                assert isinstance(pool, SupervisedServerPool)
                assert pool.health().max_inflight == 16
            with pytest.raises(TypeError):
                ctx.open_server_pool(ds, kind="thread")  # no pool-kind switch
