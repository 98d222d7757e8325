"""Self-healing serving tier (repro.core.process_pool; PR 7, one class since PR 18).

``tests/test_serving_model.py`` checks supervision against a model
under random schedules and replays its scenarios as traces: a killed
worker heals on the next request with bit-identical answers, a crash
loop spends the restart budget into ``degraded`` while other shards
serve exactly, backoff gates a second restart (``retry_after``), a
worker that served ``_BUDGET_RESET_AFTER`` starts a new window, a
deadline miss poisons the pipe, admission sheds with a typed
:class:`OverloadedError`, and drain/restore rolls a shard.

Pinned here, where time, races or the file system are part of the
case: a worker reaped by another thread is restarted, not trusted (the
race behind the kill-midstream flake); a death no request saw is
named with its exit code (SIGKILL, SIGTERM or the worker's own exit)
in ``last_error``; the backoff is capped at ``_BACKOFF_MAX`` and ends
also after a death no request saw; the pool's default deadline fires;
batch traffic moves the retry-after hint; a missed deadline heals, and
``close()`` returns, without waiting out a polite join the poisoned
worker can never answer; workers exit when the parent is SIGKILLed,
and an interpreter that exits without ``close()`` leaves no process or
``/dev/shm`` name behind; an index truncated under a live pool gives
typed errors and degraded shards, not a hang or a dead pool.

Supervision is module constants (``_RESTART_BACKOFF``,
``_RESTART_BUDGET``, ``_MAX_RETRIES``); a test that needs another value
monkeypatches it.
"""

import contextlib
import faulthandler
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest
from leaks import kbtim_shm_entries

import repro
from repro.core import process_pool
from repro.core.chaos import ChaosController, FaultEvent, FaultPlan
from repro.core.process_pool import _BACKOFF_MAX, SupervisedServerPool
from repro.core.query import KBTIMQuery
from repro.core.rr_index import RRIndex
from repro.core.server import SHARD_DEGRADED, SHARD_READY
from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ReproError,
    ShardUnavailableError,
    StorageError,
)

NAMES = ("book", "car", "food", "journal", "music", "software", "sport", "travel")
QUERY = KBTIMQuery(("music",), 3)


@pytest.fixture(scope="module")
def setup(served_paths):
    return served_paths["rr"], served_paths["profiles"]


def _assert_same_selection(a, b):
    assert a.seeds == b.seeds
    assert a.marginal_coverages == b.marginal_coverages
    assert a.theta == b.theta
    assert a.phi_q == pytest.approx(b.phi_q)


def _kill_worker(pool: SupervisedServerPool, shard: int) -> None:
    """SIGKILL and reap one worker."""
    handle = pool._workers[shard]
    handle.process.kill()
    handle.process.join(timeout=10.0)


@pytest.mark.chaos
class TestSelfHealing:
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
        with SupervisedServerPool(path, n_workers=2) as pool:
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

    @pytest.mark.parametrize(
        "stop, code",
        [("kill", -signal.SIGKILL), ("terminate", -signal.SIGTERM), ("exit", 3)],
    )
    def test_an_idle_death_is_named_with_its_exit_code(self, setup, stop, code):
        """A worker that dies while no request is in flight is diagnosed
        by the request that heals its shard: ``last_error`` carries the
        exit code, however the process ended."""
        path, _profiles = setup
        with SupervisedServerPool(path, n_workers=2) as pool:
            shard = pool.shard_of(QUERY)
            handle = pool._workers[shard]
            if stop == "exit":  # the worker ends itself
                handle.conn.send(("_chaos", ("exit", code)))
            else:
                getattr(handle.process, stop)()
            handle.process.join(timeout=10.0)
            assert pool.query(QUERY).seeds
            health = pool.health().shards[shard]
            assert (health.state, health.restarts) == (SHARD_READY, 1)
            assert health.last_error.startswith(f"ServerError: server worker {shard} ")
            assert f"died unexpectedly (exit code {code})" in health.last_error

@pytest.mark.chaos
class TestDegradedMode:
    def test_backoff_is_capped(self, setup, monkeypatch):
        """However long ``_RESTART_BACKOFF`` asks for, a restart waits at
        most ``_BACKOFF_MAX`` seconds after the shard's latest failure."""
        monkeypatch.setattr(process_pool, "_RESTART_BACKOFF", 1000.0)
        path, _profiles = setup
        query = KBTIMQuery(("music",), 3)
        with SupervisedServerPool(path, n_workers=3) as pool:
            shard = pool.shard_of(query)
            _kill_worker(pool, shard)
            assert pool.query(query).seeds  # first restart is immediate
            _kill_worker(pool, shard)
            with pytest.raises(ShardUnavailableError) as excinfo:
                pool.query(query)
            assert 0 < excinfo.value.retry_after <= _BACKOFF_MAX

@pytest.mark.chaos
class TestDeadlines:
    def test_pool_default_deadline(self, setup):
        path, _profiles = setup
        query = KBTIMQuery(("music",), 3)
        with SupervisedServerPool(path, n_workers=2, request_timeout=0.02) as pool:
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
    def test_batch_traffic_moves_the_retry_after_hint(self, setup):
        # A client that only sends batches still teaches the pool its
        # service time: the hint leaves its 5 ms seed after one batch.
        path, _profiles = setup
        query = KBTIMQuery(("music",), 3)
        with SupervisedServerPool(path, n_workers=2, max_inflight=1) as pool:
            started = time.perf_counter()
            assert pool.query_batch([query])
            spent = time.perf_counter() - started
            with pytest.raises(OverloadedError) as excinfo:
                pool.query_batch([query, query])
            hint = excinfo.value.retry_after
            assert hint != 0.005
            assert 1e-3 <= hint <= 0.8 * 0.005 + 0.2 * spent

class TestLifecycleAndValidation:
    def test_the_pool_is_one_class(self, setup):
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
            SupervisedServerPool(path, n_workers=0)
        with pytest.raises(ValueError):
            SupervisedServerPool(path, cache_keywords=0)
        with pytest.raises(ValueError):
            SupervisedServerPool(path, max_inflight=0)
        # Supervision and the buffer pool are module constants, not options.
        for removed in (
            "max_retries",
            "restart_budget",
            "restart_backoff",
            "pool_pages",
            "page_size",
        ):
            with pytest.raises(TypeError):
                SupervisedServerPool(path, **{removed: 1})

    def test_harness_opens_supervised_pool(self, tmp_path):
        from repro.experiments.harness import ExperimentContext, ExperimentScale

        with ExperimentContext(ExperimentScale.smoke(), workdir=str(tmp_path)) as ctx:
            ds = ctx.default_dataset("twitter")
            with ctx.open_server_pool(ds, n_workers=2, max_inflight=16) as pool:
                assert isinstance(pool, SupervisedServerPool)
                assert pool.health().max_inflight == 16
            with pytest.raises(TypeError):
                ctx.open_server_pool(ds, kind="thread")  # no pool-kind switch


@pytest.mark.chaos
def test_backoff_ends_is_capped_and_the_window_resets(served_paths, monkeypatch):
    """A second restart waits out its backoff, timed from when a death no
    request saw (the worker died idle) is noticed — such a shard once
    stayed ``restarting`` forever; the backoff is capped at ``_BACKOFF_MAX``;
    and a worker that served ``_BUDGET_RESET_AFTER`` starts a new window."""
    with SupervisedServerPool(served_paths["rr"], n_workers=2) as pool:
        shard = pool.shard_of(QUERY)
        record = pool._shards[shard]
        _kill_worker(pool, shard)
        assert pool.query(QUERY).seeds  # the first restart is immediate
        _kill_worker(pool, shard)
        with pytest.raises(ShardUnavailableError) as excinfo:
            pool.query(QUERY)
        assert 0 < excinfo.value.retry_after <= process_pool._RESTART_BACKOFF
        time.sleep(excinfo.value.retry_after + 0.01)
        assert pool.query(QUERY).seeds  # the backoff is over
        monkeypatch.setattr(process_pool, "_RESTART_BACKOFF", 1000.0)
        _kill_worker(pool, shard)
        with pytest.raises(ShardUnavailableError) as excinfo:
            pool.query(QUERY)
        assert 0 < excinfo.value.retry_after <= process_pool._BACKOFF_MAX
        assert record.restarts_in_window == 2
        record.started_at -= process_pool._BUDGET_RESET_AFTER + 1
        assert pool.query(QUERY).seeds  # a new window: restarted at once
        assert record.restarts_in_window == 1
        assert pool.health().shards[shard].state == SHARD_READY
        assert pool.health().restarts == 3


@pytest.mark.chaos
@pytest.mark.parametrize("kind", ["delay", "drop"])
def test_a_missed_deadline_heals_and_closes_without_a_stall(served_paths, kind):
    """Under ``fork`` a poisoned worker never sees EOF on its pipe (later
    siblings hold the parent's end), so a polite join only ever timed out:
    the next query to its shard took ~1 s and ``close()`` ~5 s.  The pool
    terminates a worker it did not ask to stop, so each takes < 0.5 s."""
    path = served_paths["rr"]
    with RRIndex(path) as index:
        want = index.query(QUERY)
    pool = SupervisedServerPool(path, n_workers=2, request_timeout=0.5)
    try:
        shard = pool.shard_of(QUERY)
        event = FaultEvent(kind, 0, shard=shard, seconds=5.0)
        chaos = ChaosController(FaultPlan(events=(event,)), pool)
        chaos.before_query(0)
        assert "poisoned" in chaos.fired[0]["effect"]
        started = time.perf_counter()
        got = pool.query(QUERY)
        assert time.perf_counter() - started < 0.5
        assert (got.seeds, got.theta) == (want.seeds, want.theta)
        # A second miss, on the pool's default deadline, before close().
        pool._workers[shard].conn.send(("_chaos", ("sleep", 5.0)))
        with pytest.raises(DeadlineExceededError):
            pool.query(QUERY)
        started = time.perf_counter()
    finally:
        pool.close()
    assert time.perf_counter() - started < 0.5


_PARENT = """
import sys, time
from repro.core.process_pool import SupervisedServerPool
pool = SupervisedServerPool(sys.argv[1], n_workers=2)
print(*pool.pids, flush=True)
time.sleep(60)
"""

#: A pool that answers on both shards, then the interpreter exits
#: without ``close()``.
_UNCLOSED = """
import sys
from repro.core.process_pool import SupervisedServerPool
from repro.core.query import KBTIMQuery
pool = SupervisedServerPool(sys.argv[1], n_workers=2)
pool.query(KBTIMQuery(("music",), 3))
pool.query_batch([KBTIMQuery((kw,), 3) for kw in ("book", "sport")])
pool.warm(["car", "travel"])
pool.snapshot()
print(*pool.pids, flush=True)
"""


def _child_env() -> dict:
    """The environment of a child interpreter that imports this ``repro``."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return dict(os.environ, PYTHONPATH=path)


def _exited(pid: int) -> bool:
    """Whether ``pid`` is gone or a zombie (no reaper in some containers)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.chaos
@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_workers_exit_when_the_parent_is_killed(served_paths):
    """A SIGKILLed parent runs no ``close()``: each worker notices the
    new parent pid within ``_PARENT_POLL`` and exits."""
    parent = subprocess.Popen(
        [sys.executable, "-c", _PARENT, served_paths["rr"]],
        stdout=subprocess.PIPE,
        env=_child_env(),
        text=True,
    )
    pids = []
    try:
        pids = [int(pid) for pid in parent.stdout.readline().split()]
        assert len(pids) == 2
        parent.kill()
        parent.wait()
        give_up = time.monotonic() + 5.0
        while time.monotonic() < give_up and not all(map(_exited, pids)):
            time.sleep(0.05)
        assert all(map(_exited, pids))
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.chaos
@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_an_unclosed_pool_leaves_nothing_at_exit(served_paths):
    """An interpreter that exits without closing its pool runs no
    ``close()``: multiprocessing ends the daemon workers at exit, and no
    process or ``/dev/shm`` name of the pool outlives the interpreter."""
    before = kbtim_shm_entries()
    child = subprocess.run(
        [sys.executable, "-c", _UNCLOSED, served_paths["rr"]],
        capture_output=True,
        env=_child_env(),
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    pids = [int(pid) for pid in child.stdout.split()]
    assert len(pids) == 2
    try:
        give_up = time.monotonic() + 5.0
        while time.monotonic() < give_up and not all(map(_exited, pids)):
            time.sleep(0.05)
        assert all(map(_exited, pids))
        assert kbtim_shm_entries() == before
    finally:
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.chaos
def test_an_index_truncated_under_a_live_pool_degrades_its_shards(
    served_paths, tmp_path, monkeypatch
):
    """Reading past the new end of the file kills the worker (SIGBUS on
    the mapping); its restart fails to open the file, and failed restarts
    spend the budget, so every shard ends degraded — with typed errors,
    no hang, and a pool that still reports its health."""
    monkeypatch.setattr(process_pool, "_RESTART_BACKOFF", 0.0)
    worker_main = process_pool._worker_main

    def quiet_worker(*args):
        faulthandler.disable()  # the SIGBUS is expected: no traceback dump
        worker_main(*args)

    monkeypatch.setattr(process_pool, "_worker_main", quiet_worker)
    path = tmp_path / "truncated.rr"
    shutil.copyfile(served_paths["rr"], path)
    with SupervisedServerPool(str(path), n_workers=2) as pool:
        assert pool.query(QUERY).seeds
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) // 3)
        errors = set()
        for _ in range(process_pool._RESTART_BUDGET + 2):
            for name in NAMES:
                try:
                    pool.query(KBTIMQuery((name,), 3))
                except ReproError as exc:
                    errors.add(type(exc))
        assert ShardUnavailableError in errors
        assert all(issubclass(e, (StorageError, ShardUnavailableError)) for e in errors)
        health = pool.health()
        assert [s.state for s in health.shards] == [SHARD_DEGRADED] * 2
        storage_errors = ("StorageError:", "CorruptIndexError:")
        assert all(s.last_error.startswith(storage_errors) for s in health.shards)
