"""Deterministic fault injection (repro.core.chaos) and replays under it.

What each fault does to the pool — kill, delay, drop, exhaust, against
every shard state — is checked under random schedules by
``tests/test_serving_model.py``, which fires them through
:class:`ChaosController`.  Pinned here fault by fault:

* Plans are pure data: validation, JSON round-trip, seeded random
  generation, and ``corrupt_index_copy`` for the at-open fault.
* ``replay`` under a plan: a kill mid-stream heals with every answer
  bit-identical to an unfaulted run and no response segment left behind,
  and the report's restart / retry / shed counts are deltas of the
  pool's telemetry.
* Delay/drop faults poison the worker pipe (deadline miss) and the
  supervisor resynchronizes by restart — the late reply is never
  delivered to a later request.
* A crash-looping shard fails fast and typed while the other shards'
  answers and I/O accounting stay exact.
* An open-loop replay past saturation sheds explicitly (typed
  ``Overloaded`` failures, shed counters) instead of queueing without
  bound, and the goodput/percentile report reflects it.
* ``repro replay --chaos plan.json`` drives the same harness.
"""

import json
import os
import time

import pytest
from leaks import kbtim_shm_entries

from repro.cli import main
from repro.core import process_pool
from repro.core.chaos import (
    ChaosController,
    FaultEvent,
    FaultPlan,
    corrupt_index_copy,
)
from repro.core.process_pool import SupervisedServerPool
from repro.core.query import KBTIMQuery
from repro.core.rr_index import RRIndex
from repro.datasets.workload import make_mixed_workload, poisson_arrivals, replay
from repro.errors import CorruptIndexError
from repro.profiles.io import save_profiles_npz

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def setup(served_paths, tmp_path_factory):
    profiles = served_paths["profiles"]
    profiles_path = str(tmp_path_factory.mktemp("chaos") / "profiles.npz")
    save_profiles_npz(profiles, profiles_path)
    return served_paths["rr"], profiles, profiles_path


@pytest.fixture(scope="module")
def workload(setup):
    _path, profiles, _ppath = setup
    return make_mixed_workload(
        profiles, n_queries=20, lengths=(1, 2, 3), ks=(3, 8), rng=54
    )


@pytest.fixture(scope="module")
def expected(setup, workload):
    path, _profiles, _ppath = setup
    with RRIndex(path) as index:
        return [index.query(q) for q in workload]


def _assert_report_counters_are_snapshot_deltas(report, before, after):
    """``ReplayReport`` counts restarts / retries / sheds as deltas of
    the pool's one telemetry surface — both views of it agree."""
    for name in ("restarts", "retries", "sheds"):
        counted = getattr(report, name)
        assert counted == getattr(after.health, name) - getattr(before.health, name)
        assert counted == getattr(after.stats, name) - getattr(before.stats, name)


class TestFaultPlanData:
    def test_event_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("meteor", 0)
        with pytest.raises(ValueError, match="after_query"):
            FaultEvent("kill", -1, shard=0)
        with pytest.raises(ValueError, match="seconds"):
            FaultEvent("delay", 0, shard=0, seconds=-1.0)
        with pytest.raises(ValueError, match="requires a shard"):
            FaultEvent("kill", 0)
        FaultEvent("exhaust", 0, seconds=0.5)  # shard-free kinds are fine
        FaultEvent("corrupt", 0)

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            events=(
                FaultEvent("kill", 3, shard=1),
                FaultEvent("delay", 7, shard=0, seconds=0.25),
                FaultEvent("exhaust", 11, seconds=0.1),
                FaultEvent("corrupt", 0),
            ),
            seed=42,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan
        doc = json.loads(plan.to_json())  # stable, editable document
        assert doc["seed"] == 42
        kinds = [e["kind"] for e in doc["events"]]
        assert kinds == ["kill", "delay", "exhaust", "corrupt"]

    def test_from_json_rejects_malformed_documents(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(ValueError, match="'events'"):
            FaultPlan.from_json("[1, 2]")
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.from_json('{"events": [{"kind": "meteor", "after_query": 0}]}')

    def test_random_plans_are_seed_deterministic(self):
        a = FaultPlan.random(seed=9, n_queries=50, n_shards=4, n_events=6)
        b = FaultPlan.random(seed=9, n_queries=50, n_shards=4, n_events=6)
        c = FaultPlan.random(seed=10, n_queries=50, n_shards=4, n_events=6)
        assert a == b
        assert a != c
        assert a.seed == 9
        assert len(a.events) == 6
        for event in a.events:
            assert 0 <= event.after_query < 50
        with pytest.raises(ValueError):
            FaultPlan.random(seed=0, n_queries=0, n_shards=2)
        with pytest.raises(ValueError):
            FaultPlan.random(seed=0, n_queries=5, n_shards=2, kinds=("meteor",))

    def test_event_selectors(self):
        plan = FaultPlan(
            events=(
                FaultEvent("kill", 3, shard=1),
                FaultEvent("drop", 3, shard=0),
                FaultEvent("corrupt", 0),
            )
        )
        assert [e.kind for e in plan.events_at(3)] == ["kill", "drop"]
        assert plan.events_at(4) == []
        assert [e.kind for e in plan.corrupt_events()] == ["corrupt"]


class TestInjectedFaults:
    def test_kill_mid_stream_heals_bit_identical(self, setup, workload, expected):
        """The headline acceptance test: kill one worker mid-stream and
        every (non-in-flight) answer matches the unfaulted run."""
        path, _profiles, _ppath = setup
        with SupervisedServerPool(path, n_workers=3) as pool:
            victim = pool.shard_of(workload[10])  # guarantees a post-kill hit
            plan = FaultPlan(events=(FaultEvent("kill", 8, shard=victim),))
            before = pool.snapshot()
            report = replay(pool, workload, chaos=plan)
            after = pool.snapshot()
        _assert_report_counters_are_snapshot_deltas(report, before, after)
        assert after.health.shards[victim].restarts == 1
        assert report.n_failed == 0
        for got, want in zip(report.results, expected):
            assert got.seeds == want.seeds
            assert got.marginal_coverages == want.marginal_coverages
            assert got.theta == want.theta
        assert report.restarts == 1
        assert [e["kind"] for e in report.fault_events] == ["kill"]
        assert report.fault_events[0]["shard"] == victim
        assert "killed" in report.fault_events[0]["effect"]

    def test_kill_heals_and_leaks_no_response_segment(
        self, setup, workload, expected
    ):
        """Kill a worker mid-stream: the shard heals, answers match the
        unfaulted run, and closing the pool leaves no ``kbtim-resp-``
        segment in ``/dev/shm`` — the parent reaps the killed worker's
        response segment as well as its replacement's."""
        from repro.core.transport import transport_available

        if not transport_available():
            pytest.skip("POSIX shared memory unavailable")
        path, _profiles, _ppath = setup
        with SupervisedServerPool(path, n_workers=3) as pool:
            victim = pool.shard_of(workload[10])
            plan = FaultPlan(events=(FaultEvent("kill", 8, shard=victim),))
            report = replay(pool, workload, chaos=plan)
        assert report.n_failed == 0
        assert report.restarts == 1
        for got, want in zip(report.results, expected):
            assert got.seeds == want.seeds
            assert got.marginal_coverages == want.marginal_coverages
            assert got.theta == want.theta
        leftovers = [e for e in kbtim_shm_entries() if e.startswith("kbtim-resp-")]
        assert leftovers == []

    def test_delay_poisons_pipe_then_restart_resynchronizes(self, setup):
        path, _profiles, _ppath = setup
        query = KBTIMQuery(("music",), 3)
        with RRIndex(path) as index:
            want = index.query(query)
        with SupervisedServerPool(path, n_workers=2) as pool:
            shard = pool.shard_of(query)
            plan = FaultPlan(
                events=(FaultEvent("delay", 0, shard=shard, seconds=0.4),)
            )
            chaos = ChaosController(plan, pool)
            chaos.before_query(0)
            assert pool._workers[shard].poisoned
            assert "poisoned" in chaos.fired[0]["effect"]
            # The delayed (stale) reply lands while we wait; the restart
            # must discard it — the next answer is for the next query.
            time.sleep(0.5)
            got = pool.query(query)
            assert got.seeds == want.seeds
            assert got.theta == want.theta
            assert pool.stats.restarts == 1

    def test_drop_never_delivers_a_reply(self, setup):
        path, _profiles, _ppath = setup
        query = KBTIMQuery(("music",), 3)
        with SupervisedServerPool(path, n_workers=2) as pool:
            shard = pool.shard_of(query)
            chaos = ChaosController(
                FaultPlan(events=(FaultEvent("drop", 0, shard=shard),)), pool
            )
            chaos.before_query(0)
            assert pool._workers[shard].poisoned
            assert pool.query(query).seeds  # heals without any sleep
            assert pool.stats.restarts == 1

    def test_kill_on_a_drained_shard_has_no_process_to_signal(self, setup):
        path, _profiles, _ppath = setup
        plan = FaultPlan(events=(FaultEvent("kill", 0, shard=0),))
        with SupervisedServerPool(path, n_workers=2) as pool:
            pool.drain(0)  # shuts the worker down and releases its process object
            chaos = ChaosController(plan, pool)
            chaos.before_query(0)  # must not raise on the closed process
            assert [event["kind"] for event in chaos.fired] == ["kill"]

    def test_exhaust_sheds_during_replay(self, setup, workload):
        path, _profiles, _ppath = setup
        with SupervisedServerPool(path, n_workers=2) as pool:
            plan = FaultPlan(events=(FaultEvent("exhaust", 5, seconds=30.0),))
            before = pool.snapshot()
            report = replay(pool, workload, chaos=plan)
            after = pool.snapshot()
        _assert_report_counters_are_snapshot_deltas(report, before, after)
        assert report.sheds > 0
        assert report.n_failed == report.sheds
        assert all(
            error is None or error.startswith("OverloadedError")
            for error in report.errors
        )
        # Queries answered before the window are untouched.
        assert all(r is not None for r in report.results[:5])

    def test_crash_loop_plan_degrades_shard_others_exact(
        self, setup, workload, monkeypatch
    ):
        """Acceptance: a crash-looping shard fails fast and typed while
        the other shards' answers and I/O accounting stay exact (bit-
        and byte-identical to an unfaulted run)."""
        path, _profiles, _ppath = setup
        with SupervisedServerPool(path, n_workers=3) as baseline_pool:
            baseline = replay(baseline_pool, workload, tolerate_errors=True)
        monkeypatch.setattr(process_pool, "_RESTART_BACKOFF", 0.0)
        monkeypatch.setattr(process_pool, "_RESTART_BUDGET", 1)
        with SupervisedServerPool(path, n_workers=3) as pool:
            victim = pool.shard_of(workload[0])
            kills = tuple(
                FaultEvent("kill", pos, shard=victim)
                for pos, q in enumerate(workload)
                if pool.shard_of(q) == victim
            )
            assert len(kills) >= 2  # enough to blow a budget of 1
            report = replay(pool, workload, chaos=FaultPlan(events=kills))
            health = pool.health()
        assert health.shards[victim].state == "degraded"
        degraded_errors = [e for e in report.errors if e is not None]
        assert degraded_errors
        assert all(e.startswith("ShardUnavailableError") for e in degraded_errors)
        # Non-victim shards saw the exact same sub-streams in both runs,
        # so answers *and* per-query I/O accounting match exactly.
        for got, want, error in zip(report.results, baseline.results, report.errors):
            if error is None and got is not None:
                assert got.seeds == want.seeds
                assert got.theta == want.theta
                assert got.stats.io.read_calls == want.stats.io.read_calls
                assert got.stats.io.bytes_read == want.stats.io.bytes_read


class TestSaturation:
    def test_open_loop_past_saturation_sheds_not_queues(
        self, setup, workload, expected
    ):
        """Acceptance: past saturation the pool sheds explicitly; the
        admitted tail stays the service-time tail (no unbounded queue)."""
        path, _profiles, _ppath = setup
        queries = tuple(workload) * 5  # 100 queries
        arrivals = poisson_arrivals(len(queries), rate_qps=5000.0, rng=7)
        with SupervisedServerPool(path, n_workers=2, max_inflight=2) as pool:
            report = replay(
                pool,
                queries,
                threads=8,
                arrivals=arrivals,
                deadline=30.0,
                tolerate_errors=True,
            )
        assert report.sheds > 0  # load was actually shed...
        assert report.n_ok > 0  # ...but admitted queries were served
        assert report.n_ok + report.n_failed == len(queries)
        assert report.sheds == report.n_failed
        shed = [error for error in report.errors if error is not None]
        assert all(error.startswith("OverloadedError") for error in shed)
        for got, want in zip(report.results, tuple(expected) * 5):  # 8 clients
            assert got is None or (got.seeds, got.theta) == (want.seeds, want.theta)
        assert report.goodput == report.n_ok  # generous deadline: all met
        assert report.goodput_qps > 0
        # The admitted p99 is a service-time percentile, not a queue blowup.
        assert report.percentile_latency(99, admitted_only=True) < 30.0


class TestCorruptAtOpen:
    def test_corrupt_copy_fails_typed_at_open(self, setup, tmp_path):
        path, _profiles, _ppath = setup
        target = str(tmp_path / "corrupt.rr")
        offsets = corrupt_index_copy(path, target, seed=3)
        assert 0 in offsets  # the magic byte always flips
        with pytest.raises(CorruptIndexError):
            SupervisedServerPool(target, n_workers=2)
        with open(path, "rb") as fh:  # the source is never touched
            assert fh.read(8) == b"KBTIMSEG"

    def test_corrupt_is_seed_deterministic(self, setup, tmp_path):
        path, _profiles, _ppath = setup
        a = corrupt_index_copy(path, str(tmp_path / "a.rr"), seed=5)
        b = corrupt_index_copy(path, str(tmp_path / "b.rr"), seed=5)
        c = corrupt_index_copy(path, str(tmp_path / "c.rr"), seed=6)
        assert a == b
        assert a != c

    def test_empty_source_rejected(self, tmp_path):
        empty = tmp_path / "empty.rr"
        empty.write_bytes(b"")
        with pytest.raises(ValueError, match="empty"):
            corrupt_index_copy(str(empty), str(tmp_path / "out.rr"))


def _replay(setup, *options: str) -> int:
    """``repro replay`` over the module's index on 2 workers."""
    path, _profiles, profiles_path = setup
    args = ["replay", "--index", path, "--profiles", profiles_path, "--workers", "2"]
    return main(args + list(options))


class TestReplayCli:
    def test_replay_chaos_json_report(self, setup, tmp_path, capsys):
        plan_path = str(tmp_path / "plan.json")
        FaultPlan(
            events=(
                FaultEvent("kill", 3, shard=0),
                FaultEvent("kill", 5, shard=1),
                FaultEvent("exhaust", 12, seconds=0.05),
            )
        ).save(plan_path)
        options = "--threads 1 --n-queries 16 --timeout 30 --seed 5 --json --chaos"
        assert _replay(setup, *options.split(), plan_path) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "pool" not in doc  # there is one pool; nothing to name
        assert doc["queries"] == 16
        assert doc["deadline_s"] == 30.0
        assert doc["goodput"] + doc["failed"] == 16
        health = doc["snapshot"]["health"]
        assert health["restarts"] == sum(s["restarts"] for s in health["shards"]) >= 1
        assert health["sheds"] >= 1
        kinds = [e["kind"] for e in doc["fault_events"]]
        assert kinds == ["kill", "kill", "exhaust"]
        assert health["healthy"] in (True, False)
        assert len(health["shards"]) == 2

    def test_replay_corrupt_plan_fails_typed(self, setup, tmp_path, capsys):
        plan_path = str(tmp_path / "corrupt.json")
        FaultPlan(events=(FaultEvent("corrupt", 0),)).save(plan_path)
        assert _replay(setup, "--n-queries", "4", "--chaos", plan_path) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "magic" in err or "corrupt" in err.lower()
        assert not os.path.exists(setup[0] + ".chaos-corrupt")  # cleaned up

    def test_replay_timeout_flag_reports_goodput(self, setup, capsys):
        assert _replay(setup, *"--n-queries 8 --timeout 30 --json".split()) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["goodput"] == 8
        assert doc["failed"] == 0
        assert doc["fault_events"] == []
