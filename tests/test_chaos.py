"""Deterministic fault injection (repro.core.chaos) and replays under it.

What each fault does to the pool — kill, delay, drop, exhaust, against
every shard state, alone or as a replay's ``FaultPlan`` — is checked by
``tests/test_serving_model.py``: under random schedules, and as traces
(a kill mid-stream heals bit-identically and leaks nothing, a
delay/drop poisons the pipe until a restart resynchronizes it, a crash
loop degrades one shard, naming the worker's exit as its last error,
while the others stay exact, an exhaust window sheds).  Pinned here:

* Plans are pure data: validation, JSON round-trip, and
  ``corrupt_index_copy`` for the at-open fault.
* An open-loop replay past saturation sheds explicitly (typed
  ``Overloaded`` failures, shed counters) instead of queueing without
  bound, and the goodput/percentile report reflects it.
* ``repro replay --chaos plan.json`` drives the same harness.
"""

import json
import os

import pytest

from repro.cli import main
from repro.core.chaos import FaultEvent, FaultPlan, corrupt_index_copy
from repro.core.process_pool import SupervisedServerPool
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
