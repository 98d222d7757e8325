"""Tests for the command-line interface (repro.cli)."""

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.core.server import SNAPSHOT_SCHEMA


@pytest.fixture(scope="module")
def dataset_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    graph = str(tmp / "g.npz")
    profiles = str(tmp / "p.npz")
    code = main(
        [
            "generate",
            "--family",
            "twitter",
            "--n",
            "200",
            "--topics",
            "6",
            "--seed",
            "3",
            "--graph-out",
            graph,
            "--profiles-out",
            profiles,
        ]
    )
    assert code == 0
    return graph, profiles


@pytest.fixture(scope="module")
def rr_index(dataset_files, tmp_path_factory):
    graph, profiles = dataset_files
    path = str(tmp_path_factory.mktemp("cli-idx") / "t.rr")
    code = main(
        [
            "build-index",
            "--graph",
            graph,
            "--profiles",
            profiles,
            "--out",
            path,
            "--kind",
            "rr",
            "--epsilon",
            "1.0",
            "--cap",
            "150",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "table6"])
        assert args.name == "table6" and args.scale == "smoke"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])


class TestGenerate(object):
    def test_files_created(self, dataset_files):
        graph, profiles = dataset_files
        assert os.path.exists(graph) and os.path.exists(profiles)


class TestBuildAndQuery:
    def test_rr_query_text(self, rr_index, capsys):
        code = main(
            ["query", "--index", rr_index, "--keywords", "music,book", "--k", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "seeds:" in out and "estimated targeted influence" in out

    def test_rr_query_json(self, rr_index, capsys):
        code = main(
            [
                "query",
                "--index",
                rr_index,
                "--keywords",
                "music",
                "--k",
                "3",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["seeds"]) == 3
        assert payload["theta"] > 0

    def test_irr_kind(self, dataset_files, tmp_path, capsys):
        graph, profiles = dataset_files
        path = str(tmp_path / "t.irr")
        assert (
            main(
                [
                    "build-index",
                    "--graph",
                    graph,
                    "--profiles",
                    profiles,
                    "--out",
                    path,
                    "--kind",
                    "irr",
                    "--delta",
                    "25",
                    "--epsilon",
                    "1.0",
                    "--cap",
                    "150",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        assert main(["query", "--index", path, "--keywords", "music", "--k", "2"]) == 0

    def test_lt_model_build(self, dataset_files, tmp_path):
        graph, profiles = dataset_files
        path = str(tmp_path / "lt.rr")
        code = main(
            [
                "build-index",
                "--graph",
                graph,
                "--profiles",
                profiles,
                "--out",
                path,
                "--model",
                "lt",
                "--epsilon",
                "1.0",
                "--cap",
                "100",
            ]
        )
        assert code == 0

    def test_unknown_keyword_is_clean_error(self, rr_index, capsys):
        code = main(
            ["query", "--index", rr_index, "--keywords", "quantum", "--k", "2"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_clean_error(self, capsys):
        code = main(["query", "--index", "/nope/missing.rr", "--keywords", "a", "--k", "1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestInspect:
    def test_catalog_printed(self, rr_index, capsys):
        assert main(["inspect", "--index", rr_index]) == 0
        out = capsys.readouterr().out
        assert "RR index" in out and "theta_w" in out and "music" in out


class TestExperiment:
    def test_table2_smoke(self, capsys, tmp_path):
        csv_path = str(tmp_path / "t2.csv")
        code = main(["experiment", "table2", "--scale", "smoke", "--csv", csv_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert os.path.exists(csv_path)


class TestVerifyAndExtract:
    def test_verify_clean_index(self, rr_index, capsys):
        assert main(["verify", "--index", rr_index]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_shallow(self, rr_index, capsys):
        assert main(["verify", "--index", rr_index, "--shallow"]) == 0

    def test_verify_corrupt_is_clean_error(self, rr_index, tmp_path, capsys):
        data = bytearray(open(rr_index, "rb").read())
        data[len(data) // 2] ^= 0xFF
        broken = str(tmp_path / "broken.rr")
        open(broken, "wb").write(bytes(data))
        assert main(["verify", "--index", broken]) == 1
        assert "error:" in capsys.readouterr().err

    def test_extract_then_query(self, rr_index, tmp_path, capsys):
        out = str(tmp_path / "subset.rr")
        assert (
            main(["extract", "--index", rr_index, "--out", out, "--keywords", "music"])
            == 0
        )
        assert main(["query", "--index", out, "--keywords", "music", "--k", "2"]) == 0

    def test_extract_unknown_keyword(self, rr_index, tmp_path, capsys):
        out = str(tmp_path / "x.rr")
        assert (
            main(
                ["extract", "--index", rr_index, "--out", out, "--keywords", "quantum"]
            )
            == 1
        )
        assert "error:" in capsys.readouterr().err


def _homes(node, key, path=""):
    """Every path (list positions collapsed) at which ``key`` occurs."""
    found = set()
    if isinstance(node, dict):
        for name, value in node.items():
            if name == key:
                found.add(f"{path}/{name}")
            found |= _homes(value, key, f"{path}/{name}")
    elif isinstance(node, list):
        for value in node:
            found |= _homes(value, key, f"{path}[]")
    return found


def _assert_each_number_has_one_home(payload):
    """The replay document embeds the pool's snapshot, and the numbers
    that used to be printed two or three times (033b4ec: ``rss_bytes``
    next to ``health.rss_bytes``) occur exactly once at pool level —
    plus, for the per-shard ones, once in each shard's health row."""
    health = "/snapshot/health"
    assert _homes(payload, "rss_bytes") == {
        f"{health}/rss_bytes",
        f"{health}/shards[]/rss_bytes",
    }
    # The shared block cache and its gauge are gone (schema 2).
    assert _homes(payload, "shm_bytes") == set()
    assert _homes(payload, "restarts") == {
        f"{health}/restarts",
        f"{health}/shards[]/restarts",
    }
    assert _homes(payload, "sheds") == {f"{health}/sheds"}
    assert _homes(payload, "hit_ratio") == {
        "/snapshot/stats/hit_ratio",
        "/snapshot/workers[]/stats/hit_ratio",
    }
    assert payload["snapshot"]["schema"] == SNAPSHOT_SCHEMA
    return payload["snapshot"]["health"]


class TestReplay:
    def _replay_args(self, rr_index, profiles):
        return [
            "replay",
            "--index", rr_index,
            "--profiles", profiles,
            "--workers", "2",
            "--threads", "2",
            "--n-queries", "10",
            "--lengths", "1,2",
            "--ks", "3,5",
            "--seed", "9",
        ]

    def test_replay_text(self, rr_index, dataset_files, capsys):
        _graph, profiles = dataset_files
        code = main(self._replay_args(rr_index, profiles) + ["--warm"])
        assert code == 0
        out = capsys.readouterr().out
        assert "closed-loop replay: 10 queries on 2 workers (crc32" in out
        assert "q/s" in out and "hit ratio" in out

    @pytest.mark.parametrize("removed", [["--pool", "thread"], ["--shared-cache"]])
    def test_replay_has_no_pool_kind_switch(
        self, rr_index, dataset_files, capsys, removed
    ):
        _graph, profiles = dataset_files
        with pytest.raises(SystemExit) as excinfo:
            main(self._replay_args(rr_index, profiles) + removed)
        assert excinfo.value.code == 2
        assert removed[0] in capsys.readouterr().err

    def test_replay_process_pool_json(self, rr_index, dataset_files, capsys):
        _graph, profiles = dataset_files
        code = main(self._replay_args(rr_index, profiles) + ["--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "pool" not in payload
        assert payload["queries"] == 10
        assert payload["qps"] > 0
        assert payload["p95_ms"] >= payload["p50_ms"]
        health = _assert_each_number_has_one_home(payload)
        assert health["rss_bytes"] > 0
        assert health["rss_bytes"] == sum(s["rss_bytes"] for s in health["shards"])
        assert payload["snapshot"]["stats"]["queries"] == 10

    def test_replay_rendezvous_dispatch(self, rr_index, dataset_files, capsys):
        _graph, profiles = dataset_files
        code = main(
            self._replay_args(rr_index, profiles)
            + ["--dispatch", "rendezvous", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dispatch"] == "rendezvous"
        assert payload["queries"] == 10
        assert payload["failed"] == 0
        health = _assert_each_number_has_one_home(payload)
        assert health["rss_bytes"] > 0 and health["healthy"]
        assert sum(payload["snapshot"]["dispatch"]["assigned"]) == 10

    def test_replay_open_loop(self, rr_index, dataset_files, capsys):
        _graph, profiles = dataset_files
        code = main(
            self._replay_args(rr_index, profiles)
            + ["--rate", "500", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "open"
        health = _assert_each_number_has_one_home(payload)
        assert health["rss_bytes"] > 0

    def test_replay_missing_index_is_clean_error(self, dataset_files, capsys):
        _graph, profiles = dataset_files
        code = main(self._replay_args("/nonexistent.rr", profiles))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_replay_bad_worker_count_is_clean_error(
        self, rr_index, dataset_files, capsys
    ):
        """Library-layer ValueErrors (check_positive_int) follow the
        one-line `error:` contract instead of leaking a traceback."""
        _graph, profiles = dataset_files
        args = self._replay_args(rr_index, profiles)
        args[args.index("--workers") + 1] = "0"
        assert main(args) == 1
        assert "error:" in capsys.readouterr().err
