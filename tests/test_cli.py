"""Tests for the command-line interface (repro.cli)."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace

import pytest

import repro
from repro import experiments
from repro.cli import build_parser, main
from repro.core.server import SNAPSHOT_SCHEMA
from repro.experiments import Table, registry

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


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


@pytest.fixture(scope="module")
def irr_index(dataset_files, tmp_path_factory):
    graph, profiles = dataset_files
    path = str(tmp_path_factory.mktemp("cli-idx") / "t.irr")
    code = main(
        [
            "build-index",
            "--graph", graph,
            "--profiles", profiles,
            "--out", path,
            "--kind", "irr",
            "--delta", "25",
            "--epsilon", "1.0",
            "--cap", "150",
            "--seed", "3",
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

    def test_experiment_choices(self, capsys):
        args = build_parser().parse_args(["experiment", "table6"])
        assert args.name == "table6" and args.scale == "smoke"
        assert build_parser().parse_args(["experiment", "all"]).name == "all"
        assert main(["experiment", "table99"]) == 1
        assert "unknown experiment 'table99'" in capsys.readouterr().err

    def test_experiments_load_only_for_their_command(self):
        """Other commands never import the experiment modules, and those
        import without docstrings (``python -OO``) too."""
        code = (
            "import sys, repro.cli\n"
            "assert 'repro.experiments' not in sys.modules\n"
            "from repro.experiments import EXPERIMENTS\n"
            "assert [e.claim for e in EXPERIMENTS] == [''] * len(EXPERIMENTS)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        subprocess.run([sys.executable, "-OO", "-c", code], env=env, check=True)


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

    def test_irr_kind(self, irr_index):
        query = ["query", "--index", irr_index, "--keywords", "music", "--k", "2"]
        assert main(query) == 0

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


def _passes(table):
    """Holds for any table."""
    return []


def _raises(ctx):
    raise RuntimeError("runner exploded")


def _one_row(ctx):
    return Table("t", ("x",), [(1,)])


class TestExperiment:
    """The command's report and exit code.  The experiments themselves run
    once per session (``smoke_evaluation``, also what
    ``tests/test_experiments.py`` checks); ``replayed`` hands the CLI those
    smoke-scale results instead of running them again."""

    @pytest.fixture
    def replayed(self, smoke_evaluation, monkeypatch):
        results, exceptions = smoke_evaluation

        def run_all(ctx, names):
            return (
                {n: r for n, r in results.items() if n in names},
                {n: e for n, e in exceptions.items() if n in names},
            )

        monkeypatch.setattr(experiments, "run_all", run_all)

    def test_all_prints_one_section_per_registry_name(self, replayed, capsys):
        assert main(["experiment", "all", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        names = [e.name for e in registry.EXPERIMENTS]
        assert re.findall(r"^## (\S+)$", out, re.M) == names
        assert out.count("**Verdict:** reproduces\n") == len(names)
        assert out.startswith("# ") and "Scale `smoke` · seed 810" in out

    def test_table3_theta_hat_index_is_larger_and_slower(self, replayed, capsys):
        """Table 3 runs its own uncapped θ policy whoever calls it: θ̂_w
        indexes more than 2x larger (paper: ~9x) and slower to build."""
        assert main(["experiment", "table3", "--scale", "smoke"]) == 0
        rows = [
            [float(c.replace(",", "")) for c in line.split("|")[2:-1]]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("|") and "news-" in line
        ]
        assert len(rows) == 2
        for size_hat, size, _irr_hat, _irr, time_hat, time_std, *_ in rows:
            assert size_hat > 2 * size
            assert time_hat > time_std

    def test_a_raising_runner_is_one_error_section(self, capsys, monkeypatch):
        """The other experiments (stubbed to stay fast) still report; the
        command exits 1 and the traceback goes to stderr."""
        monkeypatch.setattr(
            registry,
            "EXPERIMENTS",
            tuple(
                replace(e, run=_raises)
                if e.name == "table5"
                else replace(e, run=_one_row, check=_passes)
                for e in registry.EXPERIMENTS
            ),
        )
        assert main(["experiment", "all"]) == 1
        captured = capsys.readouterr()
        sections = captured.out.split("\n## ")[1:]
        assert [s.split("\n")[0] for s in sections] == [
            e.name for e in registry.EXPERIMENTS
        ]
        for section in sections:
            verdict = section.rstrip().splitlines()[-1]
            if section.startswith("table5\n"):
                assert verdict == "**Verdict:** error: RuntimeError: runner exploded"
            else:
                assert verdict == "**Verdict:** reproduces"
        assert "runner exploded" in captured.err


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
        assert "closed-loop replay: 10 queries on 2 workers, 2 client threads" in out
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

    def test_replay_has_no_routing_policy(self, rr_index, dataset_files):
        # one routing rule: the parsed replay options name no policy
        _graph, profiles = dataset_files
        args = build_parser().parse_args(self._replay_args(rr_index, profiles))
        assert args.command == "replay"
        assert [opt for opt in vars(args) if "dispatch" in opt] == []

    def test_replay_process_pool_json(self, rr_index, dataset_files, capsys):
        _graph, profiles = dataset_files
        code = main(self._replay_args(rr_index, profiles) + ["--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "pool" not in payload
        # One routing rule: no policy name in the payload, no dispatcher
        # gauges in the snapshot (schema 3).
        assert "dispatch" not in payload
        assert "dispatch" not in payload["snapshot"]
        assert payload["queries"] == 10
        assert payload["qps"] > 0
        assert payload["p95_ms"] >= payload["p50_ms"]
        health = _assert_each_number_has_one_home(payload)
        assert health["rss_bytes"] > 0
        assert health["rss_bytes"] == sum(s["rss_bytes"] for s in health["shards"])
        assert payload["snapshot"]["stats"]["queries"] == 10

    def test_replay_serves_an_irr_file(self, irr_index, dataset_files, capsys):
        _graph, profiles = dataset_files
        code = main(self._replay_args(irr_index, profiles) + ["--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] == 0
        assert payload["snapshot"]["stats"]["queries"] == 10

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
