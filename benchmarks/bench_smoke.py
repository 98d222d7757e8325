"""One-tiny-iteration smoke run of every benchmark entry point.

The benchmark suite (the kernel and serving-tier benches; the paper's
evaluation is ``repro experiment``) is normally run by hand; nothing in
tier-1 would notice if an API change broke a bench file.  This module
closes that gap: it is collected by the plain
``pytest`` run (see ``pytest.ini``) and replays the *whole* ``benchmarks/``
directory in a subprocess at the ``smoke`` campaign scale with
``--benchmark-disable`` (each measured callable runs exactly once).  Any
import error, API drift, or broken shape assertion in a bench file fails
tier-1 here instead of rotting silently.

Deselect with ``-m "not bench_smoke"`` when iterating on unit tests.
"""

import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")


@pytest.mark.bench_smoke
def test_benchmark_suite_smoke(request):
    if os.environ.get("KBTIM_BENCH_SCALE"):
        pytest.skip("explicit KBTIM_BENCH_SCALE campaign run; smoke replay redundant")
    for arg in request.config.invocation_params.args:
        path = os.path.abspath(str(arg).split("::")[0])
        if path.startswith(BENCH_DIR) and os.path.basename(path) != "bench_smoke.py":
            # `pytest benchmarks` / `pytest benchmarks/bench_x.py` is a
            # deliberate campaign-scale run — don't nest a smoke replay.
            pytest.skip("explicit benchmarks invocation; smoke replay redundant")
    env = dict(os.environ)
    env["KBTIM_BENCH_SCALE"] = "smoke"
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            BENCH_DIR,
            "-q",
            "--benchmark-disable",
            "-p",
            "no:cacheprovider",
            f"--ignore={os.path.abspath(__file__)}",
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=540,
    )
    if result.returncode != 0:
        pytest.fail(
            "benchmark smoke run failed:\n"
            + result.stdout[-8000:]
            + "\n"
            + result.stderr[-4000:]
        )
