"""What the code imports is what the project declares and CI installs.

An ``ast`` scan of every ``import`` in ``src/``, ``tests/``,
``benchmarks/``, ``tools/`` and ``examples/``:

* each imported top-level name is the standard library, ``repro``, a
  module of the scanned directories (``oracles``, ``conftest``, ...) or
  a package ``pyproject.toml`` declares (``dependencies`` or the ``dev``
  extra);
* each ``pip install`` line of a CI job that runs pytest installs every
  third-party package ``tests/`` and ``benchmarks/`` import — a clean
  runner must be able to collect the suite.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "tools", "examples")
#: Distribution name -> the name it is imported by, where they differ.
IMPORT_NAMES = {"pytest-benchmark": "pytest_benchmark"}


def _package(requirement):
    """``"numpy>=1.24"`` -> ``"numpy"`` (the import name)."""
    name = re.match(r"[A-Za-z0-9_.\-]+", requirement.strip()).group(0)
    return IMPORT_NAMES.get(name, name)


def declared_packages():
    """Import names of ``dependencies`` plus the ``dev`` extra."""
    text = (ROOT / "pyproject.toml").read_text()
    lists = [
        re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S),
        re.search(r"^dev\s*=\s*\[(.*?)\]", text, re.M | re.S),
    ]
    assert all(lists), "pyproject.toml lost its dependencies or dev extra"
    return {
        _package(item)
        for found in lists
        for item in re.findall(r'"([^"]+)"', found.group(1))
    }


def imported_names(directory):
    """``{top-level name: first "path:line" importing it}`` under a directory."""
    found = {}
    for path in sorted((ROOT / directory).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                found.setdefault(name.split(".")[0], where)
    return found


def local_modules():
    """Modules a scanned directory's own files can import by bare name."""
    return {
        path.stem for directory in SCANNED for path in (ROOT / directory).glob("*.py")
    }


def third_party(names):
    local = local_modules() | {"repro"}
    return {
        name: where
        for name, where in names.items()
        if name not in sys.stdlib_module_names and name not in local
    }


def pytest_job_installs():
    """``{job: [packages of each pip install line]}`` for CI jobs running pytest."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    jobs = re.split(r"^  (?=[\w-]+:\s*$)", text.split("\njobs:\n", 1)[1], flags=re.M)
    installs = {}
    for job in jobs:
        if "pytest" not in job:
            continue
        lines = re.findall(r"pip install ([^\n]+)", job)
        installs[job.split(":", 1)[0]] = [
            {_package(word) for word in line.split() if not word.startswith("-")}
            for line in lines
        ]
    return installs


@pytest.mark.parametrize("directory", SCANNED)
def test_every_import_is_stdlib_local_or_declared(directory):
    undeclared = {
        name: where
        for name, where in third_party(imported_names(directory)).items()
        if name not in declared_packages()
    }
    assert not undeclared, f"imported but not declared in pyproject.toml: {undeclared}"


def test_ci_test_jobs_install_what_the_suite_imports():
    needed = set(third_party(imported_names("tests")))
    needed |= set(third_party(imported_names("benchmarks")))
    installs = pytest_job_installs()
    assert installs, "no CI job runs pytest"
    missing = {
        job: sorted(needed - packages)
        for job, lines in installs.items()
        for packages in lines
        if needed - packages
    }
    assert all(lines for lines in installs.values()), installs
    assert not missing, f"CI test jobs miss packages the suite imports: {missing}"
