#!/usr/bin/env python3
"""Mutation probe: is every guard of the index-file readers tested where it runs?

For each ``raise StorageError(...)`` / ``raise CorruptIndexError(...)``
statement in the modules that read the on-disk format, copy ``src/`` to a
temporary directory, replace that one statement with ``pass``, and run the
storage / records / failure-injection / reader-contract / integrity-check
tests against the copy.  A mutant the tests still pass on is a guard
nothing checks: it *survives* and is printed as ``file:line  message``.
Exit status 1 if any survives.  Standard library only (pytest and numpy are needed to run the
tests, as for tier-1).

    python3 tools/guard_mutants.py            # every guard, ~3 minutes

A survivor gets a test, or — when no input can reach it, or an equivalent
check behind it raises the same error — is deleted.
"""

from __future__ import annotations

import ast
import glob
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Iterator, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The modules whose guards are probed, relative to ``src/repro``.
GUARDED = [
    "storage/compression.py",
    "storage/records.py",
    "storage/bitpack.py",
    "storage/varint.py",
    "storage/segments.py",
    "storage/pager.py",
    "core/catalog.py",
]

#: The tests that must notice a missing guard, relative to the repo root.
TESTS = sorted(glob.glob(os.path.join(ROOT, "tests", "test_storage_*.py"))) + [
    os.path.join(ROOT, "tests", "test_index_failure_injection.py"),
    os.path.join(ROOT, "tests", "test_index_reader_contract.py"),
    os.path.join(ROOT, "tests", "test_core_maintenance.py"),
]

_GUARD_ERRORS = {"StorageError", "CorruptIndexError"}


def guards(source: str) -> Iterator[Tuple[int, int, str]]:
    """``(first line, last line, message)`` of each guard statement."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or not isinstance(node.exc, ast.Call):
            continue
        func = node.exc.func
        if not isinstance(func, ast.Name) or func.id not in _GUARD_ERRORS:
            continue
        message = ast.unparse(node.exc.args[0]) if node.exc.args else ""
        yield node.lineno, node.end_lineno or node.lineno, message


def mutate(source: str, first: int, last: int) -> str:
    """``source`` with the statement on lines ``first..last`` made ``pass``."""
    lines = source.splitlines(keepends=True)
    head = lines[first - 1]
    indent = head[: len(head) - len(head.lstrip())]
    # Keep the line count, so a failing mutant's traceback reads true.
    lines[first - 1 : last] = [indent + "pass\n"] + ["\n"] * (last - first)
    return "".join(lines)


def tests_pass(src_copy: str) -> bool:
    env = dict(os.environ, PYTHONPATH=src_copy, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return done.returncode == 0


def main() -> int:
    survivors: List[str] = []
    probed = 0
    with tempfile.TemporaryDirectory(prefix="guard-mutants-") as tmp:
        src_copy = os.path.join(tmp, "src")
        shutil.copytree(
            os.path.join(ROOT, "src"),
            src_copy,
            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
        )
        if not tests_pass(src_copy):
            print("the unmutated tests fail; fix them first", file=sys.stderr)
            return 2
        for module in GUARDED:
            path = os.path.join(src_copy, "repro", module)
            with open(path, encoding="utf-8") as fh:
                original = fh.read()
            for first, last, message in guards(original):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(mutate(original, first, last))
                probed += 1
                if tests_pass(src_copy):
                    survivors.append(f"src/repro/{module}:{first}  {message}")
                    print(f"SURVIVED  {survivors[-1]}", flush=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(original)
    print(f"{probed} guards probed, {len(survivors)} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
