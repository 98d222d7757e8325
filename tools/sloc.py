#!/usr/bin/env python3
"""Count executable source lines: the number the simplicity PRs quote.

A line counts when it holds at least one code token.  Blank lines,
comment-only lines and docstrings do not count, so deleting comments or
documentation never moves the total.  Standard library only.

    python3 tools/sloc.py src                      # every .py under src/
    python3 tools/sloc.py src/repro/core/server.py src/repro/cli.py

Prints one ``lines  path`` row per file and a ``total`` row.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from typing import Iterable, Iterator, List, Set

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    """Line numbers covered by module, class and function docstrings."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_source(source: str) -> int:
    """Executable lines in one module's source text."""
    code: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def python_files(paths: Iterable[str]) -> Iterator[str]:
    """The ``.py`` files named by ``paths`` (directories are walked, sorted)."""
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        else:
            yield path


def main(argv: List[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total = 0
    for path in python_files(argv):
        with open(path, encoding="utf-8") as fh:
            lines = count_source(fh.read())
        total += lines
        print(f"{lines:7d}  {path}")
    print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
