"""Docs tier-1 hook: README snippets must run, public APIs must be documented.

Three guards against documentation rot:

* every fenced ``python`` block in README.md executes, top to bottom, in
  one shared namespace (so the quickstart can build on earlier blocks);
* the committed EXPERIMENTS.md has one section per registered experiment;
* every ``__all__`` symbol exported by the ``repro.core`` and
  ``repro.storage`` module trees carries a docstring, as does every
  public method/property those classes define.
"""

import importlib
import inspect
import os
import pkgutil
import re

import pytest

pytestmark = pytest.mark.docs

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(REPO_ROOT, "README.md")
ARCHITECTURE = os.path.join(REPO_ROOT, "docs", "ARCHITECTURE.md")
EXPERIMENTS_MD = os.path.join(REPO_ROOT, "EXPERIMENTS.md")

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _python_blocks(path):
    with open(path, "r", encoding="utf-8") as fh:
        return _FENCE.findall(fh.read())


class TestReadme:
    def test_readme_exists_with_quickstart(self):
        assert os.path.isfile(README), "README.md is part of the public API"
        blocks = _python_blocks(README)
        assert blocks, "README.md must contain runnable python snippets"

    def test_architecture_doc_exists(self):
        assert os.path.isfile(ARCHITECTURE)
        with open(ARCHITECTURE, "r", encoding="utf-8") as fh:
            text = fh.read()
        # the doc must keep mapping the paper to the code
        for anchor in (
            "core/server.py",
            "## Routing",
            "KeywordCoverageCSR",
            "BufferPool",
        ):
            assert anchor in text, f"ARCHITECTURE.md lost its {anchor!r} section"

    def test_experiments_report_has_one_section_per_experiment(self):
        """EXPERIMENTS.md is regenerated whenever an experiment is added,
        removed or renamed (``repro experiment all --scale default``)."""
        from repro.experiments import EXPERIMENTS

        with open(EXPERIMENTS_MD, "r", encoding="utf-8") as fh:
            headings = re.findall(r"^## (.+)$", fh.read(), re.M)
        assert headings == [e.name for e in EXPERIMENTS]

    def test_readme_snippets_execute(self):
        """The 60-second quickstart runs verbatim (doctest-style)."""
        blocks = _python_blocks(README)
        namespace = {"__name__": "readme_quickstart"}
        for pos, block in enumerate(blocks):
            try:
                exec(compile(block, f"README.md[block {pos}]", "exec"), namespace)
            except Exception as exc:  # pragma: no cover - failure reporting
                pytest.fail(
                    f"README.md python block {pos} failed: {exc!r}\n---\n{block}"
                )


def _iter_modules(package_name):
    package = importlib.import_module(package_name)
    yield package
    for info in pkgutil.iter_modules(package.__path__):
        yield importlib.import_module(f"{package_name}.{info.name}")


def _public_symbols():
    """Every (module, name, object) named by __all__ in core/ + storage/."""
    for package in ("repro.core", "repro.storage"):
        for module in _iter_modules(package):
            for name in getattr(module, "__all__", ()):
                yield module.__name__, name, getattr(module, name)


class TestDocstringLint:
    def test_every_public_symbol_has_a_docstring(self):
        missing = []
        for module_name, name, obj in _public_symbols():
            if not (inspect.isclass(obj) or callable(obj)):
                continue  # constants (DEFAULT_PAGE_SIZE, ...) carry no doc
            doc = inspect.getdoc(obj)
            if not doc or not doc.strip():
                missing.append(f"{module_name}.{name}")
        assert not missing, f"undocumented public symbols: {sorted(set(missing))}"

    def test_every_public_method_has_a_docstring(self):
        """Public callables/properties *defined on* exported classes."""
        missing = []
        for module_name, name, obj in _public_symbols():
            if not inspect.isclass(obj):
                continue
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, property):
                    target = member.fget
                elif isinstance(member, (staticmethod, classmethod)):
                    target = member.__func__
                elif inspect.isfunction(member):
                    target = member
                else:
                    continue  # dataclass fields, nested constants, ...
                doc = inspect.getdoc(target)
                if not doc or not doc.strip():
                    missing.append(f"{module_name}.{name}.{attr}")
        assert not missing, f"undocumented public methods: {sorted(set(missing))}"
