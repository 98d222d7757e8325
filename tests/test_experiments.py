"""Tests for the experiment harness at smoke scale.

Every experiment of the registry must run and pass its own shape check —
the same check EXPERIMENTS.md reports as the verdict.
"""

import os

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.harness import ExperimentContext, ExperimentScale
from repro.experiments.reporting import Table, format_value


@pytest.fixture(scope="module")
def ctx():
    with ExperimentContext(ExperimentScale.smoke()) as context:
        yield context


@pytest.mark.parametrize("experiment", EXPERIMENTS, ids=lambda e: e.name)
def test_experiment_reproduces_at_smoke_scale(smoke_evaluation, experiment):
    results, exceptions = smoke_evaluation
    if experiment.name in exceptions:
        raise exceptions[experiment.name]
    table, failed = results[experiment.name]
    assert table.rows
    assert failed == [] == experiment.check(table)


def test_sweeps_follow_the_scale(smoke_evaluation):
    """What a check cannot see in its table: the rows and the swept values
    are the scale's."""
    results, _ = smoke_evaluation
    scale = ExperimentScale.smoke()
    n_datasets = len(scale.news_sizes) + len(scale.twitter_sizes)
    for name in ("table2", "figure7"):
        assert len(results[name][0].rows) == n_datasets
    for name, swept in (("figure5", "k_values"), ("figure6", "keyword_lengths")):
        values = sorted({r[1] for r in results[name][0].rows})
        assert values == list(getattr(scale, swept))


class TestReportingTable:
    def test_add_row_width_checked(self):
        table = Table("t", ("a", "b"))
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_render_contains_values(self):
        table = Table("My Title", ("x", "y"))
        table.add_row(1, 2.5)
        table.add_note("a note")
        text = table.render()
        assert "My Title" in text and "2.5" in text and "a note" in text

    def test_column_accessor(self):
        table = Table("t", ("x", "y"))
        table.add_row(1, 2)
        table.add_row(3, 4)
        assert table.column("y") == [2, 4]
        with pytest.raises(KeyError):
            table.column("z")

    def test_render_is_a_markdown_table(self):
        table = Table("t", ("x", "|V|"))
        table.add_row(1, "hello")
        lines = table.render().splitlines()
        assert lines[:2] == ["**t**", ""]
        assert lines[2:] == ["| x | \\|V\\| |", "|--:|------:|", "| 1 | hello |"]

    def test_format_value(self):
        assert format_value(None) == "-"
        assert format_value(12345) == "12,345"
        assert format_value(0.5) == "0.5"
        assert format_value(1e9).endswith("e+09")
        assert format_value("abc") == "abc"


class TestContext:
    def test_dataset_memoised(self, ctx):
        a = ctx.dataset("news", 0)
        b = ctx.dataset("news", 0)
        assert a is b

    def test_unknown_family_rejected(self, ctx):
        with pytest.raises(ValueError):
            ctx.dataset("myspace", 0)

    def test_tables_memoised(self, ctx):
        ds = ctx.dataset("news", 0)
        assert ctx.keyword_tables(ds) is ctx.keyword_tables(ds)

    def test_build_creates_file(self, ctx):
        ds = ctx.dataset("news", 0)
        report = ctx.build_index(ds, kind="rr")
        assert os.path.exists(report.path)

    def test_build_memoised(self, ctx):
        ds = ctx.dataset("news", 0)
        assert ctx.build_index(ds, kind="rr") is ctx.build_index(ds, kind="rr")

    def test_bad_kind_rejected(self, ctx):
        ds = ctx.dataset("news", 0)
        with pytest.raises(ValueError):
            ctx.build_index(ds, kind="btree")
