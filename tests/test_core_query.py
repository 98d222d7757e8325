"""Tests for the KB-TIM query type (repro.core.query)."""

from functools import partial

import pytest

from repro.core.query import KBTIMQuery, resolve_keyword, resolve_unique
from repro.errors import IndexError_, QueryError


class TestResolveUnique:
    """Mixed-form duplicates (id + the name it resolves to) must not slip
    past validation into a double-load / double-counted θ^Q plan."""

    RESOLVER = staticmethod(partial(resolve_keyword, {0: "music", 1: "book"}))

    def test_the_one_resolver_passes_names_and_rejects_unknown_ids(self):
        """What both index readers and every pool resolve through: a name
        is not validated here (the executing catalog does that), an
        unknown id is an ``IndexError_``."""
        assert self.RESOLVER("nosuchtopic") == "nosuchtopic"
        assert self.RESOLVER(1) == "book"
        with pytest.raises(IndexError_, match="topic id 7"):
            self.RESOLVER(7)

    def test_plain_names_pass_through(self):
        assert resolve_unique(("music", "book"), self.RESOLVER) == [
            "music",
            "book",
        ]

    def test_ids_resolve_in_order(self):
        assert resolve_unique((1, "music"), self.RESOLVER) == ["book", "music"]

    def test_mixed_form_duplicate_rejected(self):
        with pytest.raises(QueryError, match="duplicate keyword"):
            resolve_unique((0, "music"), self.RESOLVER)

    def test_two_ids_same_name_rejected(self):
        resolver = lambda kw: "music"  # noqa: E731 - every ref is "music"
        with pytest.raises(QueryError, match="duplicate keyword"):
            resolve_unique((0, 1), resolver)


class TestConstruction:
    def test_basic(self):
        q = KBTIMQuery(["music", "book"], 5)
        assert q.keywords == ("music", "book")
        assert q.k == 5
        assert len(q.keywords) == 2

    def test_accepts_topic_ids(self):
        q = KBTIMQuery([0, 3], 2)
        assert q.keywords == (0, 3)

    def test_rejects_empty_keywords(self):
        with pytest.raises(QueryError):
            KBTIMQuery([], 5)

    def test_rejects_duplicate_keywords(self):
        with pytest.raises(QueryError, match="duplicate"):
            KBTIMQuery(["music", "music"], 5)

    def test_rejects_zero_k(self):
        with pytest.raises(QueryError):
            KBTIMQuery(["music"], 0)

    def test_rejects_non_int_k(self):
        with pytest.raises(QueryError):
            KBTIMQuery(["music"], 2.5)  # type: ignore[arg-type]
        with pytest.raises(QueryError):
            KBTIMQuery(["music"], True)  # type: ignore[arg-type]

    def test_rejects_bad_keyword_type(self):
        with pytest.raises(QueryError):
            KBTIMQuery([None], 2)  # type: ignore[list-item]

    def test_frozen(self):
        q = KBTIMQuery(["music"], 1)
        with pytest.raises(AttributeError):
            q.k = 3  # type: ignore[misc]

    def test_repr(self):
        assert "music" in repr(KBTIMQuery(["music"], 1))

    def test_equality(self):
        assert KBTIMQuery(["a"], 1) == KBTIMQuery(["a"], 1)
        assert KBTIMQuery(["a"], 1) != KBTIMQuery(["a"], 2)
