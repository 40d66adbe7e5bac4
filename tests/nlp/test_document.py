"""Document / annotation model tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nlp.document import (
    Annotation,
    AnnotationSet,
    Document,
    align_tokens,
)


class TestAnnotation:
    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            Annotation(id=1, type="Token", start=5, end=3)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Annotation(id=1, type="Token", start=-1, end=3)

    def test_text_extraction(self):
        ann = Annotation(id=1, type="Token", start=4, end=9)
        assert ann.text("The pulse is 84") == "pulse"

    def test_overlaps(self):
        a = Annotation(id=1, type="X", start=0, end=5)
        b = Annotation(id=2, type="X", start=4, end=8)
        c = Annotation(id=3, type="X", start=5, end=8)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_contains(self):
        outer = Annotation(id=1, type="Sentence", start=0, end=20)
        inner = Annotation(id=2, type="Token", start=5, end=9)
        assert outer.contains(inner)
        assert not inner.contains(outer)

    def test_ordering_by_span(self):
        a = Annotation(id=9, type="X", start=0, end=2)
        b = Annotation(id=1, type="X", start=3, end=4)
        assert a < b


class TestAnnotationSet:
    def test_add_and_retrieve_by_type(self):
        s = AnnotationSet()
        s.add("Token", 0, 3)
        s.add("Number", 4, 6)
        assert len(s.of_type("Token")) == 1
        assert len(s.of_type("Number")) == 1
        assert s.types() == {"Token", "Number"}

    def test_within(self):
        s = AnnotationSet()
        s.add("Token", 0, 3)
        s.add("Token", 4, 8)
        s.add("Token", 10, 12)
        inside = s.within("Token", 0, 9)
        assert [a.span for a in inside] == [(0, 3), (4, 8)]

    def test_within_excludes_partial_overlap(self):
        s = AnnotationSet()
        s.add("Token", 0, 5)
        assert s.within("Token", 2, 10) == []

    def test_covering(self):
        s = AnnotationSet()
        s.add("Sentence", 0, 20)
        s.add("Sentence", 20, 40)
        assert [a.span for a in s.covering("Sentence", 25)] == [(20, 40)]

    def test_first_within_none_when_empty(self):
        s = AnnotationSet()
        assert s.first_within("Token", 0, 100) is None

    def test_remove(self):
        s = AnnotationSet()
        ann = s.add("Token", 0, 3)
        s.remove(ann)
        assert s.of_type("Token") == []

    def test_remove_missing_raises(self):
        s = AnnotationSet()
        ann = s.add("Token", 0, 3)
        s.remove(ann)
        with pytest.raises(ValueError):
            s.remove(ann)

    def test_out_of_order_adds_are_sorted(self):
        s = AnnotationSet()
        s.add("Token", 10, 12)
        s.add("Token", 0, 3)
        s.add("Token", 4, 8)
        assert [a.span for a in s.of_type("Token")] == [
            (0, 3), (4, 8), (10, 12),
        ]

    def test_extend_takes_over_features_and_keeps_order(self):
        s = AnnotationSet()
        s.add("Token", 10, 12)
        features = {"kind": "word"}
        added = s.extend(
            "Token", [(0, 2, features), (4, 6, {}), (20, 22, {})]
        )
        assert added[0].features is features
        assert [a.id for a in added] == [2, 3, 4]
        assert [a.span for a in s.of_type("Token")] == [
            (0, 2), (4, 6), (10, 12), (20, 22),
        ]
        assert s.extend("Token", []) == []
        assert s.add("Token", 30, 31).id == 5

    def test_iteration_is_document_order(self):
        s = AnnotationSet()
        s.add("B", 5, 6)
        s.add("A", 0, 2)
        assert [a.span for a in s] == [(0, 2), (5, 6)]

    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 50)).map(
                lambda p: (min(p), max(p) + 1)
            ),
            max_size=40,
        )
    )
    def test_of_type_always_sorted(self, spans):
        s = AnnotationSet()
        for start, end in spans:
            s.add("T", start, end)
        got = [(a.start, a.end) for a in s.of_type("T")]
        assert got == sorted(got)


class TestDocumentHelpers:
    def test_token_texts_within_sentence(self):
        doc = Document("One two. Three four.")
        doc.annotations.add("Sentence", 0, 8)
        doc.annotations.add("Sentence", 9, 20)
        for span in [(0, 3), (4, 7), (7, 8), (9, 14), (15, 19), (19, 20)]:
            doc.annotations.add("Token", *span)
        first = doc.sentences()[0]
        assert doc.token_texts(first) == ["One", "two", "."]

    def test_align_tokens_groups_by_span(self):
        doc = Document("ab cd ef")
        t1 = doc.annotations.add("Token", 0, 2)
        t2 = doc.annotations.add("Token", 3, 5)
        t3 = doc.annotations.add("Token", 6, 8)
        groups = align_tokens([t1, t2, t3], [(0, 5), (6, 8)])
        assert [[a.span for a in g] for g in groups] == [
            [(0, 2), (3, 5)],
            [(6, 8)],
        ]

    def test_align_tokens_drops_outside_spans(self):
        doc = Document("ab cd ef")
        t1 = doc.annotations.add("Token", 0, 2)
        t2 = doc.annotations.add("Token", 3, 5)
        groups = align_tokens([t1, t2], [(3, 5)])
        assert [[a.span for a in g] for g in groups] == [[(3, 5)]]
