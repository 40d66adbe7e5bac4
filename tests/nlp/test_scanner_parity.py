"""Fused scanner vs staged pipeline: annotation-for-annotation parity.

The fused scanner exists purely for speed — one traversal instead of
four — so its contract is byte-identical output: same annotation
types, ids, spans, and features as the staged
tokenizer → splitter → tagger → number pipeline, on any text, and the
same sentence views, whether the scanner builds them or
:meth:`Document.sentence_views` builds them on first use.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp.document import Document
from repro.nlp.pipeline import default_pipeline
from repro.synth import CohortSpec, RecordGenerator
from repro.synth.packs import STYLE_PACKS

ADVERSARIAL = [
    "",
    " ",
    "x",
    "BP 144/90, pulse of 84. Temp 98.3 F.",
    "Meds: aspirin 81 mg q.d.; weighs 154 lbs. now",
    "no history of diabetes\nor hypertension\n\nquit smoking",
    "she is a sixty seven year old patient",
    "...  !!  ??",
    "1,250 units vs 3/4 ratio",
    "Dr. Smith saw the pt. at 9 a.m. on admission",
    # "two\nthree" is one word-number run across a sentence break: a
    # Number annotation that no sentence view may hold.
    "she is gravida two\nthree children at home. Pulse 84.",
]


def _dump(document):
    annotations = [
        (a.type, a.id, a.start, a.end, dict(a.features))
        for a in sorted(
            document.annotations.all(),
            key=lambda a: (a.type, a.id),
        )
    ]
    views = [
        (
            view.sentence.id,
            [t.id for t in view.tokens],
            view.texts,
            view.lowers,
            view.tags,
            [n.id for n in view.numbers],
            view.token_index_by_start,
        )
        for view in document.sentence_views()
    ]
    return annotations, views


def _process(text, fused):
    return _dump(default_pipeline(fused=fused).process_text(text))


@pytest.mark.parametrize("text", ADVERSARIAL)
def test_adversarial_texts_identical(text):
    assert _process(text, fused=True) == _process(text, fused=False)


def test_cohort_sections_identical():
    records, _ = RecordGenerator(seed=29).generate_cohort(
        CohortSpec(
            size=12,
            smoking_counts={
                "never": 9, "current": 1, "former": 1, None: 1,
            },
        )
    )
    for record in records:
        for section in record.sections:
            text = record.section_text(section.name)
            assert _process(text, fused=True) == _process(
                text, fused=False
            ), section.name


def test_style_pack_samples_identical():
    for pack in STYLE_PACKS:
        generator = RecordGenerator(style=pack.style, seed=31)
        record, _ = generator.generate("P-0001")
        for section in record.sections:
            text = record.section_text(section.name)
            assert _process(text, fused=True) == _process(
                text, fused=False
            ), (pack.name, section.name)


@settings(max_examples=150, deadline=None)
@given(
    text=st.text(
        alphabet=(
            "abcdefghijklmnopqrstuvwxyz"
            "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
            " .,;:/-()\n'\""
        ),
        max_size=120,
    )
)
def test_random_texts_identical(text):
    assert _process(text, fused=True) == _process(text, fused=False)


def test_sentence_views_align_with_annotations():
    text = "blood pressure is 144/90. pulse of 84.\nweighs 154 lbs."
    document = default_pipeline().process_text(text)
    views = document.sentence_views()
    assert [v.sentence.id for v in views] == [
        s.id for s in document.sentences()
    ]
    assert sum(len(v.tokens) for v in views) == len(document.tokens())
    for view in views:
        assert view.texts == [
            document.span_text(t) for t in view.tokens
        ]
        assert view.lowers == [t.lower() for t in view.texts]
        for i, token in enumerate(view.tokens):
            assert view.token_index_by_start[token.start] == i
    # Cached: the second call returns the same view objects.
    assert document.sentence_views() is views


def test_number_across_a_sentence_break_is_in_no_view():
    text = "she is gravida two\nthree children at home. Pulse 84."
    for fused in (True, False):
        document = default_pipeline(fused=fused).process_text(text)
        numbers = document.numbers()
        assert [(n.start, n.end, n.features["value"]) for n in numbers] == [
            (15, 24, 5.0),
            (49, 51, 84.0),
        ]
        assert [
            [(n.start, n.end) for n in view.numbers]
            for view in document.sentence_views()
        ] == [[], [], [(49, 51)]]


def test_default_pipeline_is_fused():
    from repro.nlp.scanner import FusedScanner

    components = default_pipeline().components
    assert len(components) == 1
    assert isinstance(components[0], FusedScanner)
    assert len(default_pipeline(fused=False).components) == 4
