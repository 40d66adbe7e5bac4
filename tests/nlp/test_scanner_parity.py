"""The fused scanner computes exactly what its building blocks do.

The scanner runs the paper's four GATE stages in one traversal, so
its contract is that every annotation and sentence view it produces
is what the stages' building blocks compute on the same text:

* the Token annotations are :func:`scan_tokens`' surfaces, kinds and
  spans;
* the Sentence spans are :func:`sentence_boundaries` over them;
* each sentence's tags are :meth:`PosTagger.tag` over its words and
  kinds;
* the Number annotations are :func:`collect_number_features` over all
  tokens;
* the sentence views align with those annotations.

``golden_extractions.json`` pins the same documents byte for byte.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp.numbers import collect_number_features
from repro.nlp.pipeline import default_pipeline
from repro.nlp.pos_tagger import PosTagger
from repro.nlp.sentence_splitter import sentence_boundaries
from repro.nlp.tokenizer import scan_tokens
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


def assert_scan_matches_building_blocks(text):
    document = default_pipeline().process_text(text)
    texts, kinds, spans = scan_tokens(text)

    tokens = document.tokens()
    assert [(t.start, t.end) for t in tokens] == spans
    assert [document.span_text(t) for t in tokens] == texts
    assert [t.features["kind"] for t in tokens] == kinds

    sentences = document.sentences()
    bounds = sentence_boundaries(text, spans, texts) if spans else []
    assert [(s.start, s.end) for s in sentences] == bounds
    assert all(s.features == {} for s in sentences)

    tagger = PosTagger()
    for sentence in sentences:
        inside = [
            i for i, (start, end) in enumerate(spans)
            if sentence.start <= start and end <= sentence.end
        ]
        assert [
            t.features["pos"] for t in document.tokens(sentence)
        ] == tagger.tag(
            [texts[i] for i in inside], [kinds[i] for i in inside]
        )
    assert sum(len(document.tokens(s)) for s in sentences) == len(tokens)

    assert [
        (n.start, n.end, n.features) for n in document.numbers()
    ] == collect_number_features(texts, kinds, spans)

    assert_views_align(document)


def assert_views_align(document):
    views = document.sentence_views()
    sentences = document.sentences()
    assert [v.sentence for v in views] == sentences
    for view, sentence in zip(views, sentences):
        assert view.tokens == document.tokens(sentence)
        assert view.texts == [
            document.span_text(t) for t in view.tokens
        ]
        assert view.lowers == [t.lower() for t in view.texts]
        assert view.tags == [t.features["pos"] for t in view.tokens]
        assert view.numbers == document.numbers(sentence)
        assert view.token_index_by_start == {
            t.start: i for i, t in enumerate(view.tokens)
        }
    # Cached: the second call returns the same view objects.
    assert document.sentence_views() is views


@pytest.mark.parametrize("text", ADVERSARIAL)
def test_adversarial_texts_identical(text):
    assert_scan_matches_building_blocks(text)


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
            assert_scan_matches_building_blocks(
                record.section_text(section.name)
            )


def test_style_pack_samples_identical():
    for pack in STYLE_PACKS:
        generator = RecordGenerator(style=pack.style, seed=31)
        record, _ = generator.generate("P-0001")
        for section in record.sections:
            assert_scan_matches_building_blocks(
                record.section_text(section.name)
            )


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
    assert_scan_matches_building_blocks(text)


def test_sentence_views_align_with_annotations():
    text = "blood pressure is 144/90. pulse of 84.\nweighs 154 lbs."
    document = default_pipeline().process_text(text)
    assert len(document.sentence_views()) == 3
    assert_views_align(document)


def test_number_across_a_sentence_break_is_in_no_view():
    text = "she is gravida two\nthree children at home. Pulse 84."
    document = default_pipeline().process_text(text)
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
