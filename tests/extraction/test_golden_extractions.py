"""Extraction and scanning return exactly the pinned golden corpus.

``golden_extractions.json`` (see ``golden_extractions.py``) holds one
SHA-256 per record of ``ExtractionResult.to_dict()`` over the style
pack, trap and hostile corpora, and one per distinct section text of
the default pipeline's annotations and sentence views.  A change that
moves one value, one provenance detail, one tag or one span fails
here with the record or section named.
"""

import pytest

from repro.nlp.pipeline import default_pipeline
from repro.synth.packs import STYLE_PACKS
from tests.extraction import golden_extractions as golden

GOLDEN = golden.load()


@pytest.fixture(scope="module")
def records():
    return list(golden.corpus())


@pytest.fixture(scope="module")
def sections(records):
    return golden.section_texts(records)


def test_corpus_is_the_pinned_one(records, sections):
    assert [[name, r.patient_id] for name, r in records] == [
        entry[:2] for entry in GOLDEN["records"]
    ]
    assert [
        [source, golden.text_digest(text)] for source, text in sections
    ] == [entry[:2] for entry in GOLDEN["sections"]]
    corpora = {name for name, _ in records}
    assert corpora == {p.name for p in STYLE_PACKS} | {"traps", "hostile"}


def test_every_record_extracts_as_pinned(records):
    extractor = golden.trained_extractor()
    moved = [
        f"{name}/{record.patient_id}"
        for (name, record), (_, _, pinned) in zip(
            records, GOLDEN["records"]
        )
        if golden.result_digest(extractor.extract(record)) != pinned
    ]
    assert moved == []


def test_every_section_scans_as_pinned(sections):
    pipeline = default_pipeline()
    moved = [
        f"{source}: {text[:60]!r}"
        for (source, text), (_, _, pinned) in zip(
            sections, GOLDEN["sections"]
        )
        if golden.document_digest(pipeline.process_text(text)) != pinned
    ]
    assert moved == []
