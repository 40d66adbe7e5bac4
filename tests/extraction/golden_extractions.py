"""Golden extraction corpus: every record's result, every section's scan.

``golden_extractions.json`` next to this file pins two things.

``records``
    For each record of a fixed-seed ``CohortSpec.paper()`` cohort of
    every style pack, of the trap corpora, and of the hostile corpus
    (``tests/conftest.py``): the SHA-256 of
    ``ExtractionResult.to_dict()`` — numeric values, terms, ID3 labels
    and the provenance of every value, in emitted order — from one
    :class:`RecordExtractor` whose classifiers were trained on a fixed
    small all-pack cohort.
``sections``
    For each distinct section text of those records, plus the
    adversarial texts of ``tests/nlp/test_scanner_parity.py``: the
    SHA-256 of the default pipeline's document — every annotation
    sorted by (type, id) with its span and features, and every
    sentence view's sentence, token and number ids and spans, texts,
    lowercased texts, tags and start index.

``test_golden_extractions.py`` re-derives every digest and names the
record or section text that moved.  Regenerate after a deliberate
behaviour change (a lexicon tag, an extraction rule), and only then,
from the repository root::

    PYTHONPATH=src python -m tests.extraction.golden_extractions

Generate it with the code *before* a pure-speed change, so the test
compares against the old behaviour.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterator

from repro.nlp.document import Document
from repro.records.model import PatientRecord

GOLDEN_PATH = Path(__file__).with_name("golden_extractions.json")

#: Generator seed of every pack cohort in the corpus.
COHORT_SEED = 42
#: Generator seed and size of the per-pack training cohorts.
TRAIN_SEED = 7
TRAIN_COUNTS = {"never": 3, "current": 2, "former": 1, None: 1}


def _sha256(data) -> str:
    encoded = json.dumps(data, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def document_dump(document: Document) -> dict:
    """A processed document as plain JSON-ready data."""
    annotations = [
        [a.type, a.id, a.start, a.end, _features(a.features)]
        for a in sorted(
            document.annotations.all(), key=lambda a: (a.type, a.id)
        )
    ]
    views = [
        {
            "sentence": [v.sentence.id, v.sentence.start, v.sentence.end],
            "tokens": [[t.id, t.start, t.end] for t in v.tokens],
            "texts": v.texts,
            "lowers": v.lowers,
            "tags": v.tags,
            "numbers": [[n.id, n.start, n.end] for n in v.numbers],
            "index_by_start": sorted(v.token_index_by_start.items()),
        }
        for v in document.sentence_views()
    ]
    return {"annotations": annotations, "views": views}


def _features(features: dict) -> list:
    return [
        [key, repr(value)] for key, value in sorted(features.items())
    ]


def text_digest(text: str) -> str:
    """Short fingerprint of a section text (locates corpus drift)."""
    encoded = text.encode("utf-8", "surrogatepass")
    return hashlib.sha256(encoded).hexdigest()[:16]


def document_digest(document: Document) -> str:
    return _sha256(document_dump(document))


def result_digest(result) -> str:
    """SHA-256 of ``ExtractionResult.to_dict()``, insertion order kept."""
    return _sha256(result.to_dict())


def training_cohort():
    """The fixed small all-pack cohort the classifiers learn from."""
    from repro.synth import CohortSpec
    from repro.synth.packs import STYLE_PACKS

    spec = CohortSpec(
        size=sum(TRAIN_COUNTS.values()), smoking_counts=TRAIN_COUNTS
    )
    records, golds = [], []
    for pack in STYLE_PACKS:
        pack_records, pack_golds = pack.generate_cohort(
            spec, seed=TRAIN_SEED
        )
        records.extend(pack_records)
        golds.extend(pack_golds)
    return records, golds


def hostile_records() -> list[PatientRecord]:
    """The hostile corpus of ``tests/conftest.py``."""
    from tests.conftest import HOSTILE_TEXTS

    from repro.records import Section

    return [
        PatientRecord(
            patient_id=f"hostile-{i}",
            sections=[
                Section("Vitals", text),
                Section("Social History", text),
            ],
        )
        for i, text in enumerate(HOSTILE_TEXTS)
    ]


def corpus() -> Iterator[tuple[str, PatientRecord]]:
    """(corpus name, record) for every record the corpus extracts."""
    from repro.synth import CohortSpec
    from repro.synth.packs import STYLE_PACKS
    from repro.synth.traps import all_traps

    for pack in STYLE_PACKS:
        records, _ = pack.generate_cohort(
            CohortSpec.paper(), seed=COHORT_SEED
        )
        for record in records:
            yield pack.name, record
    for case in all_traps():
        yield "traps", case.record
    for record in hostile_records():
        yield "hostile", record


def section_texts(
    records: list[tuple[str, PatientRecord]],
) -> list[tuple[str, str]]:
    """Distinct (source, text) section inputs, in first-seen order."""
    from tests.nlp.test_scanner_parity import ADVERSARIAL

    seen: set[str] = set()
    out: list[tuple[str, str]] = []

    def add(source: str, text: str) -> None:
        if text not in seen:
            seen.add(text)
            out.append((source, text))

    for index, text in enumerate(ADVERSARIAL):
        add(f"adversarial[{index}]", text)
    for name, record in records:
        for section in record.sections:
            add(
                f"{name}/{record.patient_id}/{section.name}",
                record.section_text(section.name),
            )
    return out


def trained_extractor():
    from repro.extraction.pipeline import RecordExtractor

    extractor = RecordExtractor()
    extractor.train_categorical(*training_cohort())
    return extractor


def build() -> dict:
    """The golden corpus, computed with the current code."""
    from repro.nlp.pipeline import default_pipeline

    extractor = trained_extractor()
    records = list(corpus())
    pipeline = default_pipeline()
    return {
        "regenerate": "PYTHONPATH=src python -m "
        "tests.extraction.golden_extractions",
        "records": [
            [
                name,
                record.patient_id,
                result_digest(extractor.extract(record)),
            ]
            for name, record in records
        ],
        "sections": [
            [
                source,
                text_digest(text),
                document_digest(pipeline.process_text(text)),
            ]
            for source, text in section_texts(records)
        ],
    }


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def dump(golden: dict) -> str:
    """The JSON file: one line per record or section entry."""
    lines = ["{", f' "regenerate": {json.dumps(golden["regenerate"])},']
    for key, closing in (("records", "],"), ("sections", "]")):
        lines.append(f' "{key}": [')
        entries = [f"  {json.dumps(entry)}" for entry in golden[key]]
        lines.append(",\n".join(entries))
        lines.append(f" {closing}")
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    golden = build()
    GOLDEN_PATH.write_text(dump(golden))
    print(
        f"wrote {len(golden['records'])} records and "
        f"{len(golden['sections'])} section texts to {GOLDEN_PATH}"
    )
