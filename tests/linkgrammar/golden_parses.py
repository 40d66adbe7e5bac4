"""Golden parse corpus: every sentence shape the extractor parses.

``golden_parses.json`` next to this file pins the complete outcome of
``LinkGrammarParser.parse`` — every linkage's links, cost and token map
in returned order, or the failure reason — for each distinct sentence
shape that reaches the parser when a default :class:`RecordExtractor`
runs a fixed-seed ``CohortSpec.paper()`` cohort of every style pack
plus the trap corpora, together with the hand-written invariant
sentences of ``test_parser.py``.  ``test_golden_parses.py`` re-parses
each shape and compares SHA-256 digests, so any change to what the
parser returns fails with the sentence named.

Regenerate after a deliberate dictionary or parser behaviour change
(and only then), from the repository root::

    PYTHONPATH=src python -m tests.linkgrammar.golden_parses
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.errors import ParseFailure
from repro.linkgrammar import LinkGrammarParser

GOLDEN_PATH = Path(__file__).with_name("golden_parses.json")

#: Generator seed of every pack cohort in the corpus.
COHORT_SEED = 42


def outcome(
    parser: LinkGrammarParser,
    words: list[str],
    tags: list[str] | None,
) -> dict:
    """The whole ``parse()`` result as plain JSON-ready data."""
    try:
        linkages = parser.parse(words, tags)
    except ParseFailure as failure:
        return {"failure": failure.reason}
    return {
        "linkages": [
            {
                "links": [
                    [link.left, link.right, link.label]
                    for link in linkage.links
                ],
                "cost": linkage.cost,
                "token_map": linkage.token_map,
            }
            for linkage in linkages
        ]
    }


def digest(result: dict) -> str:
    """SHA-256 of a canonical JSON encoding of :func:`outcome`."""
    encoded = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def collect_shapes() -> list[tuple[list[str], list[str] | None]]:
    """Distinct ``(words, tags)`` parser inputs, in first-seen order."""
    from repro.extraction.pipeline import RecordExtractor
    from repro.synth import CohortSpec
    from repro.synth.packs import STYLE_PACKS
    from repro.synth.traps import all_traps
    from tests.linkgrammar.test_parser import TestLinkageInvariants

    seen: set[tuple] = set()
    shapes: list[tuple[list[str], list[str] | None]] = []

    def record(words, tags) -> None:
        key = (tuple(words), tuple(tags) if tags else None)
        if key not in seen:
            seen.add(key)
            shapes.append((list(words), list(tags) if tags else None))

    for words in TestLinkageInvariants.SENTENCES:
        record(words, None)

    extractor = RecordExtractor()
    parser = extractor.numeric.parser
    real_parse = parser.parse

    def recording_parse(words, tags=None):
        record(words, tags)
        return real_parse(words, tags)

    parser.parse = recording_parse
    try:
        for pack in STYLE_PACKS:
            records, _ = pack.generate_cohort(
                CohortSpec.paper(), seed=COHORT_SEED
            )
            for patient in records:
                extractor.extract(patient)
        for case in all_traps():
            extractor.extract(case.record)
    finally:
        del parser.parse
    return shapes


def build() -> dict:
    """The golden corpus, computed with the current parser."""
    parser = LinkGrammarParser()
    return {
        "regenerate": "PYTHONPATH=src python -m "
        "tests.linkgrammar.golden_parses",
        "shapes": [
            {
                "words": words,
                "tags": tags,
                "sha256": digest(outcome(parser, words, tags)),
            }
            for words, tags in collect_shapes()
        ],
    }


def load() -> list[dict]:
    return json.loads(GOLDEN_PATH.read_text())["shapes"]


if __name__ == "__main__":
    corpus = build()
    GOLDEN_PATH.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"wrote {len(corpus['shapes'])} shapes to {GOLDEN_PATH}")
