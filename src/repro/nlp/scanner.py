"""Fused single-pass NLP scanner.

The paper's GATE application runs four stages — tokenize, split,
tag, numbers.  :class:`FusedScanner` performs them in one traversal:
one regex sweep (:func:`scan_tokens`) yields the surfaces/kinds/spans
as flat parallel lists (surfaces interned, so repeated clinical
vocabulary shares storage across records), sentence boundaries
(:func:`sentence_boundaries`) and number spans
(:func:`collect_number_features`) are derived from those lists, each
sentence group is tagged directly (:meth:`PosTagger.tag`), and the
annotations are stored in bulk, in type order (Tokens, Sentences,
Numbers).  From the same lists the scanner builds every sentence's
view (texts, lowercased texts, tags, numbers, start index) with
:func:`sentence_view` and installs them on the document, so the
extractors never rebuild them from the annotations.

``tests/nlp/test_scanner_parity.py`` holds the scanner's output to
those building blocks, and ``golden_extractions.json`` pins its
annotations and views byte for byte.
"""

from __future__ import annotations

import bisect

from repro.nlp.document import Document, align_tokens, sentence_view
from repro.nlp.numbers import collect_number_features
from repro.nlp.pos_tagger import PosTagger
from repro.nlp.sentence_splitter import sentence_boundaries
from repro.nlp.tokenizer import scan_tokens
from repro import tracing


class FusedScanner:
    """Tokens + sentences + POS + numbers in a single traversal."""

    def __init__(self) -> None:
        self.tagger = PosTagger()

    def annotate(self, document: Document) -> None:
        with tracing.span("tokenize"):
            texts, kinds, spans = scan_tokens(document.text)
        if not texts:
            return

        with tracing.span("split"):
            bounds = sentence_boundaries(document.text, spans, texts)

        with tracing.span("pos"):
            # Sentences tile the tokens in order and end where a token
            # ends, so bisecting the token ends finds each sentence's
            # token range.
            ends = [end for _, end in spans]
            ranges: list[tuple[int, int]] = []
            tags: list[str] = []
            i = 0
            for _, end in bounds:
                j = bisect.bisect_right(ends, end, i)
                ranges.append((i, j))
                tags += self.tagger.tag(texts[i:j], kinds[i:j])
                i = j

        annotations = document.annotations
        tokens = annotations.extend(
            "Token",
            [
                (start, end, {"kind": kind, "pos": tag})
                for (start, end), kind, tag in zip(spans, kinds, tags)
            ],
        )
        sentences = annotations.extend(
            "Sentence", [(start, end, {}) for start, end in bounds]
        )

        with tracing.span("number"):
            numbers = annotations.extend(
                "Number", collect_number_features(texts, kinds, spans)
            )

        document._sentence_views = [
            sentence_view(
                sentence, tokens[i:j], texts[i:j], tags[i:j], in_sentence
            )
            for sentence, (i, j), in_sentence in zip(
                sentences, ranges, align_tokens(numbers, bounds)
            )
        ]
