"""Fused single-pass NLP scanner.

The staged pipeline walks the token list four times (tokenize → split →
tag → numbers) and re-derives token surfaces from character spans at
every stage.  :class:`FusedScanner` performs the same work in one
traversal: one regex sweep yields the surfaces/kinds/spans as flat
parallel lists (surfaces interned, so repeated clinical vocabulary
shares storage across records), sentence boundaries and number spans
are derived from those lists, each sentence group is tagged directly,
and the annotations are stored in bulk.  From the same lists the
scanner builds every sentence's view (texts, lowercased texts, tags,
numbers, start index) and installs them on the document, so the
extractors never rebuild them from the annotations.

Parity is by construction, not by reimplementation: the scanner calls
the exact same building blocks as the staged components —
:func:`scan_tokens` (behind :meth:`Tokenizer.tokenize_text`),
:func:`sentence_boundaries`, :meth:`PosTagger.tag`,
:func:`collect_number_features` and :func:`sentence_view` — and adds
annotations in the same type order (Tokens, Sentences, Numbers), so the
resulting documents and their views are identical to the staged
pipeline's.  ``tests/nlp/test_scanner_parity.py`` holds the gate.
"""

from __future__ import annotations

import bisect

from repro.nlp.document import Document, align_tokens, sentence_view
from repro.nlp.numbers import collect_number_features
from repro.nlp.pos_tagger import PosTagger
from repro.nlp.sentence_splitter import sentence_boundaries
from repro.nlp.tokenizer import scan_tokens
from repro import profiling


class FusedScanner:
    """Tokens + sentences + POS + numbers in a single traversal."""

    def __init__(self, split_on_newline: bool = True) -> None:
        self.tagger = PosTagger()
        self.split_on_newline = split_on_newline

    def annotate(self, document: Document) -> None:
        with profiling.stage("tokenize"):
            texts, kinds, spans = scan_tokens(document.text)
        if not texts:
            return

        with profiling.stage("sentence"):
            bounds = sentence_boundaries(
                document.text, spans, texts, self.split_on_newline
            )

        with profiling.stage("pos"):
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

        with profiling.stage("number"):
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
