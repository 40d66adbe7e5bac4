"""GATE-style document and annotation model.

The paper uses GATE (General Architecture for Text Engineering) for
tokenization, sentence splitting, part-of-speech tagging and number
annotation.  GATE's central abstraction is a *document* carrying sets of
typed, feature-bearing *annotations* over character spans; processing
resources read earlier annotations and add new ones.  This module
reimplements that contract in a few hundred lines: a
:class:`Document` owns an :class:`AnnotationSet`, and the components in
:mod:`repro.nlp.pipeline` populate it in order.

Annotation types used across the library:

``Token``
    one lexical token; features: ``kind`` (:class:`TokenKind`), ``pos``
    (Penn-style tag, set by the tagger), ``lemma`` (set on demand).
``Sentence``
    one sentence span.
``Number``
    a numeric mention; features: ``value`` (float), ``values`` (tuple of
    floats for ratios such as blood pressure ``144/90``), ``form``
    (``digits`` / ``words`` / ``ratio``).
``Section``
    a record section; feature ``name`` holds the canonical header.
"""

from __future__ import annotations

import bisect
import itertools
import sys
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Any, Iterable, Iterator


class TokenKind(str, Enum):
    """Lexical class assigned by the tokenizer."""

    WORD = "word"
    NUMBER = "number"
    RATIO = "ratio"  # 144/90, 98.6/37 — slash-joined readings
    PUNCT = "punct"
    SYMBOL = "symbol"


@dataclass(slots=True)
class Annotation:
    """A typed span of document text with arbitrary features.

    Annotations compare by span then id so that sorted annotation lists
    read in document order.
    """

    id: int
    type: str
    start: int
    end: int
    features: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(
                f"invalid span [{self.start}, {self.end}) for {self.type}"
            )

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)

    def text(self, document_text: str) -> str:
        """Return the covered text given the owning document's text."""
        return document_text[self.start:self.end]

    def overlaps(self, other: "Annotation") -> bool:
        """True when the two spans share at least one character."""
        return self.start < other.end and other.start < self.end

    def contains(self, other: "Annotation") -> bool:
        """True when *other* lies fully within this span."""
        return self.start <= other.start and other.end <= self.end

    def __lt__(self, other: "Annotation") -> bool:
        return (self.start, self.end, self.id) < (
            other.start,
            other.end,
            other.id,
        )


#: Document order of annotations: span, then id (see ``Annotation``).
_ORDER = attrgetter("start", "end", "id")


class AnnotationSet:
    """An ordered, indexable collection of annotations.

    Lookups the extraction code performs constantly — "tokens inside
    this sentence", "numbers inside this span" — are served from a
    per-type list kept sorted by start offset.
    """

    def __init__(self) -> None:
        self._by_type: dict[str, list[Annotation]] = {}
        self._ids = itertools.count(1)

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_type.values())

    def __iter__(self) -> Iterator[Annotation]:
        return iter(sorted(self.all(), key=_ORDER))

    def all(self) -> list[Annotation]:
        return [a for anns in self._by_type.values() for a in anns]

    def add(
        self,
        type: str,
        start: int,
        end: int,
        features: dict[str, Any] | None = None,
    ) -> Annotation:
        """Create, store and return a new annotation."""
        return self.extend(type, [(start, end, dict(features or {}))])[0]

    def extend(
        self,
        type: str,
        rows: Iterable[tuple[int, int, dict[str, Any]]],
    ) -> list[Annotation]:
        """Store one annotation per ``(start, end, features)`` row.

        *rows* must be in document order; each annotation takes over
        its row's features dict without copying it.  Returns the new
        annotations in row order.
        """
        # rows first: zip stops on them without drawing an unused id.
        added = [
            Annotation(id, type, start, end, features)
            for (start, end, features), id in zip(rows, self._ids)
        ]
        if not added:
            return added
        stored = self._by_type.setdefault(type, [])
        # Components add in document order: appending is the common
        # case; rows that sort before the stored tail bisect into place.
        if not stored or _ORDER(stored[-1]) < _ORDER(added[0]):
            stored.extend(added)
        else:
            for ann in added:
                stored.insert(
                    bisect.bisect(stored, _ORDER(ann), key=_ORDER), ann
                )
        return added

    def of_type(self, type: str) -> list[Annotation]:
        """All annotations of *type* in document order."""
        return list(self._by_type.get(type, ()))

    def types(self) -> set[str]:
        return set(self._by_type)

    def within(self, type: str, start: int, end: int) -> list[Annotation]:
        """Annotations of *type* fully contained in [start, end)."""
        return [
            a
            for a in self._by_type.get(type, ())
            if start <= a.start and a.end <= end
        ]

    def covering(self, type: str, offset: int) -> list[Annotation]:
        """Annotations of *type* whose span covers *offset*."""
        return [
            a
            for a in self._by_type.get(type, ())
            if a.start <= offset < a.end
        ]

    def first_within(
        self, type: str, start: int, end: int
    ) -> Annotation | None:
        """First annotation of *type* inside [start, end), or ``None``."""
        inside = self.within(type, start, end)
        return inside[0] if inside else None

    def remove(self, annotation: Annotation) -> None:
        """Delete a previously added annotation.

        Raises ``ValueError`` if the annotation is not in the set.
        """
        self._by_type.get(annotation.type, []).remove(annotation)


class Document:
    """A text plus the annotations accumulated by pipeline components."""

    def __init__(self, text: str, name: str = "") -> None:
        self.text = text
        self.name = name
        self.annotations = AnnotationSet()
        #: Set by the fused scanner, else by :meth:`sentence_views`.
        self._sentence_views: list["SentenceView"] | None = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Document(name={self.name!r}, chars={len(self.text)}, "
            f"annotations={len(self.annotations)})"
        )

    # Convenience accessors used throughout extraction code -------------

    def tokens(self, within: Annotation | None = None) -> list[Annotation]:
        """Token annotations, optionally restricted to a covering span."""
        if within is None:
            return self.annotations.of_type("Token")
        return self.annotations.within("Token", within.start, within.end)

    def sentences(self) -> list[Annotation]:
        return self.annotations.of_type("Sentence")

    def numbers(self, within: Annotation | None = None) -> list[Annotation]:
        if within is None:
            return self.annotations.of_type("Number")
        return self.annotations.within("Number", within.start, within.end)

    def span_text(self, annotation: Annotation) -> str:
        return annotation.text(self.text)

    def token_texts(
        self, within: Annotation | None = None
    ) -> list[str]:
        return [self.span_text(t) for t in self.tokens(within)]

    def sentence_views(self) -> list["SentenceView"]:
        """Per-sentence token/number views: built by the fused
        scanner, lazily otherwise.

        The extraction hot path repeatedly needs "the tokens of this
        sentence plus their texts, lowercased texts, and POS tags"; each
        of those used to be rebuilt per extractor call with an O(T)
        containment scan.  The fused scanner builds the views from the
        lists it already holds while it annotates; for a document from
        any other pipeline they are built on the first call, in one
        pointer walk over the (sorted) token and number lists.  Either
        way they are cached on the document, which itself lives in the
        document cache.

        Views snapshot the Token, Sentence and Number annotations when
        they are built — call this only after the pipeline has run.
        """
        views = self._sentence_views
        if views is None:
            views = _build_sentence_views(self)
            self._sentence_views = views
        return views


@dataclass(slots=True)
class SentenceView:
    """Precomputed per-sentence token context for the extractors.

    ``cache`` is scratch space for extractor-private memos (keyed by an
    extractor-owned token object) so work derived from the view — term
    candidates, negation scopes, linkage parses, ID3 word features —
    is shared across the attributes that visit the same sentence.
    """

    sentence: Annotation
    tokens: list[Annotation]
    texts: list[str]
    lowers: list[str]
    tags: list[str]
    numbers: list[Annotation]
    token_index_by_start: dict[int, int]
    cache: dict[Any, Any] = field(default_factory=dict)


def sentence_view(
    sentence: Annotation,
    tokens: list[Annotation],
    texts: list[str],
    tags: list[str],
    numbers: list[Annotation],
) -> SentenceView:
    """The view of *sentence* from its tokens, their interned surface
    texts and POS tags, and the numbers inside it.

    The one view builder: the fused scanner calls it with slices of
    the lists it scanned, :meth:`Document.sentence_views` with lists
    re-derived from the annotations.
    """
    intern = sys.intern
    return SentenceView(
        sentence=sentence,
        tokens=tokens,
        texts=texts,
        lowers=[intern(text.lower()) for text in texts],
        tags=tags,
        numbers=numbers,
        token_index_by_start={t.start: i for i, t in enumerate(tokens)},
    )


def _build_sentence_views(document: Document) -> list[SentenceView]:
    sentences = document.sentences()
    spans = [(s.start, s.end) for s in sentences]
    text = document.text
    intern = sys.intern
    return [
        sentence_view(
            sentence,
            toks,
            [intern(text[t.start:t.end]) for t in toks],
            [t.features.get("pos", "") for t in toks],
            nums,
        )
        for sentence, toks, nums in zip(
            sentences,
            align_tokens(document.tokens(), spans),
            align_tokens(document.numbers(), spans),
        )
    ]


def align_tokens(
    tokens: Iterable[Annotation], spans: Iterable[tuple[int, int]]
) -> list[list[Annotation]]:
    """Group *tokens* by the (sorted, disjoint) *spans* that contain them.

    Tokens falling outside every span, or straddling two, are dropped.
    Used to build per-sentence token and number lists.
    """
    groups: list[list[Annotation]] = []
    toks = sorted(tokens, key=_ORDER)
    i = 0
    for start, end in spans:
        group: list[Annotation] = []
        while i < len(toks) and toks[i].start < end:
            if toks[i].start >= start and toks[i].end <= end:
                group.append(toks[i])
            i += 1
        groups.append(group)
    return groups
