"""Numeric field extraction (§3.1): link-grammar association with
pattern fallback.

The pipeline per attribute and sentence:

1. identify feature mentions (keyword + synonyms + inflected variants);
2. annotate numbers (done by the NLP pipeline);
3. **associate**: parse the sentence with the link grammar parser,
   convert the linkage to a weighted graph, and pick the number at the
   shortest distance from the feature head ("the association of
   feature and number in a sentence is equivalent to searching for the
   node (feature) with the shortest distance from a fixed node");
4. when the parser fails — fragments like ``blood pressure: 144/90`` —
   fall back to the linguistic patterns ``CONCEPT is NUMBER``,
   ``CONCEPT of NUMBER``, ``CONCEPT, NUMBER``, ``CONCEPT: NUMBER``;
5. validate the value against the attribute's plausible range.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum

from repro import tracing
from repro.extraction.features import FeatureLexicon, FeatureMention
from repro.extraction.schema import (
    NUMERIC_ATTRIBUTES,
    NumericAttribute,
)
from repro.extraction.temporal import (
    blocked_token_indices as temporal_blocked_indices,
)
from repro.linkgrammar.distance import ASSOCIATION_WEIGHTS, nearest_word
from repro.linkgrammar.linkage import Linkage
from repro.linkgrammar.parser import LinkGrammarParser
from repro.nlp.document import Document, SentenceView
from repro.nlp.pipeline import Pipeline, default_pipeline
from repro.records.model import PatientRecord
from repro.runtime.cache import DocumentCache, LinkageCache

#: Words the patterns allow between the feature and its number.
_PATTERN_GAP_WORDS = frozenset(
    {"is", "was", "are", "were", "of", ",", ":", "a", "an", "about",
     "at", "approximately", "the"}
)
_PATTERN_WINDOW = 4  # max gap tokens between feature end and number


class Method(str, Enum):
    """How a value was associated with its feature."""

    REGEX = "regex"          # attribute-specific surface pattern
    ALIGNMENT = "alignment"  # parallel-list ordinal alignment
    LINKAGE = "linkage"      # link-grammar shortest distance
    PATTERN = "pattern"      # CONCEPT is/of/,/: NUMBER fallback
    PROXIMITY = "proximity"  # nearest number by token distance


@dataclass(frozen=True)
class NumericExtraction:
    """One extracted numeric value with provenance.

    ``detail`` names the exact decision inside the method: the regex
    pattern that fired, the linkage graph distance, the fallback
    pattern's gap words, or the proximity token distance.
    """

    attribute: str
    value: float | tuple[float, float]
    method: Method
    sentence: str
    detail: str = ""

    def to_dict(self) -> dict:
        """JSON-safe form (ratio tuples become two-element lists)."""
        value = (
            list(self.value)
            if isinstance(self.value, tuple)
            else self.value
        )
        return {
            "attribute": self.attribute,
            "value": value,
            "method": self.method.value,
            "sentence": self.sentence,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NumericExtraction":
        raw = data["value"]
        value: float | tuple[float, float] = (
            tuple(float(part) for part in raw)  # type: ignore[assignment]
            if isinstance(raw, (list, tuple))
            else float(raw)
        )
        return cls(
            attribute=data["attribute"],
            value=value,
            method=Method(data["method"]),
            sentence=data["sentence"],
            detail=data.get("detail", ""),
        )


@dataclass(frozen=True)
class CandidateDistance:
    """One candidate number and its distance from the feature."""

    value: float | tuple[float, float]
    token_index: int
    graph_distance: float | None  # None when no linkage exists


@dataclass(frozen=True)
class AssociationExplanation:
    """Audit trail for one feature→number association decision."""

    attribute: str
    sentence: str
    feature_surface: str
    parsed: bool
    candidates: tuple[CandidateDistance, ...]
    chosen: float | tuple[float, float] | None
    method: Method | None

    def render(self) -> str:
        lines = [
            f"{self.attribute}: {self.sentence!r}",
            f"  feature: {self.feature_surface!r}  "
            f"parsed: {self.parsed}",
        ]
        for candidate in self.candidates:
            distance = (
                f"{candidate.graph_distance:.2f}"
                if candidate.graph_distance is not None
                else "-"
            )
            marker = " <== chosen" if (
                candidate.value == self.chosen
            ) else ""
            lines.append(
                f"  candidate {candidate.value} "
                f"(token {candidate.token_index}, "
                f"distance {distance}){marker}"
            )
        lines.append(
            f"  method: {self.method.value if self.method else 'none'}"
        )
        return "\n".join(lines)


class NumericExtractor:
    """Extracts the schema's eight numeric attributes from records."""

    def __init__(
        self,
        attributes: tuple[NumericAttribute, ...] = NUMERIC_ATTRIBUTES,
        parser: LinkGrammarParser | None = None,
        pipeline: Pipeline | None = None,
        use_linkage: bool = True,
        use_patterns: bool = True,
        use_proximity: bool = True,
        use_alignment: bool = True,
        context_filter: bool = True,
        document_cache: DocumentCache | None = None,
        linkage_cache: LinkageCache | None = None,
        regex_index: dict[str, str] | None = None,
    ) -> None:
        self.attributes = attributes
        self.parser = parser or LinkGrammarParser()
        self.document_cache = document_cache
        if pipeline is None and document_cache is not None:
            pipeline = document_cache.pipeline
        self.pipeline = pipeline or default_pipeline()
        self.use_linkage = use_linkage
        self.use_patterns = use_patterns
        self.use_proximity = use_proximity
        #: Parallel-list ordinal alignment ("rate, saturation, and EF
        #: are 12, 95, and 45"), tried before linkage when the list
        #: structure matches exactly.
        self.use_alignment = use_alignment
        #: Prior-value suppression (repro.extraction.temporal): the
        #: numeric sibling of the term extractor's NegEx-lite filter.
        #: On by default; pass False to study the unfiltered extractor.
        self.context_filter = context_filter
        self._lexicons = {
            attr.name: FeatureLexicon(attr) for attr in attributes
        }
        # Cross-record parse cache: keyed by the dictionary-resolution
        # signature of the token sequence, so it is never invalidated
        # between records (consistent dictation styles repeat sentence
        # shapes across a whole cohort).
        self.linkage_cache = (
            LinkageCache() if linkage_cache is None else linkage_cache
        )
        #: Per-attribute alternation of ``regex_patterns``, used purely
        #: as a no-match prefilter (the original ordered per-pattern
        #: loop still decides which pattern fires and how out-of-range
        #: matches fall through).  Supplied precompiled-artifact side
        #: as pattern strings; built here when absent.
        self.regex_index = regex_index or {
            attr.name: "|".join(
                f"(?:{p})" for p in attr.regex_patterns
            )
            for attr in attributes
            if len(attr.regex_patterns) > 1
        }
        self._regex_compiled: dict[str, re.Pattern | None] = {}
        # Key for extractor-private memos on a sentence view's cache
        # (the resolved linkage; attributes sharing a sentence parse
        # it once per record instead of once each).
        self._view_token = object()

    # ------------------------------------------------------------ public

    def extract_record(
        self, record: PatientRecord
    ) -> dict[str, NumericExtraction | None]:
        """All numeric attributes of one record (None when absent).

        Each distinct section is run through the NLP pipeline once and
        the resulting document shared by every attribute reading it
        (the eight numeric attributes span only three sections).
        """
        results: dict[str, NumericExtraction | None] = {}
        documents: dict[str, Document] = {}
        with tracing.span("numeric"):
            for attr in self.attributes:
                text = record.section_text(attr.section)
                if not text:
                    results[attr.name] = None
                    continue
                if attr.section not in documents:
                    with tracing.span("section", attr.section):
                        documents[attr.section] = self._document(text)
                with tracing.span(
                    "attribute", attr.name, section=attr.section
                ):
                    found = self.extract_attribute(
                        attr, text, document=documents[attr.section]
                    )
                    if found is not None and tracing.enabled():
                        tracing.annotate(
                            method=found.method.value,
                            detail=found.detail,
                        )
                    results[attr.name] = found
        return results

    def extract_attribute(
        self,
        attr: NumericAttribute,
        text: str,
        document: Document | None = None,
    ) -> NumericExtraction | None:
        """Extract one attribute from a section's free text.

        *document* is the already-processed NLP document of *text*;
        when omitted it is produced here (via the shared document
        cache when one is configured).
        """
        patterns = attr.regex_patterns
        if patterns:
            combined = self._combined_regex(attr)
            if combined is not None and combined.search(text) is None:
                patterns = ()  # no individual pattern can match either
        for pattern in patterns:
            match = re.search(pattern, text, re.IGNORECASE)
            if match:
                value = float(match.group(1))
                if self._in_range(attr, value):
                    return NumericExtraction(
                        attr.name,
                        value,
                        Method.REGEX,
                        match.group(0),
                        detail=f"regex:{pattern}",
                    )
        if document is None:
            document = self._document(text)
        for view in document.sentence_views():
            found = self._extract_from_sentence(attr, document, view)
            if found is not None:
                return found
        return None

    def _combined_regex(
        self, attr: NumericAttribute
    ) -> "re.Pattern | None":
        """Compiled alternation over *attr*'s patterns, or ``None``."""
        if attr.name in self._regex_compiled:
            return self._regex_compiled[attr.name]
        source = self.regex_index.get(attr.name)
        compiled: re.Pattern | None = None
        if source:
            try:
                compiled = re.compile(source, re.IGNORECASE)
            except re.error:
                compiled = None  # prefilter off, per-pattern loop rules
        self._regex_compiled[attr.name] = compiled
        return compiled

    def _document(self, text: str) -> Document:
        if self.document_cache is not None:
            return self.document_cache.get(text)
        return self.pipeline.process_text(text)

    def explain_attribute(
        self, attr: NumericAttribute, text: str
    ) -> AssociationExplanation | None:
        """Audit one attribute's association over *text*.

        Returns the decision trail for the first sentence carrying a
        feature mention with candidate numbers, or ``None`` when no
        such sentence exists.
        """
        document = self._document(text)
        for view in document.sentence_views():
            mentions = self._lexicons[attr.name].find_tokens(view.lowers)
            numbers = self._candidate_numbers(attr, view, mentions)
            if not mentions or not numbers:
                continue
            mention = mentions[0]
            sentence_text = document.span_text(view.sentence)
            linkage = self._parse_cached(view)
            distances: dict[int, float] = {}
            if linkage is not None:
                token_to_pos = {
                    tok: pos
                    for pos, tok in enumerate(linkage.token_map)
                    if tok is not None
                }
                feature_pos = token_to_pos.get(mention.head_token)
                if feature_pos is not None:
                    from repro.linkgrammar.distance import (
                        linkage_distances,
                    )

                    all_distances = linkage_distances(
                        linkage, feature_pos, ASSOCIATION_WEIGHTS
                    )
                    distances = {
                        tok: all_distances[pos]
                        for tok, pos in token_to_pos.items()
                        if pos in all_distances
                    }
            extraction = self._extract_from_sentence(attr, document, view)
            return AssociationExplanation(
                attribute=attr.name,
                sentence=sentence_text,
                feature_surface=mention.surface,
                parsed=linkage is not None,
                candidates=tuple(
                    CandidateDistance(
                        value=value,
                        token_index=index,
                        graph_distance=distances.get(index),
                    )
                    for index, value in numbers
                ),
                chosen=extraction.value if extraction else None,
                method=extraction.method if extraction else None,
            )
        return None

    # --------------------------------------------------- per sentence

    def _extract_from_sentence(
        self,
        attr: NumericAttribute,
        document: Document,
        view: SentenceView,
    ) -> NumericExtraction | None:
        mentions = self._lexicons[attr.name].find_tokens(view.lowers)
        if not mentions:
            return None
        all_numbers = self._number_context(attr, view, mentions)
        numbers = [
            (index, value)
            for index, value, is_ratio in all_numbers
            if attr.is_ratio == is_ratio
            and (is_ratio or self._in_range(attr, value))
        ]
        if not numbers:
            return None
        sentence_text = document.span_text(view.sentence)

        with tracing.span(
            "sentence",
            sentence_text,
            attribute=attr.name,
            mentions=len(mentions),
            candidates=len(numbers),
        ):
            found = self._associate_mentions(
                attr, view, mentions, numbers, sentence_text, all_numbers
            )
            if found is not None and tracing.enabled():
                tracing.annotate(
                    method=found.method.value,
                    value=str(found.value),
                    detail=found.detail,
                )
            return found

    def _associate_mentions(
        self,
        attr: NumericAttribute,
        view: SentenceView,
        mentions: list[FeatureMention],
        numbers: list[tuple[int, float | tuple[float, float]]],
        sentence_text: str,
        all_numbers: list[tuple[int, float | tuple[float, float], bool]],
    ) -> NumericExtraction | None:
        texts = view.lowers
        for mention in mentions:
            if self.use_alignment:
                hit = self._associate_by_alignment(
                    attr, texts, mention, all_numbers
                )
                if hit is not None:
                    value, detail = hit
                    return NumericExtraction(
                        attr.name, value, Method.ALIGNMENT,
                        sentence_text, detail=detail,
                    )
            if self.use_linkage:
                with tracing.span(
                    "association", mention.surface, strategy="linkage"
                ):
                    hit = self._associate_by_linkage(view, mention, numbers)
                if hit is not None:
                    value, detail = hit
                    if self._value_ok(attr, value):
                        return NumericExtraction(
                            attr.name, value, Method.LINKAGE,
                            sentence_text, detail=detail,
                        )
                    continue  # associated but implausible: next mention
            if self.use_patterns:
                hit = self._associate_by_pattern(
                    texts, mention, numbers
                )
                if hit is not None:
                    value, detail = hit
                    if self._value_ok(attr, value):
                        return NumericExtraction(
                            attr.name, value, Method.PATTERN,
                            sentence_text, detail=detail,
                        )
            if self.use_proximity:
                hit = self._associate_by_proximity(mention, numbers)
                if hit is not None:
                    value, detail = hit
                    if self._value_ok(attr, value):
                        return NumericExtraction(
                            attr.name, value, Method.PROXIMITY,
                            sentence_text, detail=detail,
                        )
        return None

    def _candidate_numbers(
        self,
        attr: NumericAttribute,
        view: SentenceView,
        mentions: list[FeatureMention],
    ) -> list[tuple[int, float | tuple[float, float]]]:
        """(token index, value) pairs for numbers matching the shape.

        Shape- and range-filtered over :meth:`_number_context`: ratio
        attributes keep ratio annotations (``_value_ok`` bounds both
        readings later), scalar attributes keep plain numbers already
        inside ``[minimum, maximum]`` — an out-of-range number can
        never be this attribute's value, and leaving it in lets the
        linkage associate it and mask the in-range answer.
        """
        context = self._number_context(attr, view, mentions)
        return [
            (index, value)
            for index, value, is_ratio in context
            if attr.is_ratio == is_ratio
            and (is_ratio or self._in_range(attr, value))
        ]

    def _number_context(
        self,
        attr: NumericAttribute,
        view: SentenceView,
        mentions: list[FeatureMention],
    ) -> list[tuple[int, float | tuple[float, float], bool]]:
        """All usable (index, value, is_ratio) numbers of a sentence.

        Two context filters run before any shape/range logic:

        * prior-value suppression (:mod:`repro.extraction.temporal`) —
          numbers inside a temporal clause or a "down from X"
          trajectory are never candidates;
        * feature-mention exclusion — a digit inside the feature's own
          surface ("SpO2" tokenizes into ``spo``/``2``) is part of the
          keyword, not a value.
        """
        token_starts = view.token_index_by_start
        blocked = (
            self._blocked_indices(view)
            if self.context_filter
            else frozenset()
        )
        spans = (
            tuple((m.start_token, m.end_token) for m in mentions)
            if mentions
            else ()
        )
        out: list[tuple[int, float | tuple[float, float], bool]] = []
        for number in view.numbers:
            index = token_starts.get(number.start)
            if index is None:
                continue
            if index in blocked:
                continue
            if any(start <= index < end for start, end in spans):
                continue
            is_ratio = number.features.get("form") == "ratio"
            value = (
                number.features["values"][:2]
                if is_ratio
                else number.features["value"]
            )
            out.append((index, value, is_ratio))
        return out

    def _blocked_indices(self, view: SentenceView) -> frozenset[int]:
        """Temporal-filter scope of one sentence, memoized per view."""
        memo = view.cache.get(self._view_token)
        if memo is None:
            memo = {}
            view.cache[self._view_token] = memo
        blocked = memo.get("temporal-blocked")
        if blocked is None:
            blocked = temporal_blocked_indices(view.lowers)
            memo["temporal-blocked"] = blocked
        return blocked

    # ------------------------------------------------------ association

    #: Tokens allowed between list items on either side of the copula.
    _LIST_SEPARATORS = frozenset({",", "and"})
    #: Copulas introducing a parallel value list.
    _LIST_COPULAS = frozenset({"are", "were"})

    def _associate_by_alignment(
        self,
        attr: NumericAttribute,
        texts: list[str],
        mention: FeatureMention,
        all_numbers: list[
            tuple[int, float | tuple[float, float], bool]
        ],
    ) -> tuple[float | tuple[float, float], str] | None:
        """Parallel-list alignment: k-th concept takes the k-th value.

        Run-on dictation lists features and values in lockstep:
        "Respiratory rate, oxygen saturation, and ejection fraction
        are 12, 95, and 45."  Graph distance cannot tell the values
        apart — ordinal position can.  The rule only fires when the
        structure is airtight: a plural copula after the mention,
        values separated by nothing but commas/"and", and exactly as
        many values as concept segments.  The aligned value must also
        satisfy the attribute's shape and range, else the sentence was
        misread and the association cascade proceeds as usual.
        """
        copula = None
        for index in range(mention.end_token, len(texts)):
            if texts[index] in self._LIST_COPULAS:
                copula = index
                break
        if copula is None:
            return None
        # Values: every number after the copula, commas/"and" only in
        # the gaps; one trailing unit word per value is tolerated
        # ("154 pounds"), anything else breaks the structure.
        values: list[tuple[float | tuple[float, float], bool]] = []
        by_index = {index: (value, r) for index, value, r in all_numbers}
        position = copula + 1
        trailing = 0
        while position < len(texts):
            if position in by_index:
                values.append(by_index[position])
                trailing = 0
            elif texts[position] in self._LIST_SEPARATORS:
                pass
            elif texts[position] == ".":
                break
            elif values and trailing == 0:
                trailing = 1  # unit word riding on the last value
            else:
                return None
            position += 1
        if len(values) < 2:
            return None
        # Concepts: comma/"and"-separated segments before the copula.
        segments: list[tuple[int, int]] = []
        start = 0
        for index in range(copula + 1):
            if index == copula or texts[index] in self._LIST_SEPARATORS:
                if index > start:
                    segments.append((start, index))
                start = index + 1
        if len(segments) != len(values):
            return None
        ordinal = next(
            (
                k for k, (seg_start, seg_end) in enumerate(segments)
                if seg_start <= mention.start_token < seg_end
            ),
            None,
        )
        if ordinal is None:
            return None
        value, is_ratio = values[ordinal]
        if attr.is_ratio != is_ratio or not self._value_ok(attr, value):
            return None
        return value, f"list-ordinal={ordinal}"

    def _associate_by_linkage(
        self,
        view: SentenceView,
        mention: FeatureMention,
        numbers: list[tuple[int, float | tuple[float, float]]],
    ) -> tuple[float | tuple[float, float], str] | None:
        linkage = self._parse_cached(view)
        if linkage is None:
            return None
        token_to_pos = {
            tok_idx: pos
            for pos, tok_idx in enumerate(linkage.token_map)
            if tok_idx is not None
        }
        feature_pos = token_to_pos.get(mention.head_token)
        candidates = {
            token_to_pos[i]: value
            for i, value in numbers
            if i in token_to_pos
        }
        if feature_pos is None or not candidates:
            return None
        best, distance = nearest_word(
            linkage,
            feature_pos,
            list(candidates),
            weights=ASSOCIATION_WEIGHTS,
        )
        if best is None or math.isinf(distance):
            return None
        return candidates[best], f"graph-distance={distance:g}"

    def _parse_cached(self, view: SentenceView) -> Linkage | None:
        # Memoize the resolved linkage on the view: every attribute
        # visiting this sentence pays the tags rebuild and
        # cache-signature computation once per record.  Sharing one
        # Linkage object is safe — hits already share its distance
        # memo by design.
        memo = view.cache.get(self._view_token)
        if memo is None:
            memo = {}
            view.cache[self._view_token] = memo
        if "linkage" in memo:
            return memo["linkage"]
        tags = view.tags
        if "" in tags:  # untagged tokens default to NN
            tags = [t or "NN" for t in tags]
        linkage = self.linkage_cache.lookup(self.parser, view.lowers, tags)
        memo["linkage"] = linkage
        return linkage

    def _associate_by_pattern(
        self,
        texts: list[str],
        mention: FeatureMention,
        numbers: list[tuple[int, float | tuple[float, float]]],
    ) -> tuple[float | tuple[float, float], str] | None:
        """CONCEPT is/of/,/: NUMBER — a number shortly after the feature.

        The gap may only contain pattern words ("is", "of", ",", ":",
        articles); any other word breaks the pattern.  The returned
        detail spells out the instantiated pattern, e.g.
        ``CONCEPT of NUMBER``.
        """
        by_index = dict(numbers)
        gap: list[str] = []
        for index in range(
            mention.end_token,
            min(mention.end_token + _PATTERN_WINDOW + 1, len(texts)),
        ):
            if index in by_index:
                shape = " ".join(["CONCEPT", *gap, "NUMBER"])
                return by_index[index], f"pattern:{shape}"
            if texts[index] not in _PATTERN_GAP_WORDS:
                return None
            gap.append(texts[index])
        return None

    def _associate_by_proximity(
        self,
        mention: FeatureMention,
        numbers: list[tuple[int, float | tuple[float, float]]],
    ) -> tuple[float | tuple[float, float], str] | None:
        """Nearest number by token distance, rightward ties first."""
        if not numbers:
            return None
        best = min(
            numbers,
            key=lambda pair: (
                abs(pair[0] - mention.head_token),
                0 if pair[0] > mention.head_token else 1,
            ),
        )
        distance = abs(best[0] - mention.head_token)
        return best[1], f"token-distance={distance}"

    # ------------------------------------------------------- validation

    @staticmethod
    def _in_range(attr: NumericAttribute, value: float) -> bool:
        return attr.minimum <= value <= attr.maximum

    def _value_ok(
        self, attr: NumericAttribute, value
    ) -> bool:
        if attr.is_ratio:
            if not isinstance(value, tuple) or len(value) != 2:
                return False
            systolic, diastolic = value
            low = (
                attr.second_minimum
                if attr.second_minimum is not None
                else attr.minimum
            )
            high = (
                attr.second_maximum
                if attr.second_maximum is not None
                else attr.maximum
            )
            return (
                self._in_range(attr, systolic)
                and low <= diastolic <= high
                and diastolic < systolic
            )
        return isinstance(value, float) and self._in_range(attr, value)
