"""Medical term extraction (§3.2): POS patterns + domain ontology.

Algorithm, verbatim from the paper:

1. POS-tag each sentence;
2. propose candidate terms with the ordered patterns ``JJ NN NN``,
   ``NN NN``, ``JJ NN``, ``NN``;
3. normalize the candidate (lemmatize words, sort alphabetically) and
   look it up in the vocabulary; "If a term exists in the database, we
   then save it and continue to look for terms after the current
   term's endpoint.  Otherwise, we look for terms matching the next
   pattern from the current starting point."

Predefined-column assignment defaults to the paper's *proposed fix*
(``use_synonyms=True``): a hit is assigned by its resolved concept, so
synonyms of predefined terms land in the predefined column.  §5 blames
the v1 surface-name assignment for the predefined-surgery recall of
35% ("failures to recognize the synonyms of predefined surgical terms
and improper assignments of them to other surgical terms"); pass
``use_synonyms=False`` to reproduce that v1 behaviour (the Table 1
experiment does, as the paper's oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import tracing
from repro.extraction.negation import blocked_token_indices
from repro.extraction.schema import TERMS_ATTRIBUTES, TermsAttribute
from repro.nlp.document import SentenceView
from repro.nlp.pipeline import Pipeline, default_pipeline
from repro.ontology.automaton import TermAutomaton
from repro.ontology.builder import default_ontology
from repro.ontology.concept import ConceptMatch, SemanticType
from repro.ontology.normalizer import TermNormalizer
from repro.ontology.store import CompiledOntology, OntologyStore
from repro.records.model import PatientRecord
from repro.runtime.cache import DocumentCache

#: The candidate patterns, ordered longest first: the paper's four
#: (JJ NN NN / NN NN / JJ NN / NN) plus two dictation shapes the
#: paper's set cannot propose — the prepositional synonym surface
#: "removal of the gallbladder" (NN IN DT NN) and the three-noun
#: compound "breast conservation surgery" (NN NN NN).  Both families
#: appear throughout the surgical synonym vocabulary, and a candidate
#: that is never proposed can never be looked up, which is exactly the
#: §5 predefined-surgery recall failure.
POS_PATTERNS: tuple[tuple[str, ...], ...] = (
    ("NN", "IN", "DT", "NN"),
    ("JJ", "NN", "NN"),
    ("NN", "NN", "NN"),
    ("NN", "NN"),
    ("JJ", "NN"),
    ("NN",),
)

#: Tags accepted for each pattern slot.  Clinical dictation uses
#: participles adjectivally ("screening mammogram") and plurals as
#: heads ("gallstones"), which Penn distinguishes but the paper's
#: two-class patterns do not.
_SLOT_TAGS: dict[str, frozenset[str]] = {
    "JJ": frozenset({"JJ", "JJR", "JJS", "VBG", "VBN"}),
    "NN": frozenset({"NN", "NNS", "NNP"}),
    "IN": frozenset({"IN"}),
    "DT": frozenset({"DT"}),
}


@dataclass(frozen=True)
class TermHit:
    """One extracted term occurrence.

    ``pattern`` is the candidate POS pattern that proposed the term
    (e.g. ``"JJ NN"``) — the provenance of the hit.
    """

    surface: str
    normalized: str
    concept_name: str
    cui: str
    semantic_type: SemanticType
    start_token: int
    end_token: int
    pattern: str = ""


class TermExtractor:
    """Extracts ontology-validated terms from section text."""

    def __init__(
        self,
        ontology: OntologyStore | CompiledOntology | None = None,
        pipeline: Pipeline | None = None,
        use_synonyms: bool = True,
        normalizer: TermNormalizer | None = None,
        document_cache: DocumentCache | None = None,
        attributes: tuple[TermsAttribute, ...] | None = None,
        context_filter: bool = True,
        automaton: TermAutomaton | None = None,
    ) -> None:
        self.ontology = ontology or default_ontology()
        self.attributes: tuple[TermsAttribute, ...] = (
            tuple(attributes) if attributes is not None
            else TERMS_ATTRIBUTES
        )
        # Lookups run against the compiled in-memory index (identical
        # results, no SQLite round-trip); its first-token index lets
        # the scanner skip start positions that cannot match at all.
        # Ontology-like objects without a compiled view are used as-is.
        compile_view = getattr(self.ontology, "compiled", None)
        self._index = (
            compile_view() if compile_view is not None else self.ontology
        )
        self._token_may_match = getattr(
            self._index, "token_may_match", None
        )
        self.document_cache = document_cache
        if pipeline is None and document_cache is not None:
            pipeline = document_cache.pipeline
        self.pipeline = pipeline or default_pipeline()
        self.use_synonyms = use_synonyms
        #: NegEx-lite suppression of negated/family-attributed hits
        #: ("denies asthma", "mother had breast cancer").  On by
        #: default; pass False to study the unfiltered extractor.
        self.context_filter = context_filter
        self.normalizer = normalizer or TermNormalizer()
        #: Proposes the candidate start positions of each sentence.
        #: Stays ``None`` for an ontology without a compiled view; the
        #: scan then probes every position.
        self.automaton = automaton
        if self.automaton is None:
            keys = getattr(self._index, "normalized_keys", None)
            if keys is not None:
                index_normalizer = getattr(
                    self._index, "normalizer", self.normalizer
                )
                self.automaton = TermAutomaton(
                    keys(), lemmatizer=index_normalizer.lemmatizer
                )
        #: Key for extractor-private memos stashed on a sentence view's
        #: ``cache`` dict (candidate starts, negation scopes).  An
        #: owned object cannot collide with other extractors' keys.
        self._view_token = object()
        self._predefined_keys: dict[
            tuple[str, tuple[str, ...]], dict[str, str]
        ] = {}
        self._normalize_cache: dict[str, str] = {}

    # ------------------------------------------------------------ public

    def extract_record(
        self, record: PatientRecord
    ) -> dict[str, list[str]]:
        """All four term attributes → lists of canonical term names."""
        results, _ = self.extract_record_detailed(record)
        return results

    def extract_record_detailed(
        self, record: PatientRecord
    ) -> tuple[
        dict[str, list[str]],
        dict[str, list[tuple[str, TermHit]]],
    ]:
        """Like :meth:`extract_record`, plus per-value provenance.

        The second mapping pairs every emitted canonical name with the
        :class:`TermHit` that produced it (surface form, POS pattern,
        matched concept).
        """
        results: dict[str, list[str]] = {}
        assigned: dict[str, list[tuple[str, TermHit]]] = {}
        # Hits are shareable between attributes only when both the
        # section AND the semantic-type filter agree; keying by
        # section alone would let the first attribute's filter leak
        # into later attributes of the same section.
        section_hits: dict[
            tuple[str, frozenset[SemanticType]], list[TermHit]
        ] = {}
        for attr in self.attributes:
            key = (attr.section, frozenset(attr.semantic_types))
            if key not in section_hits:
                text = record.section_text(attr.section)
                with tracing.span("section", attr.section):
                    section_hits[key] = (
                        self.extract_terms(
                            text,
                            semantic_types=set(attr.semantic_types),
                        )
                        if text
                        else []
                    )
            with tracing.span("term-assign"):
                pairs = self._assign_hits(attr, section_hits[key])
            assigned[attr.name] = pairs
            results[attr.name] = [name for name, _ in pairs]
        return results, assigned

    def extract_terms(
        self,
        text: str,
        semantic_types: set[SemanticType] | None = None,
    ) -> list[TermHit]:
        """All term hits in free text, in reading order."""
        document = (
            self.document_cache.get(text)
            if self.document_cache is not None
            else self.pipeline.process_text(text)
        )
        hits: list[TermHit] = []
        with tracing.span("term-scan"):
            for view in document.sentence_views():
                hits.extend(self._scan_view(view, semantic_types))
        return hits

    # ------------------------------------------------------- internals

    def _scan_view(
        self,
        view: SentenceView,
        semantic_types: set[SemanticType] | None,
    ) -> list[TermHit]:
        """Scan one sentence view left to right for term hits.

        The negation scope and the automaton's candidate set are
        memoized on the view (shared across the attributes visiting
        this sentence).  Positions outside the candidate set are
        skipped; every candidate is resolved by the :meth:`_match_at`
        probe.  A hit inside a negation/family scope is still a
        recognized term: the scan skips past it and records nothing.
        """
        texts = view.texts
        if not texts:
            return []
        memo = view.cache.get(self._view_token)
        if memo is None:
            memo = {}
            view.cache[self._view_token] = memo
        if self.context_filter:
            blocked = memo.get("blocked")
            if blocked is None:
                blocked = blocked_token_indices(texts)
                memo["blocked"] = blocked
        else:
            blocked = frozenset()
        candidates: set[int] | None = None
        if self.automaton is not None:
            if "candidates" in memo:
                candidates = memo["candidates"]
            else:
                candidates = self.automaton.scan(texts)
                memo["candidates"] = candidates
        tags = memo.get("tags")
        if tags is None:
            tags = view.tags
            if "" in tags:  # untagged tokens default to NN
                tags = [t or "NN" for t in tags]
            memo["tags"] = tags
        hits: list[TermHit] = []
        i = 0
        n = len(texts)
        while i < n:
            if candidates is not None and i not in candidates:
                i += 1
                continue
            hit = self._match_at(texts, tags, i, semantic_types)
            if hit is not None:
                if hit.start_token not in blocked:
                    hits.append(hit)
                i = hit.end_token
            else:
                i += 1
        return hits

    def _match_at(
        self,
        texts: list[str],
        tags: list[str],
        start: int,
        semantic_types: set[SemanticType] | None,
    ) -> TermHit | None:
        # Every candidate from this start contains texts[start]; when
        # the first-token index proves that token can never appear in
        # a matching term, no pattern here can succeed — skip the
        # position without a single lookup.
        if self._token_may_match is not None and not (
            self._token_may_match(texts[start])
        ):
            return None
        for pattern in POS_PATTERNS:
            end = start + len(pattern)
            if end > len(texts):
                continue
            if not all(
                tags[start + k] in _SLOT_TAGS[slot]
                for k, slot in enumerate(pattern)
            ):
                continue
            surface = " ".join(texts[start:end])
            match = self._lookup(surface, semantic_types)
            if match is not None:
                hit = TermHit(
                    surface=surface,
                    normalized=match.normalized,
                    concept_name=match.concept.preferred_name,
                    cui=match.concept.cui,
                    semantic_type=match.concept.semantic_type,
                    start_token=start,
                    end_token=end,
                    pattern=" ".join(pattern),
                )
                if tracing.enabled():
                    tracing.event(
                        "lookup",
                        surface,
                        pattern=hit.pattern,
                        concept=hit.concept_name,
                        cui=hit.cui,
                    )
                return hit
        return None

    def _lookup(
        self,
        surface: str,
        semantic_types: set[SemanticType] | None,
    ) -> ConceptMatch | None:
        matches = self._index.lookup(surface)
        if semantic_types is not None:
            matches = [
                m
                for m in matches
                if m.concept.semantic_type in semantic_types
            ]
        return matches[0] if matches else None

    def _assign_hits(
        self, attr: TermsAttribute, hits: list[TermHit]
    ) -> list[tuple[str, TermHit]]:
        """Assigned (canonical name, originating hit) pairs."""
        cache_key = (attr.name, tuple(attr.predefined))
        predefined_keys = self._predefined_keys.get(cache_key)
        if predefined_keys is None:
            predefined_keys = {
                self.normalizer.normalize(name): name
                for name in attr.predefined
            }
            self._predefined_keys[cache_key] = predefined_keys
        out: list[tuple[str, TermHit]] = []
        seen: set[str] = set()
        for hit in hits:
            if self.use_synonyms:
                is_predefined = hit.concept_name in attr.predefined
                canonical = hit.concept_name
            else:
                # v1: surface-name matching only — synonyms of
                # predefined terms fall through to "other".
                surface_key = self._normalize_cached(hit.surface)
                is_predefined = surface_key in predefined_keys
                canonical = (
                    predefined_keys[surface_key]
                    if is_predefined
                    else hit.concept_name
                )
            if attr.predefined_only == is_predefined and (
                canonical not in seen
            ):
                seen.add(canonical)
                out.append((canonical, hit))
        return out

    def _normalize_cached(self, surface: str) -> str:
        """Memoized :meth:`TermNormalizer.normalize` (hits repeat)."""
        key = self._normalize_cache.get(surface)
        if key is None:
            key = self.normalizer.normalize(surface)
            if len(self._normalize_cache) >= 65536:
                self._normalize_cache.clear()
            self._normalize_cache[surface] = key
        return key


def extract_terms(text: str) -> list[TermHit]:
    """Module-level convenience with default ontology and pipeline."""
    return TermExtractor().extract_terms(text)
