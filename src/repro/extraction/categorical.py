"""Categorical field classification (§3.3): NLP features + ID3.

Feature extraction implements the paper's four user options:

1. *POS classes* — keep verbs, nouns, adjectives and/or adverbs;
2. *sentence constituents* — keep subject, verb, object and/or
   supplement words (constituent roles come from the link grammar
   parse; an unparseable sentence keeps all words, matching the
   paper's fallback philosophy);
3. *head noun or head adjective only*;
4. *use lemma* — "denies", "denied" and "deny" become one feature.

The proposed extension for numeric classes (alcohol use) is the
*numeric Boolean feature*: for each user threshold ``t``, the features
``NUM<=t`` / ``NUM>t`` record whether a number on either side of ``t``
appears in the sentence.  The paper defers this to "the next version";
here it is implemented and benchmarked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import tracing
from repro.errors import TrainingError
from repro.extraction.schema import CategoricalAttribute
from repro.linkgrammar.constituents import Role, assign_roles, head_words
from repro.linkgrammar.parser import LinkGrammarParser
from repro.ml.dataset import Dataset
from repro.ml.id3 import ID3Classifier
from repro.morphology.lemmatizer import Lemmatizer
from repro.nlp.document import SentenceView
from repro.nlp.pipeline import Pipeline
from repro.records.model import PatientRecord
from repro.runtime.cache import DocumentCache, LinkageCache

#: POS-class name → Penn tag prefixes.
_POS_CLASSES: dict[str, tuple[str, ...]] = {
    "verb": ("VB",),
    "noun": ("NN",),
    "adjective": ("JJ",),
    "adverb": ("RB",),
}

#: Chart-speak token → expansion words, folded into the feature
#: vocabulary.  "Denies tob. use" must produce the same ``tobacco``
#: feature as "Denies tobacco use", or every abbreviating clinician
#: fractures the ID3 training vocabulary (the measured
#: abbreviation-dense smoking-accuracy drop).  Derived from the NLP
#: layer's abbreviation inventory so the two stay in sync.
def _feature_expansions() -> dict[str, tuple[str, ...]]:
    from repro.nlp.abbreviations import CLINICAL_ABBREVIATIONS

    table = {
        abbr: tuple(expansion.lower().split())
        for abbr, (_tag, expansion) in CLINICAL_ABBREVIATIONS.items()
    }
    table["yrs"] = ("years",)
    table["yr"] = ("year",)
    return table


_FEATURE_EXPANSIONS: dict[str, tuple[str, ...]] = _feature_expansions()

_ALL_CLASSES = frozenset(_POS_CLASSES)

#: Names the ID3 word-feature memo in a sentence view's cache.
_WORD_FEATURES = object()


@dataclass(frozen=True)
class FeatureOptions:
    """The §3.3 user options for one categorical field."""

    pos_classes: frozenset[str] = _ALL_CLASSES
    constituents: frozenset[Role] | None = None  # None = all words
    head_only: bool = False
    use_lemma: bool = True
    numeric_thresholds: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        unknown = self.pos_classes - _ALL_CLASSES
        if unknown:
            raise ValueError(f"unknown POS classes: {sorted(unknown)}")

    @classmethod
    def smoking(cls) -> "FeatureOptions":
        """The paper's smoking configuration: all POS classes, any
        constituent, head-only disabled, lemma enabled."""
        return cls()


class SentenceFeatureExtractor:
    """Turns section text into a Boolean feature set."""

    def __init__(
        self,
        options: FeatureOptions | None = None,
        pipeline: Pipeline | None = None,
        parser: LinkGrammarParser | None = None,
        lemmatizer: Lemmatizer | None = None,
        document_cache: DocumentCache | None = None,
        linkage_cache: LinkageCache | None = None,
    ) -> None:
        self.options = options or FeatureOptions()
        if document_cache is None:
            document_cache = DocumentCache(pipeline)
        self.document_cache = document_cache
        self.parser = parser or LinkGrammarParser(max_linkages=1)
        self.lemmatizer = lemmatizer or Lemmatizer()
        self.linkage_cache = (
            LinkageCache() if linkage_cache is None else linkage_cache
        )

    def extract(self, text: str) -> frozenset[str]:
        """Feature set of *text* (all sentences pooled).

        A sentence's word features are memoized in its view's cache
        under :meth:`_memo_key`, so classifiers with the same word
        options featurize a sentence once between them; the numeric
        features stay per classifier.
        """
        opts = self.options
        document = self.document_cache.get(text)
        key = self._memo_key()
        features: set[str] = set()
        for view in document.sentence_views():
            words = view.cache.get(key)
            if words is None:
                words = view.cache[key] = self._sentence_features(view)
            features.update(words)
        for threshold in opts.numeric_thresholds:
            values = [
                n.features["value"] for n in document.numbers()
            ]
            if any(v <= threshold for v in values):
                features.add(f"NUM<={threshold:g}")
            if any(v > threshold for v in values):
                features.add(f"NUM>{threshold:g}")
        return frozenset(features)

    def _memo_key(self) -> tuple:
        """Everything one sentence's word features depend on.

        The options except the numeric thresholds, and the lemmatizer;
        with a constituent or head filter also the parser and linkage
        cache, held as objects (ids are reused after collection).
        """
        opts = self.options
        structural = opts.constituents is not None or opts.head_only
        return (
            _WORD_FEATURES,
            opts.pos_classes,
            opts.constituents,
            opts.head_only,
            opts.use_lemma,
            type(self.lemmatizer),
            self.lemmatizer.known,
            (self.parser, self.linkage_cache) if structural else None,
        )

    def _sentence_features(self, view: SentenceView) -> frozenset[str]:
        """Word features of one sentence."""
        opts = self.options
        keep = self._structural_filter(view)
        prefixes = tuple(
            prefix
            for name in opts.pos_classes
            for prefix in _POS_CLASSES[name]
        )
        lemma = self.lemmatizer.lemma
        features: set[str] = set()
        for index, (word, tag) in enumerate(zip(view.lowers, view.tags)):
            if keep is not None and index not in keep:
                continue
            if not tag.startswith(prefixes):
                continue
            # Chart-speak normalizes into the expanded vocabulary: the
            # abbreviation itself is not a feature, its expansion
            # words are.
            for expanded in _FEATURE_EXPANSIONS.get(word, (word,)):
                features.add(
                    lemma(expanded, tag) if opts.use_lemma else expanded
                )
        return frozenset(features)

    # ------------------------------------------------------- filtering

    def _structural_filter(self, view: SentenceView) -> set[int] | None:
        """Token indices passing the constituent/head filters.

        ``None`` means every token passes: no filter is set, or the
        sentence has no linkage — a fragment has no constituents to
        select.
        """
        opts = self.options
        if opts.constituents is None and not opts.head_only:
            return None
        tags = [t.features.get("pos", "NN") for t in view.tokens]
        linkage = self.linkage_cache.lookup(self.parser, view.lowers, tags)
        if linkage is None:
            return None
        pos_to_token = {
            pos: tok_idx
            for pos, tok_idx in enumerate(linkage.token_map)
            if tok_idx is not None
        }
        keep = set()
        roles = assign_roles(linkage) if opts.constituents else None
        heads = head_words(linkage) if opts.head_only else None
        for pos, tok_idx in pos_to_token.items():
            if roles is not None and roles[pos] not in opts.constituents:
                continue
            if heads is not None and pos not in heads:
                continue
            keep.add(tok_idx)
        return keep


class CategoricalClassifier:
    """One categorical attribute's feature extractor + ID3 model."""

    def __init__(
        self,
        attribute: CategoricalAttribute,
        options: FeatureOptions | None = None,
        extractor: SentenceFeatureExtractor | None = None,
        max_depth: int | None = None,
        document_cache: DocumentCache | None = None,
        linkage_cache: LinkageCache | None = None,
        parser: LinkGrammarParser | None = None,
    ) -> None:
        self.attribute = attribute
        if options is None:
            options = FeatureOptions(
                numeric_thresholds=attribute.numeric_thresholds
            )
        self.extractor = extractor or SentenceFeatureExtractor(
            options,
            parser=parser,
            document_cache=document_cache,
            linkage_cache=linkage_cache,
        )
        self.max_depth = max_depth
        self._id3: ID3Classifier | None = None

    # ---------------------------------------------------------- data

    def features(self, text: str) -> frozenset[str]:
        return self.extractor.extract(text)

    def dataset(
        self, texts: list[str], labels: list[str]
    ) -> Dataset:
        """Build an ID3 dataset from section texts and gold labels."""
        if len(texts) != len(labels):
            raise ValueError(
                f"{len(texts)} texts vs {len(labels)} labels"
            )
        return Dataset.from_pairs(
            (self.features(text), label)
            for text, label in zip(texts, labels)
        )

    # --------------------------------------------------------- model

    def fit(
        self, texts: list[str], labels: list[str]
    ) -> "CategoricalClassifier":
        self._id3 = ID3Classifier(max_depth=self.max_depth).fit(
            self.dataset(texts, labels)
        )
        return self

    def predict(self, text: str) -> str:
        if self._id3 is None:
            raise TrainingError(
                f"classifier for {self.attribute.name!r} is not trained"
            )
        return self._id3.predict(self.features(text))

    def predict_with_path(
        self, text: str
    ) -> tuple[str, list[str]]:
        """Predict a label plus the ID3 root-to-leaf path taken."""
        if self._id3 is None:
            raise TrainingError(
                f"classifier for {self.attribute.name!r} is not trained"
            )
        return self._id3.predict_with_path(self.features(text))

    def predict_record(self, record: PatientRecord) -> str | None:
        text = record.section_text(self.attribute.section)
        return self.predict(text) if text else None

    def predict_record_detailed(
        self, record: PatientRecord
    ) -> tuple[str | None, str]:
        """(label, decision-path detail) for one record.

        The detail string is the ID3 leaf path, e.g.
        ``smoker=absent > quit=present``; empty when the record has no
        text for the attribute's section.
        """
        text = record.section_text(self.attribute.section)
        if not text:
            return None, ""
        with tracing.span(
            "classification", self.attribute.name
        ):
            label, path = self.predict_with_path(text)
            detail = " > ".join(path)
            if tracing.enabled():
                tracing.annotate(label=label, path=detail)
            return label, detail

    def features_used(self) -> set[str]:
        if self._id3 is None:
            raise TrainingError("classifier is not trained")
        return self._id3.features_used()

    def describe(self) -> str:
        if self._id3 is None:
            raise TrainingError("classifier is not trained")
        return self._id3.describe()

    # --------------------------------------------------- persistence

    def to_dict(self) -> dict:
        """The trained model as a JSON-shaped dict (tree + name)."""
        from repro.ml.serialize import tree_to_dict

        if self._id3 is None:
            raise TrainingError(
                f"classifier for {self.attribute.name!r} is not trained"
            )
        return {
            "attribute": self.attribute.name,
            "tree": tree_to_dict(self._id3),
        }
