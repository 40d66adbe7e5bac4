"""The ID3 classifiers featurize each sentence once between them.

:meth:`SentenceFeatureExtractor.extract` memoizes a sentence's word
features in its view's cache, keyed by every option and component
they depend on.  The twelve default classifiers read six distinct
sections with one set of word options, so extracting a record
featurizes each sentence of those sections once.  A classifier with
other options, or another lemmatizer, on the same caches must get its
own features — exactly what a standalone extractor computes — and the
numeric threshold features stay per classifier.
"""

import pytest

from repro.extraction.categorical import (
    CategoricalClassifier,
    FeatureOptions,
    SentenceFeatureExtractor,
)
from repro.extraction.pipeline import RecordExtractor
from repro.extraction.schema import CATEGORICAL_ATTRIBUTES, attribute
from repro.linkgrammar.constituents import Role
from repro.morphology.lemmatizer import Lemmatizer
from repro.synth import CohortSpec, RecordGenerator

SPEC = CohortSpec(
    size=8,
    smoking_counts={"never": 4, "current": 2, "former": 1, None: 1},
)

TEXT = (
    "The patient denies tobacco use. "
    "She drinks two glasses of wine per week."
)


@pytest.fixture(scope="module")
def trained():
    records, golds = RecordGenerator(seed=17).generate_cohort(SPEC)
    extractor = RecordExtractor()
    extractor.train_categorical(records, golds)
    return extractor


@pytest.fixture
def featurized(monkeypatch):
    """Views passed to the per-sentence feature function, in order."""
    calls = []
    real = SentenceFeatureExtractor._sentence_features

    def counting(self, view):
        calls.append(view)
        return real(self, view)

    monkeypatch.setattr(
        SentenceFeatureExtractor, "_sentence_features", counting
    )
    return calls


class TestSharedFeaturization:
    def test_each_sentence_featurized_once_per_record(
        self, trained, featurized
    ):
        record, _ = RecordGenerator(seed=23).generate("P-0001")
        trained.caches.documents.clear()
        trained.extract(record)
        sections = {attr.section for attr in CATEGORICAL_ATTRIBUTES}
        assert len(CATEGORICAL_ATTRIBUTES) == 12 and len(sections) == 6
        documents = [
            trained.caches.documents.get(record.section_text(name))
            for name in sections
        ]
        views = [v for d in documents for v in d.sentence_views()]
        assert len(views) > len(sections)
        assert sorted(map(id, featurized)) == sorted(map(id, views))

    def test_a_second_extraction_featurizes_nothing(
        self, trained, featurized
    ):
        record, _ = RecordGenerator(seed=29).generate("P-0001")
        first = trained.extract(record)
        count = len(featurized)
        assert trained.extract(record).to_dict() == first.to_dict()
        assert len(featurized) == count

    @pytest.mark.parametrize(
        "options",
        [
            FeatureOptions(head_only=True),
            FeatureOptions(pos_classes=frozenset({"noun"})),
            FeatureOptions(constituents=frozenset({Role.OBJECT})),
            FeatureOptions(use_lemma=False),
        ],
        ids=["head-only", "pos-classes", "constituents", "no-lemma"],
    )
    def test_other_options_get_their_own_features(self, trained, options):
        shared = trained.categorical["smoking"]
        default = shared.features(TEXT)
        classifier = CategoricalClassifier(
            attribute("smoking"),
            options=options,
            document_cache=trained.caches.documents,
            linkage_cache=trained.caches.linkages,
            parser=shared.extractor.parser,
        )
        own = classifier.features(TEXT)
        assert own == SentenceFeatureExtractor(options).extract(TEXT)
        assert own != default
        assert shared.features(TEXT) == default

    def test_another_lemmatizer_gets_its_own_features(self, trained):
        default = trained.categorical["smoking"].features(TEXT)
        surface = Lemmatizer(known=lambda word: False)
        own = SentenceFeatureExtractor(
            lemmatizer=surface,
            document_cache=trained.caches.documents,
        ).extract(TEXT)
        assert own == SentenceFeatureExtractor(
            lemmatizer=Lemmatizer(known=lambda word: False)
        ).extract(TEXT)
        assert "glasses" in own and "glass" in default

    def test_alcohol_use_keeps_its_numeric_features(self, trained):
        smoking = trained.categorical["smoking"].features(TEXT)
        alcohol = trained.categorical["alcohol_use"].features(TEXT)
        assert not any(f.startswith("NUM") for f in smoking)
        assert alcohol == smoking | {"NUM<=2"}

    def test_numeric_features_read_numbers_outside_views(self, trained):
        # "two\nthree" is one Number (5.0) across a sentence break: in
        # no sentence view, still a numeric feature of the section.
        text = "she is gravida two\nthree children at home."
        alcohol = trained.categorical["alcohol_use"].features(text)
        assert {f for f in alcohol if f.startswith("NUM")} == {"NUM>2"}
