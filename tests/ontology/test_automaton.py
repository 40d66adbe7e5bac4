"""Term automaton: the superset-candidate contract.

The automaton may over-generate candidate start positions (each one
is resolved by the extractor's ``_match_at`` probe) but must propose
every start where that probe finds a hit — on any ontology subset and
any text, hostile ones included.  That is exactly the condition under
which the term scan, which skips non-candidates, loses no hit.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extraction.terms import TermExtractor
from repro.nlp.pipeline import default_pipeline
from repro.ontology.automaton import PERM_LIMIT, TermAutomaton
from repro.ontology.builder import build_concepts, default_ontology
from repro.ontology.store import OntologyStore
from repro.synth import CohortSpec, RecordGenerator

HOSTILE_TEXTS = [
    "pt c/o chest pain, denies asthma.  BP 144/90!!",
    "h/o diabetes mellitus; high blood pressure (essential)",
    "mother had breast cancer . . . no gallstones",
    "DIABETES, diabetes, DiAbEtEs and the diabetes",
    "coronary artery bypass graft x3, mammogram neg",
    "aspirin 81mg q.d.\n\nlipitor 10 mg\nno known allergies",
    "pressure blood high - permuted word salad pressure",
    "unrelated text with no medical terms whatsoever",
    "",
]


@pytest.fixture(scope="module")
def ontology():
    return default_ontology().compiled()


@pytest.fixture(scope="module")
def automaton(ontology):
    return TermAutomaton.from_ontology(ontology)


def uncovered_hits(extractor, text):
    """(probe hits, hits at starts the automaton does not propose).

    Probes every start of every sentence view of *text* with the
    view's own tags.
    """
    hits, missed = 0, []
    document = default_pipeline().process_text(text)
    for view in document.sentence_views():
        candidates = extractor.automaton.scan(view.texts)
        for i in range(len(view.texts)):
            if extractor._match_at(view.texts, view.tags, i, None) is None:
                continue
            hits += 1
            if candidates is not None and i not in candidates:
                missed.append((view.texts, i))
    return hits, missed


def extractor_pair(**kwargs):
    """(automaton-driven extractor, the same one probing every start).

    With ``automaton`` set to None the scan resolves every position
    through ``_match_at`` — the path an ontology without a compiled
    view takes — so it is the reference the candidate skip must match.
    """
    fast = TermExtractor(**kwargs)
    every_start = TermExtractor(**kwargs)
    assert fast.automaton is not None
    every_start.automaton = None
    return fast, every_start


class TestBuild:
    def test_full_vocabulary_fits(self, automaton):
        assert not automaton.degraded
        assert automaton.key_count > 0
        assert automaton.pattern_count >= automaton.key_count
        assert automaton.node_count > automaton.key_count

    def test_from_ontology_equals_explicit_keys(self, ontology):
        explicit = TermAutomaton(
            ontology.normalized_keys(),
            lemmatizer=ontology.normalizer.lemmatizer,
        )
        built = TermAutomaton.from_ontology(ontology)
        assert built.node_count == explicit.node_count
        assert built.pattern_count == explicit.pattern_count

    def test_long_key_degrades_to_probe_everything(self):
        long_key = " ".join(f"w{i}" for i in range(PERM_LIMIT + 1))
        automaton = TermAutomaton(["diabetes", long_key])
        assert automaton.degraded
        assert automaton.scan(["diabetes"]) is None

    def test_pickle_roundtrip_scans_identically(self, automaton):
        texts = ["high", "blood", "pressure", "and", "diabetes"]
        automaton.scan(texts)  # populate the piece cache
        clone = pickle.loads(pickle.dumps(automaton))
        assert clone._piece_cache == {}
        assert clone.scan(texts) == automaton.scan(texts)
        assert clone.node_count == automaton.node_count


class TestScan:
    def test_multiword_term_in_surface_order(self, automaton):
        candidates = automaton.scan(
            ["high", "blood", "pressure", "today"]
        )
        assert 0 in candidates

    def test_stopword_and_punctuation_transparent(self, automaton):
        # "(" and "the" contribute no pieces: a probe window may
        # start on them, so their positions join the candidate set.
        candidates = automaton.scan(["(", "the", "diabetes", ")"])
        assert {0, 1, 2} <= candidates

    def test_no_terms_no_candidates(self, automaton):
        assert automaton.scan(["xyzzy", "qwerty", "12345"]) == set()
        assert automaton.scan([]) == set()

    def test_candidates_cover_probe_hits_on_hostile_texts(self):
        extractor = TermExtractor()
        total = 0
        for text in HOSTILE_TEXTS:
            hits, missed = uncovered_hits(extractor, text)
            assert missed == [], text
            total += hits
        assert total > 0

    def test_candidates_cover_probe_hits_on_cohort(self):
        records, _ = RecordGenerator(seed=23).generate_cohort(
            CohortSpec(
                size=10,
                smoking_counts={
                    "never": 7, "current": 1, "former": 1, None: 1,
                },
            )
        )
        extractor = TermExtractor()
        total = 0
        for record in records:
            for section in record.sections:
                hits, missed = uncovered_hits(
                    extractor, record.section_text(section.name)
                )
                assert missed == [], (record.patient_id, section.name)
                total += hits
        assert total > 0

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_candidates_cover_probe_hits_on_random_subsets(self, data):
        concepts = build_concepts()
        subset = data.draw(
            st.lists(
                st.sampled_from(concepts),
                min_size=1,
                max_size=40,
                unique_by=lambda c: c.cui,
            )
        )
        words = [
            word
            for concept in subset[:10]
            for name in concept.all_names()
            for word in name.lower().split()
        ] + ["the", "no", "of", "patient", "denies", ",", "."]
        text = " ".join(
            data.draw(
                st.lists(
                    st.sampled_from(words), min_size=0, max_size=30
                )
            )
        )
        # The extractor builds its automaton from the subset.
        extractor = TermExtractor(ontology=OntologyStore(subset))
        assert extractor.automaton is not None
        _, missed = uncovered_hits(extractor, text)
        assert missed == [], text


class TestExtractorParity:
    """Automaton-driven scan == probe-every-start scan, bit for bit."""

    def test_hostile_texts_identical_hits(self):
        fast, every_start = extractor_pair()
        total = 0
        for text in HOSTILE_TEXTS:
            hits = fast.extract_terms(text)
            assert hits == every_start.extract_terms(text), text
            total += len(hits)
        assert total > 0
