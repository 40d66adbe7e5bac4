"""Compiled-artifact layer: AOT grammar/ontology, warm-start parity.

The contract under test: everything built from a
:class:`CompiledArtifact` — dictionary, parser, ontology index,
worker extraction stacks — behaves bit-for-bit like the cold build
from source, and a stale artifact is rejected loudly instead of
extracting with outdated tables.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ArtifactError
from repro.extraction import RecordExtractor
from repro.linkgrammar.dictionary import Dictionary
from repro.linkgrammar.parser import LinkGrammarParser
from repro.ontology.builder import build_concepts, default_ontology
from repro.ontology.store import CompiledOntology, OntologyStore
from repro.runtime import CorpusRunner, Tracer
from repro.runtime.compiled import (
    ARTIFACT_VERSION,
    CompiledArtifact,
    CompiledGrammar,
    cached_artifact,
    source_fingerprint,
)
from repro.synth import CohortSpec, RecordGenerator

SPEC = CohortSpec(
    size=8,
    smoking_counts={"never": 4, "current": 2, "former": 1, None: 1},
)

SENTENCES = [
    "blood pressure is 144/90 , pulse of 84 .",
    "she quit smoking five years ago .",
    "the patient weighs 154 pounds .",
    "no history of diabetes or hypertension .",
    "temperature of 98.3 and respiratory rate of 18 .",
]


@pytest.fixture(scope="module")
def cohort():
    return RecordGenerator(seed=17).generate_cohort(SPEC)


@pytest.fixture(scope="module")
def artifact():
    return CompiledArtifact.build()


@pytest.fixture(scope="module")
def artifact_path(artifact, tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts") / "stack.pkl"
    artifact.save(path)
    return path


def _strip_durations(span_dict):
    out = dict(span_dict)
    out.pop("duration_s", None)
    out.pop("start_s", None)  # wall-clock, run-specific
    out["children"] = [
        _strip_durations(child)
        for child in span_dict.get("children", [])
    ]
    return out


def _trace_shape(tracer):
    return [_strip_durations(root.to_dict()) for root in tracer.roots]


class TestCompiledGrammar:
    def test_roundtrip_preserves_every_disjunct(self):
        source = Dictionary()
        grammar = pickle.loads(
            pickle.dumps(CompiledGrammar.from_dictionary(source))
        )
        restored = grammar.dictionary()
        assert restored.signature() == source.signature()
        assert set(restored._words) == set(source._words)
        for word, disjuncts in source._words.items():
            assert restored._words[word] == disjuncts
        assert restored._tag_defaults == source._tag_defaults
        assert restored._number_disjuncts == source._number_disjuncts

    @pytest.mark.parametrize("prune", [True, False])
    def test_parses_equal_cold_dictionary(self, prune):
        from repro.errors import ParseFailure

        def outcome(parser, words):
            try:
                return parser.parse(words)
            except ParseFailure as failure:
                return ("fail", str(failure))

        cold = LinkGrammarParser(prune=prune)
        warm = LinkGrammarParser(
            dictionary=CompiledGrammar.from_dictionary(
                Dictionary()
            ).dictionary(),
            prune=prune,
        )
        for sentence in SENTENCES:
            words = sentence.split()
            assert outcome(warm, words) == outcome(cold, words)

    def test_add_after_rehydrate_invalidates_tables(self):
        restored = CompiledGrammar.from_dictionary(
            Dictionary()
        ).dictionary()
        before = restored.signature()
        restored.add("zzgadget", "Os-")
        assert restored._match_tables is None
        assert restored.signature() != before
        assert restored.match_tables() is not None


class TestCompiledOntology:
    def test_lookup_parity_over_full_vocabulary(self):
        store = default_ontology()
        compiled = store.compiled()
        surfaces = [
            name
            for concept in store.concepts()
            for name in concept.all_names()
        ]
        surfaces += [s.upper() for s in surfaces[:50]]
        surfaces += ["no such concept", "xyzzy", "", "the", "pains"]
        for surface in surfaces:
            assert compiled.lookup(surface) == store.lookup(surface), (
                surface
            )

    def test_lookup_type_parity(self):
        store = default_ontology()
        compiled = store.compiled()
        from repro.ontology.concept import SemanticType

        types = {SemanticType.DISEASE, SemanticType.DRUG}
        for concept in store.concepts():
            name = concept.preferred_name
            assert compiled.lookup_type(name, types) == (
                store.lookup_type(name, types)
            )

    def test_ambiguous_surface_resolves_by_cui(self):
        # Two concepts sharing a preferred surface name, inserted in
        # reverse-CUI order: pre-fix both paths returned insertion
        # (row) order on ties, so ambiguous surfaces could resolve
        # differently between a rebuilt store and a compiled index.
        # The order is now pinned: is_preferred DESC, name, cui.
        from repro.ontology.concept import Concept, SemanticType

        concepts = [
            Concept(
                "C9900", "twinplasty", SemanticType.PROCEDURE, ()
            ),
            Concept(
                "C0011", "twinplasty", SemanticType.PROCEDURE, ()
            ),
        ]
        store = OntologyStore(concepts)
        compiled = store.compiled()
        for index in (store, compiled):
            cuis = [m.concept.cui for m in index.lookup("twinplasty")]
            assert cuis == ["C0011", "C9900"], (index, cuis)
        assert compiled.lookup("twinplasty") == store.lookup(
            "twinplasty"
        )

    def test_is_picklable_and_stable(self):
        compiled = default_ontology().compiled()
        clone = pickle.loads(pickle.dumps(compiled))
        assert len(clone) == len(compiled)
        assert clone.signature() == compiled.signature()
        assert clone.lookup("diabetes") == compiled.lookup("diabetes")

    def test_fresh_store_compiles_identically(self):
        store = OntologyStore(build_concepts())
        assert (
            store.compiled().signature()
            == default_ontology().compiled().signature()
        )

    @settings(max_examples=200, deadline=None)
    @given(
        token=st.one_of(
            st.sampled_from(
                [
                    "diabetes", "blood", "bypass", "the", "and",
                    "pressure", "gallstones", "mammogram", "aspirin",
                ]
            ),
            st.text(
                alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                min_size=1,
                max_size=12,
            ),
        )
    )
    def test_prefilter_never_rejects_a_matchable_token(self, token):
        """token_may_match(t) is False only if no term containing
        *t* can ever match — i.e. every lookup of a surface whose
        first token is *t* comes back empty."""
        compiled = default_ontology().compiled()
        store = default_ontology()
        if compiled.token_may_match(token):
            return  # permissive answers are always safe
        for tail in ("", " pressure", " disease", " bypass graft"):
            assert store.lookup(token + tail) == []


class TestArtifact:
    def test_save_load_roundtrip(self, artifact, artifact_path):
        loaded = CompiledArtifact.load(artifact_path)
        assert loaded.version == ARTIFACT_VERSION
        assert loaded.fingerprint == source_fingerprint()
        assert (
            loaded.grammar.signature == artifact.grammar.signature
        )
        assert loaded.stats() == artifact.stats()

    def test_version_mismatch_rejected(self, artifact, tmp_path):
        stale = CompiledArtifact(
            version=ARTIFACT_VERSION + 1,
            fingerprint=artifact.fingerprint,
            grammar=artifact.grammar,
            ontology=artifact.ontology,
            word_tags=artifact.word_tags,
        )
        path = tmp_path / "stale-version.pkl"
        stale.save(path)
        with pytest.raises(ArtifactError, match="version"):
            CompiledArtifact.load(path)

    def test_fingerprint_mismatch_rejected(self, artifact, tmp_path):
        stale = CompiledArtifact(
            version=ARTIFACT_VERSION,
            fingerprint="0badc0ffee0badc0",
            grammar=artifact.grammar,
            ontology=artifact.ontology,
            word_tags=artifact.word_tags,
        )
        path = tmp_path / "stale-fingerprint.pkl"
        stale.save(path)
        with pytest.raises(ArtifactError, match="different source"):
            CompiledArtifact.load(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.pkl"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(ArtifactError):
            CompiledArtifact.load(path)
        with pytest.raises(ArtifactError):
            CompiledArtifact.load(tmp_path / "missing.pkl")

    def test_cached_artifact_builds_then_loads(self, tmp_path):
        cache = tmp_path / "cache"
        first, path, loaded = cached_artifact(cache)
        assert not loaded and path.exists()
        second, path2, loaded2 = cached_artifact(cache)
        assert loaded2 and path2 == path
        assert second.fingerprint == first.fingerprint

    def test_cached_artifact_replaces_stale_entry(self, tmp_path):
        cache = tmp_path / "cache"
        _, path, _ = cached_artifact(cache)
        stale = pickle.loads(path.read_bytes())
        stale.fingerprint = "0badc0ffee0badc0"
        # Re-key the file under the *current* fingerprint so the
        # cache finds it and must notice the content is stale.
        path.write_bytes(pickle.dumps(stale))
        artifact, _, loaded = cached_artifact(cache)
        assert not loaded
        assert artifact.fingerprint == source_fingerprint()
        # And the rebuilt artifact was written back.
        _, _, loaded_again = cached_artifact(cache)
        assert loaded_again


class TestArtifactSections:
    """v2 sections: term automaton and consolidated regex index."""

    def _sectionless(self, artifact):
        return CompiledArtifact(
            version=ARTIFACT_VERSION,
            fingerprint=artifact.fingerprint,
            grammar=artifact.grammar,
            ontology=artifact.ontology,
            word_tags=artifact.word_tags,
        )

    def test_build_populates_v2_sections(self, artifact):
        assert ARTIFACT_VERSION == 3
        assert artifact.term_automaton is not None
        assert not artifact.term_automaton.degraded
        assert artifact.regex_index
        for name, pattern in artifact.regex_index.items():
            assert "(?:" in pattern, name
        stats = artifact.stats()
        assert stats["automaton_nodes"] > 0
        assert stats["regex_index"] == sorted(artifact.regex_index)

    def test_missing_section_names_itself_in_the_error(self, artifact):
        stale = self._sectionless(artifact)
        with pytest.raises(
            ArtifactError,
            match="term automaton.*absent.*rerun `repro compile`",
        ):
            stale.require_section("term_automaton")
        with pytest.raises(ArtifactError, match="regex index.*absent"):
            stale.require_section("regex_index")

    def test_make_extractor_refuses_sectionless_artifact(
        self, artifact
    ):
        # A v1-era pickle that somehow survived the version gate must
        # still fail loudly instead of silently falling back to the
        # slow probe-everything paths.
        with pytest.raises(ArtifactError, match="rerun"):
            self._sectionless(artifact).make_extractor()

    def test_sections_survive_pickling(self, artifact, artifact_path):
        loaded = CompiledArtifact.load(artifact_path)
        assert (
            loaded.term_automaton.node_count
            == artifact.term_automaton.node_count
        )
        assert loaded.regex_index == artifact.regex_index

    def test_fingerprint_covers_numeric_patterns(self, monkeypatch):
        from repro.extraction import schema as attrs_mod

        before = source_fingerprint()
        attr = attrs_mod.NUMERIC_ATTRIBUTES[0]
        patched = attr.__class__(
            **{
                **{
                    field: getattr(attr, field)
                    for field in attr.__dataclass_fields__
                },
                "regex_patterns": tuple(attr.regex_patterns)
                + (r"\bnever matches\b",),
            }
        )
        monkeypatch.setattr(
            attrs_mod,
            "NUMERIC_ATTRIBUTES",
            (patched,) + tuple(attrs_mod.NUMERIC_ATTRIBUTES[1:]),
        )
        assert source_fingerprint() != before


class TestExtractionParity:
    def test_serial_equal_including_provenance(
        self, cohort, artifact
    ):
        records, golds = cohort
        cold = RecordExtractor()
        cold.train_categorical(records, golds)
        warm = artifact.make_extractor()
        warm.train_categorical(records, golds)
        cold_results = cold.extract_all(records)
        warm_results = warm.extract_all(records)
        assert warm_results == cold_results
        for a, b in zip(warm_results, cold_results):
            assert a.provenance == b.provenance

    def test_traced_runs_equal_span_for_span(self, cohort, artifact):
        records, _ = cohort
        cold_tracer, warm_tracer = Tracer(), Tracer()
        CorpusRunner(RecordExtractor(), tracer=cold_tracer).run(
            records
        )
        CorpusRunner(artifact=artifact, tracer=warm_tracer).run(
            records
        )
        assert _trace_shape(warm_tracer) == _trace_shape(cold_tracer)

    def test_parallel_warm_equals_serial_cold(
        self, cohort, artifact, artifact_path
    ):
        records, golds = cohort
        cold = RecordExtractor()
        cold.train_categorical(records, golds)
        serial = CorpusRunner(cold).run(records)
        trained = artifact.make_extractor()
        trained.train_categorical(records, golds)
        runner = CorpusRunner(
            trained, workers=2, chunk_size=2, artifact=artifact
        )
        assert runner.run(records) == serial
        stats = runner.stats()
        assert stats["warm_start"] is True
        assert stats["workers_initialized"] == 2
        assert stats["worker_init_seconds"] > 0.0

    def test_parallel_from_artifact_path(self, cohort, artifact_path):
        records, _ = cohort
        serial = CorpusRunner(RecordExtractor()).run(records)
        runner = CorpusRunner(
            artifact=str(artifact_path), workers=2, chunk_size=2
        )
        assert runner.run(records) == serial
        assert runner.stats()["artifact_load_seconds"] > 0.0

    def test_from_artifact_classmethod(self, cohort, artifact_path):
        records, _ = cohort
        warm = RecordExtractor.from_artifact(
            artifact_path, parse_budget=5.0
        )
        assert warm.parse_budget == 5.0
        assert warm.extract(records[0]) == RecordExtractor().extract(
            records[0]
        )


class TestDocumentCacheBound:
    def test_long_serial_run_stays_bounded(self):
        """The document cache stays within its fixed bound however
        long the run, and admission still keeps the sections records
        share: ``bench_scaling.py``'s cohort, grown to 300 records,
        evicts at most 5% of what it scans."""
        size = 300
        records, _ = RecordGenerator(seed=13).generate_cohort(
            CohortSpec(
                size=size,
                smoking_counts={
                    "never": size - 3, "current": 1, "former": 1, None: 1,
                },
            )
        )
        runner = CorpusRunner(RecordExtractor())
        runner.run(records)
        stats = runner.extractor.caches.documents.stats()
        assert stats["size"] <= 32 + 512
        assert stats["evictions"] <= 0.05 * stats["misses"]
