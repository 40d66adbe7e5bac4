"""CorpusRunner: chunking, ordering, parallel/serial identity, stats."""

import pytest

from repro.extraction import RecordExtractor
from repro.extraction.numeric import NumericExtractor
from repro.extraction.terms import TermExtractor
from repro.runtime import CorpusRunner, ExtractionCaches
from repro.synth import CohortSpec, RecordGenerator


@pytest.fixture(scope="module")
def cohort():
    return RecordGenerator(seed=5).generate_cohort(
        CohortSpec(
            size=6,
            smoking_counts={
                "never": 3, "current": 1, "former": 1, None: 1,
            },
        )
    )


@pytest.fixture(scope="module")
def serial_results(cohort):
    records, _ = cohort
    return CorpusRunner(RecordExtractor()).run(records)


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            CorpusRunner(workers=0)

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ValueError):
            CorpusRunner(chunk_size=0)


class TestChunking:
    def test_explicit_chunk_size(self):
        runner = CorpusRunner(workers=2, chunk_size=2)
        tasks = runner._pending_tasks(list(range(5)), set())
        assert [list(t.records) for t in tasks] == [[0, 1], [2, 3], [4]]
        assert [t.start for t in tasks] == [0, 2, 4]
        assert all(t.attempt == 0 for t in tasks)

    def test_default_chunking_covers_everything(self):
        runner = CorpusRunner(workers=3)
        tasks = runner._pending_tasks(list(range(100)), set())
        flattened = [x for t in tasks for x in t.records]
        assert flattened == list(range(100))


class TestSerial:
    def test_order_and_count(self, cohort, serial_results):
        records, _ = cohort
        assert [r.patient_id for r in serial_results] == [
            r.patient_id for r in records
        ]

    def test_stats_populated(self, cohort):
        records, _ = cohort
        runner = CorpusRunner(RecordExtractor())
        runner.run(records)
        stats = runner.stats()
        assert stats["records"] == len(records)
        assert stats["records_per_sec"] > 0
        assert 0.0 < stats["prune_ratio"] < 1.0
        assert "linkages" in stats["engine"]


class TestParallel:
    def test_matches_serial_exactly(self, cohort, serial_results):
        records, _ = cohort
        runner = CorpusRunner(
            RecordExtractor(), workers=2, chunk_size=2
        )
        assert runner.run(records) == serial_results

    def test_worker_metrics_merged(self, cohort):
        records, _ = cohort
        runner = CorpusRunner(
            RecordExtractor(), workers=2, chunk_size=3
        )
        runner.run(records)
        engine = runner.engine_stats
        assert engine["parser"]["sentences"] > 0
        assert engine["linkages"]["misses"] > 0

    def test_trained_categorical_ships_to_workers(self, cohort):
        records, golds = cohort
        extractor = RecordExtractor()
        extractor.train_categorical(records, golds)
        serial = CorpusRunner(extractor).run(records)
        parallel = CorpusRunner(
            extractor, workers=2, chunk_size=3
        ).run(records)
        assert parallel == serial
        assert any(
            v is not None
            for result in parallel
            for v in result.categorical.values()
        )

    def test_configured_extractors_reach_workers(
        self, cohort, serial_results
    ):
        # Workers run the caller's extractor as fork hands it over,
        # not a default stack rebuilt from the compiled tables.
        records, _ = cohort
        caches = ExtractionCaches()
        extractor = RecordExtractor(
            numeric=NumericExtractor(
                use_linkage=False,
                use_alignment=False,
                document_cache=caches.documents,
                linkage_cache=caches.linkages,
            ),
            terms=TermExtractor(
                use_synonyms=False, document_cache=caches.documents
            ),
            caches=caches,
        )
        serial = CorpusRunner(extractor).run(records)
        assert serial != serial_results
        parallel = CorpusRunner(
            extractor, workers=2, chunk_size=2
        ).run(records)
        assert parallel == serial

    def test_production_runner_primes_before_fan_out(self, cohort):
        # The first chunk runs in the parent and the pool forks with
        # its parses, so no worker re-parses a boilerplate sentence
        # shape the parent (or another worker) already parsed.
        from repro.runtime import ResilientCorpusRunner

        records, _ = cohort
        serial = ResilientCorpusRunner(RecordExtractor())
        serial.run(records)
        parallel = ResilientCorpusRunner(
            RecordExtractor(), workers=2, chunk_size=2
        )
        assert parallel.run(records) == RecordExtractor().extract_all(
            records
        )
        assert (
            parallel.engine_stats["parser"]["sentences"]
            == serial.engine_stats["parser"]["sentences"]
        )
        assert parallel.stats()["persistent_parse_hits"] > 0


class TestJournaledPartialResults:
    """Regression: a failing chunk must not lose completed chunks.

    The runner used to return (or journal) nothing when any chunk
    raised; with a journal attached, every chunk completed before the
    failure must already be on disk when the failure propagates.
    """

    def test_serial_failure_preserves_earlier_chunks(
        self, cohort, tmp_path
    ):
        from repro.runtime import FaultPlan, Journal
        from repro.runtime.faults import InjectedInterrupt

        records, _ = cohort
        # Five records at chunk_size=2: the interrupted last record is
        # alone in the tail chunk.  An interrupt skips retry and ends
        # the run, leaving the journal a crash there would leave.
        corpus = list(records[:5])
        journal = Journal(tmp_path / "serial.journal")
        runner = CorpusRunner(
            RecordExtractor(),
            chunk_size=2,
            journal=journal,
            fault_plan=FaultPlan.parse("interrupt@last"),
        )
        with pytest.raises(InjectedInterrupt):
            runner.run(corpus)
        _, chunks, _ = journal.load()
        journaled = [
            r for start in sorted(chunks) for r in chunks[start]
        ]
        # Every full chunk before the interrupted tail chunk survived.
        assert [r.patient_id for r in journaled] == [
            r.patient_id for r in corpus[:-1]
        ]
