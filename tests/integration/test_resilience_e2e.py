"""End-to-end resilience properties.

* interrupt-then-resume produces a store bit-for-bit identical to an
  uninterrupted run;
* a quarantined poison yields a store identical to simply skipping
  the poison, whichever extractor stage the poison breaks;
* the hostile corpus flows through the resilient engine unharmed.
"""

import random

import pytest

from repro.extraction import RecordExtractor
from repro.runtime import (
    FaultPlan,
    ResilientCorpusRunner,
    RetryPolicy,
)
from repro.runtime.faults import InjectedInterrupt
from repro.storage import ResultStore
from repro.synth import CohortSpec, RecordGenerator

FAST_POLICY = RetryPolicy(max_attempts=3, backoff_base_s=0.0)


@pytest.fixture(scope="module")
def cohort():
    records, _ = RecordGenerator(seed=23).generate_cohort(
        CohortSpec(
            size=8,
            smoking_counts={
                "never": 4, "current": 2, "former": 1, None: 1,
            },
        )
    )
    return records


def _store(path, results, quarantine=()):
    store = ResultStore(path)
    store.store_many(results)
    if quarantine:
        store.save_quarantine(list(quarantine))
    store.close()
    return path


class TestInterruptResume:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_resumed_store_is_bit_identical(
        self, workers, cohort, tmp_path
    ):
        # A seeded "kill -9" at a random record, away from the very
        # first chunk so the journal has something to resume from.
        index = random.Random(97 + workers).randrange(2, len(cohort))
        journal_path = tmp_path / "run.journal"

        interrupted = ResilientCorpusRunner(
            RecordExtractor(),
            workers=workers,
            chunk_size=2,
            journal=journal_path,
            run_id="e2e",
            fault_plan=FaultPlan.parse(f"interrupt@{index}"),
            policy=FAST_POLICY,
        )
        with pytest.raises(InjectedInterrupt):
            interrupted.run(cohort)

        resumed = ResilientCorpusRunner(
            RecordExtractor(),
            workers=workers,
            chunk_size=2,
            journal=journal_path,
            run_id="e2e",
            resume=True,
            policy=FAST_POLICY,
        )
        results = resumed.run(cohort)
        assert resumed.stats()["resumed_chunks"] >= 1

        baseline = RecordExtractor().extract_all(cohort)
        assert results == baseline

        a = _store(tmp_path / "resumed.db", results)
        b = _store(tmp_path / "plain.db", baseline)
        assert a.read_bytes() == b.read_bytes()


class _StagePoisonExtractor(RecordExtractor):
    """Blows up mid-pipeline for one patient.

    Stages before ``STAGE`` run for real first, so the test also
    proves partially-extracted work never leaks into the store.
    """

    STAGE = "numeric"
    POISON_ID = ""

    def extract(self, record):
        if record.patient_id != self.POISON_ID:
            return super().extract(record)
        if self.STAGE in ("terms", "categorical"):
            self.numeric.extract_record(record)
        if self.STAGE == "categorical":
            self.terms.extract_record_detailed(record)
        raise ValueError(
            f"injected {self.STAGE}-stage failure "
            f"for {record.patient_id}"
        )


class TestQuarantineEqualsSkip:
    @pytest.mark.parametrize(
        "stage", ["numeric", "terms", "categorical"]
    )
    def test_store_identical_to_skipping_poison(
        self, stage, cohort, tmp_path
    ):
        poison_id = cohort[3].patient_id
        extractor = _StagePoisonExtractor()
        extractor.STAGE = stage
        extractor.POISON_ID = poison_id

        runner = ResilientCorpusRunner(
            extractor, chunk_size=2, policy=FAST_POLICY
        )
        results = runner.run(cohort)
        assert [e.record_id for e in runner.quarantine] == [
            poison_id
        ]
        assert [e.error_type for e in runner.quarantine] == [
            "ValueError"
        ]

        skipped = [r for r in cohort if r.patient_id != poison_id]
        skip_results = RecordExtractor().extract_all(skipped)

        quarantined_store = ResultStore(tmp_path / f"{stage}-q.db")
        quarantined_store.store_many(results)
        quarantined_store.save_quarantine(runner.quarantine)
        skipped_store = ResultStore(tmp_path / f"{stage}-s.db")
        skipped_store.store_many(skip_results)
        # content_digest covers every result table and excludes the
        # quarantine table, so quarantine(poison) == skip(poison).
        assert (
            quarantined_store.content_digest()
            == skipped_store.content_digest()
        )
        assert quarantined_store.quarantined() != []
        assert skipped_store.quarantined() == []


class TestHostileCorpusEndToEnd:
    def test_resilient_store_matches_plain_store(
        self, hostile_corpus, tmp_path
    ):
        resilient = ResilientCorpusRunner(
            RecordExtractor(), policy=FAST_POLICY
        )
        results = resilient.run(hostile_corpus)
        assert resilient.quarantine == []

        plain = RecordExtractor().extract_all(hostile_corpus)
        a = _store(tmp_path / "resilient.db", results)
        b = _store(tmp_path / "plain.db", plain)
        assert a.read_bytes() == b.read_bytes()
