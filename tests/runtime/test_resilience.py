"""Fault matrix for the resilient runner.

{raise, hang, kill, corrupt} × {first, mid, last} × {workers 1, 4}:
poisons must be quarantined with typed errors and exact quarantine
contents; transient faults must be survived with output identical to
the plain engine.
"""

import json

import pytest

from repro.errors import ResilienceError
from repro.extraction import RecordExtractor
from repro.runtime import (
    FaultPlan,
    Journal,
    QuarantineEntry,
    ResilientCorpusRunner,
    RetryPolicy,
)
from repro.synth import CohortSpec, RecordGenerator

#: No backoff sleeps in tests; three attempts before bisection.
FAST_POLICY = RetryPolicy(max_attempts=3, backoff_base_s=0.0)

COHORT_SIZE = 6
POSITIONS = {"first": 0, "mid": COHORT_SIZE // 2, "last": COHORT_SIZE - 1}


@pytest.fixture(scope="module")
def cohort():
    records, _ = RecordGenerator(seed=11).generate_cohort(
        CohortSpec(
            size=COHORT_SIZE,
            smoking_counts={
                "never": 3, "current": 1, "former": 1, None: 1,
            },
        )
    )
    return records


@pytest.fixture(scope="module")
def baseline(cohort):
    return RecordExtractor().extract_all(cohort)


def _runner(workers, plan, **kwargs):
    kwargs.setdefault("policy", FAST_POLICY)
    return ResilientCorpusRunner(
        RecordExtractor(),
        workers=workers,
        chunk_size=2,
        fault_plan=plan,
        **kwargs,
    )


class TestPoisonFaults:
    """``raise`` and ``hang`` default to always-mode: true poisons."""

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("position", sorted(POSITIONS))
    @pytest.mark.parametrize("kind", ["raise", "hang"])
    def test_poison_quarantined_rest_identical(
        self, kind, position, workers, cohort, baseline
    ):
        plan = FaultPlan.parse(
            f"{kind}@{position}", hang_seconds=0.0
        )
        runner = _runner(workers, plan)
        results = runner.run(cohort)

        index = POSITIONS[position]
        expected = [
            r for i, r in enumerate(baseline) if i != index
        ]
        assert results == expected

        assert len(runner.quarantine) == 1
        entry = runner.quarantine[0]
        assert entry.record_index == index
        assert entry.record_id == cohort[index].patient_id
        assert entry.error_type == {
            "raise": "InjectedFailure",
            "hang": "InjectedHang",
        }[kind]
        assert entry.attempts == FAST_POLICY.max_attempts
        # sha256 prefix of the traceback, and a JSON trace span.
        assert len(entry.traceback_digest) == 16
        int(entry.traceback_digest, 16)
        span = json.loads(entry.trace_span)
        assert span["kind"] == "quarantine"
        assert span["name"] == entry.record_id
        assert span["attributes"]["error_type"] == entry.error_type

        stats = runner.stats()
        assert stats["quarantined"] == 1
        assert stats["retries"] >= 1
        # chunk_size=2: the poison chunk must bisect before the
        # singleton poison is isolated.
        assert stats["bisections"] >= 1


class TestTransientFaults:
    """``kill`` and ``corrupt`` default to once-mode: recoverable."""

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("position", sorted(POSITIONS))
    @pytest.mark.parametrize("kind", ["kill", "corrupt"])
    def test_survived_with_identical_output(
        self, kind, position, workers, cohort, baseline
    ):
        plan = FaultPlan.parse(f"{kind}@{position}")
        runner = _runner(workers, plan)
        results = runner.run(cohort)

        assert results == baseline
        assert runner.quarantine == []
        stats = runner.stats()
        assert stats["quarantined"] == 0
        # Recovery went through a retry (serial kill/corrupt) or a
        # pool rebuild with chunk requeue (parallel kill).
        assert stats["retries"] + stats["requeued_chunks"] >= 1


class TestTypedErrorsOnly:
    def test_permanent_parallel_kill_is_a_typed_error(self, cohort):
        # Records 0-1 run in the parent to prime the pool; record 3
        # sits in the first chunk a pool worker runs.
        plan = FaultPlan.parse("kill@3:always")
        runner = _runner(
            4,
            plan,
            policy=RetryPolicy(
                max_attempts=2,
                backoff_base_s=0.0,
                max_pool_rebuilds=1,
            ),
        )
        with pytest.raises(ResilienceError):
            runner.run(cohort)
        assert runner.stats()["pool_rebuilds"] >= 1

    def test_kill_in_the_primed_chunk_quarantines(self, cohort, baseline):
        # The first chunk of a parallel run executes in the parent, so
        # a kill there is a typed InjectedWorkerKill, retried and
        # quarantined as in a serial run; no pool breaks.
        plan = FaultPlan.parse("kill@1:always")
        runner = _runner(4, plan)
        results = runner.run(cohort)
        assert results == [
            r for i, r in enumerate(baseline) if i != 1
        ]
        assert [
            (e.record_index, e.error_type) for e in runner.quarantine
        ] == [(1, "InjectedWorkerKill")]
        assert runner.stats()["pool_rebuilds"] == 0

    def test_permanent_serial_kill_quarantines(self, cohort, baseline):
        # Serial kill raises a typed InjectedWorkerKill instead of
        # killing the test process; always-mode makes it a poison.
        plan = FaultPlan.parse("kill@1:always")
        runner = _runner(1, plan)
        results = runner.run(cohort)
        assert results == [
            r for i, r in enumerate(baseline) if i != 1
        ]
        assert [e.error_type for e in runner.quarantine] == [
            "InjectedWorkerKill"
        ]


class TestMultipleFaults:
    def test_two_poisons_both_quarantined(self, cohort, baseline):
        plan = FaultPlan.parse("raise@first;raise@last")
        runner = _runner(1, plan)
        results = runner.run(cohort)
        assert results == baseline[1:-1]
        assert sorted(e.record_index for e in runner.quarantine) == [
            0, COHORT_SIZE - 1,
        ]

    def test_mixed_poison_and_transient(self, cohort, baseline):
        plan = FaultPlan.parse("raise@0;corrupt@3")
        runner = _runner(1, plan)
        results = runner.run(cohort)
        assert results == baseline[1:]
        assert [e.record_index for e in runner.quarantine] == [0]


class TestJournaling:
    def test_poison_recorded_in_journal(self, cohort, tmp_path):
        journal = Journal(tmp_path / "run.journal")
        runner = _runner(
            1, FaultPlan.parse("raise@2"), journal=journal,
        )
        runner.run(cohort)
        _, chunks, quarantined = journal.load()
        assert all(
            isinstance(e, QuarantineEntry) for e in quarantined
        )
        assert [e.record_index for e in quarantined] == [2]
        journaled = [
            r for start in sorted(chunks) for r in chunks[start]
        ]
        assert len(journaled) == COHORT_SIZE - 1

    def test_hostile_corpus_is_not_quarantined(self, hostile_corpus):
        # Hostile-but-valid records degrade gracefully inside the
        # extractors; the resilience layer must not eat them.
        runner = ResilientCorpusRunner(
            RecordExtractor(), policy=FAST_POLICY
        )
        results = runner.run(hostile_corpus)
        assert [r.patient_id for r in results] == [
            r.patient_id for r in hostile_corpus
        ]
        assert runner.quarantine == []
        assert results == RecordExtractor().extract_all(hostile_corpus)

    def test_adversarial_corpus_is_not_quarantined(
        self, adversarial_corpus
    ):
        # Style-pack output (OCR noise, mangled headers, extra Labs
        # sections) is adversarial-but-wellformed: it must flow
        # through the resilient path byte-identically to the plain
        # engine with nothing quarantined.
        runner = ResilientCorpusRunner(
            RecordExtractor(), policy=FAST_POLICY
        )
        results = runner.run(adversarial_corpus)
        assert [r.patient_id for r in results] == [
            r.patient_id for r in adversarial_corpus
        ]
        assert runner.quarantine == []
        assert results == RecordExtractor().extract_all(adversarial_corpus)

    def test_adversarial_corpus_survives_fault_injection(
        self, adversarial_corpus
    ):
        # A transient worker kill mid-run over the adversarial corpus
        # must recover with output identical to the clean run.
        baseline = RecordExtractor().extract_all(adversarial_corpus)
        runner = _runner(1, FaultPlan.parse("corrupt@mid"))
        assert runner.run(adversarial_corpus) == baseline
        assert runner.quarantine == []
