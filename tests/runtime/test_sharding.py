"""Sharding unit and fault-matrix tests.

Routing properties are pure-function tests.  The sharded tests spin
up a real service whose forked shard children take over the
service's extractor as it stands: a configured extractor must answer
through two shards as it does through one, and the shard-death
matrix kills one worker mid-stream with an injected ``kill`` fault —
the batch must come back as typed ``shard-failed`` errors, never a
hang, the router must stop picking the dead shard, and the drain
must still exit cleanly.
"""

import sqlite3

import pytest

from repro.client import ServiceClient
from repro.extraction import RecordExtractor
from repro.extraction.numeric import NumericExtractor
from repro.extraction.terms import TermExtractor
from repro.runtime import ExtractionCaches, FaultPlan, RetryPolicy
from repro.runtime.service import ExtractionService, ServiceConfig
from repro.runtime.sharding import partition_path, shard_for
from repro.storage import ResultStore
from repro.synth import CohortSpec, RecordGenerator

FAST_POLICY = RetryPolicy(max_attempts=2, backoff_base_s=0.0)


class TestRendezvousRouting:
    def test_deterministic(self):
        live = [0, 1, 2, 3]
        first = [shard_for(f"p{i}", live) for i in range(50)]
        second = [shard_for(f"p{i}", live) for i in range(50)]
        assert first == second

    def test_every_shard_gets_keys(self):
        live = [0, 1, 2, 3]
        owners = {shard_for(f"p{i}", live) for i in range(200)}
        assert owners == set(live)

    def test_membership_change_only_moves_dead_shards_keys(self):
        """The consistent-hash property, without a ring.

        Dropping shard 2 must reroute exactly the keys shard 2
        owned; every other key keeps its owner.
        """
        live = [0, 1, 2, 3]
        survivors = [0, 1, 3]
        for i in range(200):
            key = f"p{i}"
            before = shard_for(key, live)
            after = shard_for(key, survivors)
            if before != 2:
                assert after == before
            else:
                assert after in survivors

    def test_no_live_shards_raises(self):
        with pytest.raises(ValueError, match="no live shards"):
            shard_for("p1", [])


class TestPartitionPath:
    def test_partition_path_suffixes_shard_id(self, tmp_path):
        base = tmp_path / "study.db"
        assert partition_path(base, 0).name == "study.db.shard0"
        assert partition_path(str(base), 3).name == "study.db.shard3"
        assert partition_path(base, 0) != partition_path(base, 1)

    def test_partitions_hold_only_the_payload_journal(
        self, cohort, tmp_path
    ):
        """A partition journals the wire payloads the merge reads and
        carries none of the result store's tables."""
        db = tmp_path / "study.db"
        socket_path = str(tmp_path / "svc.sock")
        service = ExtractionService(
            RecordExtractor(),
            config=ServiceConfig(
                socket_path=socket_path, shards=2, store_path=str(db)
            ),
            policy=FAST_POLICY,
        )
        service.start()
        try:
            with ServiceClient(socket_path=socket_path) as client:
                results, _ = client.extract_many(cohort)
        finally:
            service.stop(timeout=30)
        assert len(results) == len(cohort)
        for shard_id in (0, 1):
            connection = sqlite3.connect(partition_path(db, shard_id))
            try:
                names = connection.execute(
                    "SELECT name FROM sqlite_master"
                ).fetchall()
            finally:
                connection.close()
            assert names == [("shard_payloads",)]
        with ResultStore(db) as merged:
            assert len(merged.patients()) == len(cohort)


@pytest.fixture(scope="module")
def cohort():
    records, _ = RecordGenerator(seed=23).generate_cohort(
        CohortSpec(size=6, smoking_counts={"never": 5, None: 1})
    )
    return records


class TestShardParity:
    def test_configured_extractor_answers_as_one_shard(
        self, cohort, tmp_path
    ):
        """Shard children serve the service's own extractor, not a
        default stack rebuilt from the compiled tables."""
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
        answers = {}
        for shards in (1, 2):
            socket_path = str(tmp_path / f"svc{shards}.sock")
            service = ExtractionService(
                extractor,
                config=ServiceConfig(
                    socket_path=socket_path, shards=shards
                ),
                policy=FAST_POLICY,
            )
            service.start()
            try:
                with ServiceClient(socket_path=socket_path) as client:
                    answers[shards] = client.extract_many(cohort)
            finally:
                service.stop(timeout=30)
        results, quarantined = answers[2]
        assert quarantined == [] and len(results) == len(cohort)
        assert results == answers[1][0]


class TestShardDeath:
    def test_killed_shard_reroutes_not_hangs(self, cohort, tmp_path):
        """Kill one of two shard children mid-stream.

        The in-flight record comes back as a typed ``shard-failed``
        error, which the client resubmits without sleeping; the
        router excludes the dead shard, so the resend lands on the
        survivor and every record still completes.  The drain must
        finish cleanly with the shard marked dead in stats.
        """
        service = ExtractionService(
            RecordExtractor(),
            config=ServiceConfig(
                socket_path=str(tmp_path / "svc.sock"),
                max_batch=1,
                shards=2,
            ),
            fault_plan=FaultPlan.parse("kill@2"),
            policy=FAST_POLICY,
        )
        service.start()
        try:
            with ServiceClient(
                socket_path=str(tmp_path / "svc.sock")
            ) as client:
                results, quarantined = client.extract_many(cohort)
                stats = client.stats()
                health = client.health()
        finally:
            service.stop(timeout=30)
        assert len(results) == len(cohort)
        assert quarantined == []
        assert stats["shard_deaths"] == 1
        assert stats["shard_failed"] >= 1
        assert health["live_shards"] == 1
        dead_flags = sorted(
            detail["dead"] for detail in service.shard_stats
        )
        assert dead_flags == [False, True]

    def test_single_shard_death_fails_typed(self, cohort, tmp_path):
        """With no survivor to reroute to, the failure stays typed.

        ``extract_many`` retries ``shard-failed`` up to its budget
        and then raises a :class:`ServiceError` naming the kind —
        the client never hangs on a dead fleet.  ``kill@0`` takes
        out whichever shard owns the first record; its resubmission
        is the seventh accept (global seq 6) and must land on the
        survivor, where ``kill@6`` takes that one out too.
        """
        from repro.errors import ServiceError

        service = ExtractionService(
            RecordExtractor(),
            config=ServiceConfig(
                socket_path=str(tmp_path / "svc.sock"),
                max_batch=1,
                shards=2,
            ),
            fault_plan=FaultPlan.parse("kill@0;kill@6"),
            policy=FAST_POLICY,
        )
        service.start()
        try:
            with ServiceClient(
                socket_path=str(tmp_path / "svc.sock")
            ) as client:
                with pytest.raises(
                    ServiceError, match="shard-failed"
                ):
                    client.extract_many(cohort, max_retries=5)
        finally:
            service.stop(timeout=30)
        assert all(
            detail["dead"] for detail in service.shard_stats
        )
