"""Unit tests for the extraction service and its client.

A stub extractor keeps these fast: the tests exercise the protocol,
micro-batching, backpressure, deadlines, quarantine routing, fault
windowing, and the graceful drain — not the extraction stack itself
(the integration suite covers that with the real extractor).
"""

import json
import socket
import threading
import time

import pytest

from repro.client import (
    DeadlineExceeded,
    QuarantinedRecord,
    RecordTooLarge,
    ServiceClient,
)
from repro.errors import ServiceError
from repro.extraction.numeric import Method, NumericExtraction
from repro.extraction.pipeline import ExtractionResult, Provenance
from repro.records.model import PatientRecord, Section
from repro.runtime import FaultPlan, RetryPolicy
from repro.runtime.service import (
    ERROR_KINDS,
    MAX_LINE_BYTES,
    ExtractionService,
    ServiceConfig,
    record_from_dict,
    record_to_dict,
)

FAST_POLICY = RetryPolicy(max_attempts=2, backoff_base_s=0.0)


class StubExtractor:
    """Constant-time extractor with optional per-record delay/poison."""

    def __init__(self, delay_s=0.0, poison_ids=()):
        self.delay_s = delay_s
        self.poison_ids = set(poison_ids)
        self.extracted = []

    def counters(self):
        return {}

    def extract(self, record):
        if record.patient_id in self.poison_ids:
            raise ValueError(f"poisoned: {record.patient_id}")
        if self.delay_s:
            time.sleep(self.delay_s)
        self.extracted.append(record.patient_id)
        return ExtractionResult(
            patient_id=record.patient_id,
            numeric={"pulse": None},
            terms={"diseases": ["diabetes"]},
            categorical={"smoking": None},
        )


def _record(patient_id="p1"):
    return PatientRecord(
        patient_id=patient_id,
        sections=[Section("Vitals", "Blood pressure is 144/90.")],
    )


@pytest.fixture
def serve(tmp_path):
    """Start a stub-backed service; yields (service, socket path)."""
    started = []

    def _start(**kwargs):
        kwargs.setdefault("extractor", StubExtractor())
        kwargs.setdefault("policy", FAST_POLICY)
        config = kwargs.pop("config", None) or ServiceConfig(
            socket_path=str(tmp_path / "svc.sock")
        )
        service = ExtractionService(config=config, **kwargs)
        service.start()
        started.append(service)
        return service, config.socket_path

    yield _start
    for service in started:
        service.stop(timeout=10)


class TestWireForms:
    def test_record_roundtrip(self):
        record = PatientRecord(
            patient_id="p9",
            sections=[Section("Vitals", "bp 120/80")],
            raw_text="Vitals\nbp 120/80",
        )
        wired = json.loads(json.dumps(record_to_dict(record)))
        assert record_from_dict(wired) == record

    def test_malformed_record_payload_raises(self):
        with pytest.raises(ServiceError, match="malformed record"):
            record_from_dict({"sections": []})
        with pytest.raises(ServiceError, match="malformed record"):
            record_from_dict({"patient_id": "x", "sections": [{}]})

    def test_result_roundtrip_is_bit_exact(self):
        result = ExtractionResult(
            patient_id="p3",
            numeric={
                "blood_pressure": NumericExtraction(
                    attribute="blood_pressure",
                    value=(144.0, 90.0),
                    method=Method.PATTERN,
                    sentence="Blood pressure is 144/90.",
                    detail="fallback",
                ),
                "pulse": None,
            },
            terms={"diseases": ["diabetes", "asthma"]},
            categorical={"smoking": "never", "alcohol": None},
            provenance=[
                Provenance(
                    attribute="blood_pressure",
                    kind="numeric",
                    value="144/90",
                    method="pattern",
                    detail="",
                    position=0,
                )
            ],
        )
        wired = json.loads(json.dumps(result.to_dict()))
        back = ExtractionResult.from_dict(wired)
        assert back == result
        assert json.dumps(back.to_dict()) == json.dumps(
            result.to_dict()
        )


class TestConstruction:
    def test_symbolic_fault_index_rejected(self):
        with pytest.raises(ServiceError, match="symbolic"):
            ExtractionService(
                StubExtractor(),
                fault_plan=FaultPlan.parse("raise@mid"),
            )

    def test_integer_fault_index_accepted(self):
        service = ExtractionService(
            StubExtractor(), fault_plan=FaultPlan.parse("raise@3")
        )
        assert service.fault_plan is not None

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_queue=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServiceConfig(retry_after_s=-1)


class TestFaultWindowing:
    def _service(self, spec):
        return ExtractionService(
            StubExtractor(), fault_plan=FaultPlan.parse(spec)
        )

    def test_plan_sliced_to_batch_window(self):
        # Indices stay global: the shard runner translates its
        # batch-local positions through an index_map of accept
        # sequences, so the plan window only filters.
        service = self._service("raise@3")
        window = service._plan_for_seqs(range(2, 6))
        assert [f.index for f in window.faults] == [3]

    def test_fault_outside_window_excluded(self):
        service = self._service("raise@3")
        assert service._plan_for_seqs(range(6, 10)) is None
        assert service._plan_for_seqs(range(0, 3)) is None

    def test_multiple_faults_split_across_windows(self):
        service = self._service("raise@1;hang@5")
        first = service._plan_for_seqs(range(0, 4))
        second = service._plan_for_seqs(range(4, 8))
        assert [f.index for f in first.faults] == [1]
        assert [f.index for f in second.faults] == [5]
        assert [f.kind for f in second.faults] == ["hang"]


class TestRoundtrip:
    def test_extract_roundtrip(self, serve):
        _, path = serve()
        with ServiceClient(socket_path=path) as client:
            result = client.extract(_record("p42"))
        assert result.patient_id == "p42"
        assert result.terms == {"diseases": ["diabetes"]}

    def test_extract_many_preserves_input_order(self, serve):
        _, path = serve()
        records = [_record(f"p{i}") for i in range(10)]
        with ServiceClient(socket_path=path) as client:
            results, quarantined = client.extract_many(records)
        assert quarantined == []
        assert [r.patient_id for r in results] == [
            f"p{i}" for i in range(10)
        ]

    def test_requests_coalesce_into_batches(self, serve, tmp_path):
        # The pipelined requests queue up while the first batch runs,
        # so the next batch takes them together.
        service, path = serve(
            extractor=StubExtractor(delay_s=0.05),
            config=ServiceConfig(
                socket_path=str(tmp_path / "svc.sock"),
                max_batch=16,
            ),
        )
        records = [_record(f"p{i}") for i in range(8)]
        with ServiceClient(socket_path=path) as client:
            results, _ = client.extract_many(records)
            stats = client.stats()
        assert len(results) == 8
        assert stats["accepted"] == 8
        assert stats["batches"] < stats["accepted"]
        assert stats["batch_size_peak"] > 1

    def test_tcp_fallback(self, serve):
        service, _ = serve(config=ServiceConfig(port=0))
        host, port = service.address
        with ServiceClient(host=host, port=port) as client:
            result = client.extract(_record("tcp1"))
        assert result.patient_id == "tcp1"

    def test_health_and_stats_shapes(self, serve):
        _, path = serve()
        with ServiceClient(socket_path=path) as client:
            health = client.health()
            client.extract(_record())
            stats = client.stats()
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0
        assert stats["completed"] == 1
        assert stats["records_dispatched"] == 1
        assert "runner" in stats


class TestBackpressure:
    def test_full_queue_sheds_with_retry_after(self, serve, tmp_path):
        service, path = serve(
            extractor=StubExtractor(delay_s=0.05),
            config=ServiceConfig(
                socket_path=str(tmp_path / "svc.sock"),
                max_queue=1,
                max_batch=1,
                retry_after_s=0.01,
            ),
        )
        records = [_record(f"p{i}") for i in range(6)]
        with ServiceClient(socket_path=path) as client:
            results, quarantined = client.extract_many(records)
            stats = client.stats()
        # Every record completes despite shedding: the client backs
        # off by retry_after_s and resubmits.
        assert len(results) == 6
        assert quarantined == []
        assert stats["rejected_overload"] > 0

    def test_backoff_releases_when_queue_drains(
        self, serve, tmp_path, monkeypatch
    ):
        """Regression: the client must not sleep out the full
        ``retry_after_s`` hint when the queue drains sooner.

        With responses still in flight, every shed record is resent
        as soon as a completion proves the server's queue moved —
        the client never reaches ``time.sleep`` at all, even though
        the server's hint here (5 s per shed) would otherwise dwarf
        the actual drain time.
        """
        service, path = serve(
            extractor=StubExtractor(delay_s=0.02),
            config=ServiceConfig(
                socket_path=str(tmp_path / "svc.sock"),
                max_queue=1,
                max_batch=1,
                retry_after_s=5.0,
            ),
        )
        slept = []

        class _Clock:
            monotonic = staticmethod(time.monotonic)

            @staticmethod
            def sleep(seconds):
                slept.append(seconds)
                time.sleep(seconds)

        monkeypatch.setattr("repro.client.time", _Clock)
        records = [_record(f"p{i}") for i in range(6)]
        started = time.monotonic()
        with ServiceClient(socket_path=path) as client:
            results, quarantined = client.extract_many(records)
            stats = client.stats()
        elapsed = time.monotonic() - started
        assert len(results) == 6
        assert quarantined == []
        assert stats["rejected_overload"] > 0, "nothing was shed"
        # The whole run finishes in drain time, not hint time: six
        # records at 20ms each, versus 5s per honored hint.
        assert slept == []
        assert elapsed < 2.0

    def test_overloaded_response_carries_retry_hint(self, serve,
                                                    tmp_path):
        service, path = serve(
            extractor=StubExtractor(delay_s=0.2),
            config=ServiceConfig(
                socket_path=str(tmp_path / "svc.sock"),
                max_queue=1,
                max_batch=1,
                retry_after_s=0.125,
            ),
        )
        raw = socket.socket(socket.AF_UNIX)
        raw.connect(path)
        try:
            payload = {
                "op": "extract",
                "record": record_to_dict(_record()),
            }
            lines = "".join(
                json.dumps({**payload, "id": f"r{i}"}) + "\n"
                for i in range(8)
            )
            raw.sendall(lines.encode())
            reader = raw.makefile("r")
            shed = None
            for _ in range(8):
                response = json.loads(reader.readline())
                if not response["ok"]:
                    shed = response
                    break
            assert shed is not None, "no request was shed"
            assert shed["error"]["kind"] == "overloaded"
            assert shed["error"]["retry_after_s"] == 0.125
        finally:
            raw.close()


class TestDeadlines:
    def test_expired_in_queue_answered_without_extraction(
        self, serve
    ):
        _, path = serve()
        with ServiceClient(socket_path=path) as client:
            with pytest.raises(DeadlineExceeded):
                client.extract(_record(), deadline_s=0.0)

    def test_unexpired_deadline_extracts_normally(self, serve):
        _, path = serve()
        with ServiceClient(socket_path=path) as client:
            result = client.extract(_record(), deadline_s=30.0)
        assert result.patient_id == "p1"


class TestQuarantine:
    def test_poison_reported_not_crashing(self, serve):
        _, path = serve(
            extractor=StubExtractor(poison_ids={"bad"})
        )
        with ServiceClient(socket_path=path) as client:
            with pytest.raises(QuarantinedRecord) as info:
                client.extract(_record("bad"))
            # The service survives the poison and keeps extracting.
            result = client.extract(_record("good"))
        assert info.value.record_id == "bad"
        assert (
            info.value.error["quarantine"]["error_type"]
            == "ValueError"
        )
        assert result.patient_id == "good"

    def test_extract_many_splits_out_quarantined(self, serve):
        _, path = serve(
            extractor=StubExtractor(poison_ids={"p2"})
        )
        records = [_record(f"p{i}") for i in range(5)]
        with ServiceClient(socket_path=path) as client:
            results, quarantined = client.extract_many(records)
            stats = client.stats()
        assert [r.patient_id for r in results] == [
            "p0", "p1", "p3", "p4",
        ]
        assert [index for index, _ in quarantined] == [2]
        entry = quarantined[0][1]["quarantine"]
        assert entry["record_id"] == "p2"
        assert stats["quarantined"] == 1

    def test_quarantine_index_rebased_to_global_order(
        self, serve, tmp_path
    ):
        service, path = serve(
            extractor=StubExtractor(poison_ids={"p3"}),
            config=ServiceConfig(
                socket_path=str(tmp_path / "svc.sock"),
                max_batch=2,
            ),
        )
        records = [_record(f"p{i}") for i in range(6)]
        with ServiceClient(socket_path=path) as client:
            client.extract_many(records)
        assert [e.record_id for e in service.quarantine] == ["p3"]
        assert service.quarantine[0].record_index == 3


class TestInjectedFaults:
    def test_global_fault_index_maps_across_batches(
        self, serve, tmp_path
    ):
        service, path = serve(
            fault_plan=FaultPlan.parse("raise@2"),
            config=ServiceConfig(
                socket_path=str(tmp_path / "svc.sock"),
                max_batch=2,
            ),
        )
        records = [_record(f"p{i}") for i in range(6)]
        with ServiceClient(socket_path=path) as client:
            results, quarantined = client.extract_many(records)
        # raise@2 poisons the third record ever dispatched, even
        # though it lands in the second micro-batch.
        assert [index for index, _ in quarantined] == [2]
        assert [r.patient_id for r in results] == [
            "p0", "p1", "p3", "p4", "p5",
        ]
        assert [e.record_id for e in service.quarantine] == ["p2"]


class TestProtocolErrors:
    def _raw(self, path):
        raw = socket.socket(socket.AF_UNIX)
        raw.settimeout(10)
        raw.connect(path)
        return raw

    def test_bad_json_line(self, serve):
        _, path = serve()
        raw = self._raw(path)
        try:
            raw.sendall(b"this is not json\n")
            response = json.loads(raw.makefile("r").readline())
            assert response["ok"] is False
            assert response["error"]["kind"] == "bad-request"
        finally:
            raw.close()

    def test_unknown_op(self, serve):
        _, path = serve()
        raw = self._raw(path)
        try:
            raw.sendall(b'{"op": "transmogrify", "id": "x"}\n')
            response = json.loads(raw.makefile("r").readline())
            assert response["id"] == "x"
            assert response["error"]["kind"] == "bad-request"
        finally:
            raw.close()

    def test_malformed_record(self, serve):
        _, path = serve()
        raw = self._raw(path)
        try:
            raw.sendall(
                b'{"op": "extract", "id": "m", "record": '
                b'{"sections": "nope"}}\n'
            )
            response = json.loads(raw.makefile("r").readline())
            assert response["id"] == "m"
            assert response["error"]["kind"] == "bad-request"
        finally:
            raw.close()

    @pytest.mark.parametrize(
        "size", [MAX_LINE_BYTES + 1, 70_000, 3 * MAX_LINE_BYTES]
    )
    def test_over_long_line_gets_a_typed_answer(self, serve, size):
        """The line around an over-long one is still served.

        Before the limit was handled, ``readline`` raised out of the
        connection handler: only the first request was answered and
        the connection dropped the third.
        """
        service, path = serve()
        raw = self._raw(path)
        try:
            health = b'{"op": "health", "id": "h%d"}\n'
            raw.sendall(
                health % 1 + self._padded(b"h2", size) + health % 3
            )
            lines = raw.makefile("r")
            responses = [json.loads(lines.readline()) for _ in range(3)]
        finally:
            raw.close()
        assert [r["id"] for r in responses] == ["h1", None, "h3"]
        assert responses[0]["ok"] and responses[2]["ok"]
        assert responses[1]["error"]["kind"] == "too-large"
        assert service.stats()["rejected_too_large"] == 1

    def test_line_at_the_limit_is_read(self, serve):
        _, path = serve()
        raw = self._raw(path)
        try:
            raw.sendall(self._padded(b"edge", MAX_LINE_BYTES))
            response = json.loads(raw.makefile("r").readline())
        finally:
            raw.close()
        assert response["id"] == "edge" and response["ok"]

    @staticmethod
    def _padded(request_id, size):
        """A health request of exactly *size* bytes plus its newline."""
        head = b'{"op": "health", "id": "%s", "pad": "' % request_id
        return head + b"x" * (size - len(head) - 2) + b'"}\n'

    def test_every_error_kind_is_declared(self):
        assert set(ERROR_KINDS) == {
            "bad-request",
            "deadline",
            "overloaded",
            "quarantined",
            "shard-failed",
            "shutting-down",
            "too-large",
        }


class TestClientLineLimit:
    """The client refuses a record the service would answer with
    ``too-large``, names it, sends nothing, and keeps the connection.
    """

    @staticmethod
    def _sized(patient_id, size, request_id):
        """A record whose extract request line is *size* bytes long."""
        record = _record(patient_id)

        def line_bytes():
            payload = {
                "op": "extract",
                "record": record_to_dict(record),
                "id": request_id,
            }
            return len(json.dumps(payload).encode("utf-8"))

        record.raw_text = "x" * (size - line_bytes())
        assert line_bytes() == size
        return record

    def test_extract_at_and_over_the_limit(self, serve):
        stub = StubExtractor()
        service, path = serve(extractor=stub)
        with ServiceClient(socket_path=path) as client:
            fits = self._sized("fits", MAX_LINE_BYTES, "q1")
            assert client.extract(fits).patient_id == "fits"
            over = self._sized("over", MAX_LINE_BYTES + 1, "q2")
            with pytest.raises(RecordTooLarge) as refused:
                client.extract(over)
            message = str(refused.value)
            assert "'over'" in message
            assert str(MAX_LINE_BYTES + 1) in message
            assert client.extract(_record("next")).patient_id == "next"
        assert stub.extracted == ["fits", "next"]
        assert service.stats()["rejected_too_large"] == 0

    def test_extract_many_refuses_and_drains(self, serve):
        stub = StubExtractor()
        service, path = serve(extractor=stub)
        records = [
            _record("a"),
            self._sized("huge", 2 * MAX_LINE_BYTES, "q2"),
            _record("c"),
        ]
        with ServiceClient(socket_path=path) as client:
            with pytest.raises(RecordTooLarge, match="'huge'"):
                client.extract_many(records)
            assert client.extract(_record("next")).patient_id == "next"
        assert stub.extracted == ["a", "next"]
        assert service.stats()["rejected_too_large"] == 0


class TestGracefulDrain:
    def test_shutdown_answers_every_accepted_request(
        self, serve, tmp_path
    ):
        service, path = serve(
            extractor=StubExtractor(delay_s=0.02),
            config=ServiceConfig(
                socket_path=str(tmp_path / "svc.sock"),
                max_batch=2,
            ),
        )
        raw = socket.socket(socket.AF_UNIX)
        raw.connect(path)
        try:
            payload = {
                "op": "extract",
                "record": record_to_dict(_record()),
            }
            lines = "".join(
                json.dumps({**payload, "id": f"d{i}"}) + "\n"
                for i in range(5)
            )
            # All five are accepted before shutdown is parsed: one
            # connection's lines are handled strictly in order.
            raw.sendall(
                lines.encode()
                + b'{"op": "shutdown", "id": "bye"}\n'
            )
            reader = raw.makefile("r")
            answered = {}
            for _ in range(6):
                response = json.loads(reader.readline())
                answered[response["id"]] = response
        finally:
            raw.close()
        assert answered["bye"]["ok"] is True
        oks = [answered[f"d{i}"]["ok"] for i in range(5)]
        assert oks == [True] * 5
        service.join(timeout=10)
        assert not service.is_running()

    def test_extract_rejected_while_draining(self, serve):
        service, path = serve(extractor=StubExtractor(delay_s=0.3))
        with ServiceClient(socket_path=path) as client:
            # Park one slow record so the drain has work in flight.
            parked = threading.Thread(
                target=client._send,
                args=({
                    "op": "extract",
                    "id": "slow",
                    "record": record_to_dict(_record("slow")),
                },),
            )
            parked.start()
            parked.join()
            time.sleep(0.05)  # let the batcher pick it up
            service.shutdown()
            response = client._request({
                "op": "extract",
                "record": record_to_dict(_record("late")),
            })
            assert response["ok"] is False
            assert (
                response["error"]["kind"] == "shutting-down"
            )
        service.join(timeout=10)

    def test_stop_is_idempotent(self, serve):
        service, _ = serve()
        service.stop(timeout=10)
        service.stop(timeout=10)
        assert not service.is_running()

    def test_unix_socket_removed_after_drain(self, serve):
        import os

        service, path = serve()
        assert os.path.exists(path)
        service.stop(timeout=10)
        assert not os.path.exists(path)
