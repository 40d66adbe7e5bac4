"""Blocking client for the extraction service (``repro submit``).

Speaks the JSON-lines protocol of
:mod:`repro.runtime.service` over one connection:

* :meth:`ServiceClient.extract` — one record in, one
  :class:`~repro.extraction.pipeline.ExtractionResult` out, with
  transparent back-off/retry on ``overloaded`` responses;
* :meth:`ServiceClient.extract_many` — a whole corpus, pipelined with
  a bounded in-flight window so the server's micro-batcher actually
  gets batches to coalesce; results come back in input order, with
  quarantined records reported separately (mirroring the batch
  runner's contract);
* :meth:`ServiceClient.health` / :meth:`ServiceClient.stats` /
  :meth:`ServiceClient.shutdown` — introspection and drain.

The client is deliberately synchronous and single-threaded: requests
are written and responses read from the same thread, matched by id.
"""

from __future__ import annotations

import json
import socket
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import ServiceError
from repro.runtime.service import MAX_LINE_BYTES, record_to_dict

if TYPE_CHECKING:
    from repro.records.model import PatientRecord


class QuarantinedRecord(ServiceError):
    """The service isolated this record as a poison."""

    def __init__(self, record_id: str, error: dict[str, Any]):
        self.record_id = record_id
        self.error = error
        super().__init__(
            f"record {record_id!r} quarantined: "
            f"{error.get('message', '')}"
        )


class DeadlineExceeded(ServiceError):
    """The request's deadline expired before extraction ran."""


class RecordTooLarge(ServiceError):
    """The record's request line exceeds what the service reads
    (``MAX_LINE_BYTES``), so the client refused to send it."""


class ServiceClient:
    """One blocking connection to a running extraction service."""

    def __init__(
        self,
        socket_path: str | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        timeout: float = 60.0,
        window: int = 32,
    ) -> None:
        if socket_path is None and port is None:
            raise ServiceError(
                "need a socket path or a TCP port to connect to"
            )
        if socket_path is not None:
            self._socket = socket.socket(socket.AF_UNIX)
            target: Any = socket_path
        else:
            self._socket = socket.socket(socket.AF_INET)
            target = (host, port)
        self._socket.settimeout(timeout)
        try:
            self._socket.connect(target)
        except OSError as exc:
            raise ServiceError(
                f"cannot connect to service at {target!r}: {exc}"
            ) from exc
        self._reader = self._socket.makefile("r", encoding="utf-8")
        self._writer = self._socket.makefile("w", encoding="utf-8")
        self.window = max(1, window)
        self._next_id = 0

    # ------------------------------------------------------- transport

    def close(self) -> None:
        try:
            self._socket.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _send(self, payload: dict[str, Any]) -> None:
        """Write one request line; a line the service would refuse as
        ``too-large`` raises :class:`RecordTooLarge` and writes nothing.
        """
        line = json.dumps(payload)
        size = len(line.encode("utf-8"))
        if size > MAX_LINE_BYTES:
            record_id = (payload.get("record") or {}).get("patient_id")
            raise RecordTooLarge(
                f"record {record_id!r} encodes to a {size}-byte request "
                f"line; the service reads at most {MAX_LINE_BYTES}"
            )
        try:
            self._writer.write(line + "\n")
            self._writer.flush()
        except OSError as exc:
            raise ServiceError(
                f"connection lost while sending: {exc}"
            ) from exc

    def _read(self) -> dict[str, Any]:
        try:
            line = self._reader.readline()
        except OSError as exc:
            raise ServiceError(
                f"connection lost while reading: {exc}"
            ) from exc
        if not line:
            raise ServiceError(
                "service closed the connection mid-request"
            )
        try:
            message = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ServiceError(
                f"malformed response line: {exc}"
            ) from exc
        if not isinstance(message, dict):
            raise ServiceError("response was not a JSON object")
        return message

    def _request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one request and block for its tagged response."""
        request_id = self._make_id()
        self._send({**payload, "id": request_id})
        response = self._read()
        if response.get("id") != request_id:
            raise ServiceError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id!r}"
            )
        return response

    def _make_id(self) -> str:
        self._next_id += 1
        return f"q{self._next_id}"

    # ------------------------------------------------------------- ops

    def health(self) -> dict[str, Any]:
        return self._result(self._request({"op": "health"}))

    def stats(self) -> dict[str, Any]:
        return self._result(self._request({"op": "stats"}))

    def shutdown(self) -> dict[str, Any]:
        """Ask the service to drain and exit."""
        return self._result(self._request({"op": "shutdown"}))

    def extract(
        self,
        record: "PatientRecord",
        deadline_s: float | None = None,
        max_retries: int = 50,
        max_backoff_s: float = 5.0,
    ) -> Any:
        """Extract one record, retrying through overload shedding.

        ``overloaded`` responses are retried after the server-pushed
        ``retry_after_s`` hint (never more), with total sleep capped
        at ``max_backoff_s``; ``shard-failed`` responses are resent
        immediately so the record reroutes to a live shard.  Raises
        :class:`QuarantinedRecord` when the service isolated the
        record, :class:`DeadlineExceeded` on a queued-too-long
        deadline, :class:`RecordTooLarge` (sending nothing) when the
        request line would exceed ``MAX_LINE_BYTES``,
        :class:`ServiceError` for everything else.
        """
        payload: dict[str, Any] = {
            "op": "extract",
            "record": record_to_dict(record),
        }
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        slept = 0.0
        for _ in range(max_retries + 1):
            response = self._request(payload)
            if response.get("ok"):
                return self._to_result(response["result"])
            error = response.get("error", {})
            kind = error.get("kind")
            if kind == "shard-failed":
                continue
            if kind == "overloaded":
                hint = float(error.get("retry_after_s", 0.05))
                sleep_for = min(hint, max_backoff_s - slept)
                if sleep_for > 0:
                    time.sleep(sleep_for)
                    slept += sleep_for
                continue
            raise self._to_exception(record.patient_id, error)
        raise ServiceError(
            f"record {record.patient_id!r} still shed after "
            f"{max_retries} retries"
        )

    def extract_many(
        self,
        records: "Sequence[PatientRecord]",
        deadline_s: float | None = None,
        max_retries: int = 200,
        max_backoff_s: float = 5.0,
    ) -> tuple[list[Any], list[tuple[int, dict[str, Any]]]]:
        """Extract a corpus with a pipelined in-flight window.

        Returns ``(results, quarantined)``: results for every clean
        record in input order, plus ``(input_index, error payload)``
        for each quarantined one — the same split the batch runner
        makes.  ``overloaded`` and ``shard-failed`` responses requeue
        the record; any other error propagates as an exception.

        Back-off honors the queue draining sooner than the server's
        ``retry_after_s`` hint: a shed record is held back for at
        most the hint, but a completed response arriving meanwhile
        (proof the server's queue moved) releases it immediately.
        While other requests are in flight the client blocks reading
        their responses instead of sleeping; it only sleeps when the
        window is empty, and never beyond ``max_backoff_s`` total
        for the call.  A record too large to send raises
        :class:`RecordTooLarge` once the answers already in flight are
        read, so the connection stays usable.
        """
        records = list(records)
        slots: list[Any] = [None] * len(records)
        quarantined: list[tuple[int, dict[str, Any]]] = []
        cleared: set[int] = set()
        to_send: deque[int] = deque(range(len(records)))
        in_flight: dict[str, int] = {}
        retries = 0
        slept = 0.0
        #: Shed records are held until this monotonic instant —
        #: pushed out by each overloaded hint, cleared the moment a
        #: completed response proves the server's queue moved.
        resend_at = 0.0
        while to_send or in_flight:
            while (
                to_send
                and len(in_flight) < self.window
                and time.monotonic() >= resend_at
            ):
                index = to_send.popleft()
                request_id = self._make_id()
                payload: dict[str, Any] = {
                    "op": "extract",
                    "id": request_id,
                    "record": record_to_dict(records[index]),
                }
                if deadline_s is not None:
                    payload["deadline_s"] = deadline_s
                try:
                    self._send(payload)
                except RecordTooLarge:
                    # Read the answers still owed, so the connection
                    # can serve the caller's next request.
                    for _ in in_flight:
                        self._read()
                    raise
                in_flight[request_id] = index
            if not in_flight:
                # Nothing to read: wait out the back-off gate —
                # bounded by the hint and the remaining budget.
                wait = resend_at - time.monotonic()
                if wait > 0:
                    sleep_for = min(wait, max_backoff_s - slept)
                    if sleep_for > 0:
                        time.sleep(sleep_for)
                        slept += sleep_for
                    else:
                        resend_at = 0.0  # budget spent: server paces
                continue
            response = self._read()
            response_id = response.get("id")
            if response_id not in in_flight:
                raise ServiceError(
                    f"unsolicited response id {response_id!r}"
                )
            index = in_flight.pop(response_id)
            if response.get("ok"):
                slots[index] = self._to_result(response["result"])
                cleared.add(index)
                resend_at = 0.0  # queue drained sooner than the hint
                continue
            error = response.get("error", {})
            kind = error.get("kind")
            if kind in ("overloaded", "shard-failed"):
                retries += 1
                if retries > max_retries:
                    raise ServiceError(
                        f"gave up after {max_retries} "
                        f"{kind} retries"
                    )
                if kind == "overloaded":
                    hint = float(error.get("retry_after_s", 0.05))
                    resend_at = time.monotonic() + hint
                to_send.append(index)
                continue
            if kind == "quarantined":
                quarantined.append((index, error))
                continue
            raise self._to_exception(
                records[index].patient_id, error
            )
        results = [
            slots[index]
            for index in range(len(records))
            if index in cleared
        ]
        return results, quarantined

    # ------------------------------------------------------- internals

    @staticmethod
    def _result(response: dict[str, Any]) -> dict[str, Any]:
        if not response.get("ok"):
            error = response.get("error", {})
            raise ServiceError(
                f"{error.get('kind', 'error')}: "
                f"{error.get('message', 'request failed')}"
            )
        return response["result"]

    @staticmethod
    def _to_result(payload: dict[str, Any]) -> Any:
        from repro.extraction.pipeline import ExtractionResult

        return ExtractionResult.from_dict(payload)

    @staticmethod
    def _to_exception(
        record_id: str, error: dict[str, Any]
    ) -> ServiceError:
        kind = error.get("kind")
        if kind == "quarantined":
            return QuarantinedRecord(record_id, error)
        if kind == "deadline":
            return DeadlineExceeded(
                f"record {record_id!r}: "
                f"{error.get('message', 'deadline expired')}"
            )
        return ServiceError(
            f"record {record_id!r}: {kind}: "
            f"{error.get('message', '')}"
        )


__all__ = [
    "DeadlineExceeded",
    "QuarantinedRecord",
    "ServiceClient",
]
