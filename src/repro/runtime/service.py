"""Long-running extraction service: the resident daemon behind
``repro serve``.

Every entry point so far is a one-shot CLI that pays full start-up per
invocation.  This module keeps the compiled extraction stack resident
and serves extraction requests over a local socket:

* **JSON-lines protocol** — one JSON object per line in each
  direction, over an ``AF_UNIX`` socket (default) or loopback TCP.
  Ops: ``extract`` (one patient record in, one
  :class:`~repro.extraction.pipeline.ExtractionResult` out),
  ``health``, ``stats``, and ``shutdown``.  Responses carry the
  request's ``id``, so one connection can pipeline many requests.
* **Async accept loop + shard workers** — connections are served by
  one asyncio event loop; accepted requests are routed by rendezvous
  hash on the record id to one of ``shards`` workers, each with its
  own bounded queue, dispatcher, and warm extraction stack.  With
  ``shards=1`` (the default) extraction runs in-process on the
  service's own runner — the deterministic reference path; with
  ``shards>1`` each shard is a child process forked with that runner,
  so it runs the same extractor over the parse store it inherits (see
  :mod:`repro.runtime.sharding`).  Both run every batch through one
  body, :meth:`~repro.runtime.sharding.LocalShard.run_batch`.
* **Micro-batching** — each shard's dispatcher takes one request and
  then whatever its queue already holds, up to ``max_batch``.
  Requests that arrive while a batch runs coalesce into the next,
  because each shard runs its batches in turn.  Batches run on a
  :class:`~repro.runtime.resilience.ResilientCorpusRunner`, so the
  batch path's caching, retry/bisect/quarantine machinery, and fault
  injection all apply to live traffic.
* **Backpressure** — when a shard's queue is full the service *sheds
  load*: the request is rejected immediately with an ``overloaded``
  error carrying ``retry_after_s``, instead of blocking the
  connection or silently dropping work.
* **Deadlines** — each request may carry ``deadline_s``; a request
  whose deadline expires while still queued is answered with a
  ``deadline`` error at dispatch time, without paying for extraction.
* **Shard death** — a shard worker that dies mid-stream answers its
  in-flight and queued requests with typed ``shard-failed`` errors
  (never a hang) and is excluded from routing; resubmitted records
  land on the surviving shards.
* **Graceful drain** — ``shutdown`` (or SIGTERM via the CLI) stops
  accepting new extract requests, but every already-accepted request
  is answered before the server exits.  On drain, shard result-store
  partitions are merged into one store byte-identical to a batch
  ``repro extract`` run.

Determinism note: with ``shards=1`` extraction runs only on the
shard's single executor thread, so the process-global tracer and all
engine caches see strictly serialized access — results are
byte-identical to the batch CLI path on the same records in the same
order.  With ``shards>1`` each shard is individually deterministic
and fault indices refer to the *global accept order* of extract
requests (``raise@2`` poisons the third record ever accepted);
symbolic indices are not meaningful for an endless stream and are
rejected.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Awaitable, Callable, Sequence

from repro.errors import ServiceError
from repro.records.model import PatientRecord, Section
from repro.runtime.faults import FaultPlan
from repro.runtime.metrics import Metrics
from repro.runtime.resilience import (
    QuarantineEntry,
    ResilientCorpusRunner,
    RetryPolicy,
)
from repro.runtime.sharding import (
    BatchOutcome,
    LocalShard,
    ProcessShard,
    ShardFailure,
    partition_path,
    shard_for,
)

if TYPE_CHECKING:
    from repro.extraction.pipeline import RecordExtractor
    from repro.runtime.parsecache import PersistentParseCache

#: Protocol ops a request may carry.
OPS = ("extract", "health", "stats", "shutdown")

#: Error kinds a response may carry.
ERROR_KINDS = (
    "bad-request",
    "deadline",
    "overloaded",
    "quarantined",
    "shard-failed",
    "shutting-down",
    "too-large",
)

#: Longest request line the service reads, newline excluded.  A longer
#: line is answered with a ``too-large`` error and skipped through its
#: newline; the connection keeps serving the lines after it.
MAX_LINE_BYTES = 64 * 1024

#: Queue sentinel that tells a dispatcher the drain has begun.
_DRAIN = object()


# ----------------------------------------------------------- wire form

def record_to_dict(record: PatientRecord) -> dict[str, Any]:
    """JSON-safe form of a patient record for the wire."""
    return {
        "patient_id": record.patient_id,
        "sections": [
            {"name": section.name, "text": section.text}
            for section in record.sections
        ],
        "raw_text": record.raw_text,
    }


def record_from_dict(data: dict[str, Any]) -> PatientRecord:
    try:
        return PatientRecord(
            patient_id=data["patient_id"],
            sections=[
                Section(name=s["name"], text=s["text"])
                for s in data.get("sections", [])
            ],
            raw_text=data.get("raw_text", ""),
        )
    except (KeyError, TypeError) as exc:
        raise ServiceError(f"malformed record payload: {exc}") from exc


# -------------------------------------------------------------- config

@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for one :class:`ExtractionService`.

    With ``socket_path`` set the service listens on an ``AF_UNIX``
    socket; otherwise it binds loopback TCP on ``host:port`` (port 0
    picks an ephemeral port, reported via :attr:`ExtractionService.
    address`).
    """

    socket_path: str | None = None
    host: str = "127.0.0.1"
    port: int = 0
    #: Accepted-but-undispatched requests *each shard's* queue holds
    #: before the service sheds load with ``overloaded`` responses.
    max_queue: int = 64
    #: Most records coalesced into one dispatched batch.
    max_batch: int = 16
    #: Suggested client back-off carried by ``overloaded`` responses.
    retry_after_s: float = 0.05
    #: Deadline applied to requests that do not carry their own.
    default_deadline_s: float | None = None
    #: Shard workers: 1 keeps extraction in-process (the reference
    #: path); N>1 forks N child processes, each with its copy of the
    #: service's runner, its own queue and its own result-store
    #: partition.
    shards: int = 1
    #: When set, shards persist results server-side, to per-shard
    #: partitions merged into this path on drain.
    store_path: str | None = None
    #: Run id recorded with server-side quarantine rows.
    run_id: str = ""

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError(
                f"max_queue must be >= 1, got {self.max_queue}"
            )
        if self.max_batch < 1:
            raise ValueError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.retry_after_s < 0:
            raise ValueError(
                f"retry_after_s must be >= 0, got {self.retry_after_s}"
            )
        if self.shards < 1:
            raise ValueError(
                f"shards must be >= 1, got {self.shards}"
            )


@dataclass
class _PendingRequest:
    """One accepted extract request waiting in a shard queue."""

    request_id: str
    record: PatientRecord
    #: Global accept sequence — the stream-wide record index fault
    #: plans and quarantine entries are expressed in.
    seq: int
    #: Absolute monotonic expiry, or None for no deadline.
    expires_at: float | None
    respond: Callable[[dict[str, Any]], Awaitable[None]]


@dataclass
class _Shard:
    """Service-side view of one shard: worker + queue + executor."""

    shard_id: int
    worker: Any  # LocalShard | ProcessShard
    #: One thread: pipe I/O (or local extraction) runs off the event
    #: loop but strictly serialized per shard.
    executor: ThreadPoolExecutor
    queue: asyncio.Queue = field(default_factory=asyncio.Queue)
    dispatched: int = 0
    batches: int = 0

    @property
    def dead(self) -> bool:
        return bool(self.worker.dead)


# ------------------------------------------------------------- service

class ExtractionService:
    """A resident extraction daemon over a local socket.

    The extraction stack (optionally warm-started from a compiled
    artifact) is built once, in the service's runner, and every shard
    runs it: every dispatched batch goes through a
    :class:`ResilientCorpusRunner`, so quarantine/retry semantics and
    ``fault_plan`` injection match the batch CLI.
    """

    def __init__(
        self,
        extractor: "RecordExtractor | None" = None,
        config: ServiceConfig | None = None,
        artifact: Any | None = None,
        policy: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        parse_cache: "PersistentParseCache | None" = None,
    ) -> None:
        self.config = config or ServiceConfig()
        if fault_plan is not None:
            for fault in fault_plan.faults:
                if isinstance(fault.index, str):
                    raise ServiceError(
                        f"symbolic fault index "
                        f"{fault.spec()!r} is undefined for a "
                        "service stream; use integer indices"
                    )
        self.fault_plan = fault_plan
        #: The in-process runner: the ``shards=1`` extraction path.
        #: For ``shards>1`` every forked shard child runs its own copy
        #: of it; its store collects the parses they add.
        self.runner = ResilientCorpusRunner(
            extractor,
            workers=1,
            chunk_size=self.config.max_batch,
            policy=policy,
            artifact=artifact,
            parse_cache=parse_cache,
        )
        self.metrics = Metrics()
        #: Every poison isolated over the service lifetime, with
        #: record_index rebased to global accept order.
        self.quarantine: list[QuarantineEntry] = []
        self.address: Any = None
        #: Partition-merge summary from the last drain.
        self.merge_summary: dict[str, int] | None = None
        #: Final per-shard stats collected at drain.
        self.shard_stats: list[dict[str, Any]] = []

        self._flag_lock = threading.Lock()
        self._draining = False
        self._next_seq = 0
        self._dispatched = 0  # records handed to shard runners, ever
        self._completed = 0
        self._started = time.monotonic()
        self._ready = threading.Event()
        self._serve_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._drain_event: asyncio.Event | None = None
        self._shards: list[_Shard] = []
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------- lifecycle

    def serve(self) -> None:
        """Bind, accept, and dispatch until drained (blocking)."""
        try:
            asyncio.run(self._serve_async())
        except BaseException as exc:
            self._serve_error = exc
            self._ready.set()
            raise

    def start(self) -> Any:
        """Run :meth:`serve` on a background thread; returns the bound
        address once the service is accepting connections."""
        self._thread = threading.Thread(
            target=self._serve_quietly, name="service-accept",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ServiceError("service failed to come up in 30s")
        if self._serve_error is not None:
            raise ServiceError(
                f"service failed to start: {self._serve_error}"
            ) from self._serve_error
        return self.address

    def _serve_quietly(self) -> None:
        try:
            self.serve()
        except BaseException:
            pass  # recorded in _serve_error for start() to surface

    def shutdown(self) -> None:
        """Begin a graceful drain (idempotent, safe from any thread).

        New extract requests are rejected with ``shutting-down``;
        everything already accepted is dispatched and answered, then
        :meth:`serve` returns.
        """
        with self._flag_lock:
            self._draining = True
            loop = self._loop
            event = self._drain_event
        if loop is not None and event is not None:
            try:
                loop.call_soon_threadsafe(event.set)
            except RuntimeError:
                pass  # loop already closed: serve() has returned

    def join(self, timeout: float | None = None) -> None:
        """Wait for a :meth:`start`-ed service to finish draining."""
        if self._thread is not None:
            self._thread.join(timeout)

    def is_running(self) -> bool:
        """True while a :meth:`start`-ed service has not drained."""
        return self._thread is not None and self._thread.is_alive()

    def stop(self, timeout: float | None = 30.0) -> None:
        """Shutdown + join, for tests and embedders."""
        self.shutdown()
        self.join(timeout)

    # ------------------------------------------------------ event loop

    async def _serve_async(self) -> None:
        loop = asyncio.get_running_loop()
        drain_event = asyncio.Event()
        with self._flag_lock:
            self._loop = loop
            self._drain_event = drain_event
            if self._draining:
                drain_event.set()
        self._install_shards()
        server = await self._start_server()
        dispatchers = [
            asyncio.create_task(
                self._dispatch_loop(shard),
                name=f"dispatch-{shard.shard_id}",
            )
            for shard in self._shards
        ]
        self._ready.set()
        try:
            await drain_event.wait()
            server.close()
            for shard in self._shards:
                await shard.queue.put(_DRAIN)
            await asyncio.gather(*dispatchers)
            # Give connection handlers a beat to flush rejections
            # raced against the end of the drain.
            await asyncio.sleep(0.02)
        finally:
            server.close()
            await server.wait_closed()
            await self._teardown_shards()
            self._unlink_socket()
            with self._flag_lock:
                self._loop = None
                self._drain_event = None

    async def _start_server(self) -> asyncio.AbstractServer:
        if self.config.socket_path is not None:
            path = Path(self.config.socket_path)
            if path.exists():
                path.unlink()
            server = await asyncio.start_unix_server(
                self._handle_connection,
                path=str(path),
                limit=MAX_LINE_BYTES,
            )
            self.address = str(path)
        else:
            server = await asyncio.start_server(
                self._handle_connection,
                host=self.config.host,
                port=self.config.port,
                limit=MAX_LINE_BYTES,
            )
            self.address = server.sockets[0].getsockname()
        return server

    def _unlink_socket(self) -> None:
        if self.config.socket_path is not None:
            path = Path(self.config.socket_path)
            if path.exists():
                path.unlink()

    # ---------------------------------------------------------- shards

    def _install_shards(self) -> None:
        self._clear_partitions()
        workers: list[Any] = [
            LocalShard(
                shard_id,
                self.runner,
                self.config.store_path,
                self.config.run_id,
            )
            for shard_id in range(self.config.shards)
        ]
        if self.config.shards > 1:
            workers = [ProcessShard(shard) for shard in workers]
        self._shards = [
            _Shard(
                shard_id=worker.shard_id,
                worker=worker,
                executor=ThreadPoolExecutor(
                    max_workers=1,
                    thread_name_prefix=f"shard-{worker.shard_id}",
                ),
                queue=asyncio.Queue(maxsize=self.config.max_queue + 1),
            )
            for worker in workers
        ]

    def _clear_partitions(self) -> None:
        """Remove stale partition files from a previous run."""
        if self.config.store_path is None:
            return
        for shard_id in range(self.config.shards):
            base = partition_path(self.config.store_path, shard_id)
            for stale in (
                base,
                Path(f"{base}-wal"),
                Path(f"{base}-shm"),
            ):
                if stale.exists():
                    stale.unlink()

    async def _teardown_shards(self) -> None:
        # Close each worker on its own executor thread — the thread
        # that owns its SQLite connection.
        loop = asyncio.get_running_loop()
        self.shard_stats = [
            await loop.run_in_executor(shard.executor, shard.worker.close)
            for shard in self._shards
        ]
        for shard in self._shards:
            shard.executor.shutdown(wait=False)
        if self.config.store_path is not None:
            from repro.storage.db import merge_partition_stores

            self.merge_summary = merge_partition_stores(
                self.config.store_path,
                [
                    partition_path(
                        self.config.store_path, shard.shard_id
                    )
                    for shard in self._shards
                ],
                run_id=self.config.run_id,
            )

    def _live_shards(self) -> list[_Shard]:
        return [shard for shard in self._shards if not shard.dead]

    def _route(self, record: PatientRecord) -> _Shard | None:
        live = self._live_shards()
        if not live:
            return None
        if len(live) == 1:
            return live[0]
        by_id = {shard.shard_id: shard for shard in live}
        return by_id[
            shard_for(record.patient_id, sorted(by_id))
        ]

    # ----------------------------------------------------- connections

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """One task per connection: parse lines, route ops.

        Responses for pipelined requests are written from this task
        (health/stats/errors) and the shard dispatchers (extract
        results) — all on the one event loop, with a per-connection
        lock keeping each JSON line contiguous on the wire.
        """
        lock = asyncio.Lock()

        async def respond(payload: dict[str, Any]) -> None:
            # Insertion order is part of the payload: result dicts
            # must re-serialize byte-identically to the batch path,
            # so never sort keys here.
            data = (json.dumps(payload) + "\n").encode("utf-8")
            try:
                async with lock:
                    writer.write(data)
                    await writer.drain()
            except (ConnectionError, OSError):
                # The client went away; its results are dropped but
                # the batch they rode in completes normally.
                self.metrics.count("responses_lost")

        try:
            while True:
                try:
                    raw = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as eof:
                    raw = eof.partial  # a last line without newline
                except asyncio.LimitOverrunError:
                    await respond(_error(
                        None, "too-large",
                        f"request line exceeds {MAX_LINE_BYTES} bytes",
                    ))
                    self.metrics.count("rejected_too_large")
                    await _discard_line(reader)
                    continue
                if not raw:
                    break
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                await self._handle_line(line, respond)
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass

    async def _handle_line(
        self,
        line: str,
        respond: Callable[[dict[str, Any]], Awaitable[None]],
    ) -> None:
        try:
            message = json.loads(line)
        except json.JSONDecodeError as exc:
            await respond(
                _error(None, "bad-request", f"bad JSON: {exc}")
            )
            return
        if not isinstance(message, dict):
            await respond(
                _error(None, "bad-request", "expected a JSON object")
            )
            return
        request_id = message.get("id")
        op = message.get("op")
        self.metrics.count("requests")
        if op == "health":
            await respond({"id": request_id, "ok": True,
                           "result": self.health()})
        elif op == "stats":
            await respond({"id": request_id, "ok": True,
                           "result": self.stats()})
        elif op == "shutdown":
            await respond({"id": request_id, "ok": True,
                           "result": {"draining": True}})
            self.shutdown()
        elif op == "extract":
            await self._accept_extract(message, request_id, respond)
        else:
            await respond(_error(
                request_id, "bad-request",
                f"unknown op {op!r} (expected one of "
                f"{', '.join(OPS)})",
            ))

    async def _accept_extract(
        self,
        message: dict[str, Any],
        request_id: Any,
        respond: Callable[[dict[str, Any]], Awaitable[None]],
    ) -> None:
        try:
            record = record_from_dict(message["record"])
        except (KeyError, ServiceError) as exc:
            await respond(_error(request_id, "bad-request", str(exc)))
            return
        if self._draining:
            await respond(_error(
                request_id, "shutting-down",
                "service is draining; submit elsewhere",
            ))
            self.metrics.count("rejected_draining")
            return
        shard = self._route(record)
        if shard is None:
            await respond(_error(
                request_id, "shard-failed",
                "no live shards left to extract on",
            ))
            self.metrics.count("shard_failed")
            return
        if shard.queue.qsize() >= self.config.max_queue:
            response = _error(
                request_id, "overloaded",
                f"queue full ({self.config.max_queue} pending); "
                "retry later",
            )
            response["error"]["retry_after_s"] = (
                self.config.retry_after_s
            )
            await respond(response)
            self.metrics.count("rejected_overload")
            return
        pending = _PendingRequest(
            request_id=request_id,
            record=record,
            seq=self._next_seq,
            expires_at=self._expires_at(message),
            respond=respond,
        )
        self._next_seq += 1
        shard.queue.put_nowait(pending)
        self.metrics.count("accepted")
        self.metrics.gauge(
            "queue_depth_peak", float(self._queue_depth())
        )

    def _expires_at(self, message: dict[str, Any]) -> float | None:
        deadline_s = message.get(
            "deadline_s", self.config.default_deadline_s
        )
        if deadline_s is None:
            return None
        return time.monotonic() + float(deadline_s)

    def _queue_depth(self) -> int:
        return sum(shard.queue.qsize() for shard in self._shards)

    # ----------------------------------------------------- dispatchers

    async def _dispatch_loop(self, shard: _Shard) -> None:
        closing = False
        while True:
            batch, saw_drain = await self._next_batch(shard, closing)
            closing = closing or saw_drain
            if batch:
                await self._dispatch_batch(shard, batch)
            if closing and shard.queue.empty():
                return

    async def _next_batch(
        self, shard: _Shard, closing: bool
    ) -> tuple[list[_PendingRequest], bool]:
        """Block for one request, then take what is already queued,
        up to ``max_batch`` in all.

        Returns the batch plus whether the drain sentinel was seen;
        once it has been, the caller exits as soon as the queue is
        empty — every accepted request has been dispatched by then.
        """
        batch: list[_PendingRequest] = []
        saw_drain = False
        if closing and shard.queue.empty():
            return batch, saw_drain
        item = await shard.queue.get()
        if item is _DRAIN:
            return batch, True
        batch.append(item)
        while len(batch) < self.config.max_batch:
            try:
                item = shard.queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is _DRAIN:
                saw_drain = True
                break
            batch.append(item)
        return batch, saw_drain

    async def _dispatch_batch(
        self, shard: _Shard, batch: list[_PendingRequest]
    ) -> None:
        now = time.monotonic()
        live: list[_PendingRequest] = []
        for pending in batch:
            if (
                pending.expires_at is not None
                and pending.expires_at <= now
            ):
                await pending.respond(_error(
                    pending.request_id, "deadline",
                    "deadline expired while queued",
                ))
                self.metrics.count("deadline_expired")
            else:
                live.append(pending)
        if not live:
            return
        if shard.dead:
            await self._fail_batch(live, shard)
            return
        records = [pending.record for pending in live]
        seqs = [pending.seq for pending in live]
        plan = self._plan_for_seqs(seqs)
        self.metrics.count("batches")
        shard.batches += 1
        self.metrics.gauge("batch_size_peak", float(len(records)))
        loop = asyncio.get_running_loop()
        try:
            with self.metrics.time("batch_seconds"):
                outcome = await loop.run_in_executor(
                    shard.executor,
                    shard.worker.run_batch,
                    records, plan, seqs,
                )
        except ShardFailure:
            self.metrics.count("shard_deaths")
            await self._fail_batch(live, shard)
            return
        except Exception as exc:  # an unquarantinable failure
            for pending in live:
                await pending.respond(_error(
                    pending.request_id, "bad-request",
                    f"extraction failed: "
                    f"{type(exc).__name__}: {exc}",
                ))
            self.metrics.count("batch_failures")
            return
        finally:
            self._dispatched += len(records)
            shard.dispatched += len(records)
        await self._route_results(live, outcome)

    async def _fail_batch(
        self, live: list[_PendingRequest], shard: _Shard
    ) -> None:
        """Answer a dead shard's requests with typed errors.

        Clients that resubmit are routed to the surviving shards
        (the router excludes dead ones), so a resubmitting client
        sees effective rerouting without the service replaying work
        that may have been half-persisted by the dead worker.
        """
        for pending in live:
            await pending.respond(_error(
                pending.request_id, "shard-failed",
                f"shard {shard.shard_id} died; resubmit to be "
                "routed to a live shard",
            ))
        self.metrics.count("shard_failed", len(live))

    def _plan_for_seqs(
        self, seqs: Sequence[int]
    ) -> FaultPlan | None:
        """Filter the global fault plan to this batch's sequences.

        Fault indices stay *global*: the shard runner translates its
        batch-local record positions through an ``index_map`` of
        accept sequences, so injected errors and quarantine entries
        carry the stream-wide index — byte-identical to a batch run
        over the same records.  Faults outside this batch's window
        are dropped from the pickled plan entirely.
        """
        if self.fault_plan is None:
            return None
        accepted = set(seqs)
        window = tuple(
            fault
            for fault in self.fault_plan.faults
            if int(fault.index) in accepted
        )
        if not window:
            return None
        return replace(self.fault_plan, faults=window)

    async def _route_results(
        self,
        live: list[_PendingRequest],
        outcome: BatchOutcome,
    ) -> None:
        """Answer each request from the shard's in-order output.

        The runner returns results in input order minus quarantined
        records; quarantined requests are recovered from the entries'
        globally-rebased ``record_index``.
        """
        quarantined_by_seq = {
            entry.record_index: entry
            for entry in outcome.quarantine
        }
        cursor = 0
        for pending in live:
            entry = quarantined_by_seq.get(pending.seq)
            if entry is not None:
                self.quarantine.append(entry)
                response = _error(
                    pending.request_id, "quarantined",
                    f"record isolated after {entry.attempts} "
                    f"attempts: {entry.error_type}",
                )
                response["error"]["quarantine"] = entry.to_dict()
                await pending.respond(response)
                self.metrics.count("quarantined")
                continue
            result = outcome.results[cursor]
            cursor += 1
            await pending.respond({
                "id": pending.request_id,
                "ok": True,
                "result": result.to_dict(),
            })
            self._completed += 1
        self.metrics.count("completed", len(live))
        self.runner.parse_cache.merge(outcome.parse_delta)

    # --------------------------------------------------- introspection

    def health(self) -> dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": time.monotonic() - self._started,
            "queue_depth": self._queue_depth(),
            "shards": len(self._shards) or self.config.shards,
            "live_shards": (
                len(self._live_shards())
                if self._shards
                else self.config.shards
            ),
        }

    def stats(self) -> dict[str, Any]:
        counters = self.metrics.counters
        out: dict[str, Any] = {
            "uptime_s": time.monotonic() - self._started,
            "draining": self._draining,
            "queue_depth": self._queue_depth(),
            "max_queue": self.config.max_queue,
            "max_batch": self.config.max_batch,
            "shards": len(self._shards) or self.config.shards,
            "requests": counters.get("requests", 0),
            "accepted": counters.get("accepted", 0),
            "completed": counters.get("completed", 0),
            "batches": counters.get("batches", 0),
            "rejected_overload": counters.get(
                "rejected_overload", 0
            ),
            "rejected_draining": counters.get(
                "rejected_draining", 0
            ),
            "rejected_too_large": counters.get("rejected_too_large", 0),
            "deadline_expired": counters.get("deadline_expired", 0),
            "quarantined": counters.get("quarantined", 0),
            "shard_failed": counters.get("shard_failed", 0),
            "shard_deaths": counters.get("shard_deaths", 0),
            "records_dispatched": self._dispatched,
            "batch_seconds": self.metrics.timers.get(
                "batch_seconds", 0.0
            ),
            "queue_depth_peak": self.metrics.gauges.get(
                "queue_depth_peak", 0.0
            ),
            "batch_size_peak": self.metrics.gauges.get(
                "batch_size_peak", 0.0
            ),
        }
        if self._shards:
            out["shard_detail"] = [
                {
                    "shard": shard.shard_id,
                    "dead": shard.dead,
                    "queue_depth": shard.queue.qsize(),
                    "dispatched": shard.dispatched,
                    "batches": shard.batches,
                }
                for shard in self._shards
            ]
        if counters.get("batches", 0) and self.config.shards == 1:
            out["runner"] = self.runner.stats()
        return out


async def _discard_line(reader: asyncio.StreamReader) -> None:
    """Consume the rest of an over-long line, through its newline."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as overrun:
            await reader.readexactly(overrun.consumed)
        except asyncio.IncompleteReadError:
            return


def _error(
    request_id: Any, kind: str, message: str
) -> dict[str, Any]:
    assert kind in ERROR_KINDS, kind
    return {
        "id": request_id,
        "ok": False,
        "error": {"kind": kind, "message": message},
    }


__all__ = [
    "ERROR_KINDS",
    "MAX_LINE_BYTES",
    "OPS",
    "ExtractionService",
    "ServiceConfig",
    "record_from_dict",
    "record_to_dict",
]
