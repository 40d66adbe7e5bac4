"""Shard workers behind the sharded extraction service.

The async front end in :mod:`repro.runtime.service` routes extract
requests to N *shards*.  Each shard owns one warm extraction stack and
processes its batches strictly serially, so per-shard results are as
deterministic as the batch CLI.  Every batch runs through one body,
:meth:`LocalShard.run_batch`: the batch's fault plan and index map go
onto a :class:`~repro.runtime.resilience.ResilientCorpusRunner`, the
runner extracts, and the results are journaled to the shard's
partition.  Two shard types share one calling convention
(:meth:`run_batch` / :meth:`close`, invoked from a per-shard
single-thread executor):

* :class:`LocalShard` — the batch body on the service's runner; the
  whole ``shards=1`` path, run in the service process.
* :class:`ProcessShard` — ``shards>1``: wraps a :class:`LocalShard`
  and forks a child that takes the shard over as it stands — the
  service's runner, extractor and parse store, set up by the pool
  workers' :func:`~repro.runtime.runner._init_worker` — and serves
  its batches over a :class:`multiprocessing.Pipe` with a pickled
  message protocol; each reply also carries the parse outcomes the
  child's store gained.  A dead child (kill fault, OOM, SIGKILL)
  surfaces as :class:`ShardFailure` on the next batch, never as a
  hang.

Routing is rendezvous (highest-random-weight) hashing on the record
id: every record id deterministically prefers one shard, and removing
a dead shard only moves the dead shard's keys — the consistent-hash
property, without a ring.

Each shard may also own a *partition* (``<db>.shard<K>``), a
:class:`~repro.storage.db.PayloadJournal` of every result/quarantine
wire payload keyed by the request's global accept sequence, so the
service can merge them into one store that is byte-identical to a
single-process ``repro extract`` run (see
:func:`repro.storage.db.merge_partition_stores`).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import signal
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from repro.records.model import PatientRecord

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

    from repro.extraction.pipeline import ExtractionResult
    from repro.runtime.faults import FaultPlan
    from repro.runtime.resilience import (
        QuarantineEntry,
        ResilientCorpusRunner,
    )
    from repro.storage.db import PayloadJournal


class ShardFailure(Exception):
    """A shard worker died (killed, crashed, or unreachable)."""

    def __init__(self, shard_id: int, reason: str) -> None:
        self.shard_id = shard_id
        super().__init__(f"shard {shard_id} failed: {reason}")


def shard_for(record_id: str, live: Sequence[int]) -> int:
    """Rendezvous-hash a record id onto one of the *live* shard ids.

    Deterministic across processes (sha256, not ``hash()``), and
    stable under membership change: dropping a shard reassigns only
    the keys that preferred it.
    """
    if not live:
        raise ValueError("no live shards to route to")
    return max(
        live,
        key=lambda shard: hashlib.sha256(
            f"{shard}:{record_id}".encode()
        ).digest(),
    )


def partition_path(store_path: str | Path, shard_id: int) -> Path:
    """Payload-journal partition owned by one shard."""
    return Path(f"{store_path}.shard{shard_id}")


@dataclass
class BatchOutcome:
    """What one dispatched batch produced, shard-agnostic."""

    results: "list[ExtractionResult]"
    #: Quarantine entries with ``record_index`` rebased to the global
    #: accept sequence of the poisoned request.
    quarantine: "list[QuarantineEntry]"
    #: Parse outcomes a shard child's parse store gained (empty
    #: in-process, where the store is the service's own).
    parse_delta: dict[tuple, tuple] = field(default_factory=dict)


def _persist_batch(
    store: "PayloadJournal | None",
    outcome: BatchOutcome,
    seqs: Sequence[int],
    run_id: str,
) -> None:
    """Journal one batch's wire payloads to the shard's partition, if
    it has one, keyed by accept sequence.

    The payloads are all the byte-identical merge reads.  The merge
    stamps quarantine rows with the service's run id, so *run_id* goes
    unused here.
    """
    if store is None:
        return
    quarantined_seqs = {
        entry.record_index for entry in outcome.quarantine
    }
    payloads: list[tuple[int, str, str]] = []
    cursor = 0
    for seq in seqs:
        if seq in quarantined_seqs:
            continue
        payloads.append(
            (
                seq,
                "result",
                json.dumps(outcome.results[cursor].to_dict()),
            )
        )
        cursor += 1
    payloads.extend(
        (entry.record_index, "quarantine", json.dumps(entry.to_dict()))
        for entry in outcome.quarantine
    )
    store.save_shard_payloads(payloads)


# ------------------------------------------------------------- local

class LocalShard:
    """The batch body on the runner of the process it runs in: the
    service's, or a forked shard child's copy of it."""

    def __init__(
        self,
        shard_id: int,
        runner: "ResilientCorpusRunner",
        store_path: str | None,
        run_id: str,
    ) -> None:
        self.shard_id = shard_id
        self.runner = runner
        self.store_path = store_path
        self.run_id = run_id
        self.dead = False
        self.batches = 0
        # Opened lazily on the first batch so the SQLite connection
        # is born on the shard's executor thread (or in the shard
        # child), where all batch and close calls run.
        self._store: "PayloadJournal | None" = None

    def run_batch(
        self,
        records: "list[PatientRecord]",
        plan: "FaultPlan | None",
        seqs: Sequence[int],
    ) -> BatchOutcome:
        if self._store is None and self.store_path is not None:
            from repro.storage.db import PayloadJournal

            self._store = PayloadJournal(
                partition_path(self.store_path, self.shard_id)
            )
        self.batches += 1
        self.runner.fault_plan = plan
        self.runner.index_map = list(seqs)
        results = self.runner.run(records)
        outcome = BatchOutcome(
            results=results,
            quarantine=list(self.runner.quarantine),
        )
        _persist_batch(self._store, outcome, seqs, self.run_id)
        return outcome

    def close(self) -> dict[str, Any]:
        """Close the partition; the runner's stats once it has run."""
        if self._store is not None:
            self._store.close()
        stats = self.runner.stats() if self.batches else {}
        stats.update(
            shard=self.shard_id, batches=self.batches, mode="local"
        )
        return stats


# ----------------------------------------------------------- process

def _shard_child(conn: "Connection", shard: LocalShard) -> None:
    """Shard child main loop: adopt the inherited shard, serve batches.

    The child sets up its copy of the service's extractor and parse
    store as a pool worker does, so injected ``kill`` faults hard-exit
    it — a deterministic stand-in for a crashed shard that the parent
    observes as EOF on the pipe.  Each batch runs through the shard's
    :meth:`LocalShard.run_batch`; the outcome ships home with the
    parse outcomes the batch added to the child's store.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from repro.runtime.faults import InjectedInterrupt
    from repro.runtime.runner import _init_worker

    runner = shard.runner
    _init_worker(runner.extractor, runner.parse_cache)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "close":
            try:
                conn.send(("closed", shard.close()))
            except (OSError, BrokenPipeError):
                pass
            break
        _, records, plan, seqs = message
        try:
            outcome = shard.run_batch(records, plan, seqs)
        except (Exception, InjectedInterrupt) as exc:
            conn.send(("error", type(exc).__name__, str(exc)))
            continue
        outcome.parse_delta = runner.parse_cache.drain_delta()
        conn.send(("ok", outcome))
    conn.close()


class ProcessShard:
    """One forked shard worker driven over a pipe.

    The child inherits *shard* through fork, with nothing pickled.
    All calls happen on the service's per-shard executor thread, so
    pipe access is serialized.  A broken pipe marks the shard dead
    and raises :class:`ShardFailure`; the service answers the batch
    with typed errors and routes subsequent records elsewhere.
    """

    def __init__(self, shard: LocalShard) -> None:
        self.shard_id = shard.shard_id
        self.dead = False
        context = multiprocessing.get_context("fork")
        self._conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_shard_child,
            args=(child_conn, shard),
            name=f"repro-shard-{shard.shard_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def run_batch(
        self,
        records: "list[PatientRecord]",
        plan: "FaultPlan | None",
        seqs: Sequence[int],
    ) -> BatchOutcome:
        if self.dead:
            raise ShardFailure(self.shard_id, "worker already dead")
        try:
            self._conn.send(("batch", records, plan, list(seqs)))
            reply = self._conn.recv()
        except (EOFError, OSError, BrokenPipeError) as exc:
            self.dead = True
            raise ShardFailure(
                self.shard_id,
                f"pipe broke mid-batch ({type(exc).__name__})",
            ) from exc
        if reply[0] == "error":
            _, error_type, message = reply
            raise RuntimeError(f"{error_type}: {message}")
        return reply[1]

    def close(self, timeout: float = 10.0) -> dict[str, Any]:
        """Drain the child: close its store, collect final stats."""
        stats: dict[str, Any] = {"shard": self.shard_id}
        if not self.dead:
            try:
                self._conn.send(("close",))
                if self._conn.poll(timeout):
                    reply = self._conn.recv()
                    if reply[0] == "closed":
                        stats.update(reply[1])
            except (EOFError, OSError, BrokenPipeError):
                self.dead = True
        self._conn.close()
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)
        stats["mode"] = "process"
        stats["dead"] = self.dead
        return stats


__all__ = [
    "BatchOutcome",
    "LocalShard",
    "ProcessShard",
    "ShardFailure",
    "partition_path",
    "shard_for",
]
