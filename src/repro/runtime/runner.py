"""Worker-process side of the corpus runner.

:class:`~repro.runtime.resilience.CorpusRunner` runs every corpus.
With ``workers>1`` it fans chunks of records out over a
:class:`~concurrent.futures.ProcessPoolExecutor` started with the
``fork`` method; this module is what those pool workers (and the
service's forked shard children) run:

* :func:`_init_worker`, the one set-up for pool workers and shard
  children, takes over the parent's extractor and parse store as
  fork hands them down — the caller's configured extractors, trained
  models and compiled tables, with nothing rebuilt or pickled — and
  marks the process as a disposable worker, so injected ``kill``
  faults really end it;
* :func:`_extract_chunk`, the one chunk function, fires scheduled
  faults, extracts each record, resets the caches on failure, and
  returns the results with the worker's counter delta (cache hits,
  prune ratio, parse time), its trace delta (stage totals and span
  trees), and the parse outcomes it added, which the parent merges
  into its store.

Fork is the only start method that hands a child these objects, so
``workers>1`` and ``shards>1`` need a POSIX host; the context is
named explicitly because ``forkserver`` (the Linux default from
Python 3.14) inherits nothing.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Sequence

from repro import tracing
from repro.records.model import PatientRecord
from repro.runtime.faults import FaultPlan, mark_worker
from repro.runtime.metrics import diff_stats
from repro.runtime.parsecache import PersistentParseCache
from repro.tracing import Tracer

if TYPE_CHECKING:  # real imports are deferred: extraction imports us
    from repro.extraction.pipeline import (
        ExtractionResult,
        RecordExtractor,
    )

#: The parent's extractor, adopted by :func:`_init_worker`.
_WORKER_EXTRACTOR: "RecordExtractor | None" = None

#: Wall-clock :func:`_init_worker` spent in this worker, and whether
#: it was reported back yet.  The first chunk a worker finishes ships
#: the figure home inside its counter delta, so the parent can
#: aggregate per-worker start-up cost.
_WORKER_INIT_SECONDS: float = 0.0
_WORKER_INIT_REPORTED: bool = True


def _init_worker(
    extractor: "RecordExtractor", store: PersistentParseCache
) -> None:
    """Adopt the parent's *extractor* and parse *store* in a forked
    child.

    The caches are emptied as after a failed chunk, so the worker
    admits documents by its own reads, within the same fixed bound as
    the parent.  The store keeps every parse the parent had; its
    inherited delta is drained so the first chunk ships only this
    worker's own additions.
    """
    global _WORKER_EXTRACTOR, _WORKER_INIT_SECONDS
    global _WORKER_INIT_REPORTED
    started = time.perf_counter()
    mark_worker()
    _reset_caches(extractor)
    store.drain_delta()
    _WORKER_EXTRACTOR = extractor
    _WORKER_INIT_SECONDS = time.perf_counter() - started
    _WORKER_INIT_REPORTED = False


def bind_store(
    extractor: "RecordExtractor", store: "PersistentParseCache | None"
) -> "PersistentParseCache":
    """Make *store*, when given, the parse store *extractor* parses
    through; returns the store it parses through.

    An engine without caches (a test stub) never parses, so it gets
    the given store or a fresh in-memory one for the runner to own.
    """
    caches = getattr(extractor, "caches", None)
    if caches is None:
        return store if store is not None else PersistentParseCache()
    if store is not None:
        caches.linkages.store = store
    return caches.linkages.store


def _extract_records(
    extractor: "RecordExtractor",
    records: Sequence[PatientRecord],
    start: int,
    attempt: int,
    plan: FaultPlan | None,
    index_map: Sequence[int] | None = None,
) -> "list[ExtractionResult]":
    """The innermost loop: fire scheduled faults, extract each record.

    ``index_map`` translates run-local record positions to an outer
    index space (the extraction service's global accept sequence), so
    fault matching and injected-error messages speak global indices —
    identical to a batch run over the same stream.
    """
    results = []
    for offset, record in enumerate(records):
        if plan is not None:
            position = start + offset
            plan.fire(
                index_map[position]
                if index_map is not None
                else position,
                attempt,
                extractor=extractor,
            )
        results.append(extractor.extract(record))
    return results


def _reset_caches(extractor: "RecordExtractor") -> None:
    """Empty the document cache (both tiers and its ghost) and the
    linkage front (the parse store keeps its outcomes): after a chunk
    failure, which may have left them corrupt, and in a freshly
    forked worker."""
    caches = getattr(extractor, "caches", None)
    if caches is not None:
        caches.clear()


def _extract_chunk(
    payload: tuple[
        int,
        tuple[PatientRecord, ...],
        type[Tracer] | None,
        int,
        FaultPlan | None,
    ],
) -> tuple[
    int,
    "list[ExtractionResult]",
    dict[str, Any],
    dict[str, Any] | None,
    dict[tuple, tuple],
]:
    """Extract one chunk; returns (start, results, deltas, trace,
    parse_delta).

    The payload's tracer class is the worker's one instrumentation
    switch: when set, the chunk runs under a fresh tracer of the
    parent's class and ships ``trace``, its stage totals and span
    trees (:meth:`Tracer.to_dict`), which the parent adopts in input
    order, so a parallel trace lists a serial one's records in order.
    ``parse_delta`` carries the parse outcomes this worker added to
    its parse store during the chunk; the parent merges them so one
    run's store sees every worker's work.
    A failed chunk resets the worker's caches before it re-raises.
    """
    start, records, tracer_class, attempt, plan = payload
    extractor = _WORKER_EXTRACTOR
    assert extractor is not None, "pool initializer did not run"
    before = extractor.counters()
    tracer = tracer_class() if tracer_class is not None else None
    try:
        with tracing.activated(tracer):
            results = _extract_records(
                extractor, records, start, attempt, plan
            )
    except Exception:
        _reset_caches(extractor)
        raise
    delta = diff_stats(extractor.counters(), before)
    delta = _attach_init_report(delta)
    parse_delta = extractor.caches.linkages.store.drain_delta()
    trace = tracer.to_dict() if tracer is not None else None
    return start, results, delta, trace, parse_delta


def _attach_init_report(delta: dict[str, Any]) -> dict[str, Any]:
    """Fold this worker's one-time init timing into a chunk delta.

    Only the first chunk a worker returns carries the report, so the
    parent's merged ``workers.init_seconds`` is the total start-up
    cost across the pool and ``workers.initialized`` counts workers.
    """
    global _WORKER_INIT_REPORTED
    if not _WORKER_INIT_REPORTED:
        _WORKER_INIT_REPORTED = True
        delta = dict(delta)
        delta["workers"] = {
            "init_seconds": _WORKER_INIT_SECONDS,
            "initialized": 1,
        }
    return delta
