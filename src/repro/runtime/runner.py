"""Worker-process side of the corpus runner.

:class:`~repro.runtime.resilience.CorpusRunner` runs every corpus.
With ``workers>1`` it fans chunks of records out over a
:class:`~concurrent.futures.ProcessPoolExecutor`; this module is what
those pool workers (and the service's forked shard children) run:

* :func:`published` makes the parent's compiled artifact and parse
  store visible to children forked inside it, copy-on-write;
* :func:`_init_worker`, the one pool initializer, builds each
  worker's extraction stack **once** — dictionary expansion,
  pipeline, ontology, and the categorical models (shipped as
  serialized ID3 trees) are per-worker constants, not per-record
  costs — and marks the process as a disposable worker, so injected
  ``kill`` faults really end it;
* :func:`_extract_chunk`, the one chunk function, fires scheduled
  faults, extracts each record, resets the caches on failure, and
  returns the results with the worker's counter delta (cache hits,
  prune ratio, parse time), its trace delta (stage totals and span
  trees), and the parse outcomes it added, which the parent merges
  into its store.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator, Sequence

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
    from repro.runtime.compiled import CompiledArtifact

#: Per-process extractor, created by the pool initializer.
_WORKER_EXTRACTOR: "RecordExtractor | None" = None

#: Compiled artifact published by the parent just before it forks a
#: pool.  Workers started with the ``fork`` method inherit it
#: copy-on-write and skip every per-process build cost; under
#: ``spawn`` it is ``None`` and the initializer falls back to the
#: artifact path (one pickle load) or a cold build.
_SHARED_ARTIFACT: "CompiledArtifact | None" = None

#: The parent's parse store, published the same way: fork-started
#: workers inherit its entries copy-on-write and start with every
#: sentence shape the parent has seen; their own additions ship home
#: inside the chunk payloads and are merged at reassembly.
_SHARED_PARSE_CACHE: "PersistentParseCache | None" = None

#: Wall-clock the pool initializer spent building this worker's
#: extraction stack, and whether it was reported back yet.  The first
#: chunk a worker finishes ships the figure home inside its counter
#: delta, so the parent can aggregate per-worker start-up cost.
_WORKER_INIT_SECONDS: float = 0.0
_WORKER_INIT_REPORTED: bool = True


@contextmanager
def published(
    artifact: "CompiledArtifact | None",
    parse_cache: "PersistentParseCache | None",
) -> Iterator[None]:
    """Publish a warm stack to every child forked inside the block.

    *parse_cache* is the owner's parse store, sidecar-backed or not:
    children parse through it and ship back only what they add.  The
    previous values come back on exit, so nested or later forks see
    whatever their own owner published.
    """
    global _SHARED_ARTIFACT, _SHARED_PARSE_CACHE
    previous = _SHARED_ARTIFACT, _SHARED_PARSE_CACHE
    _SHARED_ARTIFACT, _SHARED_PARSE_CACHE = artifact, parse_cache
    try:
        yield
    finally:
        _SHARED_ARTIFACT, _SHARED_PARSE_CACHE = previous


def _serialize_models(
    extractor: "RecordExtractor",
) -> dict[str, dict] | None:
    """Categorical models as picklable JSON-shaped dicts."""
    from repro.ml.serialize import tree_to_dict

    models = {
        name: tree_to_dict(classifier._id3)
        for name, classifier in extractor.categorical.items()
        if classifier._id3 is not None
    }
    return models or None


def _init_worker(
    models: dict[str, dict] | None,
    parse_budget: float | None = None,
    artifact_path: str | None = None,
    document_cache_size: int | None = None,
    parse_cache_path: str | None = None,
) -> None:
    """Build one extraction stack per worker process.

    Warm-start order: the forked-in :data:`_SHARED_ARTIFACT` (free),
    then *artifact_path* (one pickle load), then a cold build from
    source — whichever is available first.  A stale or unreadable
    artifact file degrades to the cold build rather than killing the
    pool.
    """
    global _WORKER_EXTRACTOR, _WORKER_INIT_SECONDS
    global _WORKER_INIT_REPORTED
    started = time.perf_counter()
    mark_worker()
    artifact = _SHARED_ARTIFACT
    if artifact is None and artifact_path is not None:
        from repro.errors import ArtifactError
        from repro.runtime.compiled import CompiledArtifact

        try:
            artifact = CompiledArtifact.load(artifact_path)
        except ArtifactError:
            artifact = None
    if artifact is not None:
        extractor = artifact.make_extractor(
            parse_budget=parse_budget,
            document_cache_size=document_cache_size,
            models=models or {},
        )
    else:
        from repro.extraction.pipeline import RecordExtractor

        extractor = RecordExtractor(
            parse_budget=parse_budget, models=models
        )
        if document_cache_size is not None:
            extractor.caches.documents.resize(document_cache_size)
    _attach_parse_cache(extractor, parse_cache_path)
    _WORKER_EXTRACTOR = extractor
    _WORKER_INIT_SECONDS = time.perf_counter() - started
    _WORKER_INIT_REPORTED = False


def _attach_parse_cache(
    extractor: "RecordExtractor", parse_cache_path: str | None
) -> None:
    """Give a worker's extractor its parent's parse store.

    Warm-start order mirrors the artifact: the forked-in
    :data:`_SHARED_PARSE_CACHE` (free, copy-on-write), then the
    sidecar path (one pickle load under ``spawn``), else the
    in-memory store the extractor was built with.  The inherited
    delta is drained so the first chunk ships only this worker's own
    additions.
    """
    store = _SHARED_PARSE_CACHE
    if store is None and parse_cache_path is not None:
        store, _ = PersistentParseCache.load_or_create(
            parse_cache_path,
            extractor.numeric.parser.dictionary.signature(),
        )
    if store is not None:
        store.drain_delta()
        bind_store(extractor, store)


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
    """Evict possibly-corrupt cache state after a chunk failure."""
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
