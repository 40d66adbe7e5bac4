"""Corpus-scale extraction: serial by default, process fan-out on demand.

A :class:`CorpusRunner` drives
:meth:`~repro.extraction.pipeline.RecordExtractor.extract_all` over a
cohort.  ``workers=1`` (the default) runs in-process and stays the
deterministic reference path.  ``workers>1`` fans chunks of records
out over a :class:`~concurrent.futures.ProcessPoolExecutor`:

* each worker builds its extraction stack **once** in a pool
  initializer — dictionary expansion, pipeline, ontology, and the
  categorical models (shipped as serialized ID3 trees) are per-worker
  constants, not per-record costs;
* work is distributed in contiguous chunks so each worker's
  cross-record caches see runs of similar records;
* results come back tagged with their chunk index and are reassembled
  in input order, so parallel output is byte-identical to serial;
* each finished chunk also returns the delta of the worker's engine
  counters (cache hits, prune ratio, parse time), which the parent
  merges into one metrics view.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from repro import profiling
from repro.records.model import PatientRecord
from repro.runtime import tracing
from repro.runtime.metrics import Metrics, diff_stats, merge_stats
from repro.runtime.tracing import Span, Tracer

if TYPE_CHECKING:  # real imports are deferred: extraction imports us
    from repro.extraction.pipeline import (
        ExtractionResult,
        RecordExtractor,
    )
    from repro.runtime.compiled import CompiledArtifact
    from repro.runtime.parsecache import PersistentParseCache
    from repro.runtime.resilience import Journal

#: Per-process extractor, created by the pool initializer.
_WORKER_EXTRACTOR: "RecordExtractor | None" = None

#: Compiled artifact published by the parent just before it forks a
#: pool.  Workers started with the ``fork`` method inherit it
#: copy-on-write and skip every per-process build cost; under
#: ``spawn`` it is ``None`` and the initializer falls back to the
#: artifact path (one pickle load) or a cold build.
_SHARED_ARTIFACT: "CompiledArtifact | None" = None

#: Warm persistent parse cache published the same way: fork-started
#: workers inherit the parent's entries copy-on-write and start with
#: every boilerplate sentence shape pre-parsed; their own additions
#: ship home inside the chunk payloads and are merged at reassembly.
_SHARED_PARSE_CACHE: "PersistentParseCache | None" = None

#: Wall-clock the pool initializer spent building this worker's
#: extraction stack, and whether it was reported back yet.  The first
#: chunk a worker finishes ships the figure home inside its counter
#: delta, so the parent can aggregate per-worker start-up cost.
_WORKER_INIT_SECONDS: float = 0.0
_WORKER_INIT_REPORTED: bool = True


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
    profile_stages: bool = False,
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
    if profile_stages and profiling.active() is None:
        # Process-wide for the worker's lifetime: _extract_chunk runs
        # outside this frame, and chunk deltas pick the numbers up
        # through the extractor's counters() snapshots.
        profiling.activate(profiling.StageProfiler())
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
    """Give a worker's linkage cache its persistent layer.

    Warm-start order mirrors the artifact: the forked-in
    :data:`_SHARED_PARSE_CACHE` (free, copy-on-write), then the
    sidecar path (one pickle load under ``spawn``), else none.  The
    inherited delta is drained so the first chunk ships only this
    worker's own additions.
    """
    caches = getattr(extractor, "caches", None)
    if caches is None:
        return
    cache = _SHARED_PARSE_CACHE
    if cache is None and parse_cache_path is not None:
        from repro.runtime.parsecache import PersistentParseCache

        parser = extractor.numeric.parser
        cache, _ = PersistentParseCache.load_or_create(
            parse_cache_path, parser.dictionary.signature()
        )
    if cache is not None:
        cache.drain_delta()
        caches.linkages.attach_persistent(cache)


def _extract_chunk(
    payload: tuple[int, list[PatientRecord], bool],
) -> tuple[
    int,
    list[ExtractionResult],
    dict[str, Any],
    list[dict],
    dict[tuple, tuple],
]:
    """Extract one chunk; returns (index, results, deltas, spans,
    parse_delta).

    With tracing requested, the chunk runs under a worker-local
    :class:`Tracer` and ships its span trees back serialized, exactly
    like the counter deltas — the parent re-assembles them in input
    order so a parallel trace equals a serial one record-for-record.
    ``parse_delta`` carries the parse outcomes this worker added to
    its persistent cache during the chunk (empty without one); the
    parent merges them so one run's sidecar sees every worker's work.
    """
    index, records, trace = payload
    assert _WORKER_EXTRACTOR is not None, "pool initializer did not run"
    before = _WORKER_EXTRACTOR.counters()
    spans: list[dict] = []
    if trace:
        tracer = Tracer()
        with tracing.activated(tracer):
            results = _WORKER_EXTRACTOR.extract_all(records)
        spans = [root.to_dict() for root in tracer.roots]
    else:
        results = _WORKER_EXTRACTOR.extract_all(records)
    delta = diff_stats(_WORKER_EXTRACTOR.counters(), before)
    delta = _attach_init_report(delta)
    parse_delta: dict[tuple, tuple] = {}
    caches = getattr(_WORKER_EXTRACTOR, "caches", None)
    if caches is not None and caches.linkages.persistent is not None:
        parse_delta = caches.linkages.persistent.drain_delta()
    return index, results, delta, spans, parse_delta


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


class CorpusRunner:
    """Batch extraction engine with optional process parallelism."""

    def __init__(
        self,
        extractor: "RecordExtractor | None" = None,
        workers: int = 1,
        chunk_size: int | None = None,
        tracer: Tracer | None = None,
        journal: "Journal | None" = None,
        artifact: "CompiledArtifact | str | Path | None" = None,
        document_cache_size: int | None = None,
        parse_cache: "PersistentParseCache | None" = None,
        profile_stages: bool = False,
    ) -> None:
        from repro.extraction.pipeline import RecordExtractor

        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        if document_cache_size is not None and document_cache_size < 1:
            raise ValueError(
                "document_cache_size must be >= 1, got "
                f"{document_cache_size}"
            )
        self.metrics = Metrics()
        #: Compiled warm-start bundle: when set, it both builds the
        #: default extractor and is shared with pool workers (via
        #: fork inheritance, with a load-from-path fallback).
        self.artifact: "CompiledArtifact | None" = None
        self._artifact_path: str | None = None
        if artifact is not None:
            self.artifact, self._artifact_path = self._load_artifact(
                artifact
            )
        self.document_cache_size = document_cache_size
        if extractor is None:
            if self.artifact is not None:
                extractor = self.artifact.make_extractor(
                    document_cache_size=document_cache_size
                )
            else:
                extractor = RecordExtractor()
        if document_cache_size is not None:
            caches = getattr(extractor, "caches", None)
            if caches is not None:
                caches.documents.resize(document_cache_size)
        #: Persistent cross-run parse cache: attached to the serial
        #: extractor's linkage cache here, published to pool workers
        #: copy-on-write, and fed every worker's delta at reassembly.
        #: The caller owns saving it (see cli._cmd_extract).
        self.parse_cache = parse_cache
        if parse_cache is not None:
            caches = getattr(extractor, "caches", None)
            if caches is not None:
                caches.linkages.attach_persistent(parse_cache)
        self.extractor = extractor
        self.workers = workers
        self.chunk_size = chunk_size
        #: When set, the run (and every pool worker) attributes wall
        #: time to pipeline stages; merged per-stage seconds/counts
        #: land in ``stats()["stages"]``.
        self.profile_stages = profile_stages
        self.stage_profiler = (
            profiling.StageProfiler() if profile_stages else None
        )
        #: When set, every run records one span tree per record here
        #: (worker trees are merged back in input order).
        self.tracer = tracer
        #: When set, every completed chunk is checkpointed here
        #: *before* any later failure can propagate, so a crashed run
        #: keeps its finished work (see runtime.resilience.Journal).
        self.journal = journal
        #: Merged engine counters (caches, parser) from the last runs.
        self.engine_stats: dict[str, Any] = {}

    def _load_artifact(
        self, artifact: "CompiledArtifact | str | Path"
    ) -> tuple["CompiledArtifact", str | None]:
        """Resolve the artifact argument, timing any disk load."""
        from repro.runtime.compiled import CompiledArtifact

        if isinstance(artifact, CompiledArtifact):
            return artifact, None
        path = str(artifact)
        with self.metrics.time("artifact_load_seconds"):
            loaded = CompiledArtifact.load(path)
        return loaded, path

    # ------------------------------------------------------------ public

    def run(
        self, records: Sequence[PatientRecord]
    ) -> list[ExtractionResult]:
        """Extract every record, results in input order."""
        records = list(records)
        self._size_document_cache(len(records))
        context: Any = (
            profiling.activated(self.stage_profiler)
            if self.stage_profiler is not None
            else nullcontext()
        )
        with context:
            with self.metrics.time("extract_seconds"):
                if self.workers == 1 or len(records) <= 1:
                    results = self._run_serial(records)
                else:
                    results = self._run_parallel(records)
        self.metrics.count("records", len(records))
        return results

    def _target_document_cache_size(self, n_records: int) -> int:
        """Capacity that covers one worker's share of the corpus.

        Every record touches a handful of distinct section texts, so a
        cache smaller than ~8× the run of records it serves thrashes
        (all evictions, no cross-record reuse).  Sized by the
        **per-worker record share**, not the scheduling unit: one
        worker processes many chunks through the same cache, so sizing
        by the chunk alone thrashed the parallel lane (the default
        unit is a quarter of the share).  Bounded so a huge corpus
        cannot pin unbounded document memory.
        """
        share = max(1, math.ceil(n_records / self.workers))
        return min(4096, max(256, 8 * share))

    def _size_document_cache(self, n_records: int) -> None:
        """Grow the in-process document cache to fit this run.

        Explicit ``document_cache_size`` wins; otherwise the cache
        grows (never shrinks — shrinking would throw away warm
        entries) to the computed target.
        """
        if self.document_cache_size is not None:
            return
        caches = getattr(self.extractor, "caches", None)
        if caches is None:
            return
        target = self._target_document_cache_size(n_records)
        if target > caches.documents.maxsize:
            caches.documents.resize(target)

    def throughput(self) -> float:
        """Records per second across every ``run`` so far."""
        return self.metrics.rate("records", "extract_seconds")

    def stats(self) -> dict[str, Any]:
        """One JSON-dumpable view over runner + engine metrics."""
        parser = self.engine_stats.get("parser", {})
        linkages = self.engine_stats.get("linkages", {})
        worker_stats = self.engine_stats.get("workers", {})
        hits = linkages.get("hits", 0)
        lookups = hits + linkages.get("misses", 0)
        before = parser.get("disjuncts_before", 0)
        persistent_hits = parser.get("persistent_hits", 0)
        persistent_lookups = persistent_hits + parser.get(
            "persistent_misses", 0
        )
        return {
            "workers": self.workers,
            "records": self.metrics.counters.get("records", 0),
            "extract_seconds": self.metrics.timers.get(
                "extract_seconds", 0.0
            ),
            "records_per_sec": self.throughput(),
            "worker_init_seconds": worker_stats.get(
                "init_seconds", 0.0
            ),
            "workers_initialized": worker_stats.get("initialized", 0),
            "artifact_load_seconds": self.metrics.timers.get(
                "artifact_load_seconds", 0.0
            ),
            "warm_start": self.artifact is not None,
            "linkage_cache_hit_rate": hits / lookups if lookups else 0.0,
            "persistent_parse_cache": self.parse_cache is not None,
            "persistent_parse_hits": persistent_hits,
            "persistent_parse_misses": parser.get(
                "persistent_misses", 0
            ),
            "persistent_parse_hit_rate": (
                persistent_hits / persistent_lookups
                if persistent_lookups
                else 0.0
            ),
            "match_bitset_hits": parser.get("match_bitset_hits", 0),
            "beam_pruned": parser.get("beam_pruned", 0),
            "parse_timeouts": parser.get("timeouts", 0),
            "prune_ratio": (
                1.0 - parser.get("disjuncts_after", 0) / before
                if before
                else 0.0
            ),
            "stages": self.engine_stats.get("stages", {}),
            "engine": self.engine_stats,
        }

    # ---------------------------------------------------------- serial

    def _run_serial(
        self, records: list[PatientRecord]
    ) -> list[ExtractionResult]:
        if self.journal is not None:
            return self._run_serial_journaled(records)
        before = self.extractor.counters()
        if self.tracer is not None:
            with tracing.activated(self.tracer):
                results = self.extractor.extract_all(records)
        else:
            results = self.extractor.extract_all(records)
        merge_stats(
            self.engine_stats,
            diff_stats(self.extractor.counters(), before),
        )
        return results

    def _run_serial_journaled(
        self, records: list[PatientRecord]
    ) -> list[ExtractionResult]:
        """Serial run with per-chunk checkpointing.

        Each chunk is journaled the moment it completes, so a record
        that blows up later in the corpus cannot take the finished
        work down with it.
        """
        assert self.journal is not None
        results: list[ExtractionResult] = []
        start = 0
        for _, chunk_records, _ in self._chunks(records):
            before = self.extractor.counters()
            if self.tracer is not None:
                with tracing.activated(self.tracer):
                    chunk_results = self.extractor.extract_all(
                        chunk_records
                    )
            else:
                chunk_results = self.extractor.extract_all(
                    chunk_records
                )
            merge_stats(
                self.engine_stats,
                diff_stats(self.extractor.counters(), before),
            )
            self.journal.append_chunk(start, chunk_results)
            results.extend(chunk_results)
            start += len(chunk_records)
        return results

    # -------------------------------------------------------- parallel

    def _chunks(
        self, records: list[PatientRecord]
    ) -> list[tuple[int, list[PatientRecord], bool]]:
        size = self.chunk_size or max(
            1, math.ceil(len(records) / (self.workers * 4))
        )
        trace = self.tracer is not None
        return [
            (index, records[start:start + size], trace)
            for index, start in enumerate(range(0, len(records), size))
        ]

    def _run_parallel(
        self, records: list[PatientRecord]
    ) -> list[ExtractionResult]:
        chunks = self._chunks(records)
        chunk_starts: dict[int, int] = {}
        position = 0
        for index, chunk_records, _ in chunks:
            chunk_starts[index] = position
            position += len(chunk_records)
        models = _serialize_models(self.extractor)
        collected: dict[int, list[ExtractionResult]] = {}
        collected_spans: dict[int, list[Span]] = {}
        worker_cache_size = (
            self.document_cache_size
            or self._target_document_cache_size(len(records))
        )
        # Prime-then-fan-out: run the first chunk in the parent so
        # the shared parse cache already holds the corpus's
        # boilerplate sentence shapes when the pool forks.  Without
        # this, every worker re-parses the same few shapes from
        # scratch — (workers-1) × duplicated parse cost that is pure
        # overhead wherever cores are scarce (the diagnosed cause of
        # the parallel<serial-warm inversion; see docs/performance.md
        # §6).  If no persistent parse cache was configured, an
        # ephemeral in-memory one is attached just for the hand-off.
        prime_cache = self.parse_cache
        ephemeral = None
        caches = getattr(self.extractor, "caches", None)
        if len(chunks) > 1 and prime_cache is None and caches is not None:
            from repro.runtime.parsecache import PersistentParseCache

            ephemeral = PersistentParseCache.empty(
                self.extractor.numeric.parser.dictionary.signature()
            )
            caches.linkages.attach_persistent(ephemeral)
            prime_cache = ephemeral
        if len(chunks) > 1:
            index0, chunk0, _ = chunks[0]
            before = self.extractor.counters()
            if self.tracer is not None:
                with tracing.activated(self.tracer):
                    results0 = self.extractor.extract_all(chunk0)
            else:
                results0 = self.extractor.extract_all(chunk0)
            merge_stats(
                self.engine_stats,
                diff_stats(self.extractor.counters(), before),
            )
            collected[index0] = results0
            if self.journal is not None:
                self.journal.append_chunk(
                    chunk_starts[index0], results0
                )
            remaining = chunks[1:]
        else:
            remaining = chunks
        # Publish the artifact (and warm parse cache) for fork-started
        # workers to inherit copy-on-write; restored afterwards so
        # nested or later pools see whatever their own runner
        # published.
        global _SHARED_ARTIFACT, _SHARED_PARSE_CACHE
        previous = _SHARED_ARTIFACT
        previous_parse_cache = _SHARED_PARSE_CACHE
        _SHARED_ARTIFACT = self.artifact
        _SHARED_PARSE_CACHE = prime_cache
        parse_cache_path = (
            str(self.parse_cache.path)
            if self.parse_cache is not None
            and self.parse_cache.path is not None
            else None
        )
        try:
            with ProcessPoolExecutor(
                max_workers=min(self.workers, len(remaining)),
                initializer=_init_worker,
                initargs=(
                    models,
                    getattr(self.extractor, "parse_budget", None),
                    self._artifact_path,
                    worker_cache_size,
                    parse_cache_path,
                    self.profile_stages,
                ),
            ) as pool:
                # pool.map yields chunks in input order and re-raises
                # a chunk's exception when its turn comes — every
                # chunk journaled before that point survives the
                # failure.
                for index, results, delta, spans, parse_delta in pool.map(
                    _extract_chunk, remaining
                ):
                    collected[index] = results
                    collected_spans[index] = [
                        Span.from_dict(span) for span in spans
                    ]
                    merge_stats(self.engine_stats, delta)
                    if self.parse_cache is not None and parse_delta:
                        self.parse_cache.merge(parse_delta)
                    if self.journal is not None:
                        self.journal.append_chunk(
                            chunk_starts[index], results
                        )
        finally:
            _SHARED_ARTIFACT = previous
            _SHARED_PARSE_CACHE = previous_parse_cache
            if ephemeral is not None and caches is not None:
                caches.linkages.attach_persistent(None)
        if self.tracer is not None:
            for index in sorted(collected_spans):
                self.tracer.merge(collected_spans[index])
        return [
            result
            for index in sorted(collected)
            for result in collected[index]
        ]
