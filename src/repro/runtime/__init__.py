"""Corpus-scale extraction runtime: caching, metrics, parallel fan-out.

The batch engine behind ``repro extract --workers N``:

* :mod:`repro.runtime.cache` — the bounded document cache and the
  cross-record linkage cache shared by every extractor in one engine;
* :mod:`repro.runtime.parsecache` — the parse store behind every
  linkage cache: one key, one outcome format, held in memory or in a
  sidecar file that carries parses across runs;
* :mod:`repro.runtime.metrics` — monotonic timers and counters, and
  the nested counter deltas merged across worker processes;
* :mod:`repro.runtime.compiled` — ahead-of-time compiled artifacts
  (expanded grammar + connector match table, in-memory ontology
  index) that warm-start the whole stack from one pickle load;
* :mod:`repro.runtime.resilience` — the one corpus runner,
  :class:`CorpusRunner` (also named ``ResilientCorpusRunner``): serial
  by default, prime-then-fan-out over a process pool with
  ``workers>1``, with retry and backoff, chunk bisection,
  poison-record quarantine, worker-pool recovery, and journal-based
  checkpoint/resume;
* :mod:`repro.runtime.runner` — the runner's worker-process side: the
  one initializer by which forked pool workers and shard children
  take over the parent's extractor and parse store, and the chunk
  function;
* :mod:`repro.runtime.faults` — deterministic, seed-reproducible
  fault injection (``--inject-faults``) that proves the resilience
  layer works;
* :mod:`repro.runtime.service` — the resident extraction daemon
  behind ``repro serve``: a JSON-lines socket protocol, a bounded
  queue with shed-load backpressure, a micro-batcher dispatching
  through the corpus runner, per-request deadlines, and graceful
  drain;
* :mod:`repro.runtime.sharding` — the one batch body every served
  batch runs through, and the forked shard children behind
  ``repro serve --shards N``.

Spans, stage timing and run manifests live in :mod:`repro.tracing`,
outside this package: the NLP scanner instruments its hot loop with
it, and this package's init imports the NLP pipeline.

Import order note: :mod:`repro.runtime.runner` must not import
:mod:`repro.runtime.resilience` (the reverse dependency is real).
"""

from repro.runtime.cache import (
    DocumentCache,
    ExtractionCaches,
    LinkageCache,
    LRUCache,
)
from repro.runtime.compiled import (
    ARTIFACT_VERSION,
    CompiledArtifact,
    CompiledGrammar,
    artifact_cache_dir,
    cached_artifact,
    source_fingerprint,
)
from repro.runtime.faults import Fault, FaultPlan
from repro.runtime.metrics import Metrics, diff_stats, merge_stats
from repro.runtime.resilience import (
    CorpusRunner,
    Journal,
    QuarantineEntry,
    ResilientCorpusRunner,
    RetryPolicy,
    corpus_digest,
)
from repro.runtime.service import ExtractionService, ServiceConfig
from repro.tracing import Span, Tracer, build_manifest

__all__ = [
    "ARTIFACT_VERSION",
    "CompiledArtifact",
    "CompiledGrammar",
    "CorpusRunner",
    "DocumentCache",
    "ExtractionCaches",
    "ExtractionService",
    "Fault",
    "FaultPlan",
    "Journal",
    "LRUCache",
    "LinkageCache",
    "Metrics",
    "QuarantineEntry",
    "ResilientCorpusRunner",
    "RetryPolicy",
    "ServiceConfig",
    "Span",
    "Tracer",
    "artifact_cache_dir",
    "build_manifest",
    "cached_artifact",
    "corpus_digest",
    "diff_stats",
    "merge_stats",
    "source_fingerprint",
]
