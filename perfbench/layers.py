"""The layers the traced run times, and the per-layer metrics.

Each layer is a public function of one module of the program, wrapped
where it is defined so every instance the stack builds is timed.  The
traced run installs these after set-up (batch) or before the server
starts (serve-mix, through ``serve_launcher.py``); no program file
changes.
"""

from __future__ import annotations

import importlib

from spans import LayerTotals, Patches, reconcile, tail

#: (module, owner class or None for a module function, attribute,
#: span name).  Nesting at run time: runner > record > numeric / term
#: / id3 > doccache > scan, and numeric / id3 > linkage > parse.
LAYERS = (
    ("repro.linkgrammar.parser", "LinkGrammarParser", "parse", "parse"),
    ("repro.runtime.cache", "LinkageCache", "lookup", "linkage"),
    ("repro.runtime.cache", "DocumentCache", "get", "doccache"),
    ("repro.nlp.pipeline", "Pipeline", "process_text", "scan"),
    ("repro.extraction.numeric", "NumericExtractor", "extract_record",
     "numeric"),
    ("repro.extraction.terms", "TermExtractor", "extract_record_detailed",
     "term"),
    ("repro.extraction.categorical", "CategoricalClassifier",
     "predict_record_detailed", "id3"),
    ("repro.extraction.pipeline", "RecordExtractor", "extract", "record"),
    ("repro.runtime.resilience", "ResilientCorpusRunner", "run", "runner"),
    ("repro.runtime.parsecache", "PersistentParseCache", "save",
     "parsecache.save"),
    ("repro.runtime.parsecache", "PersistentParseCache", "load_or_create",
     "parsecache.load"),
    ("repro.runtime.compiled", "CompiledArtifact", "load",
     "compiled.load"),
)

#: Layers only the service path has.
SERVICE_LAYERS = (
    ("repro.runtime.sharding", None, "_persist_batch", "store"),
    ("repro.storage.db", None, "merge_partition_stores", "store.merge"),
)


def _batch_ids(shard, records, plan, seqs) -> dict:
    return {"ids": [record.patient_id for record in records]}


def install(patches: Patches, service: bool = False) -> None:
    """Wrap every layer (and the service's, when *service*)."""
    for module_name, owner, attribute, name in LAYERS + (
        SERVICE_LAYERS if service else ()
    ):
        module = importlib.import_module(module_name)
        target = getattr(module, owner) if owner else module
        patches.wrap(target, attribute, name)
    if service:
        from repro.runtime import sharding

        patches.wrap(
            sharding.LocalShard, "run_batch", "service.batch", _batch_ids
        )


def parsers(extractor) -> list:
    """Every parser instance the extractor owns (numeric and ID3)."""
    found = [extractor.numeric.parser] + [
        classifier.extractor.parser
        for classifier in extractor.categorical.values()
    ]
    unique = {id(parser): parser for parser in found}
    return list(unique.values())


_PARSER_FIELDS = (
    "sentences", "timeouts", "disjuncts_before", "disjuncts_after",
    "persistent_hits", "persistent_misses",
)


def engine_counters(extractor) -> dict[str, float]:
    """Additive engine counters, flattened, for before/after deltas."""
    out: dict[str, float] = {field: 0 for field in _PARSER_FIELDS}
    for parser in parsers(extractor):
        for field in _PARSER_FIELDS:
            out[field] += getattr(parser.stats, field)
    for cache_name in ("linkages", "documents"):
        cache = getattr(extractor.caches, cache_name)
        for key, value in cache.counters().items():
            out[f"{cache_name}.{key}"] = value
    return out


def delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    totals: LayerTotals,
    counters: dict[str, float],
    setup: dict[str, float],
    wrap_cost_s: float,
    service: dict[str, float] | None = None,
) -> dict[str, float]:
    """Every per-layer metric; layers a workload lacks read 0."""
    calls = totals.calls
    own = totals.self_s
    parse_durations = totals.durations.get("parse", [])
    parse_tail_ms = (
        tail(parse_durations, 99.0)[1] * 1e3
        if len(parse_durations) > 10
        else max(parse_durations, default=0.0) * 1e3
    )
    wall = totals.wall_s
    metrics = {
        "compiled.build_s": setup.get("build_s", 0.0),
        "compiled.load_s": setup.get("load_s", 0.0),
        "parsecache.load_s": setup.get("sidecar_load_s", 0.0),
        "parsecache.entries": setup.get("sidecar_entries", 0.0),
        "parsecache.hit_rate": _ratio(
            counters.get("persistent_hits", 0),
            counters.get("persistent_hits", 0)
            + counters.get("persistent_misses", 0),
        ),
        "parsecache.save_s": own.get("parsecache.save", 0.0),
        "parse.calls": calls.get("parse", 0),
        "parse.s": own.get("parse", 0.0),
        "parse.tail_ms": parse_tail_ms,
        "parse.prune_ratio": 1.0 - _ratio(
            counters.get("disjuncts_after", 0),
            counters.get("disjuncts_before", 0),
        ) if counters.get("disjuncts_before") else 0.0,
        "parse.timeouts": counters.get("timeouts", 0),
        "linkage.lookups": calls.get("linkage", 0),
        "linkage.hit_rate": _ratio(
            counters.get("linkages.hits", 0),
            counters.get("linkages.hits", 0)
            + counters.get("linkages.misses", 0),
        ),
        "linkage.self_s": own.get("linkage", 0.0),
        "doccache.self_s": own.get("doccache", 0.0),
        "scan.calls": calls.get("scan", 0),
        "scan.s": own.get("scan", 0.0),
        "scan.doc_hit_rate": _ratio(
            counters.get("documents.hits", 0),
            counters.get("documents.hits", 0)
            + counters.get("documents.misses", 0),
        ),
        "term.calls": calls.get("term", 0),
        "term.self_s": own.get("term", 0.0),
        "numeric.calls": calls.get("numeric", 0),
        "numeric.self_s": own.get("numeric", 0.0),
        "id3.calls": calls.get("id3", 0),
        "id3.self_s": own.get("id3", 0.0),
        "record.self_s": own.get("record", 0.0),
        "runner.self_s": own.get("runner", 0.0),
        "runner.records": calls.get("record", 0),
        "store.s": own.get("store", 0.0),
        "store.merge_s": own.get("store.merge", 0.0),
        "service.batch_self_s": own.get("service.batch", 0.0),
        "queue.wait_p50_ms": 0.0,
        "queue.wait_p99_ms": 0.0,
        "batch.size_mean": 0.0,
        "batch.count": 0,
        "service.shed": 0,
        "wire.p99_ms": 0.0,
        "gen.lag_max_ms": 0.0,
        "trace.wall_s": wall,
        "trace.unattributed_share": _ratio(totals.uncovered_s, wall),
        "trace.overhead_share": _ratio(totals.spans * wrap_cost_s, wall),
        "trace.reconcile_gap": reconcile(totals),
    }
    metrics.update(service or {})
    return metrics
