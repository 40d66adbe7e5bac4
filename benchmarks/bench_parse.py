"""PARSE — making parse time disappear across process restarts.

BENCH_scaling.json shows parsing dominating cold extraction: the
link grammar recurrence re-derives the same handful of sentence
shapes in every fresh process.  This bench isolates that cost on the
200-record consistent cohort in four lanes, all producing
bit-for-bit identical extraction output:

* **cold** — the parser with no persistent cache;
* **warm_first** — the first of two back-to-back runs sharing a
  persistent sidecar (``<artifact>.parsecache``): it parses every
  sentence shape and populates the sidecar;
* **warm** — the second of those runs: every sentence shape is
  served from disk, zero parses;
* **combined** — a third run on a fresh stack over the same sidecar,
  the shipping configuration.

Gates (mirrored in CI's bench-smoke job from ``BENCH_parse.json``):
the warm lane's persistent hit rate must be >= 0.9, and the combined
lane's in-parser time must be <= 0.5x the cold lane's.
"""

import json
import time
from pathlib import Path

from conftest import print_table

from repro.extraction import NumericExtractor, RecordExtractor
from repro.linkgrammar.parser import LinkGrammarParser
from repro.runtime import CorpusRunner, ExtractionCaches
from repro.runtime.metrics import guarded_ratio
from repro.runtime.parsecache import PersistentParseCache
from repro.synth import CohortSpec, RecordGenerator

CORPUS_SIZE = 200
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_parse.json"


def _cohort(size: int):
    return RecordGenerator(seed=13).generate_cohort(
        CohortSpec(
            size=size,
            smoking_counts={
                "never": size - 3, "current": 1, "former": 1, None: 1,
            },
        )
    )


def _stack() -> RecordExtractor:
    """A fresh extraction stack (the runner binds any sidecar)."""
    caches = ExtractionCaches()
    numeric = NumericExtractor(
        parser=LinkGrammarParser(),
        document_cache=caches.documents,
        linkage_cache=caches.linkages,
    )
    return RecordExtractor(numeric=numeric, caches=caches)


def _lane(records, persistent=None):
    """One serial corpus run; returns (results, lane stats)."""
    runner = CorpusRunner(_stack(), parse_cache=persistent)
    started = time.perf_counter()
    results = runner.run(records)
    elapsed = time.perf_counter() - started
    stats = runner.stats()
    parser = stats["engine"].get("parser", {})
    return results, {
        "persistent": persistent is not None,
        "extract_seconds": elapsed,
        "parse_seconds": parser.get("parse_seconds", 0.0),
        "sentences_parsed": parser.get("sentences", 0),
        "match_bitset_hits": stats["match_bitset_hits"],
        "persistent_parse_hits": stats["persistent_parse_hits"],
        "persistent_parse_misses": stats["persistent_parse_misses"],
        "persistent_parse_hit_rate": stats[
            "persistent_parse_hit_rate"
        ],
    }


def test_parse_lanes(benchmark, tmp_path):
    records, _ = _cohort(CORPUS_SIZE)
    sidecar = tmp_path / "grammar.parsecache"
    signature = LinkGrammarParser().dictionary.signature()

    def run():
        cold_results, cold = _lane(records)

        # Two back-to-back runs sharing the sidecar: the first
        # populates it, the second — a fresh stack, simulating a
        # process restart — must serve >= 90% of sentence shapes
        # from disk without parsing.
        first_cache, _ = PersistentParseCache.load_or_create(
            sidecar, signature
        )
        warm_results_first, warm_first = _lane(
            records, persistent=first_cache
        )
        first_cache.save()
        second_cache, loaded = PersistentParseCache.load_or_create(
            sidecar, signature
        )
        assert loaded
        warm_results, warm = _lane(records, persistent=second_cache)

        combined_cache, _ = PersistentParseCache.load_or_create(
            sidecar, signature
        )
        combined_results, combined = _lane(
            records, persistent=combined_cache
        )

        # Hard invariant: the sidecar changes how parses are
        # produced, never what is extracted.
        assert warm_results_first == cold_results
        assert warm_results == cold_results
        assert combined_results == cold_results

        return {
            "cold": cold,
            "warm_first": warm_first,
            "warm": warm,
            "combined": combined,
        }

    lanes = benchmark.pedantic(run, rounds=1, iterations=1)
    cold = lanes["cold"]

    def row(label, stats):
        return (
            label,
            f"{stats['parse_seconds'] * 1000:.1f}ms",
            stats["sentences_parsed"],
            f"{stats['persistent_parse_hit_rate']:.0%}",
            f"{stats['extract_seconds']:.2f}s",
        )

    print_table(
        f"Parser lanes ({CORPUS_SIZE} records, consistent style)",
        ["lane", "parse time", "parses", "sidecar hits", "total"],
        [
            row("cold", cold),
            row("warm sidecar (run 1)", lanes["warm_first"]),
            row("warm sidecar (run 2)", lanes["warm"]),
            row("combined", lanes["combined"]),
        ],
    )

    payload = {
        "bench": "bench_parse",
        "corpus_size": CORPUS_SIZE,
        **lanes,
        # None (JSON null) when the combined lane parsed essentially
        # nothing — a ratio against a microsecond denominator is
        # noise, not a speedup (this once reported 238,597,814x).
        "parse_speedup_combined_vs_cold": guarded_ratio(
            cold["parse_seconds"],
            lanes["combined"]["parse_seconds"],
            floor=1e-4,
        ),
    }
    ARTIFACT.write_text(json.dumps(payload, indent=1, sort_keys=True))

    # Acceptance bars.  The second back-to-back run must be served
    # almost entirely from the sidecar, and the shipping
    # configuration must at least halve time spent inside the parser.
    assert cold["parse_seconds"] > 0.0
    assert lanes["warm"]["persistent_parse_hit_rate"] >= 0.9
    assert (
        lanes["combined"]["parse_seconds"]
        <= 0.5 * cold["parse_seconds"]
    )
