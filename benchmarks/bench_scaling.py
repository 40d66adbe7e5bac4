"""SCALE — the introduction's motivation, quantified.

"Means to systematically examine patient charts will provide a method
for clinicians to examine a significantly larger set of cases."
Manual chart review is "infinitely time-consuming"; the system's value
is corpus-scale throughput.  This bench measures the engine over a
200-record consistent-style cohort in five lanes:

* **seed** — the pre-engine hot path: per-attribute NLP re-processing,
  per-record parse cache, no pruning statistics (timed on a slice and
  reported as a rate; the cost per record is constant by construction);
* **serial cold** — ``workers=1`` with the stack built from source
  (expression expansion, ontology load) at start-up;
* **serial warm** — ``workers=1`` with the stack rehydrated from a
  compiled artifact (one pickle load);
* **parallel cold / warm** — the same two start-up modes fanned out
  with ``workers=4``, with per-worker initializer time reported.

It also times the compile→save→load cycle itself, checks the pipeline
scales linearly (no accidental quadratic behaviour), and dumps one
``BENCH_scaling.json`` artifact so the perf trajectory is
machine-readable across PRs.

Throughput gates are environment-aware: the parallel-beats-serial
multiplier is only asserted when the host actually has the cores for
it (CI's bench-smoke job runs on 4-vCPU runners); everywhere, warm
start-up must beat cold start-up and the caches must be earning their
keep.
"""

import json
import os
import time
from pathlib import Path

from conftest import print_table

from repro.extraction import NumericExtractor, RecordExtractor, TermExtractor
from repro.linkgrammar.dictionary import Dictionary
from repro.linkgrammar.parser import LinkGrammarParser
from repro.ontology.builder import build_concepts
from repro.ontology.store import OntologyStore
from repro.runtime import CorpusRunner, ExtractionCaches
from repro.runtime.compiled import CompiledArtifact
from repro.synth import CohortSpec, RecordGenerator

SIZES = (10, 20, 40)
CORPUS_SIZE = 200
SEED_SLICE = 20  # seed-style emulation is ~30x slower; time a slice
WORKERS = 4
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_scaling.json"


def _cohort(size: int):
    return RecordGenerator(seed=13).generate_cohort(
        CohortSpec(
            size=size,
            smoking_counts={
                "never": size - 3, "current": 1, "former": 1, None: 1,
            },
        )
    )


def _seed_style_rate(records) -> float:
    """Throughput of the pre-engine path: no shared documents, no
    cross-record cache — every attribute re-runs the NLP pipeline and
    every record re-parses its sentences from scratch."""
    numeric = NumericExtractor(
        linkage_cache=None  # fresh default cache, bounded per call
    )
    terms = TermExtractor()
    started = time.perf_counter()
    for record in records:
        numeric.linkage_cache.clear()  # emulate the per-record cache
        for attr in numeric.attributes:
            text = record.section_text(attr.section)
            if text:
                numeric.extract_attribute(attr, text)
        terms.extract_record(record)
    return len(records) / (time.perf_counter() - started)


def _build_cold_stack() -> RecordExtractor:
    """The from-source extraction stack, built without the process-
    wide dictionary/ontology singletons.  Earlier tests in the same
    pytest process warm those singletons, so timing ``RecordExtractor
    ()`` directly would report a few microseconds of cache hits; this
    mirrors what a fresh process (or cold pool worker) actually pays:
    expression expansion, match-table derivation, and the ontology
    SQLite load."""
    dictionary = Dictionary()
    dictionary.match_tables()
    ontology = OntologyStore(build_concepts())
    caches = ExtractionCaches()
    numeric = NumericExtractor(
        parser=LinkGrammarParser(dictionary=dictionary),
        document_cache=caches.documents,
        linkage_cache=caches.linkages,
    )
    terms = TermExtractor(
        ontology=ontology, document_cache=caches.documents
    )
    return RecordExtractor(numeric=numeric, terms=terms, caches=caches)


def _compile_cycle(path: Path) -> tuple[CompiledArtifact, dict]:
    """Build, persist, and reload the artifact, timing each phase."""
    started = time.perf_counter()
    artifact = CompiledArtifact.build(fresh=True)
    build_seconds = time.perf_counter() - started

    started = time.perf_counter()
    size_bytes = artifact.save(path)
    save_seconds = time.perf_counter() - started

    started = time.perf_counter()
    loaded = CompiledArtifact.load(path)
    load_seconds = time.perf_counter() - started

    started = time.perf_counter()
    loaded.make_extractor()
    make_seconds = time.perf_counter() - started
    return loaded, {
        "build_seconds": build_seconds,
        "save_seconds": save_seconds,
        "load_seconds": load_seconds,
        "make_extractor_seconds": make_seconds,
        "artifact_bytes": size_bytes,
    }


def test_extraction_scales_linearly(benchmark):
    def run():
        rows = []
        runner = CorpusRunner(RecordExtractor())
        for size in SIZES:
            records, _ = _cohort(size)
            started = time.perf_counter()
            runner.run(records)
            elapsed = time.perf_counter() - started
            rows.append(
                (size, f"{elapsed:.2f}s", f"{size / elapsed:.1f}",
                 elapsed)
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Extraction throughput vs cohort size",
        ["records", "elapsed", "records/s"],
        [row[:3] for row in rows],
    )

    # Per-record cost must not grow with cohort size (linear scaling);
    # allow 2x jitter for small samples.
    per_record = [row[3] / row[0] for row in rows]
    assert per_record[-1] <= per_record[0] * 2.0


def test_corpus_engine_speedup(benchmark, tmp_path):
    """Seed vs cold/warm serial vs cold/warm parallel on the
    200-record cohort; emits BENCH_scaling.json."""
    records, _ = _cohort(CORPUS_SIZE)
    cpu_count = os.cpu_count() or 1

    def run():
        artifact, compile_stats = _compile_cycle(
            tmp_path / "stack.pkl"
        )
        seed_rate = _seed_style_rate(records[:SEED_SLICE])

        started = time.perf_counter()
        cold_extractor = _build_cold_stack()
        cold_init = time.perf_counter() - started
        serial_cold = CorpusRunner(cold_extractor, workers=1)
        serial_cold.run(records)

        started = time.perf_counter()
        serial_warm = CorpusRunner(artifact=artifact, workers=1)
        warm_init = time.perf_counter() - started
        serial_warm.run(records)

        parallel_cold = CorpusRunner(workers=WORKERS)
        parallel_cold.run(records)

        parallel_warm = CorpusRunner(
            artifact=artifact, workers=WORKERS
        )
        parallel_warm.run(records)

        return {
            "compile": compile_stats,
            "seed_rate": seed_rate,
            "cold_init_seconds": cold_init,
            "warm_init_seconds": warm_init,
            "serial_cold": serial_cold.stats(),
            "serial_warm": serial_warm.stats(),
            "parallel_cold": parallel_cold.stats(),
            "parallel_warm": parallel_warm.stats(),
        }

    lanes = benchmark.pedantic(run, rounds=1, iterations=1)
    seed_rate = lanes["seed_rate"]
    serial_cold = lanes["serial_cold"]
    serial_warm = lanes["serial_warm"]
    parallel_cold = lanes["parallel_cold"]
    parallel_warm = lanes["parallel_warm"]
    serial_rate = serial_warm["records_per_sec"]
    parallel_rate = parallel_warm["records_per_sec"]

    def row(label, stats):
        return (
            label,
            f"{stats['records_per_sec']:.1f}",
            f"{stats['records_per_sec'] / seed_rate:.1f}x",
            f"{stats['worker_init_seconds']:.3f}s",
        )

    print_table(
        f"Corpus engine ({CORPUS_SIZE} records, consistent style, "
        f"{cpu_count} cpus)",
        ["configuration", "records/s", "vs seed", "worker init"],
        [
            ("seed (per-attribute, no engine)", f"{seed_rate:.1f}",
             "1.0x", "-"),
            row("engine serial cold", serial_cold),
            row("engine serial warm", serial_warm),
            row(f"engine workers={WORKERS} cold", parallel_cold),
            row(f"engine workers={WORKERS} warm", parallel_warm),
        ],
    )
    compile_stats = lanes["compile"]
    print_table(
        "Warm start (compiled artifact)",
        ["metric", "value"],
        [
            ("compile (build+save)",
             f"{compile_stats['build_seconds']:.2f}s + "
             f"{compile_stats['save_seconds']:.3f}s"),
            ("load + make_extractor",
             f"{compile_stats['load_seconds']:.3f}s + "
             f"{compile_stats['make_extractor_seconds']:.3f}s"),
            ("artifact size",
             f"{compile_stats['artifact_bytes'] / 1e6:.1f} MB"),
            ("cold stack build",
             f"{lanes['cold_init_seconds']:.2f}s"),
            ("warm stack build",
             f"{lanes['warm_init_seconds']:.3f}s"),
            ("linkage cache hit rate",
             f"{serial_warm['linkage_cache_hit_rate']:.1%}"),
            ("prune ratio", f"{serial_warm['prune_ratio']:.1%}"),
        ],
    )

    ARTIFACT.write_text(json.dumps(
        {
            "bench": "bench_scaling",
            "corpus_size": CORPUS_SIZE,
            "cpu_count": cpu_count,
            "compile": compile_stats,
            "cold_init_seconds": lanes["cold_init_seconds"],
            "warm_init_seconds": lanes["warm_init_seconds"],
            "seed_records_per_sec": seed_rate,
            "serial_cold": serial_cold,
            "serial_warm": serial_warm,
            "parallel_cold": parallel_cold,
            "parallel_warm": parallel_warm,
            "speedup_serial_vs_seed": serial_rate / seed_rate,
            "speedup_parallel_vs_seed": parallel_rate / seed_rate,
            "speedup_parallel_vs_serial_warm": (
                parallel_rate / serial_rate
            ),
        },
        indent=1,
        sort_keys=True,
    ))

    # Acceptance bars, everywhere: the engine must beat the seed
    # path, warm start-up must beat cold start-up, the cross-record
    # cache must be earning its keep, and the document cache must
    # not thrash: its main LRU has a fixed size and admits a section
    # only on its second miss, so sections one record reads never
    # push out the ones records share (a plain 512-entry LRU evicted
    # 461 of 973 misses on this cohort).
    assert parallel_rate >= 2.0 * seed_rate
    assert serial_rate >= 2.0 * seed_rate
    assert lanes["warm_init_seconds"] < lanes["cold_init_seconds"]
    assert serial_warm["linkage_cache_hit_rate"] > 0.0
    documents = serial_warm["engine"]["documents"]
    assert documents["evictions"] <= documents["misses"] * 0.05
    # Regression gate: each pool worker forks with its caches cleared
    # and admits by its own reads, within the same fixed bound; that
    # must keep the parallel lanes as eviction-free as the serial one
    # (a cache sized by the chunk once evicted 126 per 986 misses on
    # this cohort).
    for lane in (parallel_cold, parallel_warm):
        lane_documents = lane["engine"]["documents"]
        assert (
            lane_documents["evictions"]
            <= lane_documents["misses"] * 0.05
        )
    # Throughput multiplier gates need real cores behind the pool;
    # on smaller hosts the equivalence tests still cover correctness
    # and the CI bench-smoke job (4 vCPUs) enforces the multiplier.
    if cpu_count >= 4:
        assert parallel_rate >= 3.0 * serial_rate
        assert parallel_warm["worker_init_seconds"] > 0.0
    elif cpu_count >= 2:
        assert parallel_rate >= serial_rate
