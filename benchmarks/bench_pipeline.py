"""PIPELINE — making the post-parse pipeline disappear.

With parsing amortised away (BENCH_parse.json), the warm lane's time
moves into everything *around* the parser: the fused single-pass
scanner, automaton-driven term scanning over cached sentence views,
and the numeric regex prefilters.  This bench times that pipeline on
the 200-record consistent cohort in three lanes producing bit-for-bit
identical output:

* **fused** — the shipping configuration, built from the compiled
  artifact;
* **fused-parallel** — the fused lane across 2 worker processes;
* **fused-profiled** — the fused lane under ``--profile-stages``,
  checking the per-stage wall-time counters sum to the lane's
  extraction time (profiling must measure, not distort).

Each serial lane runs twice on one stack: the first (cold) pass pays
NLP + parsing, the second (warm) pass is the steady state the service
lives in.  Gates (mirrored in CI's bench-pipeline job from
``BENCH_pipeline.json``): the profiled lane's stage seconds sum to its
extract time within 20%, and the unprofiled lane carries no stage
counters.
"""

import json
import time
from pathlib import Path

from conftest import print_table

from repro.runtime import CorpusRunner
from repro.runtime.compiled import CompiledArtifact
from repro.storage import ResultStore
from repro.synth import CohortSpec, RecordGenerator

CORPUS_SIZE = 200
ARTIFACT = (
    Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"
)


def _cohort(size: int):
    return RecordGenerator(seed=13).generate_cohort(
        CohortSpec(
            size=size,
            smoking_counts={
                "never": size - 3, "current": 1, "former": 1, None: 1,
            },
        )
    )


def _timed_run(runner, records):
    started = time.perf_counter()
    results = runner.run(records)
    return results, time.perf_counter() - started


def _serial_lane(extractor, records, profile_stages=False):
    """Cold + warm passes over one stack; returns results and stats."""
    runner = CorpusRunner(extractor, profile_stages=profile_stages)
    cold_results, cold_seconds = _timed_run(runner, records)
    warm_results, warm_seconds = _timed_run(runner, records)
    assert warm_results == cold_results
    return cold_results, {
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "stages": runner.stats()["stages"],
        "extract_seconds": runner.metrics.timers["extract_seconds"],
    }


def _store_digest(tmp_path, name, results):
    store = ResultStore(tmp_path / f"{name}.db")
    store.store_many(results)
    digest = store.content_digest()
    store.close()
    return digest


def test_pipeline_lanes(benchmark, tmp_path):
    records, _ = _cohort(CORPUS_SIZE)
    artifact = CompiledArtifact.build()

    def run():
        fused_results, fused = _serial_lane(
            artifact.make_extractor(), records
        )
        profiled_results, profiled = _serial_lane(
            artifact.make_extractor(), records, profile_stages=True
        )
        parallel_runner = CorpusRunner(
            artifact=artifact, workers=2, chunk_size=25
        )
        parallel_results, parallel_seconds = _timed_run(
            parallel_runner, records
        )

        # Hard invariant: profiling and process fan-out change how
        # the pipeline runs, never what it extracts — provenance
        # included.
        assert profiled_results == fused_results
        assert parallel_results == fused_results
        for a, b in zip(parallel_results, fused_results):
            assert a.provenance == b.provenance
        digests = {
            _store_digest(tmp_path, "fused", fused_results),
            _store_digest(tmp_path, "profiled", profiled_results),
            _store_digest(tmp_path, "parallel", parallel_results),
        }
        assert len(digests) == 1, digests

        return {
            "fused": fused,
            "fused_profiled": profiled,
            "fused_parallel": {"total_seconds": parallel_seconds},
        }

    lanes = benchmark.pedantic(run, rounds=1, iterations=1)
    fused = lanes["fused"]
    profiled = lanes["fused_profiled"]

    def row(label, stats):
        return (
            label,
            f"{stats['cold_seconds']:.2f}s",
            f"{stats['warm_seconds'] * 1000:.0f}ms",
        )

    print_table(
        f"Post-parse pipeline ({CORPUS_SIZE} records, consistent "
        "style)",
        ["lane", "cold", "warm"],
        [
            row("fused + automaton", fused),
            row("fused (profiled)", profiled),
            (
                "fused parallel x2",
                f"{lanes['fused_parallel']['total_seconds']:.2f}s",
                "-",
            ),
        ],
    )

    stage_seconds = profiled["stages"]["seconds"]
    stage_sum = sum(stage_seconds.values())
    payload = {
        "bench": "bench_pipeline",
        "corpus_size": CORPUS_SIZE,
        **lanes,
        "stage_seconds_sum": stage_sum,
    }
    ARTIFACT.write_text(json.dumps(payload, indent=1, sort_keys=True))

    # Acceptance bars (CI re-checks them from the JSON artifact).
    # Exclusive stage times must account for the profiled lane's
    # extraction wall clock — the profiler measures, it does not
    # invent or lose time.
    extract = profiled["extract_seconds"]
    assert abs(stage_sum - extract) <= 0.2 * extract, (
        stage_sum,
        extract,
    )
    # The unprofiled fused lane must not pay for the instrumentation.
    assert not fused["stages"].get("seconds")
