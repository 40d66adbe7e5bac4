"""SERVE — the resident daemon vs the one-shot batch path.

The batch CLI pays full start-up per invocation; the service loads
the compiled stack once and serves extraction over a socket.  This
bench measures what that residency buys on live traffic:

* **sustained throughput** — records/s through ``extract_many``'s
  pipelined window, driving the micro-batcher hard enough that it
  actually coalesces;
* **request latency** — p50/p99 of single blocking ``extract`` calls
  (each is its own micro-batch: the worst case for the batcher, the
  common case for an interactive caller);
* **batch path reference** — the same cohort through
  ``CorpusRunner`` on the same warm stack, so the protocol tax
  (JSON framing + socket hop + queueing) is visible next to it;
* **open-loop load sweep** — a Poisson arrival process at a sweep of
  offered rates, sent on schedule *regardless of completions* (a
  closed-loop client slows down with the server and hides queueing
  delay — the coordinated-omission trap), yielding the
  latency-vs-throughput curve and the saturation knee.

Emits ``BENCH_service.json`` so the serving trajectory is
machine-readable across PRs.  Correctness gates (byte-identity with
the batch store) live in the integration suite, not here.
"""

import json
import os
import random
import socket as socket_module
import statistics
import threading
import time
from pathlib import Path

from conftest import print_table

from repro.client import ServiceClient
from repro.extraction import RecordExtractor
from repro.runtime import CorpusRunner
from repro.runtime.service import (
    ExtractionService,
    ServiceConfig,
    record_to_dict,
)
from repro.synth import CohortSpec, RecordGenerator

CORPUS_SIZE = 60
LATENCY_SAMPLES = 30
#: Offered-rate sweep, as fractions of the batch-engine reference
#: throughput (the per-core capacity ceiling any service fronts).
SWEEP_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0, 1.3)
#: The fixed sub-saturation operating point the SLO gate reads.
SLO_FRACTION = 0.5
SWEEP_SECONDS = 2.0
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_service.json"


def _cohort(size: int):
    records, _ = RecordGenerator(seed=17).generate_cohort(
        CohortSpec(
            size=size,
            smoking_counts={
                "never": size - 3, "current": 1, "former": 1, None: 1,
            },
        )
    )
    return records


def _percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(
        len(ordered) - 1, round(fraction * (len(ordered) - 1))
    )
    return ordered[index]


def test_service_throughput_and_latency(benchmark, tmp_path):
    records = _cohort(CORPUS_SIZE)
    socket_path = str(tmp_path / "bench.sock")

    def run():
        service = ExtractionService(
            RecordExtractor(),
            config=ServiceConfig(
                socket_path=socket_path,
                max_batch=32,
            ),
        )
        service.start()
        try:
            with ServiceClient(socket_path=socket_path) as client:
                # Warm pass: fills parse/linkage caches so the timed
                # pass measures steady-state residency, the same
                # warmth the batch reference lane gets below.
                client.extract_many(records)
                warm_stats = client.stats()

                # Sustained: the pipelined window keeps the queue fed
                # so the batcher coalesces.
                started = time.perf_counter()
                results, quarantined = client.extract_many(records)
                sustained = time.perf_counter() - started
                assert len(results) == CORPUS_SIZE
                assert quarantined == []
                sustained_stats = client.stats()

                # Latency: one blocking request at a time.
                samples = []
                for record in records[:LATENCY_SAMPLES]:
                    started = time.perf_counter()
                    client.extract(record)
                    samples.append(time.perf_counter() - started)
        finally:
            service.stop(timeout=60)
        # Sustained-phase stats only: the warm pass and the singleton
        # latency probes would otherwise dilute the batch sizes.
        batches = (
            sustained_stats["batches"] - warm_stats["batches"]
        )
        dispatched = (
            sustained_stats["records_dispatched"]
            - warm_stats["records_dispatched"]
        )

        # The same warm stack through the batch engine, as the
        # no-protocol reference point.
        runner = CorpusRunner(service.runner.extractor, workers=1)
        started = time.perf_counter()
        runner.run(records)
        batch_seconds = time.perf_counter() - started

        return {
            "corpus_size": CORPUS_SIZE,
            "sustained_seconds": sustained,
            "sustained_records_per_s": CORPUS_SIZE / sustained,
            "latency_p50_s": _percentile(samples, 0.50),
            "latency_p99_s": _percentile(samples, 0.99),
            "latency_mean_s": statistics.fmean(samples),
            "batches": batches,
            "mean_batch_size": dispatched / batches,
            "batch_engine_seconds": batch_seconds,
            "batch_engine_records_per_s": (
                CORPUS_SIZE / batch_seconds
            ),
        }

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Service vs batch engine",
        ["lane", "records/s", "detail"],
        [
            (
                "service sustained",
                f"{report['sustained_records_per_s']:.1f}",
                f"{report['batches']} batches, "
                f"mean size {report['mean_batch_size']:.1f}",
            ),
            (
                "service per-request",
                f"{1.0 / report['latency_mean_s']:.1f}",
                f"p50 {report['latency_p50_s'] * 1e3:.1f}ms  "
                f"p99 {report['latency_p99_s'] * 1e3:.1f}ms",
            ),
            (
                "batch engine",
                f"{report['batch_engine_records_per_s']:.1f}",
                "no protocol, same warm stack",
            ),
        ],
    )
    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")

    # The micro-batcher must actually coalesce under pipelined load,
    # and the protocol tax must stay bounded: sustained service
    # throughput within 5x of the raw batch engine (JSON framing,
    # socket hop, and per-batch runner bookkeeping are all real).
    assert report["mean_batch_size"] > 1.0
    assert report["sustained_records_per_s"] >= (
        report["batch_engine_records_per_s"] / 5.0
    )


# ------------------------------------------------- open-loop harness

def _open_loop_lane(
    socket_path, records, rate, duration_s, seed
):
    """Drive one open-loop lane: Poisson arrivals at *rate* req/s.

    A sender thread fires requests on the arrival schedule no matter
    how the service is doing; the main thread reads responses and
    measures each request's latency from its *scheduled* send time.
    Shed (``overloaded``) responses are counted, not resent — an
    open-loop generator models independent clients, not a retry loop.
    """
    rng = random.Random(seed)
    arrivals = []
    t = 0.0
    while t < duration_s:
        arrivals.append(t)
        t += rng.expovariate(rate)
    sock = socket_module.socket(socket_module.AF_UNIX)
    sock.settimeout(120)
    sock.connect(socket_path)
    reader = sock.makefile("r", encoding="utf-8")
    writer = sock.makefile("w", encoding="utf-8")
    send_times = {}

    def sender():
        base = time.perf_counter()
        for i, arrival in enumerate(arrivals):
            delay = base + arrival - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            request_id = f"o{i}"
            payload = {
                "op": "extract",
                "id": request_id,
                "record": record_to_dict(
                    records[i % len(records)]
                ),
            }
            # Latency is measured from the scheduled arrival, so
            # queueing delay inside the client counts too.
            send_times[request_id] = base + arrival
            writer.write(json.dumps(payload) + "\n")
            writer.flush()

    thread = threading.Thread(target=sender, daemon=True)
    started = time.perf_counter()
    thread.start()
    latencies = []
    shed = 0
    for _ in range(len(arrivals)):
        response = json.loads(reader.readline())
        now = time.perf_counter()
        if response.get("ok"):
            latencies.append(now - send_times[response["id"]])
        else:
            shed += 1
    elapsed = time.perf_counter() - started
    thread.join(timeout=10)
    sock.close()
    completed = len(latencies)
    return {
        "offered_rate": rate,
        "sent": len(arrivals),
        "completed": completed,
        "shed": shed,
        "achieved_records_per_s": (
            completed / elapsed if elapsed > 0 else 0.0
        ),
        "latency_p50_s": (
            _percentile(latencies, 0.50) if latencies else None
        ),
        "latency_p99_s": (
            _percentile(latencies, 0.99) if latencies else None
        ),
    }


def _find_knee(sweep):
    """First offered rate where the service stops keeping up.

    Saturation shows as either goodput falling visibly below the
    offered rate (sheds / queue growth) or tail latency blowing past
    the uncongested baseline.
    """
    baseline = next(
        (
            lane["latency_p99_s"]
            for lane in sweep
            if lane["latency_p99_s"] is not None
        ),
        None,
    )
    for lane in sweep:
        if lane["completed"] == 0:
            return {
                "offered_rate": lane["offered_rate"],
                "reason": "no completions",
            }
        if lane["achieved_records_per_s"] < (
            0.85 * lane["offered_rate"]
        ):
            return {
                "offered_rate": lane["offered_rate"],
                "reason": "goodput below 0.85x offered",
            }
        if (
            baseline is not None
            and lane["latency_p99_s"] is not None
            and lane["latency_p99_s"] > 5.0 * baseline
        ):
            return {
                "offered_rate": lane["offered_rate"],
                "reason": "p99 over 5x uncongested baseline",
            }
    return None


def test_open_loop_sweep(benchmark, tmp_path):
    """Latency-vs-throughput curve from an open-loop rate sweep."""
    records = _cohort(CORPUS_SIZE)
    socket_path = str(tmp_path / "sweep.sock")
    shards = int(os.environ.get("REPRO_BENCH_SHARDS", "1"))

    def run():
        # Reference capacity: the batch engine on a warm stack.
        extractor = RecordExtractor()
        runner = CorpusRunner(extractor, workers=1)
        runner.run(records)  # warm caches
        started = time.perf_counter()
        runner.run(records)
        batch_seconds = time.perf_counter() - started
        batch_rps = CORPUS_SIZE / batch_seconds

        service = ExtractionService(
            extractor,
            config=ServiceConfig(
                socket_path=socket_path,
                max_batch=32,
                max_queue=256,
                shards=shards,
            ),
        )
        service.start()
        try:
            # Warm the service path (and any shard children) before
            # measuring.
            with ServiceClient(socket_path=socket_path) as client:
                client.extract_many(records[:10])
            sweep = []
            for fraction in SWEEP_FRACTIONS:
                sweep.append(
                    _open_loop_lane(
                        socket_path,
                        records,
                        rate=max(1.0, fraction * batch_rps),
                        duration_s=SWEEP_SECONDS,
                        seed=int(fraction * 1000),
                    )
                )
            slo_lane = _open_loop_lane(
                socket_path,
                records,
                rate=max(1.0, SLO_FRACTION * batch_rps),
                duration_s=SWEEP_SECONDS,
                seed=4242,
            )
        finally:
            service.stop(timeout=60)
        return {
            "shards": shards,
            "batch_engine_records_per_s": batch_rps,
            "sweep": sweep,
            "knee": _find_knee(sweep),
            "slo": {
                "offered_fraction_of_batch": SLO_FRACTION,
                **slo_lane,
            },
        }

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        (
            f"{lane['offered_rate']:.0f} req/s offered",
            f"{lane['achieved_records_per_s']:.1f}",
            (
                f"p99 {lane['latency_p99_s'] * 1e3:.1f}ms, "
                f"{lane['shed']} shed"
                if lane["latency_p99_s"] is not None
                else f"{lane['shed']} shed"
            ),
        )
        for lane in report["sweep"]
    ]
    knee = report["knee"]
    rows.append(
        (
            "knee",
            f"{knee['offered_rate']:.0f}" if knee else "-",
            knee["reason"] if knee else "not reached in sweep",
        )
    )
    print_table(
        f"Open-loop sweep ({report['shards']} shard(s))",
        ["lane", "records/s", "detail"],
        rows,
    )

    # Merge into the artifact the closed-loop test wrote (or start
    # fresh when run standalone).
    merged = (
        json.loads(ARTIFACT.read_text())
        if ARTIFACT.exists()
        else {}
    )
    merged.update(report)
    ARTIFACT.write_text(json.dumps(merged, indent=2) + "\n")

    # Sub-saturation sanity: the SLO operating point must complete
    # the bulk of what was offered.  The p99<=100ms and >=0.9x batch
    # throughput gates are applied by CI on multi-core runners (see
    # .github/workflows/ci.yml service-slo); a 1-core box records
    # the curve without gating absolute numbers.
    slo = report["slo"]
    assert slo["completed"] >= 0.5 * slo["sent"]
    cpu_count = os.cpu_count() or 1
    if cpu_count >= 4 and shards >= 4:
        assert slo["latency_p99_s"] is not None
        assert slo["latency_p99_s"] <= 0.100
        peak = max(
            lane["achieved_records_per_s"]
            for lane in report["sweep"]
        )
        assert peak >= 0.9 * report["batch_engine_records_per_s"]
