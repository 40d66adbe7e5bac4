"""The batch workloads: the ``repro extract`` path, serial, in process.

One pass is what one ``repro extract`` run does after start-up: run the
``ResilientCorpusRunner`` over fresh records, save new parses to the
sidecar, then write every result to a new ``ResultStore`` in one
``store_many`` and close it.  Passes repeat on one warm stack (the last
of ``SETUPS`` set-ups; ``setup_s`` is their median) until the measured
time reaches ``--seconds``; records are never re-fed.

Throughput and per-record cost are CPU time of this process, and count
only the records extracted while the vCPU ran at full speed.  The host
slows each of this machine's vCPUs by up to 2x, on and off, often
several times a second (README, "Noise floor"), and CPU time does not
hide that.  A probe of fixed work (``spans.speed_probe``) runs right
before each record; the record counts when its probe took at most
``spans.FAST_FACTOR`` times the run's ``spans.FAST_PERCENTILE``-th
percentile probe time.  Whether the host was slowing the vCPU has
nothing to do with which record came next, so the records that count
are a random sample of the run's records.  Their mean is taken
separately over records that reached the parser and records that did
not, weighted by how many of each the run had (``spans.full_speed``).
The rest of each pass (runner bookkeeping, sidecar save, store) counts
in full.
"""

from __future__ import annotations

import resource
import statistics

import checks
import layers
import stack
import workloads
from spans import (
    Patches,
    Recorder,
    clock,
    cpu_clock,
    full_speed,
    layer_totals,
    percentile,
    speed_probe,
    tail,
    thread_cpu_clock,
    wrap_cost_s,
)

#: Set-ups per run; setup_s is their median.
SETUPS = 3
#: Passes always run, whatever --seconds says.  Accuracy is scored on
#: exactly these, so it does not depend on how fast the machine is.
ACCURACY_PASSES = 2


def _store(path, results) -> None:
    from repro.storage import ResultStore

    store = ResultStore(path)
    try:
        store.store_many(results)
    finally:
        store.close()


def run(ctx, workload: str, seed: int, seconds: float, traced: bool):
    train = workloads.train_items()
    timings = []
    for index in range(SETUPS):
        chosen = stack.setup(ctx.built, ctx.work, index, train)
        timings.append(chosen.timings)
    setup = {
        key: statistics.median(t[key] for t in timings) for key in timings[0]
    }
    runner, cache = chosen.runner, chosen.parse_cache

    # Per record: (probe CPU s, RecordExtractor.extract CPU s, whether
    # it reached the parser).
    samples: list[tuple[float, float, bool]] = []
    extract = chosen.extractor.extract
    parsers = layers.parsers(chosen.extractor)

    def timed_extract(record):
        parsed = sum(parser.stats.sentences for parser in parsers)
        started = thread_cpu_clock()
        speed_probe()
        probed = thread_cpu_clock()
        result = extract(record)
        spent = thread_cpu_clock() - probed
        samples.append((
            probed - started, spent,
            sum(parser.stats.sentences for parser in parsers) > parsed,
        ))
        return result

    recorder = patches = None
    store = _store
    if not traced:
        chosen.extractor.extract = timed_extract
    else:
        recorder = Recorder()
        patches = Patches(recorder)
        layers.install(patches)
        store = recorder.wrap("store", _store)
        before = layers.engine_counters(chosen.extractor)

    windows: list[tuple[float, float]] = []
    cpu_s = 0.0
    score = checks.Score()
    attempted = failed = 0
    problems: list[str] = []
    leaks = 0
    try:
        pass_index = 0
        while (
            pass_index < ACCURACY_PASSES
            or sum(b - a for a, b in windows) < seconds
        ):
            items = workloads.make_pass(workload, seed, pass_index)
            records = [item.record for item in items]
            db = ctx.work / f"pass{pass_index}.db"
            started, cpu_started = clock(), cpu_clock()
            results = runner.run(records)
            if cache.dirty:
                cache.save()
            store(db, results)
            cpu_s += cpu_clock() - cpu_started
            windows.append((started, clock()))

            attempted += len(records)
            failed += len(runner.quarantine)
            quarantined = {entry.record_id for entry in runner.quarantine}
            problems += checks.check_store(db, [
                item.patient_id for item in items
                if item.patient_id not in quarantined
            ])
            by_id = {result.patient_id: result for result in results}
            for item in items:
                result = by_id.get(item.patient_id)
                if result is None:
                    continue
                scored = checks.score(item, result)
                leaks += scored.leaks
                if pass_index < ACCURACY_PASSES:
                    score.add(scored)
            db.unlink()
            pass_index += 1
    finally:
        chosen.extractor.__dict__.pop("extract", None)
        if patches is not None:
            patches.restore()

    if leaks:
        problems.append(f"{leaks} forbidden trap terms emitted")
    wall = sum(b - a for a, b in windows)
    log = [
        f"{workload}: {attempted} records in {len(windows)} passes, "
        f"{wall:.2f}s measured, accuracy scored on the first "
        f"{score.records}",
    ]
    extras: dict[str, tuple[float, str]] = {}
    if traced:
        totals = layer_totals(recorder.threads(), windows)
        metrics = layers.per_layer(
            totals,
            layers.delta(layers.engine_counters(chosen.extractor), before),
            setup,
            wrap_cost_s(),
        )
        return checks.Outcome(
            metrics, extras, attempted, failed, problems, log
        )

    probes = [probe for probe, _, _ in samples]
    costs = [cost for _, cost, _ in samples]
    fast, fast_mean, limit = full_speed(samples)
    # Pass CPU time outside the probes and RecordExtractor.extract.
    rest_s = cpu_s - sum(probes) - sum(costs)
    used, value = tail(costs, 99.0)
    extras["p90_ms"] = (percentile(costs, 90.0) * 1e3, "ms")
    extras["tail_ms"] = (value * 1e3, "ms")
    extras["fast_share"] = (len(fast) / len(samples), "share")
    extras["records_per_cpu_s.all"] = (
        attempted / (cpu_s - sum(probes)), "1/s"
    )
    extras["records_per_wall_s"] = (attempted / wall, "1/s")
    log.append(
        f"per-record CPU time over {len(costs)} records, tail is "
        f"p{used:.3g}; {len(fast)} extracted at full speed (probe <= "
        f"{limit * 1e6:.0f} us); "
        f"{sum(heavy for _, _, heavy in samples)} reached the parser"
    )
    metrics = {
        "setup_s": setup["total_s"],
        "records_per_cpu_s": 1.0 / (fast_mean + rest_s / len(samples)),
        "p50_ms": statistics.median(fast) * 1e3,
        "accuracy": score.accuracy,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss / 1024.0,
    }
    return checks.Outcome(metrics, extras, attempted, failed, problems, log)
