"""The serve-mix workload: open-loop traffic into ``repro serve``.

Each rate phase gets its own server process, started from the pristine
sidecar copy with ``--db`` set (one shard), so both phases start from
identical state.  One client process sends on a seeded Poisson
schedule from a sender thread and reads responses on the main thread;
a request's latency runs from its *scheduled* send time, so a stall
also charges the requests queued behind it.  Each record is sent once.
Throughput and start-up are the server process's own CPU time, read
from ``/proc`` (see ``spans``); throughput is taken over both phases
whole.  (Timing only the micro-batches run at full speed, as the batch
workloads do with records, left a few dozen records per run and spread
more over ten seeds: 0.23 against 0.15.)  The light-rate p50 is the median over chunks
of ``CHUNK_S`` (by read time) of each chunk's median latency, so a
second or two in which the host slowed this machine's CPUs moves it
little.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers
import stack
import workloads
from spans import (
    Span,
    clock,
    layer_totals,
    percentile,
    process_cpu_s,
    tail,
)

#: Fixed offered rates (records/s) of the two phases.  Each phase
#: lasts half of --seconds.
RATES = {"light": 12.0, "heavy": 24.0}
#: Length of one measuring chunk, by response read time.
CHUNK_S = 2.0
#: Fewest responses a chunk needs to count (drops the ragged last one).
CHUNK_MIN = 10
#: p99 latency limit for slo_rate_rps.
SLO_P99_MS = 250.0
#: Server starts per run; setup_s is their median.  One per rate phase,
#: the rest only measure start-up.
SETUPS = 3
#: Served records compared against batch extraction, at most.
PARITY_SAMPLE = 200
READY_TIMEOUT_S = 120.0
DRAIN_TIMEOUT_S = 120.0


@dataclass
class Phase:
    name: str
    rate: float
    items: list
    #: Arrival offsets from the schedule; absolute times once driven.
    scheduled: list[float]
    sent: list[float] = field(default_factory=list)
    read: list[float] = field(default_factory=list)
    responses: list[dict] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    window: tuple[float, float] = (0.0, 0.0)
    #: CPU seconds the server used from the first send to the last read.
    server_cpu_s: float = 0.0
    #: Indices of the responses read in each chunk, in read order.
    chunks: list[list[int]] = field(default_factory=list)
    spans_file: Path | None = None

    def ok(self) -> list[int]:
        return [i for i, r in enumerate(self.responses) if r.get("ok")]

    def latencies_ms(self) -> list[float]:
        return [
            (self.read[i] - self.scheduled[i]) * 1e3 for i in self.ok()
        ]

    def lag_max_ms(self) -> float:
        return max(
            (s - d for s, d in zip(self.sent, self.scheduled)), default=0.0
        ) * 1e3


def poisson_schedule(rate: float, duration: float, rng) -> list[float]:
    """Arrival offsets of a Poisson process over [0, duration)."""
    arrivals = []
    t = rng.expovariate(rate)
    while t < duration:
        arrivals.append(t)
        t += rng.expovariate(rate)
    return arrivals


class Server:
    """One ``repro serve`` process on loopback TCP."""

    def __init__(self, ctx, tag: str, models: Path, traced: bool) -> None:
        work = ctx.work
        self.db = work / f"{tag}.db"
        self.ready = work / f"{tag}.ready"
        self.spans_file = work / f"{tag}.spans.json" if traced else None
        self.peak_rss_mb = 0.0
        sidecar = work / f"{tag}.parsecache"
        shutil.copyfile(ctx.built.sidecar, sidecar)
        serve_args = [
            "serve", "--port", "0", "--ready-file", str(self.ready),
            "--artifact", str(ctx.built.artifact),
            "--parse-cache", str(sidecar),
            "--models", str(models), "--db", str(self.db),
        ]
        if traced:
            command = [
                sys.executable, str(ctx.bench / "serve_launcher.py"),
                "--spans", str(self.spans_file), *serve_args,
            ]
        else:
            command = [sys.executable, "-m", "repro", *serve_args]
        env = dict(
            os.environ,
            PYTHONPATH=str(ctx.root / "src"),
            REPRO_ARTIFACT_CACHE=str(work / "artifact-cache"),
        )
        self._log = open(work / f"{tag}.log", "wb")
        self.process = subprocess.Popen(
            command, cwd=ctx.root, env=env,
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        try:
            self.port = self._wait_ready()
        except BaseException:
            self.kill()
            raise
        # CPU seconds from spawn until the ready-file appears; the
        # server idles from then until the first request.
        self.setup_s = process_cpu_s(self.process.pid)

    def _wait_ready(self) -> int:
        deadline = clock() + READY_TIMEOUT_S
        while clock() < deadline:
            if self.process.poll() is not None:
                raise stack.BenchError(
                    f"server exited with {self.process.returncode} "
                    f"before ready; see {self._log.name}"
                )
            try:
                return int(json.loads(self.ready.read_text())["port"])
            except (OSError, ValueError, KeyError):
                time.sleep(0.002)
        raise stack.BenchError("server not ready in time")

    def stop(self) -> int:
        """Wait for the drained server to exit; kill it if it hangs."""
        deadline = clock() + DRAIN_TIMEOUT_S
        while not self._reap(os.WNOHANG):
            if clock() > deadline:
                return self.kill()
            time.sleep(0.01)
        self._log.close()
        return self.process.returncode

    def kill(self) -> int:
        self.process.kill()
        self._reap(0)
        self._log.close()
        return self.process.returncode

    def _reap(self, options: int) -> bool:
        """Collect the exit status and this server's own peak RSS."""
        if self.process.returncode is not None:
            return True
        pid, status, usage = os.wait4(self.process.pid, options)
        if pid == 0:
            return False
        self.process.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        return True


def _request(stream, sock, payload: dict) -> dict:
    sock.sendall((json.dumps(payload) + "\n").encode())
    return json.loads(stream.readline())


def drive(server: Server, phase: Phase) -> None:
    """Send the phase's schedule open-loop; read every response."""
    from repro.runtime.service import record_to_dict

    payloads = [
        (json.dumps({
            "op": "extract", "id": index,
            "record": record_to_dict(item.record),
        }) + "\n").encode()
        for index, item in enumerate(phase.items)
    ]
    count = len(payloads)
    sock = socket.create_connection(("127.0.0.1", server.port))
    sock.settimeout(DRAIN_TIMEOUT_S)
    stream = sock.makefile("rb")
    base = clock() + 0.05
    phase.scheduled = [base + offset for offset in phase.scheduled]
    phase.sent = [0.0] * count
    errors: list[BaseException] = []

    def sender() -> None:
        try:
            for index, due in enumerate(phase.scheduled):
                delay = due - clock()
                if delay > 0:
                    time.sleep(delay)
                phase.sent[index] = clock()
                sock.sendall(payloads[index])
        except OSError as error:
            errors.append(error)

    thread = threading.Thread(target=sender, name="open-loop-sender")
    cpu_started = process_cpu_s(server.process.pid)
    thread.start()
    read = [0.0] * count
    responses: list[dict] = [{}] * count
    chunk: list[int] = []
    chunk_end = base + CHUNK_S
    try:
        for _ in range(count):
            line = stream.readline()
            now = clock()
            if not line:
                raise stack.BenchError("server closed the connection")
            message = json.loads(line)
            read[message["id"]] = now
            responses[message["id"]] = message
            chunk.append(message["id"])
            if now >= chunk_end:
                phase.chunks.append(chunk)
                chunk = []
                chunk_end = now + CHUNK_S
    finally:
        thread.join(timeout=DRAIN_TIMEOUT_S)
    if errors or thread.is_alive():
        raise stack.BenchError(f"sender failed: {errors}")
    phase.server_cpu_s = process_cpu_s(server.process.pid) - cpu_started
    if chunk:
        phase.chunks.append(chunk)
    phase.window = (base, max(read))
    phase.read = read
    phase.responses = responses
    phase.stats = _request(stream, sock, {"op": "stats", "id": "stats"})[
        "result"
    ]
    _request(stream, sock, {"op": "shutdown", "id": "shutdown"})
    stream.close()
    sock.close()


def _parity(ctx, models: Path, phases: list[Phase]) -> list[str]:
    """Served results must equal batch extraction of the same records."""
    from repro.runtime.compiled import CompiledArtifact
    from repro.runtime.parsecache import PersistentParseCache
    from repro.runtime.resilience import ResilientCorpusRunner

    served = [
        (item, phase.responses[i]["result"])
        for phase in phases for i in phase.ok()
        for item in [phase.items[i]]
    ]
    step = max(1, len(served) // PARITY_SAMPLE)
    sample = served[::step]
    artifact = CompiledArtifact.load(ctx.built.artifact)
    extractor = artifact.make_extractor(parse_budget=stack.PARSE_BUDGET)
    extractor.load_models(models)
    sidecar = ctx.work / "parity.parsecache"
    shutil.copyfile(ctx.built.sidecar, sidecar)
    cache, _ = PersistentParseCache.load_or_create(
        sidecar, extractor.numeric.parser.dictionary.signature()
    )
    runner = ResilientCorpusRunner(
        extractor, artifact=artifact, parse_cache=cache
    )
    results = runner.run([item.record for item, _ in sample])
    mismatched = [
        item.patient_id
        for (item, wire), result in zip(sample, results)
        if json.dumps(result.to_dict()) != json.dumps(wire)
    ]
    if len(results) != len(sample) or mismatched:
        return [
            f"serve != batch on {len(mismatched)} of {len(sample)} "
            f"records, first {mismatched[:1]}"
        ]
    return []


def chunked_p50_ms(phase: Phase) -> float:
    """Median over the phase's chunks of their median latency (ms).

    Chunks with fewer than ``CHUNK_MIN`` served requests do not count.
    """
    ok = set(phase.ok())
    p50s = []
    for indices in phase.chunks:
        served = [i for i in indices if i in ok]
        if len(served) >= CHUNK_MIN:
            p50s.append(statistics.median(
                (phase.read[i] - phase.scheduled[i]) * 1e3 for i in served
            ))
    if not p50s:
        raise stack.BenchError(f"no {phase.name} chunk held enough requests")
    return statistics.median(p50s)


def _meets_slo(phase: Phase) -> bool:
    latencies = phase.latencies_ms()
    if len(latencies) != len(phase.items):
        return False
    backlog_s = phase.window[1] - phase.scheduled[-1]
    return (
        percentile(latencies, 99.0) <= SLO_P99_MS
        and backlog_s * 1e3 <= SLO_P99_MS
    )


def _service_layers(phases: list[Phase], setup: dict) -> dict:
    """Per-layer metrics from the traced servers' spans."""
    threads: list[list[Span]] = []
    counters: dict[str, float] = {}
    wrap_cost = 0.0
    for phase in phases:
        dump = json.loads(phase.spans_file.read_text())
        for spans in dump["threads"]:
            threads.append([Span.from_list(row) for row in spans])
        for key, value in dump["counters"].items():
            counters[key] = counters.get(key, 0) + value
        wrap_cost = dump["wrap_cost_s"]
    windows = [phase.window for phase in phases]
    shard_threads = [
        index for index, spans in enumerate(threads)
        if any(span.name == "service.batch" for span in spans)
    ]
    totals = layer_totals(threads, windows, only_threads=shard_threads)
    batches = [
        span for index in shard_threads for span in threads[index]
        if span.name == "service.batch"
    ]
    # Map each request to the batch that carried it.
    carried = {}
    for span in batches:
        for patient_id in span.attrs["ids"]:
            carried[patient_id] = span
    waits, wires = [], []
    for phase in phases:
        for i in phase.ok():
            span = carried.get(phase.items[i].patient_id)
            if span is None:
                continue
            waits.append((span.start - phase.scheduled[i]) * 1e3)
            wires.append((phase.read[i] - span.end) * 1e3)
    shed = sum(
        1 for phase in phases for r in phase.responses
        if not r.get("ok") and r["error"]["kind"] == "overloaded"
    )
    merge = [
        span for spans in threads for span in spans
        if span.name == "store.merge"
    ]
    loads = [
        span for spans in threads for span in spans
        if span.name in ("compiled.load", "parsecache.load")
    ]
    service = {
        "compiled.load_s": statistics.median(
            [s.duration for s in loads if s.name == "compiled.load"]
            or [0.0]
        ),
        "parsecache.load_s": statistics.median(
            [s.duration for s in loads if s.name == "parsecache.load"]
            or [0.0]
        ),
        "store.merge_s": sum(span.duration for span in merge),
        "queue.wait_p50_ms": statistics.median(waits) if waits else 0.0,
        "queue.wait_p99_ms": tail(waits, 99.0)[1] if len(waits) > 10
        else 0.0,
        "batch.size_mean": (
            statistics.fmean(len(s.attrs["ids"]) for s in batches)
            if batches else 0.0
        ),
        "batch.count": len(batches),
        "service.shed": shed,
        "wire.p99_ms": tail(wires, 99.0)[1] if len(wires) > 10 else 0.0,
        "gen.lag_max_ms": max(phase.lag_max_ms() for phase in phases),
    }
    return layers.per_layer(totals, counters, setup, wrap_cost, service)


def run(ctx, workload: str, seed: int, seconds: float, traced: bool):
    # Models are trained once by the harness and loaded by every
    # server, as `repro serve --models` does.
    train = workloads.train_items()
    trainer = stack.setup(ctx.built, ctx.work, 0, train)
    models = ctx.work / "models"
    trainer.extractor.save_models(models)
    setup = dict(trainer.timings)
    del trainer

    records = workloads.stream(workload, seed)
    phases: list[Phase] = []
    servers: list[Server] = []
    for name, rate in RATES.items():
        rng = random.Random(f"arrivals|{seed}|{name}")
        schedule = poisson_schedule(rate, seconds / len(RATES), rng)
        items = [next(records) for _ in schedule]
        server = Server(ctx, name, models, traced)
        servers.append(server)
        phase = Phase(name, rate, items, schedule,
                      spans_file=server.spans_file)
        try:
            drive(server, phase)
        except BaseException:
            server.kill()
            raise
        code = server.stop()
        if code != 0:
            raise stack.BenchError(f"server {name} exited with {code}")
        phases.append(phase)
    for index in range(SETUPS - len(RATES)):
        server = Server(ctx, f"setup{index}", models, traced=False)
        servers.append(server)
        server.process.terminate()
        server.stop()

    from repro.extraction.pipeline import ExtractionResult

    problems: list[str] = []
    score = checks.Score()
    attempted = failed = 0
    for phase in phases:
        attempted += len(phase.items)
        ok = phase.ok()
        failed += len(phase.items) - len(ok)
        problems += checks.check_store(
            ctx.work / f"{phase.name}.db",
            [phase.items[i].patient_id for i in ok],
        )
        for i in ok:
            result = ExtractionResult.from_dict(phase.responses[i]["result"])
            score.add(checks.score(phase.items[i], result))
    if score.leaks:
        problems.append(f"{score.leaks} forbidden trap terms emitted")
    problems += _parity(ctx, models, phases)

    log = []
    extras: dict[str, tuple[float, str]] = {}
    slo_rate = 0.0
    for phase in phases:
        latencies = phase.latencies_ms()
        used, value = tail(latencies, 99.0)
        backlog_ms = (phase.window[1] - phase.scheduled[-1]) * 1e3
        log.append(
            f"{phase.name} {phase.rate:g} rec/s: {len(phase.items)} sent, "
            f"{len(latencies)} ok, tail is p{used:.3g}, drain "
            f"{backlog_ms:.0f}ms, lag max {phase.lag_max_ms():.1f}ms, "
            f"{phase.stats['batches']} batches"
        )
        extras[f"p50_ms.{phase.name}"] = (statistics.median(latencies), "ms")
        extras[f"p90_ms.{phase.name}"] = (percentile(latencies, 90.0), "ms")
        extras[f"tail_ms.{phase.name}"] = (value, "ms")
        if _meets_slo(phase):
            slo_rate = max(slo_rate, phase.rate)
    extras["slo_rate_rps"] = (slo_rate, "1/s")
    log.append(
        f"slo_rate_rps: highest rate with p99 <= {SLO_P99_MS:g}ms, none "
        f"shed, drained within {SLO_P99_MS:g}ms of the last send"
    )
    if traced:
        metrics = _service_layers(phases, setup)
    else:
        dispatched = sum(p.stats["records_dispatched"] for p in phases)
        busy = sum(p.stats["batch_seconds"] for p in phases)
        extras["records_per_busy_s"] = (dispatched / busy, "1/s")
        log.append(
            f"chunks of {CHUNK_S:g}s: "
            + ", ".join(f"{p.name} {len(p.chunks)}" for p in phases)
        )
        metrics = {
            "setup_s": statistics.median(
                server.setup_s for server in servers
            ),
            "records_per_cpu_s": dispatched / sum(
                phase.server_cpu_s for phase in phases
            ),
            "p50_ms": chunked_p50_ms(phases[0]),
            "accuracy": score.accuracy,
            "peak_rss_mb": max(server.peak_rss_mb for server in servers),
        }
    return checks.Outcome(
        metrics, extras, attempted, failed, problems, log
    )
