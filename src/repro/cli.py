"""Command-line interface: the system as an operational tool.

Subcommands mirror the paper's workflow end to end::

    python -m repro generate --count 50 --output notes/
    python -m repro compile
    python -m repro extract  --input notes/ --gold notes/gold.json \\
                             --db study.db
    python -m repro parse "Blood pressure is 144/90, pulse of 84."
    python -m repro analyze "She quit smoking five years ago."
    python -m repro evaluate --experiment smoking

``generate`` writes ASCII record files plus a ``gold.json`` standing
in for the medical student's manual coding; ``extract`` trains the
categorical models on that gold and fills a SQLite research database;
``parse`` prints the link grammar arc diagram; ``evaluate`` reruns a
paper experiment from scratch.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

from repro.client import ServiceClient
from repro.errors import ArtifactError, ParseFailure, ReproError
from repro.runtime.compiled import (
    CompiledArtifact,
    artifact_cache_dir,
    cached_artifact,
    source_fingerprint,
)
from repro.runtime.faults import FaultPlan, InjectedInterrupt
from repro.runtime.parsecache import (
    PersistentParseCache,
    sidecar_path,
)
from repro.runtime.resilience import (
    Journal,
    ResilientCorpusRunner,
    RetryPolicy,
)
from repro.runtime.service import ExtractionService, ServiceConfig
from repro.eval import (
    numeric_experiment,
    paper_cohort,
    smoking_experiment,
    table1_experiment,
)
from repro.extraction.pipeline import RecordExtractor
from repro.linkgrammar.parser import LinkGrammarParser
from repro.nlp.pipeline import analyze
from repro.records.loader import load_records, save_records
from repro.tracing import (
    Tracer,
    build_manifest,
    model_fingerprint,
    read_jsonl,
)
from repro.storage.db import ResultStore
from repro.synth.generator import CohortSpec, RecordGenerator
from repro.synth.gold import GoldAnnotations
from repro.synth.styles import DictationStyle


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Clinical record information extraction "
                    "(Zhou et al., ICDE 2005 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate", help="generate a synthetic cohort of record files"
    )
    generate.add_argument("--count", type=int, default=50)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument(
        "--style", choices=["consistent", "varied"], default="consistent"
    )
    generate.add_argument(
        "--level", type=float, default=0.5,
        help="variability level for --style varied",
    )
    generate.add_argument("--output", required=True, type=Path)

    compile_cmd = sub.add_parser(
        "compile",
        help="ahead-of-time compile the extraction stack (grammar "
             "disjunct tables, ontology index) into a warm-start "
             "artifact",
    )
    compile_cmd.add_argument(
        "--output", type=Path, default=None, metavar="PATH",
        help="artifact file to write (default: the fingerprint-keyed "
             "cache entry extract warm-starts from automatically)",
    )
    compile_cmd.add_argument(
        "--force", action="store_true",
        help="rebuild even when an up-to-date artifact exists",
    )
    compile_cmd.add_argument(
        "--with-parse-cache", action="store_true",
        help="also create (or validate) the persistent parse-cache "
             "sidecar next to the artifact; extract/serve then reuse "
             "parses across runs automatically",
    )

    extract = sub.add_parser(
        "extract", help="extract all attributes into a SQLite database"
    )
    extract.add_argument("--input", required=True, type=Path)
    extract.add_argument("--db", required=True, type=Path)
    extract.add_argument(
        "--gold", type=Path, default=None,
        help="gold.json used to train the categorical classifiers; "
             "without it categorical fields are skipped",
    )
    extract.add_argument(
        "--models", type=Path, default=None,
        help="directory of saved categorical models (alternative to "
             "--gold); with --gold, trained models are saved there",
    )
    extract.add_argument(
        "--csv", type=Path, default=None,
        help="also export one wide CSV row per patient",
    )
    extract.add_argument(
        "--workers", type=_positive_int, default=1,
        help="worker processes for extraction (1 = serial, the "
             "deterministic default)",
    )
    extract.add_argument(
        "--chunk-size", type=_positive_int, default=None,
        help="records per parallel work unit (default: cohort split "
             "into ~4 chunks per worker)",
    )
    extract.add_argument(
        "--artifact", type=Path, default=None, metavar="PATH",
        help="warm-start from this compiled artifact (see `repro "
             "compile --output`); fails if it is stale",
    )
    extract.add_argument(
        "--no-warm-start", action="store_true",
        help="build the extraction stack from source instead of "
             "using (and maintaining) the compiled-artifact cache",
    )
    extract.add_argument(
        "--parse-cache", type=Path, default=None, metavar="PATH",
        help="persist parse outcomes across runs in this sidecar "
             "file (created if missing; see `repro compile "
             "--with-parse-cache`); default: the sidecar next to the "
             "resolved artifact, when one exists",
    )
    extract.add_argument(
        "--no-parse-cache", action="store_true",
        help="ignore any persistent parse-cache sidecar",
    )
    extract.add_argument(
        "--stats", action="store_true",
        help="print engine metrics after extraction: records/sec, "
             "parse-cache hit rate, prune ratio",
    )
    extract.add_argument(
        "--profile-stages", action="store_true",
        help="attribute extraction wall time to pipeline stages "
             "(tokenize, split, pos, term-scan, numeric, parse, ...); "
             "the per-stage table prints with --stats and rides into "
             "--trace manifests",
    )
    extract.add_argument(
        "--trace", type=Path, default=None, metavar="JSONL",
        help="record one decision-span tree per record and write "
             "them (plus a run manifest line) to this JSONL file",
    )
    extract.add_argument(
        "--parse-budget", type=float, default=10.0, metavar="SECONDS",
        help="per-sentence parser time budget; a timed-out sentence "
             "degrades to the linguistic-pattern fallback instead of "
             "hanging (default: 10.0, 0 disables the parser entirely)",
    )
    extract.add_argument(
        "--retries", type=_positive_int, default=3,
        metavar="ATTEMPTS",
        help="executions of a failing chunk before it is bisected "
             "down to the poison record, which is quarantined "
             "(default: 3)",
    )
    extract.add_argument(
        "--run-id", default=None, metavar="NAME",
        help="name this run and checkpoint completed chunks to "
             "<db>.<NAME>.journal so an interrupted run can be "
             "resumed with --resume NAME",
    )
    extract.add_argument(
        "--resume", default=None, metavar="RUN_ID",
        help="resume the run named RUN_ID: skip every chunk already "
             "in its journal; the finished store is bit-for-bit "
             "identical to an uninterrupted run",
    )
    extract.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help="debug: fire deterministic faults while extracting, "
             "e.g. 'raise@3;kill@mid' — grammar KIND@INDEX[:MODE] "
             "with KIND in raise|hang|kill|corrupt|interrupt, INDEX "
             "an integer or first|mid|last, MODE once|always (see "
             "docs/robustness.md)",
    )

    serve = sub.add_parser(
        "serve",
        help="run a resident extraction daemon: load the stack once, "
             "micro-batch extraction requests from a local socket",
    )
    serve.add_argument(
        "--socket", type=Path, default=None, metavar="PATH",
        help="listen on this AF_UNIX socket (default: loopback TCP)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port to bind (0 picks an ephemeral port, printed "
             "at startup and written to --ready-file)",
    )
    serve.add_argument(
        "--models", type=Path, default=None,
        help="directory of saved categorical models to serve with",
    )
    serve.add_argument(
        "--artifact", type=Path, default=None, metavar="PATH",
        help="warm-start from this compiled artifact",
    )
    serve.add_argument(
        "--no-warm-start", action="store_true",
        help="build the extraction stack from source instead of "
             "using the compiled-artifact cache",
    )
    serve.add_argument(
        "--parse-cache", type=Path, default=None, metavar="PATH",
        help="persist parse outcomes across runs in this sidecar "
             "file (saved on drain; default: the sidecar next to "
             "the resolved artifact, when one exists)",
    )
    serve.add_argument(
        "--no-parse-cache", action="store_true",
        help="ignore any persistent parse-cache sidecar",
    )
    serve.add_argument(
        "--parse-budget", type=float, default=10.0, metavar="SECONDS",
    )
    serve.add_argument(
        "--max-queue", type=_positive_int, default=64,
        help="accepted-but-undispatched requests held before the "
             "service sheds load with retry-after (default: 64)",
    )
    serve.add_argument(
        "--max-batch", type=_positive_int, default=16,
        help="most records coalesced into one dispatched batch "
             "(default: 16)",
    )
    serve.add_argument(
        "--retry-after", type=float, default=0.05, metavar="SECONDS",
        help="back-off suggested to shed clients (default: 0.05)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="default per-request deadline; a request still queued "
             "past it is answered with a deadline error",
    )
    serve.add_argument(
        "--retries", type=_positive_int, default=3, metavar="ATTEMPTS",
        help="chunk attempts before bisection/quarantine (default: 3)",
    )
    serve.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help="debug: deterministic faults by global dispatch index, "
             "e.g. 'raise@2' poisons the third record ever "
             "dispatched (integer indices only)",
    )
    serve.add_argument(
        "--ready-file", type=Path, default=None, metavar="PATH",
        help="write the bound address to this JSON file once the "
             "service accepts connections (for scripts and CI)",
    )
    serve.add_argument(
        "--shards", type=_positive_int, default=1,
        help="shard workers: 1 serves in-process (default); N>1 "
             "forks N warm child processes with rendezvous-hash "
             "routing on record id and per-shard bounded queues",
    )
    serve.add_argument(
        "--db", type=Path, default=None, metavar="PATH",
        help="persist results server-side: shards write partitions "
             "merged into this store on drain (byte-identical to a "
             "batch `repro extract` run)",
    )
    serve.add_argument(
        "--run-id", default="", metavar="ID",
        help="run id recorded with server-side quarantine rows",
    )

    submit = sub.add_parser(
        "submit",
        help="submit records to a running extraction service "
             "(or query its health/stats, or ask it to drain)",
    )
    submit.add_argument(
        "--socket", type=Path, default=None, metavar="PATH",
        help="connect to this AF_UNIX socket",
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=None)
    submit.add_argument(
        "--input", type=Path, default=None,
        help="directory of record files to submit",
    )
    submit.add_argument(
        "--db", type=Path, default=None,
        help="SQLite database to store the returned results in",
    )
    submit.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-request deadline forwarded with every record",
    )
    submit.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="socket timeout for one response (default: 60)",
    )
    submit.add_argument(
        "--run-id", default=None, metavar="NAME",
        help="run id recorded with quarantine rows",
    )
    submit.add_argument(
        "--health", action="store_true",
        help="print the service's health JSON and exit",
    )
    submit.add_argument(
        "--stats", action="store_true",
        help="print the service's stats JSON and exit",
    )
    submit.add_argument(
        "--shutdown", action="store_true",
        help="ask the service to drain and exit",
    )

    trace_cmd = sub.add_parser(
        "trace",
        help="inspect a trace file written by extract --trace",
    )
    trace_cmd.add_argument("file", type=Path)
    trace_cmd.add_argument(
        "--record", default=None, metavar="PATIENT_ID",
        help="pretty-print this record's full decision tree "
             "(default: list all records with span counts)",
    )

    parse_cmd = sub.add_parser(
        "parse", help="print the link grammar diagram of a sentence"
    )
    parse_cmd.add_argument("sentence")
    parse_cmd.add_argument(
        "--all", action="store_true", help="show every linkage"
    )

    analyze_cmd = sub.add_parser(
        "analyze", help="tokenize/tag/number-annotate a sentence"
    )
    analyze_cmd.add_argument("text")

    evaluate = sub.add_parser(
        "evaluate", help="re-run a paper experiment"
    )
    evaluate.add_argument(
        "--experiment",
        choices=["numeric", "table1", "smoking", "all"],
        default="smoking",
    )
    evaluate.add_argument("--seed", type=int, default=42)
    evaluate.add_argument(
        "--style-matrix",
        action="store_true",
        help="run every adversarial style pack through the pipeline "
             "and write per-style precision/recall to --output; "
             "exits nonzero if the consistent-style row deviates "
             "from the pinned baseline (seed 42 only)",
    )
    evaluate.add_argument(
        "--output",
        type=Path,
        default=Path("EVAL_styles.json"),
        help="style-matrix artifact path (default EVAL_styles.json)",
    )
    evaluate.add_argument(
        "--floors",
        type=Path,
        default=None,
        help="per-attribute recall/precision floors file "
             "(eval_floors.json); with --style-matrix, exits nonzero "
             "when any measured value falls below its floor",
    )
    return parser


# ------------------------------------------------------------ commands

def _cmd_generate(args: argparse.Namespace) -> int:
    style = (
        DictationStyle.consistent()
        if args.style == "consistent"
        else DictationStyle.varied(args.level)
    )
    generator = RecordGenerator(style=style, seed=args.seed)
    if args.count == 50:
        spec = CohortSpec.paper()
    else:
        never = max(args.count - 2 - args.count // 4, 0)
        spec = CohortSpec(
            size=args.count,
            smoking_counts={
                "never": never,
                "current": args.count // 4,
                "former": 1,
                None: 1,
            },
        )
    records, golds = generator.generate_cohort(spec)
    paths = save_records(records, args.output)
    gold_path = args.output / "gold.json"
    gold_path.write_text(
        json.dumps([g.to_dict() for g in golds], indent=1)
    )
    print(f"wrote {len(paths)} records and gold.json to {args.output}")
    return 0


def _ensure_sidecar(path: Path, grammar_signature: str) -> None:
    """Create or validate the parse-cache sidecar next to *path*.

    A valid existing sidecar is kept as is; a missing, stale, or
    foreign one is rewritten empty so extract/serve runs start
    filling it immediately.
    """
    sidecar = sidecar_path(path)
    cache, loaded = PersistentParseCache.load_or_create(
        sidecar, grammar_signature
    )
    if loaded:
        print(
            f"parse cache {sidecar} is valid "
            f"({len(cache)} cached parses)"
        )
        return
    cache.save()
    print(f"wrote empty parse cache {sidecar}")


def _cmd_compile(args: argparse.Namespace) -> int:
    path = args.output
    if path is None:
        path = (
            artifact_cache_dir()
            / f"artifact-{source_fingerprint()}.pkl"
        )
    if path.exists() and not args.force:
        try:
            artifact = CompiledArtifact.load(path)
        except ArtifactError:
            pass  # stale or corrupt: rebuild below
        else:
            print(
                f"{path} is up to date "
                f"(fingerprint {artifact.fingerprint}); "
                "use --force to rebuild"
            )
            if args.with_parse_cache:
                _ensure_sidecar(path, artifact.grammar.signature)
            return 0
    started = time.perf_counter()
    artifact = CompiledArtifact.build()
    built = time.perf_counter() - started
    size = artifact.save(path)
    stats = artifact.stats()
    print(
        f"compiled {stats['words']} dictionary words and "
        f"{stats['concepts']} ontology concepts in {built:.2f}s"
    )
    print(
        f"wrote {path} ({size / 1e6:.1f} MB, fingerprint "
        f"{stats['fingerprint']}, grammar "
        f"{stats['grammar_signature']})"
    )
    if args.with_parse_cache:
        _ensure_sidecar(path, artifact.grammar.signature)
    return 0


def _resolve_artifact(
    args: argparse.Namespace,
) -> "tuple[CompiledArtifact | None, Path | None]":
    """The warm-start artifact for this extract run, if any.

    ``--artifact`` loads the named file (stale → hard error, the
    caller asked for that exact artifact); otherwise the
    fingerprint-keyed cache is used — and refreshed when stale —
    unless ``--no-warm-start`` disables the whole mechanism.

    Returns ``(artifact, path)``; the path anchors the persistent
    parse-cache sidecar lookup.
    """
    if args.artifact is not None:
        return CompiledArtifact.load(args.artifact), args.artifact
    if args.no_warm_start:
        return None, None
    artifact, path, _ = cached_artifact()
    return artifact, path


def _resolve_parse_cache(
    args: argparse.Namespace,
    artifact_path: Path | None,
    dictionary_signature: str,
) -> "PersistentParseCache | None":
    """The persistent parse cache for this run, if any.

    ``--parse-cache`` binds (and creates) an explicit sidecar;
    otherwise a sidecar sitting next to the resolved artifact is
    picked up automatically.  ``--no-parse-cache`` disables both. A
    stale or foreign sidecar silently degrades to an empty cache
    that the end-of-run save rewrites in place.
    """
    if args.no_parse_cache:
        return None
    if args.parse_cache is not None:
        path = args.parse_cache
    else:
        if artifact_path is None:
            return None
        path = sidecar_path(artifact_path)
        if not path.exists():
            return None
    cache, loaded = PersistentParseCache.load_or_create(
        path, dictionary_signature
    )
    if loaded and len(cache):
        print(f"parse cache: {len(cache)} cached parses from {path}")
    return cache


def _build_engine(
    args: argparse.Namespace,
) -> tuple[
    CompiledArtifact | None, RecordExtractor, PersistentParseCache | None
]:
    """The artifact, the extractor built from it, and the parse store
    for an ``extract`` or ``serve`` run."""
    artifact, artifact_path = _resolve_artifact(args)
    if artifact is not None:
        extractor = artifact.make_extractor(
            parse_budget=args.parse_budget
        )
    else:
        extractor = RecordExtractor(parse_budget=args.parse_budget)
    parse_cache = _resolve_parse_cache(
        args,
        artifact_path,
        extractor.numeric.parser.dictionary.signature(),
    )
    return artifact, extractor, parse_cache


def _save_parse_cache(parse_cache: PersistentParseCache | None) -> None:
    """Save the sidecar when the run added parses to it."""
    if parse_cache is not None and parse_cache.dirty:
        added = parse_cache.added
        parse_cache.save()
        print(
            f"parse cache: +{added} new parses -> {parse_cache.path}"
        )


def _cmd_extract(args: argparse.Namespace) -> int:
    records = list(load_records(args.input))
    artifact, extractor, parse_cache = _build_engine(args)
    if args.gold is None and args.models is not None:
        loaded = extractor.load_models(args.models)
        print(f"loaded {loaded} categorical models from {args.models}")
    if args.gold is not None:
        golds_by_id = {
            g.patient_id: g
            for g in (
                GoldAnnotations.from_dict(d)
                for d in json.loads(args.gold.read_text())
            )
        }
        paired = [
            (r, golds_by_id[r.patient_id])
            for r in records
            if r.patient_id in golds_by_id
        ]
        extractor.train_categorical(
            [r for r, _ in paired], [g for _, g in paired]
        )
        if args.models is not None:
            extractor.save_models(args.models)
            print(f"saved categorical models to {args.models}")
    run_id = args.resume or args.run_id
    journal = (
        Journal(str(args.db) + f".{run_id}.journal")
        if run_id
        else None
    )
    fault_plan = (
        FaultPlan.parse(args.inject_faults)
        if args.inject_faults
        else None
    )
    tracer = Tracer() if args.trace is not None else None
    runner = ResilientCorpusRunner(
        extractor,
        workers=args.workers,
        chunk_size=args.chunk_size,
        tracer=tracer,
        policy=RetryPolicy(max_attempts=args.retries),
        journal=journal,
        fault_plan=fault_plan,
        resume=args.resume is not None,
        run_id=run_id or "",
        artifact=artifact,
        parse_cache=parse_cache,
        profile_stages=args.profile_stages,
    )
    results = runner.run(records)
    _save_parse_cache(parse_cache)
    # The store is only opened once the run survived end to end; an
    # interrupted run leaves nothing behind but its journal.
    store = ResultStore(args.db)
    store.store_many(results)
    if runner.quarantine:
        store.save_quarantine(runner.quarantine, run_id=run_id or "")
        for entry in runner.quarantine:
            print(
                f"quarantined record {entry.record_id} "
                f"(index {entry.record_index}): {entry.error_type} "
                f"after {entry.attempts} attempts",
                file=sys.stderr,
            )
    if tracer is not None:
        manifest = build_manifest(
            tracer,
            config={
                "workers": args.workers,
                "chunk_size": args.chunk_size,
                "parse_budget_s": args.parse_budget,
                "records": len(records),
                "categorical_models": sorted(extractor.categorical),
            },
            dictionary_signature=(
                extractor.numeric.parser.dictionary.signature()
            ),
            model_fingerprints={
                name: model_fingerprint(classifier.to_dict()["tree"])
                for name, classifier in sorted(
                    extractor.categorical.items()
                )
            },
            parser_stats=runner.engine_stats.get("parser", {}),
            stage_stats=runner.stats()["stages"],
        )
        written = tracer.write_jsonl(args.trace, manifest)
        print(
            f"traced {written} records -> {args.trace} "
            f"(config {manifest['config_hash']}, dictionary "
            f"{manifest['dictionary_signature']})"
        )
    if args.csv is not None:
        store.export_csv(args.csv)
        print(f"exported CSV to {args.csv}")
    # Flush the WAL into the main database file: consumers (and the
    # resume test's byte-for-byte comparison) read the file directly.
    store.close()
    filled = sum(
        1 for r in results for v in r.numeric.values() if v is not None
    )
    print(
        f"extracted {len(results)} records -> {args.db} "
        f"({filled} numeric cells, categorical "
        f"{'on' if extractor.categorical else 'off'})"
    )
    if args.stats:
        stats = runner.stats()
        print(
            f"throughput: {stats['records_per_sec']:.2f} records/s "
            f"({stats['records']} records in "
            f"{stats['extract_seconds']:.2f}s, "
            f"workers={stats['workers']})"
        )
        print(
            f"parse cache: {stats['linkage_cache_hit_rate']:.1%} hit "
            f"rate; prune ratio: {stats['prune_ratio']:.1%}; "
            f"parse timeouts: {stats['parse_timeouts']}"
        )
        print(
            f"persistent parse cache: "
            f"{'on' if stats['persistent_parse_cache'] else 'off'}; "
            f"{stats['persistent_parse_hits']} hits, "
            f"{stats['persistent_parse_misses']} misses "
            f"({stats['persistent_parse_hit_rate']:.1%} hit rate)"
        )
        print(f"parser: {stats['match_bitset_hits']} candidates tried")
        print(
            f"warm start: {'on' if stats['warm_start'] else 'off'}; "
            f"worker init: {stats['worker_init_seconds']:.3f}s over "
            f"{stats['workers_initialized']} workers"
        )
        print(
            f"resilience: {stats['retries']} retries, "
            f"{stats['bisections']} bisections, "
            f"{stats['quarantined']} quarantined, "
            f"{stats['requeued_chunks']} requeued chunks, "
            f"{stats['pool_rebuilds']} pool rebuilds, "
            f"{stats['resumed_chunks']} chunks resumed from journal"
        )
        stages = stats.get("stages", {})
        seconds = stages.get("seconds", {})
        if seconds:
            counts = stages.get("counts", {})
            total = sum(seconds.values())
            print("stage profile (exclusive wall time):")
            for name in sorted(
                seconds, key=seconds.__getitem__, reverse=True
            ):
                share = seconds[name] / total if total else 0.0
                print(
                    f"  {name:<14} {seconds[name]:8.3f}s "
                    f"{share:6.1%}  x{counts.get(name, 0)}"
                )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    artifact, extractor, parse_cache = _build_engine(args)
    if args.models is not None:
        loaded = extractor.load_models(args.models)
        print(f"loaded {loaded} categorical models from {args.models}")
    config = ServiceConfig(
        socket_path=str(args.socket) if args.socket else None,
        host=args.host,
        port=args.port,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        retry_after_s=args.retry_after,
        default_deadline_s=args.deadline,
        shards=args.shards,
        store_path=str(args.db) if args.db else None,
        run_id=args.run_id,
    )
    fault_plan = (
        FaultPlan.parse(args.inject_faults)
        if args.inject_faults
        else None
    )
    service = ExtractionService(
        extractor,
        config=config,
        artifact=artifact,
        policy=RetryPolicy(max_attempts=args.retries),
        fault_plan=fault_plan,
        parse_cache=parse_cache,
    )

    def _drain(signum: int, frame: object) -> None:
        print("drain requested, finishing accepted work...",
              file=sys.stderr)
        service.shutdown()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    address = service.start()
    if isinstance(address, str):
        shown = address
        bound = {"socket": address}
    else:
        shown = f"{address[0]}:{address[1]}"
        bound = {"host": address[0], "port": address[1]}
    if args.ready_file is not None:
        args.ready_file.write_text(json.dumps(bound))
    print(
        f"serving on {shown} "
        f"(warm start: {'on' if artifact is not None else 'off'}, "
        f"queue {config.max_queue}, batch {config.max_batch})",
        flush=True,
    )
    if config.shards > 1 or config.store_path is not None:
        store = config.store_path or "none"
        print(
            f"shards: {config.shards} (partitioned store: {store})",
            flush=True,
        )
    # Joining in slices keeps the main thread responsive to the
    # SIGTERM/SIGINT drain handlers above.
    while service.is_running():
        service.join(timeout=0.2)
    stats = service.stats()
    print(
        f"drained: {stats['completed']} completed, "
        f"{stats['quarantined']} quarantined, "
        f"{stats['rejected_overload']} shed, "
        f"{stats['deadline_expired']} expired over "
        f"{stats['batches']} batches"
    )
    if service.merge_summary is not None:
        merged = service.merge_summary
        print(
            f"merged {merged['partitions']} partitions -> "
            f"{config.store_path} ({merged['results']} results, "
            f"{merged['quarantined']} quarantined)"
        )
    _save_parse_cache(parse_cache)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    client = ServiceClient(
        socket_path=str(args.socket) if args.socket else None,
        host=args.host,
        port=args.port,
        timeout=args.timeout,
    )
    with client:
        if args.health:
            print(json.dumps(client.health(), indent=1,
                             sort_keys=True))
            return 0
        if args.stats:
            print(json.dumps(client.stats(), indent=1,
                             sort_keys=True))
            return 0
        if args.shutdown:
            client.shutdown()
            print("service draining")
            return 0
        if args.input is None or args.db is None:
            print(
                "error: submit needs --input and --db "
                "(or one of --health/--stats/--shutdown)",
                file=sys.stderr,
            )
            return 2
        records = list(load_records(args.input))
        results, quarantined = client.extract_many(
            records, deadline_s=args.deadline
        )
    store = ResultStore(args.db)
    store.store_many(results)
    if quarantined:
        entries = [
            error["quarantine"]
            for _, error in quarantined
            if "quarantine" in error
        ]
        store.save_quarantine(entries, run_id=args.run_id or "")
        for entry in entries:
            print(
                f"quarantined record {entry['record_id']} "
                f"(index {entry['record_index']}): "
                f"{entry['error_type']} after "
                f"{entry['attempts']} attempts",
                file=sys.stderr,
            )
    store.close()
    print(
        f"submitted {len(records)} records -> {args.db} "
        f"({len(results)} extracted, {len(quarantined)} quarantined)"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if not args.file.exists():
        print(f"error: no such trace file: {args.file}",
              file=sys.stderr)
        return 2
    manifest, spans = read_jsonl(args.file)
    if args.record is None:
        if manifest is not None:
            config = manifest.get("config", {})
            print(
                f"manifest: config {manifest.get('config_hash', '?')} "
                f"dictionary {manifest.get('dictionary_signature', '?')} "
                f"workers={config.get('workers', '?')}"
            )
            for kind, stats in manifest.get(
                "timing_percentiles", {}
            ).items():
                print(
                    f"  {kind:16s} n={int(stats['count']):6d} "
                    f"p50={stats['p50_s'] * 1000:8.3f}ms "
                    f"p99={stats['p99_s'] * 1000:8.3f}ms"
                )
        print(f"{len(spans)} record span trees:")
        for root in spans:
            descendants = sum(1 for _ in root.walk()) - 1
            print(
                f"  {root.name:12s} {descendants:4d} spans "
                f"{root.duration * 1000:8.2f}ms"
            )
        return 0
    for root in spans:
        if root.name == args.record:
            print(root.render())
            return 0
    print(f"error: no record {args.record!r} in {args.file}",
          file=sys.stderr)
    return 2


def _cmd_parse(args: argparse.Namespace) -> int:
    document = analyze(args.sentence)
    tokens = document.tokens()
    words = [document.span_text(t).lower() for t in tokens]
    tags = [t.features.get("pos", "NN") for t in tokens]
    parser = LinkGrammarParser()
    try:
        linkages = parser.parse(words, tags)
    except ParseFailure as failure:
        print(f"no linkage: {failure.reason}")
        return 1
    shown = linkages if args.all else linkages[:1]
    for index, linkage in enumerate(shown):
        print(f"linkage {index + 1}/{len(linkages)} "
              f"(cost {linkage.cost}):")
        print(linkage.pretty())
        print()
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    document = analyze(args.text)
    for sentence in document.sentences():
        print(f"sentence: {document.span_text(sentence)!r}")
        for token in document.tokens(sentence):
            print(
                f"  {document.span_text(token):16s} "
                f"{token.features.get('pos', '?'):5s} "
                f"{token.features['kind'].value}"
            )
    for number in document.numbers():
        print(
            f"number: {document.span_text(number)!r} -> "
            f"{number.features.get('values', number.features['value'])}"
        )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if args.style_matrix:
        from repro.eval import render_style_table, run_style_matrix

        results = run_style_matrix(seed=args.seed)
        args.output.write_text(
            json.dumps(results, indent=1, sort_keys=True) + "\n"
        )
        print(render_style_table(results))
        print(f"wrote {args.output}")
        if args.seed != 42:
            print(
                "note: baseline gate applies to --seed 42 only",
                file=sys.stderr,
            )
            return 0
        status = 0
        if not results["baseline_match"]:
            print(
                "error: consistent-style accuracy deviates from the "
                "pinned baseline (see EVAL_styles.json)",
                file=sys.stderr,
            )
            status = 1
        if args.floors is not None:
            from repro.eval import check_floors, load_floors

            floor_violations = check_floors(
                results, load_floors(args.floors)
            )
            for violation in floor_violations:
                print(f"floor violation: {violation}", file=sys.stderr)
            if floor_violations:
                status = 1
            else:
                print(f"floors: all pass ({args.floors})")
        return status
    records, golds = paper_cohort(seed=args.seed)
    if args.experiment == "all":
        from repro.eval.report import full_report

        print(full_report(records, golds).render())
    elif args.experiment == "numeric":
        result = numeric_experiment(records, golds)
        for name, p, r in result.rows():
            print(f"{name:20s} P={p:.1%} R={r:.1%}")
    elif args.experiment == "table1":
        for name, (p, r) in table1_experiment(records, golds).items():
            print(f"{name:36s} P={p:.1%} R={r:.1%}")
    else:
        result = smoking_experiment(records, golds)
        print(result.summary())
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "compile": _cmd_compile,
    "extract": _cmd_extract,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "trace": _cmd_trace,
    "parse": _cmd_parse,
    "analyze": _cmd_analyze,
    "evaluate": _cmd_evaluate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InjectedInterrupt as interrupt:
        run_id = getattr(args, "resume", None) or getattr(
            args, "run_id", None
        )
        hint = (
            f"; resume with --resume {run_id}"
            if run_id
            else " (no --run-id, so no journal to resume from)"
        )
        print(f"interrupted: {interrupt}{hint}", file=sys.stderr)
        return 130
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
