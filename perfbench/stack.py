"""The production stack under test, and its one-time build.

The first run in a checkout compiles an artifact and warms a
parse-cache sidecar on the warm-up corpus (see ``workloads``), then
keeps both under ``.bench_build/perfbench/<source key>/``.  That
sidecar is the *pristine* starting state: every stack a run sets up
gets its own fresh copy, because ``repro extract`` and ``repro serve``
write new parses back, and a reused sidecar would let each run inherit
the previous run's parses.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from spans import clock, cpu_clock

import workloads

#: The CLI's default per-sentence parse budget.
PARSE_BUDGET = 10.0
BUILD_DIR = Path(".bench_build") / "perfbench"


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def source_key(root: Path) -> str:
    """Digest of the program and workload sources the build depends on."""
    digest = hashlib.sha256()
    bench = Path(__file__).resolve().parent
    files = sorted((root / "src").rglob("*")) + [
        bench / "workloads.py", bench / "stack.py",
    ]
    for path in files:
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@dataclass
class Built:
    directory: Path

    @property
    def artifact(self) -> Path:
        return self.directory / "artifact.pkl"

    @property
    def sidecar(self) -> Path:
        return self.directory / "warm.parsecache"

    @property
    def ready(self) -> bool:
        return (self.directory / "ready").exists()


def ensure_built(root: Path) -> Built:
    """The build for this source, made by a child process if missing.

    Building in a child leaves the measuring process in the same state
    whether or not this run was the one that built.
    """
    built = Built(root / BUILD_DIR / source_key(root))
    if not built.ready:
        subprocess.run(
            [sys.executable, __file__, str(built.directory)],
            cwd=root,
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            check=True,
        )
        if not built.ready:
            raise BenchError(f"build did not finish: {built.directory}")
    return built


def build(built: Built) -> None:
    """Compile the artifact and warm the pristine sidecar."""
    from repro.runtime.compiled import CompiledArtifact
    from repro.runtime.parsecache import PersistentParseCache
    from repro.runtime.resilience import ResilientCorpusRunner

    started = clock()
    staging = built.directory.with_name(
        f"{built.directory.name}.tmp{os.getpid()}"
    )
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    artifact = CompiledArtifact.build()
    artifact.save(staging / "artifact.pkl")
    extractor = artifact.make_extractor(parse_budget=PARSE_BUDGET)
    train = workloads.train_items()
    extractor.train_categorical(
        [item.record for item in train], [item.gold for item in train]
    )
    cache, _ = PersistentParseCache.load_or_create(
        staging / "warm.parsecache",
        extractor.numeric.parser.dictionary.signature(),
    )
    runner = ResilientCorpusRunner(
        extractor, artifact=artifact, parse_cache=cache
    )
    warm = workloads.warm_items()
    runner.run([item.record for item in warm])
    if runner.quarantine:
        raise BenchError(f"warm-up quarantined {len(runner.quarantine)}")
    cache.save()
    (staging / "ready").write_text(f"{len(cache)} parses\n")
    shutil.rmtree(built.directory, ignore_errors=True)
    os.replace(staging, built.directory)
    print(
        f"built artifact and warm sidecar ({len(cache)} parses over "
        f"{len(warm)} records) in {clock() - started:.1f}s",
        flush=True,
    )


@dataclass
class Stack:
    """One set-up extraction stack plus what setting it up cost."""

    extractor: object
    runner: object
    parse_cache: object
    timings: dict[str, float] = field(default_factory=dict)


def setup(built: Built, work: Path, index: int, train) -> Stack:
    """Compile from source, load, attach a fresh sidecar copy, train.

    The same steps as ``repro compile`` followed by a warm-started
    ``repro extract --gold``: build the artifact from source, load it
    back, load the parse-cache sidecar, build the extractor and train
    the ID3 models.  The timings are CPU seconds of this process.
    """
    from repro.runtime.compiled import CompiledArtifact
    from repro.runtime.parsecache import PersistentParseCache
    from repro.runtime.resilience import ResilientCorpusRunner

    t0 = cpu_clock()
    artifact_path = work / f"artifact-{index}.pkl"
    CompiledArtifact.build(fresh=True).save(artifact_path)
    t1 = cpu_clock()
    artifact = CompiledArtifact.load(artifact_path)
    t2 = cpu_clock()
    extractor = artifact.make_extractor(parse_budget=PARSE_BUDGET)
    sidecar = work / f"sidecar-{index}.parsecache"
    shutil.copyfile(built.sidecar, sidecar)
    cache, loaded = PersistentParseCache.load_or_create(
        sidecar, extractor.numeric.parser.dictionary.signature()
    )
    if not loaded:
        raise BenchError(f"pristine sidecar {built.sidecar} is stale")
    t3 = cpu_clock()
    extractor.train_categorical(
        [item.record for item in train], [item.gold for item in train]
    )
    runner = ResilientCorpusRunner(
        extractor, artifact=artifact, parse_cache=cache
    )
    t4 = cpu_clock()
    return Stack(
        extractor,
        runner,
        cache,
        {
            "build_s": t1 - t0,
            "load_s": t2 - t1,
            "sidecar_load_s": t3 - t2,
            "train_s": t4 - t3,
            "total_s": t4 - t0,
            "sidecar_entries": float(len(cache)),
        },
    )


if __name__ == "__main__":
    build(Built(Path(sys.argv[1])))
