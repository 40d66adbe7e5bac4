"""One benchmark run, from the root of a checkout.

    python3 perfbench/run.py --workload batch-mix --seed 1 --seconds 15 \\
        --trace 0

Builds what it needs from ``src/`` (the first run in a checkout also
compiles the artifact and warms the pristine parse-cache sidecar under
``.bench_build/perfbench/``), measures the workload for ``--seconds``,
checks the outputs, and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones in ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer ones from a traced run.  Exits 1
when an output check fails and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Workload name -> (module name, record stream).
WORKLOADS = {
    "batch-mix": ("batch", "mix"),
    "batch-consistent": ("batch", "consistent"),
    "serve-mix": ("serving", "mix"),
}
#: Below this the extractors are broken, not merely imprecise.
ACCURACY_FLOOR = 0.9
#: Largest allowed gap between wall time and self + unattributed time.
RECONCILE_TOLERANCE = 0.01


def log(message: str) -> None:
    print(message, flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def declared_metrics(traced: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric["unit"]
        for metric in spec["per_layer" if traced else "end_to_end"]
    }


def main(argv) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    declared = declared_metrics(bool(args.trace))

    import importlib

    import stack

    build_dir = ROOT / stack.BUILD_DIR
    os.environ["REPRO_ARTIFACT_CACHE"] = str(build_dir / "artifact-cache")
    module_name, stream = WORKLOADS[args.workload]
    module = importlib.import_module(module_name)
    built = stack.ensure_built(ROOT)
    work = build_dir / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = SimpleNamespace(root=ROOT, bench=BENCH, built=built, work=work)
    try:
        outcome = module.run(
            ctx, stream, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, extras, problems = (
        outcome.metrics, outcome.extras, outcome.problems
    )
    attempted, failed = outcome.attempted, outcome.failed
    if not args.trace and metrics["accuracy"] < ACCURACY_FLOOR:
        problems.append(
            f"accuracy {metrics['accuracy']:.4f} < {ACCURACY_FLOOR}"
        )
    if args.trace and metrics["trace.reconcile_gap"] > RECONCILE_TOLERANCE:
        problems.append(
            f"self times miss wall time by "
            f"{metrics['trace.reconcile_gap']:.2%}"
        )
    missing = sorted(set(declared) - set(metrics))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    extras["error_rate"] = (failed / attempted, "share")
    for line in outcome.log:
        log(line)
    for name, (value, unit) in sorted(extras.items()):
        log(f"  {name} = {value:.6g} {unit}")
    for problem in problems:
        log(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in declared.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
