"""Start ``repro serve`` with the traced run's timing wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py --spans OUT serve ARGS...``
with ``src`` on ``PYTHONPATH``.  The wrappers go on the layers listed
in ``layers.py`` before the CLI builds the stack; spans stay in memory
and are written to OUT as JSON when the server has drained.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from spans import Patches, Recorder, wrap_cost_s  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[1])
    from repro import cli
    from repro.runtime.service import ExtractionService

    recorder = Recorder()
    patches = Patches(recorder)
    layers.install(patches, service=True)
    services: list = []
    original_init = ExtractionService.__init__

    def remember(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        services.append(self)

    ExtractionService.__init__ = remember
    try:
        code = cli.main(argv[2:])
    finally:
        ExtractionService.__init__ = original_init
        patches.restore()
    counters = {}
    if services and services[0].runner is not None:
        counters = layers.engine_counters(services[0].runner.extractor)
    out.write_text(json.dumps({
        "threads": [
            [span.to_list() for span in spans]
            for spans in recorder.threads()
        ],
        "counters": counters,
        "wrap_cost_s": wrap_cost_s(),
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
