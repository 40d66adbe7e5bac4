"""Engine instrumentation: monotonic timers and counters.

Every layer of the batch engine — the parser's pruning pass, the
document/linkage caches, the corpus runner — reports into plain nested
dicts of numbers so that worker processes can ship deltas back to the
parent.  Two shapes appear:

* a :class:`Metrics` object holds one process's flat ``counters``
  (ints), ``timers`` (seconds, floats) and ``gauges``;
* free functions :func:`merge_stats` / :func:`diff_stats` operate on
  arbitrary nested dicts whose leaves are numbers, which is what the
  extractor-level ``counters()`` snapshots look like.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator


class Metrics:
    """Flat counter, timer and gauge registry."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.timers: dict[str, float] = {}
        self.gauges: dict[str, float] = {}

    # ----------------------------------------------------------- record

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def add_time(self, name: str, seconds: float) -> None:
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    def gauge(self, name: str, value: float) -> None:
        """Record a point-in-time level (cache size, init cost).

        Unlike counters and timers, gauges are not additive: setting
        overwrites.
        """
        self.gauges[name] = value

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        """Accumulate the wall-clock of the ``with`` body into *name*."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - started)

    # ------------------------------------------------------------ query

    def rate(self, counter: str, timer: str) -> float:
        """counter / timer, 0.0 when the timer has not run."""
        elapsed = self.timers.get(timer, 0.0)
        if elapsed <= 0.0:
            return 0.0
        return self.counters.get(counter, 0) / elapsed


def guarded_ratio(
    numerator: float,
    denominator: float,
    floor: float = 1e-6,
) -> float | None:
    """``numerator / denominator``, or ``None`` below the noise floor.

    Speedup ratios against a near-zero denominator are numerically
    meaningless (a fully-cached lane can finish in microseconds, and
    clamping the denominator just manufactures an absurd number — a
    benchmark once reported a 238-million-fold "speedup" this way).
    Returning ``None`` keeps the JSON artifact honest: consumers see
    "too fast to compare" instead of garbage.
    """
    if denominator < floor:
        return None
    return numerator / denominator


# ------------------------------------------------- nested stat dicts

def merge_stats(
    into: dict[str, Any], other: dict[str, Any]
) -> dict[str, Any]:
    """Recursively add *other*'s numeric leaves into *into* (in place)."""
    for key, value in other.items():
        if isinstance(value, dict):
            merge_stats(into.setdefault(key, {}), value)
        elif isinstance(value, (int, float)):
            into[key] = into.get(key, 0) + value
        else:
            into.setdefault(key, value)
    return into


def diff_stats(
    after: dict[str, Any], before: dict[str, Any]
) -> dict[str, Any]:
    """Recursive ``after - before`` over numeric leaves.

    Used by pool workers to report only the work done for one chunk:
    snapshot the extractor's cumulative counters before and after, and
    ship the difference.
    """
    out: dict[str, Any] = {}
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = diff_stats(value, before.get(key, {}))
        elif isinstance(value, (int, float)):
            out[key] = value - before.get(key, 0)
        else:
            out[key] = value
    return out
