"""In-memory spans, timing wrappers, and the arithmetic over them.

A span is one timed call into a layer: its name, start and end on the
monotonic clock, the span that was open on the same thread when it
began (its parent), and optional attributes.  Spans stay in memory
while the benchmark runs and are written out once at exit.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.  Over one thread, the self times of
every span plus the time no span covers add up to the wall time of the
window — :func:`reconcile` checks exactly that.

The clock is ``time.monotonic`` (``CLOCK_MONOTONIC`` on Linux), which is
shared by every process on the machine, so a server process and the
load generator can compare timestamps.

The gated throughput and set-up figures use CPU time instead
(:data:`cpu_clock`, :func:`process_cpu_s`).  On a virtual machine whose
host lends its CPUs to other guests, wall time stretches by however
long this guest waited for a CPU; its CPU time does not.  The program
under test is CPU-bound (CPU time is 99.7% of wall time on an idle
machine), so on an idle machine the two agree.  CPU time still grows
when the host slows the vCPU itself (a busy neighbour on the same
core); :func:`speed_probe` and :func:`full_speed` pick out the calls
made while it ran at full speed.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

clock = time.monotonic
#: CPU seconds of this process, every thread included.
cpu_clock = time.process_time
#: CPU seconds of the calling thread.
thread_cpu_clock = time.thread_time


#: A timed call ran at full speed when the probe right before it took at
#: most FAST_FACTOR times the FAST_PERCENTILE-th percentile of the run's
#: probe times.
FAST_PERCENTILE = 10.0
FAST_FACTOR = 1.25


def full_speed(
    samples: Sequence[tuple[float, float, bool]],
) -> tuple[list[float], float, float]:
    """The full-speed part of (probe s, cost s, heavy) samples.

    Returns the costs of the samples taken at full speed, their mean
    cost weighted to the run's mix, and the probe-time limit that chose
    them.  The mean is taken per stratum (heavy or not, such as records
    that did or did not reach the parser) and weighted by each
    stratum's share of *all* samples, so it does not swing with how
    many of the few heavy samples happened to run at full speed.  A
    stratum with no full-speed sample counts all of its samples.
    """
    limit = FAST_FACTOR * percentile(
        [probe for probe, _, _ in samples], FAST_PERCENTILE
    )
    fast = [cost for probe, cost, _ in samples if probe <= limit]
    mean = 0.0
    for heavy in (False, True):
        stratum = [
            (probe, cost) for probe, cost, kind in samples if kind == heavy
        ]
        if not stratum:
            continue
        kept = [cost for probe, cost in stratum if probe <= limit] or [
            cost for _, cost in stratum
        ]
        mean += statistics.fmean(kept) * len(stratum) / len(samples)
    return fast, mean, limit


def speed_probe() -> int:
    """A fixed slice of pure-Python work (tens of microseconds).

    Timed right before a measured call, it tells whether the vCPU was
    running at full speed at that moment.  It touches nothing of the
    program under test.
    """
    table: dict[str, int] = {}
    for number in range(300):
        key = str(number)
        table[key] = table.get(key, 0) + len(key)
    return len(table)


def process_cpu_s(pid: int) -> float:
    """CPU seconds another process's live threads have used so far.

    Sums the first field of each thread's ``/proc/<pid>/task/<tid>/
    schedstat`` (nanoseconds on the CPU), which is finer than the
    clock-tick counts in ``/proc/<pid>/stat``.  A thread that has
    exited no longer counts, so compare readings only across spans in
    which the process keeps its threads.
    """
    total_ns = 0
    tasks = f"/proc/{pid}/task"
    for tid in os.listdir(tasks):
        try:
            with open(f"{tasks}/{tid}/schedstat") as schedstat:
                total_ns += int(schedstat.read().split()[0])
        except FileNotFoundError:
            continue
    return total_ns / 1e9


#: Fewest samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: Index of the enclosing span in the same thread's list, or -1.
    parent: int = -1
    thread: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent,
                self.thread, self.attrs]

    @classmethod
    def from_list(cls, row: Sequence) -> "Span":
        name, start, end, parent, thread, attrs = row
        return cls(name, start, end, parent, thread, attrs)


class Recorder:
    """Collects spans from every thread that calls a wrapped function.

    Each thread appends to its own list, so no lock is taken on the hot
    path; parent indices refer to positions in that thread's list.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._threads: list[list[Span]] = []
        self._local = threading.local()

    def _state(self) -> tuple[list[Span], list[int], int]:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                spans: list[Span] = []
                self._threads.append(spans)
                thread = len(self._threads) - 1
            state = (spans, [], thread)
            self._local.state = state
        return state

    def wrap(
        self,
        name: str,
        function: Callable,
        describe: Callable[..., dict] | None = None,
    ) -> Callable:
        """*function* with every call recorded as a span named *name*.

        *describe*, when given, is called with the call's arguments and
        its dict is stored on the span.
        """

        @functools.wraps(function)
        def timed(*args, **kwargs):
            spans, stack, thread = self._state()
            index = len(spans)
            span = Span(
                name, clock(), 0.0, stack[-1] if stack else -1, thread,
                describe(*args, **kwargs) if describe else {},
            )
            spans.append(span)
            stack.append(index)
            try:
                return function(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()

        return timed

    def threads(self) -> list[list[Span]]:
        """Every thread's span list."""
        with self._lock:
            return [list(spans) for spans in self._threads]


class Patches:
    """Replaces attributes with wrapped versions and puts them back."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        describe: Callable[..., dict] | None = None,
    ) -> None:
        original = owner.__dict__[attribute]
        self._saved.append((owner, attribute, original))
        if isinstance(original, (staticmethod, classmethod)):
            wrapped = type(original)(
                self.recorder.wrap(name, original.__func__, describe)
            )
        else:
            wrapped = self.recorder.wrap(name, original, describe)
        setattr(owner, attribute, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def wrap_cost_s(samples: int = 20000) -> float:
    """Measured cost of one recorded span, in seconds.

    Times a wrapped no-op against the bare no-op on this machine; the
    traced run multiplies it by its span count to report its own
    overhead.
    """

    def noop():
        return None

    recorder = Recorder()
    wrapped = recorder.wrap("calibrate", noop)
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(samples):
            noop()
        bare = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(samples):
            wrapped()
        traced = time.perf_counter() - started
        best = min(best, (traced - bare) / samples)
    return max(best, 0.0)


# ----------------------------------------------------------------- math


def covered(intervals: Iterable[tuple[float, float]],
            start: float, end: float) -> float:
    """Length of [start, end] covered by the union of *intervals*."""
    clipped = sorted(
        (max(a, start), min(b, end))
        for a, b in intervals
        if b > start and a < end
    )
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part its children cover.

    *spans* is one thread's list: ``parent`` indexes into it.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration
        - covered(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]


def in_windows(span: Span, windows: Sequence[tuple[float, float]]) -> bool:
    return any(a <= span.start and span.end <= b for a, b in windows)


@dataclass
class LayerTotals:
    """Per-layer call counts and self seconds over some windows."""

    calls: dict[str, int] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    durations: dict[str, list[float]] = field(default_factory=dict)
    #: Window time no span covers.
    uncovered_s: float = 0.0
    wall_s: float = 0.0
    spans: int = 0


def layer_totals(
    threads: Sequence[Sequence[Span]],
    windows: Sequence[tuple[float, float]],
    only_threads: Iterable[int] | None = None,
) -> LayerTotals:
    """Sum self time by layer name for spans inside *windows*.

    ``uncovered_s`` is the window time not covered by any top-level
    span on the counted threads; with one counted thread,
    ``sum(self_s) + uncovered_s == wall_s``.
    """
    totals = LayerTotals()
    totals.wall_s = sum(b - a for a, b in windows)
    chosen = set(only_threads) if only_threads is not None else None
    tops: list[tuple[float, float]] = []
    for thread, spans in enumerate(threads):
        if chosen is not None and thread not in chosen:
            continue
        own = self_times(spans)
        for index, span in enumerate(spans):
            if not in_windows(span, windows):
                continue
            totals.spans += 1
            totals.calls[span.name] = totals.calls.get(span.name, 0) + 1
            totals.self_s[span.name] = (
                totals.self_s.get(span.name, 0.0) + own[index]
            )
            totals.durations.setdefault(span.name, []).append(
                span.duration
            )
            if span.parent < 0 or not in_windows(
                spans[span.parent], windows
            ):
                tops.append((span.start, span.end))
    totals.uncovered_s = totals.wall_s - sum(
        covered(tops, a, b) for a, b in windows
    )
    return totals


def reconcile(totals: LayerTotals) -> float:
    """Relative gap between the wall time and self + uncovered time."""
    if totals.wall_s <= 0:
        return 0.0
    accounted = sum(totals.self_s.values()) + totals.uncovered_s
    return abs(accounted - totals.wall_s) / totals.wall_s


# ----------------------------------------------------------- percentiles


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile (0 < q <= 100)."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> float | None:
    """The highest percentile with at least *min_beyond* samples past it.

    Of n samples, the value at rank ``n - min_beyond`` has exactly
    *min_beyond* beyond it, so the percentile is ``100 (n - m) / n``;
    ``None`` when there are too few samples for any tail.
    """
    if n <= min_beyond:
        return None
    return 100.0 * (n - min_beyond) / n


def tail(samples: Sequence[float], q: float,
         min_beyond: int = MIN_BEYOND) -> tuple[float, float]:
    """(percentile used, value): *q*, lowered to what the sample supports.

    Raises ``ValueError`` when no tail percentile is supported.
    """
    supported = tail_percentile(len(samples), min_beyond)
    if supported is None:
        raise ValueError(
            f"{len(samples)} samples support no tail percentile"
        )
    used = min(q, supported)
    return used, percentile(samples, used)
