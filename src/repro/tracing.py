"""One instrumentation layer: spans, stage timing, span trees, manifests.

Every instrumented step of the engine is a span, opened with
:func:`span`::

    from repro import tracing

    with tracing.span("sentence", text, attribute="pulse"):
        ...
        tracing.annotate(method="linkage", distance=1.5)

A :class:`Tracer` keeps one stack of open spans and records, for every
span kind, **exclusive** wall time and an entry count: entering a
nested span suspends the clock of the enclosing one, so the per-kind
seconds of a record sum to the wall time of its ``record`` span.
Those totals are what ``--profile-stages`` prints.

A tracer also records span trees — one root per record, mirroring the
extraction control flow (``record`` → ``section`` → ``attribute`` →
``sentence`` → ``association`` → ``parse``, plus ``lookup``,
``classification`` and the runner's recovery events) — unless it is a
:class:`StageTimer`, which keeps the totals only.  The pipeline's
phases (:data:`TIMING_KINDS`: ``tokenize``, ``split``, ``pos``,
``number``, ``numeric``, ``term-scan``, ``term-assign``,
``categorical``) are timed like any span but never enter a tree; a
span opened inside one hangs off the nearest enclosing tree span.

The active tracer is process-global (pool workers activate their
own), set with :func:`activate` or scoped with :func:`activated`.
With none active, :func:`span` returns one shared no-op context after
a single global read, so instrumentation stays in the hot path at no
measurable cost; :func:`enabled` guards attributes that are costly to
build.  Observation never changes output.

A tracer ships to another process as :meth:`Tracer.to_dict` (stage
totals plus serialized trees) and is adopted there by
:meth:`Tracer.merge`.  :func:`build_manifest` fingerprints a traced
run (config hash, dictionary signature, model hashes, timing
percentiles) so two trace files compare like for like.

This module lives at the package root and imports nothing from
:mod:`repro`: the NLP scanner instruments its hot loop with it, and
:mod:`repro.runtime`'s package init transitively imports the NLP
pipeline, so a home under ``repro.runtime`` would create an import
cycle.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

#: Span kinds that are timed but never enter a span tree: the
#: pipeline's phases, as opposed to the decisions a trace explains.
TIMING_KINDS = frozenset(
    {
        "tokenize",
        "split",
        "pos",
        "number",
        "numeric",
        "term-scan",
        "term-assign",
        "categorical",
    }
)


@dataclass
class Span:
    """One timed step of the engine, with children."""

    kind: str
    name: str = ""
    start: float = 0.0  # seconds since the tracer's epoch
    duration: float = 0.0
    attributes: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": self.kind,
            "name": self.name,
            "start_s": round(self.start, 6),
            "duration_s": round(self.duration, 6),
        }
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        return cls(
            kind=data["kind"],
            name=data.get("name", ""),
            start=data.get("start_s", 0.0),
            duration=data.get("duration_s", 0.0),
            attributes=dict(data.get("attributes", {})),
            children=[
                cls.from_dict(c) for c in data.get("children", [])
            ],
        )

    def render(self, indent: str = "") -> str:
        """Readable one-span-per-line tree dump."""
        attrs = " ".join(
            f"{key}={value!r}"
            for key, value in sorted(self.attributes.items())
        )
        label = f" {self.name!r}" if self.name else ""
        line = (
            f"{indent}{self.kind}{label} "
            f"[{self.duration * 1000:.2f}ms]"
        )
        if attrs:
            line += f" {attrs}"
        lines = [line]
        lines.extend(
            child.render(indent + "  ") for child in self.children
        )
        return "\n".join(lines)


class _Noop:
    """The shared ``with`` target :func:`span` returns when off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        return False


_NOOP = _Noop()


class _Open:
    """One span on a tracer's stack for the length of a ``with``."""

    __slots__ = ("_tracer", "_kind", "_name", "_attributes")

    def __init__(
        self,
        tracer: "Tracer",
        kind: str,
        name: str,
        attributes: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self._kind = kind
        self._name = name
        self._attributes = attributes

    def __enter__(self) -> Span | None:
        return self._tracer._push(
            self._kind, self._name, self._attributes
        )

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self._tracer._pop()
        return False


class Tracer:
    """Stage totals for every span kind, and one span tree per record."""

    #: Whether spans also build trees (see :class:`StageTimer`).
    trees = True

    def __init__(self) -> None:
        self.roots: list[Span] = []
        #: Exclusive seconds and entry counts per span kind.
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        #: Open spans as (kind, tree span or None, start time).
        self._stack: list[tuple[str, Span | None, float]] = []
        #: The open tree spans, innermost last.
        self._open: list[Span] = []
        self._mark = 0.0
        self._epoch = time.perf_counter()

    # ---------------------------------------------------------- record

    def span(
        self, kind: str, name: str = "", **attributes: Any
    ) -> _Open:
        return _Open(self, kind, name, attributes)

    def _push(
        self, kind: str, name: str, attributes: dict[str, Any]
    ) -> Span | None:
        now = time.perf_counter()
        if self._stack:
            top = self._stack[-1][0]
            self.seconds[top] = (
                self.seconds.get(top, 0.0) + now - self._mark
            )
        self._mark = now
        self.counts[kind] = self.counts.get(kind, 0) + 1
        span = None
        if self.trees and kind not in TIMING_KINDS:
            span = Span(
                kind, name, start=now - self._epoch, attributes=attributes
            )
            self._adopt(span)
            self._open.append(span)
        self._stack.append((kind, span, now))
        return span

    def _pop(self) -> None:
        now = time.perf_counter()
        kind, span, started = self._stack.pop()
        self.seconds[kind] = (
            self.seconds.get(kind, 0.0) + now - self._mark
        )
        self._mark = now
        if span is not None:
            span.duration = now - started
            self._open.pop()

    def _adopt(self, span: Span) -> None:
        if self._open:
            self._open[-1].children.append(span)
        else:
            self.roots.append(span)

    def event(
        self, kind: str, name: str = "", **attributes: Any
    ) -> Span | None:
        """A zero-duration tree span (a point-in-time marker)."""
        if not self.trees:
            return None
        span = Span(
            kind,
            name,
            start=time.perf_counter() - self._epoch,
            attributes=attributes,
        )
        self._adopt(span)
        return span

    def annotate(self, **attributes: Any) -> None:
        """Attach attributes to the innermost open tree span."""
        if self._open:
            self._open[-1].attributes.update(attributes)

    # ------------------------------------------------ ship and restore

    def stages(self) -> dict[str, dict[str, Any]]:
        """Exclusive seconds and entry counts per span kind."""
        return {"seconds": dict(self.seconds), "counts": dict(self.counts)}

    def to_dict(self) -> dict[str, Any]:
        """Stage totals and serialized trees, to ship to :meth:`merge`."""
        return {
            **self.stages(),
            "spans": [root.to_dict() for root in self.roots],
        }

    def merge(self, delta: dict[str, Any]) -> None:
        """Adopt another tracer's :meth:`to_dict`: add its stage totals
        and append its trees."""
        for kind, seconds in delta["seconds"].items():
            self.seconds[kind] = self.seconds.get(kind, 0.0) + seconds
        for kind, count in delta["counts"].items():
            self.counts[kind] = self.counts.get(kind, 0) + count
        self.roots.extend(Span.from_dict(root) for root in delta["spans"])

    def checkpoint(self) -> tuple[int, dict[str, Any]]:
        """What :meth:`rollback` restores."""
        return len(self.roots), self.stages()

    def rollback(self, checkpoint: tuple[int, dict[str, Any]]) -> None:
        """Forget the trees and stage time recorded since *checkpoint*
        (a failed attempt that will be retried)."""
        roots, stages = checkpoint
        del self.roots[roots:]
        self.seconds = stages["seconds"]
        self.counts = stages["counts"]

    # --------------------------------------------------------- queries

    def percentiles(self) -> dict[str, dict[str, float]]:
        """Per-kind duration percentiles over every recorded span."""
        by_kind: dict[str, list[float]] = {}
        for root in self.roots:
            for span in root.walk():
                by_kind.setdefault(span.kind, []).append(
                    span.duration
                )
        out: dict[str, dict[str, float]] = {}
        for kind, durations in sorted(by_kind.items()):
            durations.sort()
            out[kind] = {
                "count": float(len(durations)),
                "total_s": round(sum(durations), 6),
                "p50_s": round(_quantile(durations, 0.50), 6),
                "p90_s": round(_quantile(durations, 0.90), 6),
                "p99_s": round(_quantile(durations, 0.99), 6),
            }
        return out

    # ------------------------------------------------------- serialize

    def to_jsonl(self, manifest: dict[str, Any] | None = None) -> str:
        """One manifest line (optional) then one line per span tree."""
        lines: list[str] = []
        if manifest is not None:
            lines.append(
                json.dumps(
                    {"type": "manifest", **manifest}, sort_keys=True
                )
            )
        lines.extend(
            json.dumps(
                {"type": "span", **root.to_dict()}, sort_keys=True
            )
            for root in self.roots
        )
        return "\n".join(lines) + "\n" if lines else ""

    def write_jsonl(
        self,
        path: str | Path,
        manifest: dict[str, Any] | None = None,
    ) -> int:
        """Write the trace; returns the number of span trees."""
        Path(path).write_text(self.to_jsonl(manifest))
        return len(self.roots)


class StageTimer(Tracer):
    """A tracer that keeps the stage totals and no span trees."""

    trees = False


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(q * len(sorted_values))
    )
    return sorted_values[index]


# ------------------------------------------------- active tracer state

_ACTIVE: Tracer | None = None


def current() -> Tracer | None:
    """The tracer instrumented code is reporting into right now."""
    return _ACTIVE


def enabled() -> bool:
    """True when span trees are being recorded (guard costly attrs)."""
    tracer = _ACTIVE
    return tracer is not None and tracer.trees


def activate(tracer: Tracer | None) -> Tracer | None:
    """Install *tracer* process-wide (``None``: nothing is recorded);
    returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


@contextmanager
def activated(tracer: Tracer | None) -> Iterator[Tracer | None]:
    """Scope *tracer* as the active tracer, restoring the previous."""
    previous = activate(tracer)
    try:
        yield tracer
    finally:
        activate(previous)


def span(kind: str, name: str = "", **attributes: Any) -> Any:
    """Open a span on the active tracer (a shared no-op when none)."""
    tracer = _ACTIVE
    if tracer is None:
        return _NOOP
    return _Open(tracer, kind, name, attributes)


def event(kind: str, name: str = "", **attributes: Any) -> None:
    """Record a point-in-time marker on the active tracer."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.event(kind, name, **attributes)


def annotate(**attributes: Any) -> None:
    """Attach attributes to the active tracer's innermost tree span."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.annotate(**attributes)


# ------------------------------------------------------- run manifest

def _hash(payload: Any) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def build_manifest(
    tracer: Tracer,
    config: dict[str, Any] | None = None,
    dictionary_signature: str | None = None,
    model_fingerprints: dict[str, str] | None = None,
    parser_stats: dict[str, Any] | None = None,
    stage_stats: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Fingerprint one traced run.

    The manifest makes two trace files comparable: same config hash +
    same dictionary signature + same model fingerprints means any
    output difference is a code change, not an input change.  The
    parser counters (candidates tried, persistent cache hits/misses,
    prune counts) record *how* the parses were produced, so a perf
    regression between two byte-identical runs is attributable.
    ``stage_stats`` (per-kind exclusive seconds and entry counts,
    present when the run profiled stages) localises such a regression
    to a pipeline phase.
    """
    config = dict(config or {})
    return {
        "config": config,
        "config_hash": _hash(config),
        "dictionary_signature": dictionary_signature or "",
        "model_fingerprints": dict(model_fingerprints or {}),
        "parser_stats": dict(parser_stats or {}),
        "stage_stats": dict(stage_stats or {}),
        "records": len(tracer.roots),
        "timing_percentiles": tracer.percentiles(),
    }


def model_fingerprint(tree: dict[str, Any]) -> str:
    """Stable hash of one serialized ID3 tree."""
    return _hash(tree)


def read_jsonl(
    path: str | Path,
) -> tuple[dict[str, Any] | None, list[Span]]:
    """Load a trace file back into (manifest, span trees)."""
    manifest: dict[str, Any] | None = None
    spans: list[Span] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        data = json.loads(line)
        if data.get("type") == "manifest":
            manifest = {
                k: v for k, v in data.items() if k != "type"
            }
        elif data.get("type") == "span":
            spans.append(
                Span.from_dict(
                    {k: v for k, v in data.items() if k != "type"}
                )
            )
    return manifest, spans
