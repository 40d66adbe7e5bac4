"""Bounded caches for the extraction hot path.

Two caches feed the batch engine:

* :class:`DocumentCache` — section text → processed
  :class:`~repro.nlp.document.Document`.  Several attributes read the
  same section (the eight numeric attributes span three sections; the
  term and categorical extractors revisit them), so one record used to
  run the NLP pipeline on identical text up to eight times.
* :class:`LinkageCache` — sentence shape → parse outcome: a bounded
  in-memory front over one
  :class:`~repro.runtime.parsecache.PersistentParseCache` store, in
  memory or sidecar-backed.  Keys are built from
  :meth:`Dictionary.resolution_key
  <repro.linkgrammar.dictionary.Dictionary.resolution_key>`, the
  equivalence class of the dictionary lookup, so two sentences that
  differ only in values ("pulse of 84" / "pulse of 96") share one
  parse: the link structure, costs, and token map depend only on the
  disjunct sequence, and the word list is rebuilt per hit.  It
  survives across records — consistent dictation styles repeat
  sentence shapes across a whole cohort.

Both caches expose additive hit/miss/eviction counters that the
corpus runner merges across worker processes.  Caches are not
thread-safe.  A parse store refuses a dictionary other than the one
it holds parses for, which includes a dictionary changed by
``Dictionary.add`` after the first parse.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Sequence, Sized

from repro import tracing
from repro.errors import ParseFailure, ParseTimeout
from repro.linkgrammar.dictionary import LEFT_WALL
from repro.linkgrammar.linkage import Link, Linkage
from repro.linkgrammar.parser import LinkGrammarParser
from repro.nlp.document import Document
from repro.nlp.pipeline import Pipeline, default_pipeline
from repro.runtime.parsecache import (
    OUTCOME_FAIL,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    Outcome,
    PersistentParseCache,
    parse_key,
)

_MISSING = object()


class _Counted(Sized):
    """Additive hit/miss/eviction counters and the stats built on them."""

    def __init__(self, maxsize: int, name: str) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def counters(self) -> dict[str, int]:
        """Additive counters (safe to merge across processes)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, Any]:
        """Human-facing snapshot (includes derived, non-additive fields)."""
        return {
            "name": self.name,
            "size": len(self),
            "maxsize": self.maxsize,
            "hit_rate": round(self.hit_rate(), 4),
            **self.counters(),
        }


class LRUCache(_Counted):
    """A bounded mapping with move-to-front reads and counters."""

    def __init__(self, maxsize: int = 1024, name: str = "cache") -> None:
        super().__init__(maxsize, name)
        self._data: OrderedDict[Hashable, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        found = self._data.get(key, _MISSING)
        if found is _MISSING:
            self.misses += 1
            return default
        self.hits += 1
        self._data.move_to_end(key)
        return found

    def put(self, key: Hashable, value: Any) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()


#: Documents the front of a :class:`DocumentCache` holds: the few
#: sections the record in hand reads, each several times.
DOCUMENT_FRONT_SIZE = 32


class DocumentCache(_Counted):
    """Shared ``section text → Document`` cache over one pipeline.

    A fixed-size 2Q cache (Johnson & Shasha, VLDB 1994): a text's
    first scan goes to a FIFO *front* that serves the record in hand,
    and its key to a *ghost* FIFO of the last ``4 × maxsize`` first
    misses; a text that misses again while the ghost holds its key is
    admitted into the *main* LRU of ``maxsize`` documents.  ``hits``
    counts reads either tier served, ``misses`` counts scans, and
    ``evictions`` counts documents pushed out of main.  Documents are
    only read once annotated; every consumer must treat them as frozen.
    """

    def __init__(
        self,
        pipeline: Pipeline | None = None,
        maxsize: int = 512,
    ) -> None:
        super().__init__(maxsize, "documents")
        self.pipeline = pipeline or default_pipeline()
        self._front: OrderedDict[str, Document] = OrderedDict()
        self._ghost: OrderedDict[str, None] = OrderedDict()
        self._main: OrderedDict[str, Document] = OrderedDict()

    def __len__(self) -> int:
        return len(self._front) + len(self._main)

    def get(self, text: str) -> Document:
        document = self._front.get(text)
        if document is None:
            document = self._main.get(text)
            if document is None:
                return self._scan(text)
            self._main.move_to_end(text)
        self.hits += 1
        return document

    def _scan(self, text: str) -> Document:
        """Scan a text neither tier holds; file it by its history."""
        self.misses += 1
        document = self.pipeline.process_text(text)
        if text in self._ghost:
            del self._ghost[text]
            self._main[text] = document
            if len(self._main) > self.maxsize:
                self._main.popitem(last=False)
                self.evictions += 1
            return document
        self._front[text] = document
        if len(self._front) > DOCUMENT_FRONT_SIZE:
            self._front.popitem(last=False)
        self._ghost[text] = None
        if len(self._ghost) > 4 * self.maxsize:
            self._ghost.popitem(last=False)
        return document

    def clear(self) -> None:
        self._front.clear()
        self._ghost.clear()
        self._main.clear()


#: Entries the in-memory front of a :class:`LinkageCache` holds.  A
#: traced batch-mix run reached about 213 distinct sentence shapes.
FRONT_SIZE = 4096


def _front_entry(outcome: Outcome) -> Outcome:
    """The front's form of a store outcome.

    ``fail`` and ``timeout`` outcomes are held as they are.  An ``ok``
    outcome gets its links rebuilt and a fresh distance memo: memos
    hold Linkage-derived state that must never leave the process.
    """
    if outcome[0] != OUTCOME_OK:
        return outcome
    _, links, cost, token_map = outcome
    return (
        OUTCOME_OK,
        tuple(Link(left, right, label) for left, right, label in links),
        cost,
        token_map,
        {},
    )


class LinkageCache:
    """Cross-record parse cache: an in-memory front over a parse store.

    Both layers use the store's key (see
    :func:`~repro.runtime.parsecache.parse_key`), so sentences that
    differ only in values share one parse.  A front miss asks the
    :class:`~repro.runtime.parsecache.PersistentParseCache`; a store
    miss parses and records the outcome in both layers, so a
    sidecar-backed store accumulates the corpus' sentence shapes
    append-only.  Every hit rebuilds a fresh :class:`Linkage` with the
    caller's actual words, so cached values are never aliased or
    mutated.  :meth:`clear` empties the front only.
    """

    def __init__(self, store: PersistentParseCache | None = None) -> None:
        self._lru = LRUCache(FRONT_SIZE, name="linkages")
        #: The caller's store (sidecar-backed or not), else a fresh
        #: in-memory one; the corpus runner may swap in its own before
        #: the first lookup.
        self.store = store if store is not None else PersistentParseCache()

    def lookup(
        self,
        parser: LinkGrammarParser,
        words: Sequence[str],
        tags: Sequence[str] | None = None,
    ) -> Linkage | None:
        """Cheapest linkage of *words*, or ``None`` on parse failure.

        *words* are used exactly as given (callers lowercase them
        first, matching the extraction pipeline's convention).
        """
        store = self.store
        signature = parser.dictionary.signature()
        if signature != store.dictionary_signature:
            store.bind(signature)
        key = parse_key(parser, words, tags)
        entry = self._lru.get(key)
        if entry is None:
            outcome = store.get(key)
            if outcome is not None:
                parser.stats.persistent_hits += 1
                entry = _front_entry(outcome)
                self._lru.put(key, entry)
            else:
                parser.stats.persistent_misses += 1
        if tracing.current() is None:
            return self._resolve(parser, words, tags, key, entry)
        with tracing.span(
            "parse",
            " ".join(words),
            cache_hit=entry is not None,
        ):
            linkage = self._resolve(parser, words, tags, key, entry)
            tracing.annotate(
                outcome="linked" if linkage is not None else "failed"
            )
            return linkage

    def _resolve(
        self,
        parser: LinkGrammarParser,
        words: Sequence[str],
        tags: Sequence[str] | None,
        key: tuple,
        entry: Outcome | None,
    ) -> Linkage | None:
        if entry is None:
            return self._parse(parser, words, tags, key)
        tag = entry[0]
        if tag == OUTCOME_FAIL:
            return None
        if tag == OUTCOME_TIMEOUT:
            tracing.annotate(timeout=True)
            return None
        _, links, cost, token_map, memo = entry
        return Linkage(
            words=[LEFT_WALL] + [words[i] for i in token_map[1:]],
            links=list(links),
            cost=cost,
            token_map=list(token_map),
            distance_cache=memo,
        )

    def _parse(
        self,
        parser: LinkGrammarParser,
        words: Sequence[str],
        tags: Sequence[str] | None,
        key: tuple,
    ) -> Linkage | None:
        """Parse a sentence neither layer knows; record the outcome."""
        try:
            linkage = parser.parse_one(
                list(words), list(tags) if tags else None
            )
        except ParseTimeout as timeout:
            tracing.event(
                "parse-timeout", " ".join(words), budget_s=timeout.budget
            )
            outcome: Outcome = (OUTCOME_TIMEOUT, parser.time_budget)
            self.store.put(key, outcome)
            self._lru.put(key, outcome)
            return None
        except ParseFailure:
            outcome = (OUTCOME_FAIL,)
            self.store.put(key, outcome)
            self._lru.put(key, outcome)
            return None
        links = tuple(linkage.links)
        token_map = tuple(linkage.token_map)
        self.store.put(
            key,
            (
                OUTCOME_OK,
                tuple((link.left, link.right, link.label) for link in links),
                linkage.cost,
                token_map,
            ),
        )
        # The distance memo rides on the front entry: every hit of
        # this shape shares it, so the association layer runs its
        # Dijkstra once per (sentence shape, source) per process.
        memo: dict = {}
        linkage.distance_cache = memo
        self._lru.put(
            key, (OUTCOME_OK, links, linkage.cost, token_map, memo)
        )
        return linkage

    def clear(self) -> None:
        self._lru.clear()

    def counters(self) -> dict[str, int]:
        return self._lru.counters()

    def stats(self) -> dict[str, Any]:
        return {**self._lru.stats(), "store": self.store.stats()}


class ExtractionCaches:
    """The shared cache set one extraction engine hands its extractors."""

    def __init__(self, pipeline: Pipeline | None = None) -> None:
        self.documents = DocumentCache(pipeline)
        self.linkages = LinkageCache()

    def clear(self) -> None:
        self.documents.clear()
        self.linkages.clear()

    def counters(self) -> dict[str, dict[str, int]]:
        return {
            "documents": self.documents.counters(),
            "linkages": self.linkages.counters(),
        }

    def stats(self) -> dict[str, Any]:
        return {
            "documents": self.documents.stats(),
            "linkages": self.linkages.stats(),
        }
