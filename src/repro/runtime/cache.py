"""Bounded LRU caches for the extraction hot path.

Two cache layers feed the batch engine:

* :class:`DocumentCache` — section text → processed
  :class:`~repro.nlp.document.Document`.  Several attributes read the
  same section (the eight numeric attributes span three sections; the
  term and categorical extractors revisit them), so one record used to
  run the NLP pipeline on identical text up to eight times.
* :class:`LinkageCache` — token-sequence signature → parse outcome.
  Keys are built from :meth:`Dictionary.resolution_key
  <repro.linkgrammar.dictionary.Dictionary.resolution_key>`, the
  equivalence class of the dictionary lookup, so two sentences that
  differ only in values ("pulse of 84" / "pulse of 96") share one
  parse: the link structure, costs, and token map depend only on the
  disjunct sequence, and the word list is rebuilt per hit.  Unlike the
  old per-record cache this one survives across records — consistent
  dictation styles repeat sentence shapes across a whole cohort.

Both caches are bounded (LRU eviction) and expose additive
hit/miss/eviction counters that the corpus runner merges across
worker processes.  Caches are not thread-safe and assume the shared
:class:`Dictionary` is not mutated after the first parse; call
:meth:`LinkageCache.clear` after ``Dictionary.add``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Sequence

from repro.errors import ParseFailure, ParseTimeout
from repro.linkgrammar.dictionary import LEFT_WALL
from repro.linkgrammar.linkage import Link, Linkage
from repro.linkgrammar.parser import _STRIP_TOKENS, LinkGrammarParser
from repro.nlp.document import Document
from repro.nlp.pipeline import Pipeline, default_pipeline
from repro.runtime import parsecache, tracing
from repro.runtime.parsecache import PersistentParseCache

_MISSING = object()


class LRUCache:
    """A bounded mapping with move-to-front reads and counters."""

    def __init__(self, maxsize: int = 1024, name: str = "cache") -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0
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

    def resize(self, maxsize: int) -> None:
        """Change the capacity, evicting LRU entries if shrinking."""
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()

    # ------------------------------------------------------------ stats

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
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hit_rate": round(self.hit_rate(), 4),
            **self.counters(),
        }


class DocumentCache:
    """Shared ``section text → Document`` cache over one pipeline.

    Documents are annotated once and then only read; every consumer
    (numeric, term, categorical extraction) must treat them as frozen.
    """

    def __init__(
        self,
        pipeline: Pipeline | None = None,
        maxsize: int = 256,
    ) -> None:
        self.pipeline = pipeline or default_pipeline()
        self._lru = LRUCache(maxsize, name="documents")

    def get(self, text: str) -> Document:
        document = self._lru.get(text)
        if document is None:
            document = self.pipeline.process_text(text)
            self._lru.put(text, document)
        return document

    @property
    def maxsize(self) -> int:
        return self._lru.maxsize

    def resize(self, maxsize: int) -> None:
        """Change capacity (the corpus runner sizes it to its chunks)."""
        self._lru.resize(maxsize)

    def clear(self) -> None:
        self._lru.clear()

    def counters(self) -> dict[str, int]:
        return self._lru.counters()

    def hit_rate(self) -> float:
        return self._lru.hit_rate()

    def stats(self) -> dict[str, Any]:
        return self._lru.stats()


#: Cached marker for sentences the parser cannot link.  A timed-out
#: sentence is cached as ``(_PARSE_TIMED_OUT, budget)`` — a distinct
#: marker so traces can tell "no linkage exists" apart from "the
#: budget ran out", carrying the budget it was recorded under so a
#: later lookup with a *larger* budget re-parses instead of being
#: served a stale timeout (timeouts are only monotone downwards: a
#: smaller-or-equal budget would also have timed out).
_PARSE_FAILED = object()
_PARSE_TIMED_OUT = object()


class LinkageCache:
    """Cross-record parse cache keyed by dictionary-resolution signature.

    Stores the structural outcome of ``parser.parse_one`` — the link
    set, cost, and token map, or the fact that parsing failed — and
    rebuilds a fresh :class:`Linkage` with the caller's actual words
    on every hit, so cached values are never aliased or mutated.

    An optional :class:`~repro.runtime.parsecache.PersistentParseCache`
    (see :meth:`attach_persistent`) adds a cross-run layer underneath
    the LRU: misses probe it before parsing, hits are promoted into
    the LRU, and every fresh outcome is written back so the sidecar
    accumulates the corpus' sentence shapes append-only.
    """

    def __init__(
        self,
        maxsize: int = 4096,
        persistent: "PersistentParseCache | None" = None,
    ) -> None:
        self._lru = LRUCache(maxsize, name="linkages")
        self.persistent = persistent

    def attach_persistent(
        self, cache: "PersistentParseCache | None"
    ) -> None:
        """Attach (or detach, with ``None``) the cross-run layer."""
        self.persistent = cache

    # ------------------------------------------------------------- keys

    @staticmethod
    def _resolution_tail(
        parser: LinkGrammarParser,
        words: Sequence[str],
        tags: Sequence[str] | None,
    ) -> tuple:
        """Per-token resolution classes (the shared part of all keys).

        Sentence-final punctuation is stripped by the parser before any
        dictionary lookup, so those tokens keep their literal form;
        every other token collapses to its dictionary resolution class.
        """
        return tuple(
            word
            if word in _STRIP_TOKENS
            else parser.dictionary.resolution_key(
                word, tags[i] if tags else None
            )
            for i, word in enumerate(words)
        )

    # ----------------------------------------------------------- lookup

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
        # Both keys end in the per-token resolution classes and lead
        # with the parser configuration that changes outcomes:
        # ``max_linkages`` changes which linkage ``parse_one`` returns
        # (extraction stops at the cap before cost-ranking them all).
        # The LRU key adds ``id(parser.dictionary)``, since dictionaries
        # resolve tokens differently, so one cache can serve
        # differently-configured parsers.  The cross-run key must be
        # process-portable: the sidecar's signature check identifies
        # the dictionary instead, and the parse budget joins the key
        # so a timeout recorded under one budget is never served to a
        # run with another.
        tail = self._resolution_tail(parser, words, tags)
        key = (
            id(parser.dictionary),
            parser.max_linkages,
            parser.max_words,
        ) + tail
        entry = self._lru.get(key, _MISSING)
        entry = self._validate_timeout(parser, entry)
        pkey: tuple | None = None
        if (
            entry is _MISSING
            and self.persistent is not None
            # Cheap per-lookup guard (both signatures are cached
            # strings): a sidecar written for a different dictionary
            # is skipped, not consulted.
            and self.persistent.dictionary_signature
            == parser.dictionary.signature()
        ):
            pkey = (
                getattr(parser, "time_budget", None),
                None,  # was the beam width; kept so old sidecars hit
                parser.max_linkages,
                parser.max_words,
            ) + tail
            outcome = self.persistent.get(pkey)
            if outcome is not None:
                parser.stats.persistent_hits += 1
                entry = self._install(key, outcome)
                pkey = None  # already persisted
            else:
                parser.stats.persistent_misses += 1
        if not tracing.enabled():
            return self._resolve(parser, words, tags, key, entry, pkey)
        with tracing.span(
            "parse",
            " ".join(words),
            cache_hit=entry is not _MISSING,
        ):
            linkage = self._resolve(
                parser, words, tags, key, entry, pkey
            )
            tracing.annotate(
                outcome="linked" if linkage is not None else "failed"
            )
            return linkage

    @staticmethod
    def _validate_timeout(
        parser: LinkGrammarParser, entry: Any
    ) -> Any:
        """Downgrade a stale timeout marker to a miss.

        A timeout recorded under budget *b* is valid only for budgets
        ``<= b`` — with a larger (or unlimited) budget the sentence
        might parse, so the entry must not be served (the regression
        this guards: a ``--parse-budget`` bump silently inheriting the
        previous run's timeouts).
        """
        if (
            isinstance(entry, tuple)
            and entry
            and entry[0] is _PARSE_TIMED_OUT
        ):
            recorded = entry[1]
            budget = getattr(parser, "time_budget", None)
            if (
                budget is None
                or recorded is None
                or budget > recorded
            ):
                return _MISSING
        return entry

    def _install(self, key: tuple, outcome: tuple) -> Any:
        """Promote a persistent-cache outcome into the LRU.

        Returns the LRU-form entry.  Fresh distance memo per process —
        memos hold Linkage-derived state that must never cross runs.
        """
        tag = outcome[0]
        if tag == parsecache.OUTCOME_FAIL:
            entry: Any = _PARSE_FAILED
        elif tag == parsecache.OUTCOME_TIMEOUT:
            entry = (_PARSE_TIMED_OUT, outcome[1])
        else:
            links = tuple(
                Link(left, right, label)
                for left, right, label in outcome[1]
            )
            entry = (links, outcome[2], tuple(outcome[3]), {})
        self._lru.put(key, entry)
        return entry

    def _resolve(
        self,
        parser: LinkGrammarParser,
        words: Sequence[str],
        tags: Sequence[str] | None,
        key: tuple,
        entry: Any,
        pkey: tuple | None = None,
    ) -> Linkage | None:
        if entry is _MISSING:
            persistent = (
                self.persistent if pkey is not None else None
            )
            try:
                linkage = parser.parse_one(
                    list(words), list(tags) if tags else None
                )
            except ParseTimeout as timeout:
                tracing.event(
                    "parse-timeout",
                    " ".join(words),
                    budget_s=timeout.budget,
                )
                budget = getattr(parser, "time_budget", None)
                self._lru.put(key, (_PARSE_TIMED_OUT, budget))
                if persistent is not None:
                    persistent.put(
                        pkey, (parsecache.OUTCOME_TIMEOUT, budget)
                    )
                return None
            except ParseFailure:
                self._lru.put(key, _PARSE_FAILED)
                if persistent is not None:
                    persistent.put(pkey, (parsecache.OUTCOME_FAIL,))
                return None
            # The distance memo rides on the entry: every hit of this
            # signature shares it, so the association layer runs its
            # Dijkstra once per (sentence shape, source) per corpus.
            memo: dict = {}
            linkage.distance_cache = memo
            self._lru.put(
                key,
                (tuple(linkage.links), linkage.cost,
                 tuple(linkage.token_map), memo),
            )
            if persistent is not None:
                persistent.put(
                    pkey,
                    (
                        parsecache.OUTCOME_OK,
                        tuple(
                            (link.left, link.right, link.label)
                            for link in linkage.links
                        ),
                        linkage.cost,
                        tuple(linkage.token_map),
                    ),
                )
            return linkage
        if (
            isinstance(entry, tuple)
            and entry
            and entry[0] is _PARSE_TIMED_OUT
        ):
            tracing.annotate(timeout=True)
            return None
        if entry is _PARSE_FAILED:
            return None
        links, cost, token_map, memo = entry
        return Linkage(
            words=[LEFT_WALL] + [words[i] for i in token_map[1:]],
            links=list(links),
            cost=cost,
            token_map=list(token_map),
            distance_cache=memo,
        )

    def clear(self) -> None:
        self._lru.clear()

    def counters(self) -> dict[str, int]:
        return self._lru.counters()

    def hit_rate(self) -> float:
        return self._lru.hit_rate()

    def stats(self) -> dict[str, Any]:
        stats = self._lru.stats()
        if self.persistent is not None:
            stats["persistent"] = self.persistent.stats()
        return stats


class ExtractionCaches:
    """The shared cache set one extraction engine hands its extractors."""

    def __init__(
        self,
        pipeline: Pipeline | None = None,
        document_maxsize: int = 256,
        linkage_maxsize: int = 4096,
    ) -> None:
        self.documents = DocumentCache(pipeline, maxsize=document_maxsize)
        self.linkages = LinkageCache(maxsize=linkage_maxsize)

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
