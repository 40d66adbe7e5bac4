"""The parse store: every parse outcome a run has seen, by one key.

Clinical dictation is boilerplate, so a corpus holds few distinct
sentence shapes, and each one costs a real slice of parser time.
Every :class:`~repro.runtime.cache.LinkageCache` answers from an
in-memory front backed by one :class:`PersistentParseCache` store.
The store is held in memory, or backed by a sidecar file next to the
compiled artifact (``<artifact>.parsecache``) so that the next
process restart, ``repro extract`` run, service redeploy or cold pool
worker parses none of the shapes again.

This module owns the store's key (:func:`parse_key`: the sentence's
dictionary-resolution classes plus every parser setting that can
change the outcome) and its outcome format.  A sidecar is versioned
and fingerprinted like :class:`CompiledArtifact`: one written by a
different cache format, different lexicon sources or a different
dictionary is rejected with :class:`ParseCacheError` and rebuilt
empty, never silently reused.

Entries are plain tuples of strings and ints (no Connector/Link
objects), so the file format is stable under refactors of the parser
internals.  Saving is an atomic append-only merge: the writer re-reads
the current sidecar and unions it with its own entries before the
rename, so concurrent runs can only add outcomes, never lose them.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import ParseCacheError
from repro.linkgrammar.parser import _STRIP_TOKENS

if TYPE_CHECKING:
    from repro.linkgrammar.parser import LinkGrammarParser

#: Bump whenever the pickled sidecar layout changes in a way old
#: readers cannot handle.  Checked on load; a mismatch rebuilds.
PARSECACHE_VERSION = 1

#: Outcome tags.  ``ok`` carries ``(links, cost, token_map)`` where
#: links are ``(left, right, label)`` triples; ``timeout`` carries the
#: budget it was recorded under (the budget is also part of the key).
OUTCOME_OK = "ok"
OUTCOME_FAIL = "fail"
OUTCOME_TIMEOUT = "timeout"

Outcome = tuple[Any, ...]


def sidecar_path(artifact_path: str | Path) -> Path:
    """The sidecar file a compiled artifact's parse cache lives in."""
    return Path(str(artifact_path) + ".parsecache")


def parse_key(
    parser: "LinkGrammarParser",
    words: Sequence[str],
    tags: Sequence[str] | None,
) -> tuple:
    """The store key of *words* as *parser* would parse them.

    The parser settings that change an outcome lead: the time budget,
    so a timeout recorded under one budget is never served to
    another; ``max_linkages``, which changes the linkage
    ``parse_one`` returns; and ``max_words``.  The second slot held a
    beam width once and stays ``None`` so older sidecars keep hitting.
    Then each token's dictionary-resolution class, so sentences that
    differ only in values ("pulse of 84" / "pulse of 96") share one
    key.  Sentence-final punctuation is stripped by the parser before
    any dictionary lookup, so those tokens keep their literal form.
    """
    dictionary = parser.dictionary
    return (
        parser.time_budget,
        None,
        parser.max_linkages,
        parser.max_words,
    ) + tuple(
        word
        if word in _STRIP_TOKENS
        else dictionary.resolution_key(word, tags[i] if tags else None)
        for i, word in enumerate(words)
    )


class PersistentParseCache:
    """Append-only parse-outcome store, in memory or sidecar-backed.

    One instance serves one dictionary: a store built without a
    signature binds to the first dictionary a lookup brings, and
    :meth:`bind` refuses any other one, including the same dictionary
    after ``Dictionary.add``.  The
    :class:`~repro.runtime.cache.LinkageCache` front consults it on
    misses and writes every fresh outcome back through :meth:`put`;
    :meth:`drain_delta` ships a worker's new entries to the parent,
    and :meth:`save` merges with whatever is on disk before the
    atomic rename.  The store only appends, so a drain is the tail of
    :attr:`entries` past a mark.
    """

    def __init__(
        self,
        dictionary_signature: str | None = None,
        entries: dict[tuple, Outcome] | None = None,
        path: Path | None = None,
    ) -> None:
        self.dictionary_signature = dictionary_signature
        self.entries: dict[tuple, Outcome] = entries or {}
        self.path = path
        #: Entries added since load, construction or the last save:
        #: drives the dirty check before save.
        self.added = 0
        #: How many leading entries earlier drains (or the load)
        #: covered; :meth:`drain_delta` returns the ones past it.
        self._drained = len(self.entries)

    def bind(self, dictionary_signature: str) -> None:
        """Bind an unbound store to a dictionary; refuse any other.

        Entries are only valid for the dictionary they were parsed
        with, and the key names no dictionary, so serving another
        one's outcomes would silently mislink its sentences.
        """
        if self.dictionary_signature is not None:
            raise ValueError(
                f"parse store holds parses for dictionary "
                f"{self.dictionary_signature}, not for dictionary "
                f"{dictionary_signature}"
            )
        self.dictionary_signature = dictionary_signature

    # ---------------------------------------------------------- access

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, key: tuple) -> Outcome | None:
        return self.entries.get(key)

    def put(self, key: tuple, outcome: Outcome) -> None:
        if key in self.entries:
            return
        self.entries[key] = outcome
        self.added += 1

    def merge(self, entries: dict[tuple, Outcome]) -> int:
        """Union another run's entries in; returns how many were new.

        First writer wins on key collisions — parsing is deterministic
        per key, so colliding values are identical anyway.
        """
        new = 0
        for key, outcome in entries.items():
            if key not in self.entries:
                self.entries[key] = outcome
                self.added += 1
                new += 1
        return new

    def drain_delta(self) -> dict[tuple, Outcome]:
        """Entries added since the last drain, in insertion order.

        What :meth:`put` and :meth:`merge` added, read from the end of
        :attr:`entries` at a cost of O(new entries).  Entries that
        :meth:`save` unioned in from disk may ride along; merges are
        first-writer-wins, so shipping them again is harmless.
        """
        fresh = len(self.entries) - self._drained
        self._drained = len(self.entries)
        tail = list(islice(reversed(self.entries.items()), fresh))
        return dict(reversed(tail))

    @property
    def dirty(self) -> bool:
        """True when there are entries the sidecar does not hold yet."""
        return self.added > 0

    # --------------------------------------------------------- persist

    def save(self, path: str | Path | None = None) -> int:
        """Atomically write the sidecar; returns bytes written.

        Append-only semantics: any sidecar currently at *path* with a
        matching fingerprint and signature is re-read and unioned in
        first, so two runs finishing out of order both keep their
        entries.  A stale or unreadable existing file is overwritten.
        """
        from repro.runtime.compiled import source_fingerprint

        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("no path given and cache has no path")
        self.path = target
        try:
            existing = PersistentParseCache.load(target)
        except ParseCacheError:
            existing = None
        if (
            existing is not None
            and existing.dictionary_signature == self.dictionary_signature
        ):
            for key, outcome in existing.entries.items():
                self.entries.setdefault(key, outcome)
        payload = pickle.dumps(
            {
                "version": PARSECACHE_VERSION,
                # Loading checks a sidecar against this very value.
                "fingerprint": source_fingerprint(),
                "dictionary_signature": self.dictionary_signature,
                "entries": self.entries,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        target.parent.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            dir=target.parent, prefix=target.name, suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "wb") as tmp:
                tmp.write(payload)
            os.replace(tmp_name, target)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.added = 0
        return len(payload)

    @staticmethod
    def load(path: str | Path) -> "PersistentParseCache":
        """Read and validate a sidecar.

        Raises :class:`ParseCacheError` when the file is unreadable,
        not a parse cache, from a different
        :data:`PARSECACHE_VERSION`, or fingerprinted against different
        source data than this process carries.  The dictionary
        signature is checked by :meth:`load_or_create` and on every
        lookup (see :meth:`bind`).
        """
        from repro.runtime.compiled import source_fingerprint

        path = Path(path)
        try:
            with open(path, "rb") as stream:
                raw = pickle.load(stream)
        except OSError as exc:
            raise ParseCacheError(
                f"cannot read parse cache {path}: {exc}"
            ) from exc
        except Exception as exc:  # unpickling is open-ended
            raise ParseCacheError(
                f"cannot unpickle parse cache {path}: {exc}"
            ) from exc
        if (
            not isinstance(raw, dict)
            or "entries" not in raw
            or "fingerprint" not in raw
        ):
            raise ParseCacheError(
                f"{path} is not a parse-cache sidecar"
            )
        if raw.get("version") != PARSECACHE_VERSION:
            raise ParseCacheError(
                f"parse cache {path} has version {raw.get('version')}, "
                f"this build reads version {PARSECACHE_VERSION}"
            )
        expected = source_fingerprint()
        if raw["fingerprint"] != expected:
            raise ParseCacheError(
                f"parse cache {path} was written against different "
                f"source data (fingerprint {raw['fingerprint']}, "
                f"expected {expected})"
            )
        return PersistentParseCache(
            dictionary_signature=raw["dictionary_signature"],
            entries=raw["entries"],
            path=path,
        )

    @classmethod
    def load_or_create(
        cls,
        path: str | Path,
        dictionary_signature: str,
    ) -> tuple["PersistentParseCache", bool]:
        """Load *path* if valid for this dictionary, else start empty.

        Returns ``(cache, loaded)``.  Every rejection path — missing
        file, unreadable pickle, version or fingerprint mismatch, a
        sidecar written for a different dictionary — degrades to an
        empty cache bound to *path*, which the next :meth:`save`
        rewrites in place.
        """
        try:
            cache = cls.load(path)
        except ParseCacheError:
            return cls(dictionary_signature, path=Path(path)), False
        if cache.dictionary_signature != dictionary_signature:
            return cls(dictionary_signature, path=Path(path)), False
        return cache, True

    # ----------------------------------------------------------- stats

    def stats(self) -> dict[str, Any]:
        return {
            "entries": len(self.entries),
            "added": self.added,
            "dictionary_signature": self.dictionary_signature,
            "path": str(self.path) if self.path is not None else None,
        }
