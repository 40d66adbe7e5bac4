"""Link grammar dictionary: word → disjunct list.

Loads :mod:`repro.linkgrammar.lexicon_data`, substitutes macros, expands
expressions into disjuncts once, and serves lookups.  Unknown words fall
back to a tag-default expression (the caller supplies POS tags from the
NLP pipeline), mirroring how the real parser handles unknown words with
generic noun/verb/adjective entries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import DictionaryError
from repro.linkgrammar.connectors import Connector, connectors_match
from repro.linkgrammar.expressions import Disjunct, expression_to_disjuncts
from repro.linkgrammar.lexicon_data import (
    ENTRIES,
    MACROS,
    NUMBER_EXPR,
    TAG_DEFAULTS,
)

if TYPE_CHECKING:  # compiled imports dictionary; only types flow back
    from repro.runtime.compiled import CompiledGrammar

LEFT_WALL = "###LEFT-WALL###"

#: ``(plus label, minus label) → can link`` — see
#: :meth:`Dictionary.match_tables`.
MatchTables = dict[tuple[str, str], bool]

#: (plus_rows, minus_rows, plus_ids, minus_ids) — see
#: :meth:`Dictionary.bitset_tables`.
BitsetTables = tuple[
    dict[str, int],
    dict[str, int],
    dict[str, int],
    dict[str, int],
]

#: (mask by disjunct id, match row by label bit, right-pointing
#: bits) — see :meth:`Dictionary.disjunct_masks`.
DisjunctMasks = tuple[dict[int, int], list[int], int]


def _substitute_macros(expression: str) -> str:
    """Textually expand ``<name>`` macros (macros may nest one level)."""
    for _ in range(3):
        if "<" not in expression:
            return expression
        for name, body in MACROS.items():
            expression = expression.replace(name, f"({body})")
    if "<" in expression:
        raise DictionaryError(
            f"unresolved macro in expression: {expression!r}"
        )
    return expression


class Dictionary:
    """Expanded dictionary with tag-based fallbacks for unknown words."""

    def __init__(
        self,
        entries: list[tuple[str, str]] | None = None,
        tag_defaults: list[tuple[str, str]] | None = None,
    ) -> None:
        self._words: dict[str, list[Disjunct]] = {}
        self._tag_defaults: list[tuple[str, list[Disjunct]]] = []
        self._expression_cache: dict[str, list[Disjunct]] = {}
        for words, expression in entries if entries is not None else ENTRIES:
            disjuncts = self._expand(expression)
            for word in words.lower().split():
                # A word with one entry shares its expression's list (no
                # list is ever mutated).  A word listed under several
                # entries (e.g. "smoked" as finite verb and as past
                # participle) gets a new list: the union of their
                # disjuncts.
                existing = self._words.get(word)
                if existing is None:
                    self._words[word] = disjuncts
                    continue
                seen = {(d.left, d.right) for d in existing}
                self._words[word] = existing + [
                    d for d in disjuncts if (d.left, d.right) not in seen
                ]
        for tag, expression in (
            tag_defaults if tag_defaults is not None else TAG_DEFAULTS
        ):
            self._tag_defaults.append((tag, self._expand(expression)))
        self._number_disjuncts = self._expand(NUMBER_EXPR)
        self._match_tables: MatchTables | None = None
        self._bitset_tables: BitsetTables | None = None
        self._disjunct_masks: DisjunctMasks | None = None
        self._signature: str | None = None

    @classmethod
    def from_compiled(cls, grammar: "CompiledGrammar") -> "Dictionary":
        """Rehydrate a dictionary from an AOT-compiled grammar.

        Skips expression expansion entirely — the compiled grammar
        already carries every disjunct list plus the precomputed
        connector match table, so construction is a few dict copies.
        Disjunct lists are shared with the grammar (they are treated
        as immutable everywhere; :meth:`add` rebinds, never mutates).
        """
        self = cls.__new__(cls)
        self._words = dict(grammar.words)
        self._tag_defaults = list(grammar.tag_defaults)
        self._number_disjuncts = grammar.number_disjuncts
        self._expression_cache = {}
        self._match_tables = grammar.match_tables
        self._bitset_tables = None
        self._disjunct_masks = None
        self._signature = grammar.signature
        return self

    def __getstate__(self) -> dict:
        # Disjunct masks are keyed by object id, which a copy or an
        # unpickled dictionary does not share; they are rederived.
        return {**self.__dict__, "_disjunct_masks": None}

    def _expand(self, expression: str) -> list[Disjunct]:
        cached = self._expression_cache.get(expression)
        if cached is None:
            cached = expression_to_disjuncts(_substitute_macros(expression))
            self._expression_cache[expression] = cached
        return cached

    def __contains__(self, word: str) -> bool:
        return word.lower() in self._words

    def add(self, words: str, expression: str) -> None:
        """Add or override entries at runtime (tests, extensions)."""
        disjuncts = self._expand(expression)
        for word in words.split():
            self._words[word.lower()] = disjuncts
        # New entries may introduce connectors the precomputed match
        # table has never seen; recompute lazily on the next parse.
        self._match_tables = None
        self._bitset_tables = None
        self._disjunct_masks = None
        self._signature = None

    def _disjunct_lists(self) -> list[list[Disjunct]]:
        """Every list :meth:`disjuncts` can return."""
        return (
            list(self._words.values())
            + [ds for _, ds in self._tag_defaults]
            + [self._number_disjuncts]
        )

    def match_tables(self) -> MatchTables:
        """Dictionary-wide connector match table.

        The parser's recurrence and its pruning pass test (right-label,
        left-label) pairs millions of times.  All connectors any
        sentence can ever carry come from this dictionary, so one table
        over the dictionary's distinct labels (a few hundred entries)
        serves every sentence — computed once, cached, shipped inside
        compiled grammars, and invalidated by :meth:`add`.  The parser
        reads it through :meth:`bitset_tables`.  Maps each ``(plus,
        minus)`` label pair to whether the two labels can link.
        """
        cached = self._match_tables
        if cached is None:
            cached = _build_match_tables(self._disjunct_lists())
            self._match_tables = cached
        return cached

    def bitset_tables(self) -> BitsetTables:
        """Integer-indexed bitmask view of :meth:`match_tables`.

        Every distinct right-pointing (plus) and left-pointing (minus)
        label gets a small integer id; ``plus_rows[plus_label]`` is an
        int bitmask with bit ``minus_ids[m]`` set for every minus
        label ``m`` the plus label can link to (``minus_rows`` is the
        transpose).  The parser's hot paths then test one bit instead
        of hashing a ``(str, str)`` tuple per candidate pair.

        Derived lazily from :meth:`match_tables` — compiled artifacts
        keep their existing on-disk format — cached, and invalidated
        by :meth:`add` alongside the match tables.
        """
        cached = self._bitset_tables
        if cached is None:
            cached = bitsets_from_table(self.match_tables())
            self._bitset_tables = cached
        return cached

    def disjunct_masks(self) -> DisjunctMasks:
        """Per-disjunct label masks for the parser's pruning pass.

        Every label gets one bit: left-pointing labels take the low
        bits in :meth:`bitset_tables` id order, right-pointing labels
        the bits above them (``plus_bits`` covers those).  Returns
        ``(masks, rows, plus_bits)``: ``masks[id(d)]`` has the bit of
        every connector of disjunct ``d``, and ``rows[b]`` has the
        bits of the opposite-direction labels that label bit ``b`` can
        link to.  A label the tables lack gets a bit whose row is
        empty, so it can never be linked.

        One entry per distinct :class:`Disjunct` object, however many
        words share it.  Derived lazily from :meth:`bitset_tables`,
        invalidated by :meth:`add`, never pickled (ids do not survive
        a copy).
        """
        cached = self._disjunct_masks
        if cached is not None:
            return cached
        plus_rows, minus_rows, plus_ids, minus_ids = self.bitset_tables()
        # Bits 0..M-1: minus labels, M: unknown minus; M+1..M+P: plus
        # labels, M+P+1: unknown plus.
        no_minus, no_plus = len(minus_ids), len(plus_ids)
        shift = no_minus + 1
        rows = [0] * (shift + no_plus + 1)
        for label, i in minus_ids.items():
            rows[i] = minus_rows[label] << shift
        for label, i in plus_ids.items():
            rows[shift + i] = plus_rows[label]
        masks: dict[int, int] = {}
        unique = {id(ds): ds for ds in self._disjunct_lists()}
        for disjuncts in unique.values():
            for d in disjuncts:
                if id(d) in masks:
                    continue
                mask = 0
                for c in d.left:
                    mask |= 1 << minus_ids.get(c.label, no_minus)
                for c in d.right:
                    mask |= 1 << (shift + plus_ids.get(c.label, no_plus))
                masks[id(d)] = mask
        plus_bits = ((1 << (no_plus + 1)) - 1) << shift
        cached = (masks, rows, plus_bits)
        self._disjunct_masks = cached
        return cached

    def disjuncts(
        self, word: str, tag: str | None = None
    ) -> list[Disjunct]:
        """Disjuncts for *word*; falls back on the POS-tag default.

        Returns an empty list when the word is unknown and no tag
        default applies — the parser then fails the sentence, which is
        the behaviour the paper relies on for fragments.
        """
        found = self._words.get(word.lower())
        if found is not None:
            return found
        if tag == "CD" or _looks_numeric(word):
            return self._number_disjuncts
        if tag:
            for prefix, disjuncts in self._tag_defaults:
                if tag == prefix or (
                    len(prefix) <= len(tag) and tag.startswith(prefix)
                ):
                    return disjuncts
        return []

    def signature(self) -> str:
        """Stable fingerprint of the dictionary's contents.

        Hashes every word with its disjunct count and total cost plus
        the tag defaults, so any :meth:`add` (or a different seed
        lexicon) changes the signature.  Recorded in trace manifests:
        two runs with the same signature resolved tokens identically.
        Cached — computing it walks every disjunct — and invalidated
        by :meth:`add`.
        """
        if self._signature is not None:
            return self._signature
        import hashlib

        payload = "|".join(
            f"{word}:{len(ds)}:{sum(d.cost for d in ds)}"
            for word, ds in sorted(self._words.items())
        )
        payload += "||" + "|".join(
            f"{tag}:{len(ds)}" for tag, ds in self._tag_defaults
        )
        self._signature = hashlib.sha256(
            payload.encode()
        ).hexdigest()[:16]
        return self._signature

    def resolution_key(self, word: str, tag: str | None = None) -> str:
        """Equivalence class of ``disjuncts(word, tag)``.

        Two tokens with the same key resolve to the *same* disjunct
        list, so any parse outcome (link structure, costs, failures)
        is identical between them.  This is what lets the runtime's
        cross-record linkage cache share one parse between sentences
        that differ only in their numeric values ("pulse of 84" vs
        "pulse of 96").  Must mirror :meth:`disjuncts` case for case.
        """
        lowered = word.lower()
        if lowered in self._words:
            return lowered
        if tag == "CD" or _looks_numeric(word):
            return "#NUM#"
        if tag:
            for prefix, _ in self._tag_defaults:
                if tag == prefix or (
                    len(prefix) <= len(tag) and tag.startswith(prefix)
                ):
                    return f"#TAG:{prefix}#"
        return "#NONE#"


def _build_match_tables(
    disjunct_lists: list[list[Disjunct]],
) -> MatchTables:
    """All-pairs label match table over the given disjunct lists."""
    plus: dict[str, Connector] = {}
    minus: dict[str, Connector] = {}
    for disjuncts in disjunct_lists:
        for disjunct in disjuncts:
            for connector in disjunct.right:
                plus.setdefault(connector.label, connector)
            for connector in disjunct.left:
                minus.setdefault(connector.label, connector)
    return {
        (pl, ml): connectors_match(pc, mc)
        for pl, pc in plus.items()
        for ml, mc in minus.items()
    }


def bitsets_from_table(
    table: dict[tuple[str, str], bool],
) -> BitsetTables:
    """Compile a label-pair match table into packed bitset rows.

    Ids are assigned in sorted label order so the same table always
    produces the same bit layout (the layout never leaves the process,
    but determinism keeps parses reproducible under any id-dependent
    iteration).
    """
    plus_ids = {
        label: i
        for i, label in enumerate(sorted({pl for pl, _ in table}))
    }
    minus_ids = {
        label: i
        for i, label in enumerate(sorted({ml for _, ml in table}))
    }
    plus_rows = dict.fromkeys(plus_ids, 0)
    minus_rows = dict.fromkeys(minus_ids, 0)
    for (pl, ml), ok in table.items():
        if ok:
            plus_rows[pl] |= 1 << minus_ids[ml]
            minus_rows[ml] |= 1 << plus_ids[pl]
    return plus_rows, minus_rows, plus_ids, minus_ids


def _looks_numeric(word: str) -> bool:
    return bool(word) and word[0].isdigit()


_default: Dictionary | None = None


def default_dictionary() -> Dictionary:
    """Process-wide shared dictionary (expansion is not free)."""
    global _default
    if _default is None:
        _default = Dictionary()
    return _default
