"""The link grammar parser (Sleator & Temperley's algorithm).

A sentence has a valid **linkage** when links can be drawn between
words such that

1. *satisfaction* — every word uses exactly one of its disjuncts, all
   of whose connectors are consumed by links, left connectors to
   earlier words and right connectors to later words, in the distance
   order the disjunct prescribes;
2. *planarity* — drawn above the sentence, no two links cross;
3. *connectivity* — the words and links form a connected graph;
4. *exclusion* — no two links join the same pair of words.

The algorithm is the memoized region recurrence of the original paper,
asked only whether a linkage exists: ``exists(L, R, le, re)`` decides
whether the words strictly between positions ``L`` and ``R`` can be
linked given the unsatisfied right-pointing connectors ``le`` of word
``L`` and left-pointing connectors ``re`` of word ``R`` (both
farthest-first).  A region is solved by choosing an interior word
``W`` and linking it to ``L``, to ``R``, or to both — this is what
guarantees connectivity — and the search stops at the first choice
that works.  ``@``-multi-connectors may accept further links and
therefore optionally stay at the head of their list.  Linkages are
re-extracted by running the same recurrence generatively, with the
memo table pruning dead branches.

Before the recurrence, power pruning drops every disjunct with a
connector nothing on the correct side can link to, tested with
per-disjunct label bitmasks (:meth:`Dictionary.disjunct_masks`).
During it, the candidates for a region are the disjuncts at ``W``
whose first opposite connector matches the region's forced head; that
list depends only on ``W`` and the head's label, so each is built once
per sentence.  Extraction re-enters a region once per linkage of the
regions around it, so each region's live choices are memoized as
extraction reads them.

Fragments like ``blood pressure: 144/90`` have no linkage (the colon
has no dictionary entry).  The parser raises
:class:`~repro.errors.ParseFailure`, which the numeric extractor
catches to fall back on the paper's pattern approach.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ParseFailure, ParseTimeout
from repro.linkgrammar.connectors import Connector, link_label
from repro.linkgrammar.dictionary import (
    LEFT_WALL,
    BitsetTables,
    Dictionary,
    DisjunctMasks,
    default_dictionary,
)
from repro.linkgrammar.expressions import Disjunct
from repro.linkgrammar.linkage import Link, Linkage

# Terminal punctuation is dropped before parsing (the real parser
# links it to the wall).  Colons are NOT dropped: they have no
# dictionary entry, which is precisely why "blood pressure: 144/90"
# fails to parse and falls back to the pattern approach (§3.1).
_STRIP_TOKENS = {".", "!", "?", ";"}

ConnList = tuple[Connector, ...]


@dataclass
class ParserStats:
    """Additive per-parser counters for the engine's metrics layer.

    ``disjuncts_before``/``disjuncts_after`` count disjuncts entering
    the region recurrence without and with the pruning pass; their
    ratio is the benchmark's "prune ratio".
    """

    sentences: int = 0
    failures: int = 0
    timeouts: int = 0
    disjuncts_before: int = 0
    disjuncts_after: int = 0
    parse_seconds: float = 0.0
    #: Candidate disjuncts the region recurrence tried before it
    #: found the first witness of each region.
    match_bitset_hits: int = 0
    #: Sentence shapes the parse store answered / missed after an
    #: in-memory front miss (see repro.runtime.parsecache).
    persistent_hits: int = 0
    persistent_misses: int = 0

    def prune_ratio(self) -> float:
        """Fraction of disjuncts the pruning pass deleted."""
        if not self.disjuncts_before:
            return 0.0
        return 1.0 - self.disjuncts_after / self.disjuncts_before

    def to_dict(self) -> dict[str, float]:
        return {
            "sentences": self.sentences,
            "failures": self.failures,
            "timeouts": self.timeouts,
            "disjuncts_before": self.disjuncts_before,
            "disjuncts_after": self.disjuncts_after,
            "parse_seconds": self.parse_seconds,
            "match_bitset_hits": self.match_bitset_hits,
            "persistent_hits": self.persistent_hits,
            "persistent_misses": self.persistent_misses,
        }

    def reset(self) -> None:
        self.sentences = 0
        self.failures = 0
        self.timeouts = 0
        self.disjuncts_before = 0
        self.disjuncts_after = 0
        self.parse_seconds = 0.0
        self.match_bitset_hits = 0
        self.persistent_hits = 0
        self.persistent_misses = 0


class LinkGrammarParser:
    """Parses token sequences into cost-ranked linkages.

    ``prune=False`` disables the Sleator–Temperley power-pruning pass
    before the region recurrence — the linkages are identical either
    way (pruned disjuncts can never appear in a complete linkage);
    the flag exists so that equivalence stays testable and ablations
    can measure what pruning buys.
    """

    def __init__(
        self,
        dictionary: Dictionary | None = None,
        max_linkages: int = 16,
        max_words: int = 40,
        prune: bool = True,
        time_budget: float | None = None,
    ) -> None:
        if time_budget is not None and time_budget < 0:
            raise ValueError(
                f"time_budget must be >= 0, got {time_budget}"
            )
        self.dictionary = dictionary or default_dictionary()
        self.max_linkages = max_linkages
        self.max_words = max_words
        self.prune = prune
        self.time_budget = time_budget
        self.stats = ParserStats()

    # ------------------------------------------------------------ public

    def parse(
        self,
        words: list[str],
        tags: list[str] | None = None,
    ) -> list[Linkage]:
        """All linkages of *words*, cheapest first.

        *tags* are optional Penn POS tags used for unknown words.
        Raises :class:`ParseFailure` when no linkage exists.
        """
        started = time.perf_counter()
        self.stats.sentences += 1
        try:
            return self._parse(words, tags, started)
        except ParseTimeout:
            self.stats.timeouts += 1
            self.stats.failures += 1
            raise
        except ParseFailure:
            self.stats.failures += 1
            raise
        finally:
            self.stats.parse_seconds += time.perf_counter() - started

    def _parse(
        self,
        words: list[str],
        tags: list[str] | None = None,
        started: float | None = None,
    ) -> list[Linkage]:
        if not words:
            raise ParseFailure(words, "empty sentence")
        kept, token_map = self._strip(words)
        if not kept:
            raise ParseFailure(words, "only punctuation")
        if len(kept) > self.max_words:
            raise ParseFailure(words, f"longer than {self.max_words} words")

        sentence = [LEFT_WALL] + kept
        sent_tags = [None] + [
            tags[token_map[i]] if tags and token_map[i] is not None else None
            for i in range(len(kept))
        ]
        disjuncts = [
            self.dictionary.disjuncts(word, tag)
            for word, tag in zip(sentence, sent_tags)
        ]
        if any(not d for d in disjuncts):
            missing = [
                sentence[i] for i, d in enumerate(disjuncts) if not d
            ]
            raise ParseFailure(words, f"no entry for {missing[0]!r}")

        deadline = None
        if self.time_budget is not None:
            deadline = (
                started if started is not None else time.perf_counter()
            ) + self.time_budget
        session = _ParseSession(
            sentence,
            disjuncts,
            self.dictionary.bitset_tables(),
            disjunct_masks=(
                self.dictionary.disjunct_masks() if self.prune else None
            ),
            deadline=deadline,
            budget=self.time_budget,
        )
        self.stats.disjuncts_before += session.disjuncts_before
        self.stats.disjuncts_after += session.disjuncts_after
        try:
            linkages = session.linkages(self.max_linkages)
        finally:
            self.stats.match_bitset_hits += session.candidates_tried
        if not linkages:
            raise ParseFailure(words, "no complete linkage")
        result = [
            Linkage(
                words=sentence,
                links=sorted(links),
                cost=cost,
                token_map=[None] + token_map,
            )
            for links, cost in linkages
        ]
        result.sort(key=lambda lk: (lk.cost, lk.links))
        return result

    def parse_one(
        self, words: list[str], tags: list[str] | None = None
    ) -> Linkage:
        """The cheapest linkage of *words*."""
        return self.parse(words, tags)[0]

    def can_parse(
        self, words: list[str], tags: list[str] | None = None
    ) -> bool:
        """True when at least one linkage exists."""
        try:
            self.parse(words, tags)
            return True
        except ParseFailure:
            return False

    def parse_robust(
        self,
        words: list[str],
        tags: list[str] | None = None,
        max_skips: int = 1,
    ) -> tuple[Linkage, list[int]]:
        """Parse allowing up to *max_skips* words to go unlinked.

        An approximation of the original parser's null-link mode: when
        no complete linkage exists, tokens are dropped (fewest first,
        unknown words preferred) until one does.  Returns the linkage
        plus the indices of the skipped tokens; the linkage's
        ``token_map`` still refers to the caller's original indices.
        Raises :class:`ParseFailure` when even skipping does not help.

        The paper's own system never does this — fragments trigger the
        pattern fallback instead — so nothing in the extraction
        pipeline calls it; it exists for users who want the robust
        behaviour of the C parser's ``null`` mode.
        """
        try:
            return self.parse_one(words, tags), []
        except ParseFailure:
            pass
        # Prefer skipping tokens the dictionary cannot place at all.
        unknown = [
            i
            for i, word in enumerate(words)
            if not self.dictionary.disjuncts(
                word, tags[i] if tags else None
            )
        ]
        order = unknown + [i for i in range(len(words))
                           if i not in unknown]
        for skips in range(1, max_skips + 1):
            for combo in itertools.combinations(order, skips):
                kept = [
                    w for i, w in enumerate(words) if i not in combo
                ]
                kept_tags = (
                    [t for i, t in enumerate(tags) if i not in combo]
                    if tags
                    else None
                )
                try:
                    linkage = self.parse_one(kept, kept_tags)
                except ParseFailure:
                    continue
                index_map = [
                    i for i in range(len(words)) if i not in combo
                ]
                linkage.token_map = [
                    None if tm is None else index_map[tm]
                    for tm in linkage.token_map
                ]
                return linkage, sorted(combo)
        raise ParseFailure(
            words, f"no linkage even with {max_skips} null word(s)"
        )

    # ----------------------------------------------------------- helpers

    @staticmethod
    def _strip(words: list[str]) -> tuple[list[str], list[int]]:
        """Drop sentence-final punctuation tokens, keep index mapping."""
        kept: list[str] = []
        token_map: list[int] = []
        for index, word in enumerate(words):
            if word in _STRIP_TOKENS:
                continue
            kept.append(word)
            token_map.append(index)
        return kept, token_map


class _ParseSession:
    """One sentence's memo tables and extraction state."""

    def __init__(
        self,
        sentence: list[str],
        disjuncts: list[list[Disjunct]],
        bitset_tables: BitsetTables,
        disjunct_masks: DisjunctMasks | None = None,
        deadline: float | None = None,
        budget: float | None = None,
    ) -> None:
        self.sentence = sentence
        # Dictionary lists are shared; pruning rebinds, never mutates.
        self.disjuncts = list(disjuncts)
        self.n = len(sentence)
        self._deadline = deadline
        self._budget = budget
        self._ops = 0
        self._memo: dict[tuple, bool] = {}
        self.candidates_tried = 0
        # Dictionary-wide tables (possibly AOT-compiled) cover a
        # superset of this sentence's labels, so there is no
        # per-sentence table build.
        self._plus_rows, _, _, self._minus_ids = bitset_tables
        self.disjuncts_before = sum(len(d) for d in self.disjuncts)
        if disjunct_masks is not None:
            self._prune(disjunct_masks)
        self.disjuncts_after = sum(len(d) for d in self.disjuncts)
        # (W, head label, head points right) -> candidates at W.
        self._index: dict[tuple[int, str, bool], list[Disjunct]] = {}
        # Region -> (choices read so far, generator of the rest).
        self._plans: dict[tuple, tuple[list, Iterator]] = {}

    def _links(self, plus: str, minus: str) -> bool:
        """Can right-pointing label *plus* link to left-pointing
        label *minus*?  One bit test in the dictionary's tables."""
        mid = self._minus_ids.get(minus, -1)
        return mid >= 0 and (self._plus_rows.get(plus, 0) >> mid) & 1 != 0

    def _prune(self, disjunct_masks: DisjunctMasks) -> None:
        """Power pruning: drop disjuncts with unconnectable connectors.

        A disjunct survives only while each of its left connectors can
        match some right connector available on an earlier word and
        each right connector some left connector on a later word.
        Iterates to a fixpoint; typically removes the large majority of
        tag-default disjuncts and makes the O(n³) recurrence fast.

        A disjunct's mask has one bit per connector label (see
        :meth:`Dictionary.disjunct_masks`); a word's labels are the OR
        of its disjuncts' masks.  Each sweep collects the labels every
        word could link to — right-pointing ones on earlier words,
        left-pointing ones on later words — marks the word's labels
        with no partner there as dead, and keeps a disjunct iff its
        mask holds no dead label, in the original order.
        """
        masks, rows, plus_bits = disjunct_masks
        # Each word's disjunct masks and their OR; words often share a
        # dictionary list, so each list is looked up once.
        aligned: dict[int, tuple[list[int], int]] = {}
        word_masks: list[list[int]] = []
        labels: list[int] = []
        for ds in self.disjuncts:
            found = aligned.get(id(ds))
            if found is None:
                ms = list(map(masks.__getitem__, map(id, ds)))
                found = aligned[id(ds)] = (ms, _union(ms))
            word_masks.append(found[0])
            labels.append(found[1])

        changed = True
        while changed:
            changed = False
            reachable = [0] * self.n
            pool = 0
            for i in range(self.n):
                reachable[i] = pool
                pool |= labels[i] & plus_bits
            pool = 0
            for i in range(self.n - 1, -1, -1):
                reachable[i] |= pool
                pool |= labels[i] & ~plus_bits
            for i, ms in enumerate(word_masks):
                dead = 0
                for bit in _bits(labels[i]):
                    if not rows[bit] & reachable[i]:
                        dead |= 1 << bit
                if not dead:
                    continue
                keep = [not m & dead for m in ms]
                ds = list(itertools.compress(self.disjuncts[i], keep))
                self.disjuncts[i] = ds
                word_masks[i] = list(itertools.compress(ms, keep))
                labels[i] = _union(word_masks[i])
                changed = True

    def _check_deadline(self) -> None:
        """Raise :class:`ParseTimeout` once the budget is exhausted.

        Called unconditionally when extraction starts and every 256
        recurrence steps after, so even a zero budget fails fast and a
        pathological sentence cannot wedge the engine: the timeout is
        a :class:`ParseFailure`, so callers fall back to the paper's
        linguistic patterns exactly as they do for fragments.
        """
        if (
            self._deadline is not None
            and time.perf_counter() > self._deadline
        ):
            raise ParseTimeout(
                self.sentence[1:], self._budget or 0.0
            )

    # The wall's disjuncts have no left connectors; the virtual right
    # boundary is position n with an empty connector list.

    def linkages(
        self, limit: int
    ) -> list[tuple[frozenset[Link], int]]:
        self._check_deadline()
        found: dict[frozenset[Link], int] = {}
        try:
            for disjunct in self.disjuncts[0]:
                if disjunct.left:
                    continue
                if not self._exists(0, self.n, disjunct.right, ()):
                    continue
                for links, cost in self._extract(
                    0, self.n, disjunct.right, ()
                ):
                    key = frozenset(links)
                    if key not in found or cost < found[key]:
                        found[key] = cost + disjunct.cost
                    if len(found) >= limit:
                        break
                if len(found) >= limit:
                    break
        finally:
            # A plan generator still suspended holds this session, so
            # drop them all: the session is then freed by reference
            # counting instead of waiting for the cycle collector.
            self._plans.clear()
        return list(found.items())

    # ------------------------------------------------------ candidates

    def _candidates(
        self, W: int, le: ConnList, re: ConnList
    ) -> list[Disjunct]:
        """Disjuncts at W that can take the region's forced head.

        With connectors left on L, W must take le's head with its
        first left connector; otherwise it must take re's head with
        its first right connector.  The list depends only on W and
        the head's label, so it is built once per session.
        """
        from_left = bool(le)
        label = le[0].label if from_left else re[0].label
        key = (W, label, from_left)
        found = self._index.get(key)
        if found is None:
            ds = self.disjuncts[W]
            if from_left:
                firsts = [d.left[0].label if d.left else None for d in ds]
                links = {
                    first for first in set(firsts)
                    if first is not None and self._links(label, first)
                }
            else:
                firsts = [d.right[0].label if d.right else None for d in ds]
                links = {
                    first for first in set(firsts)
                    if first is not None and self._links(first, label)
                }
            found = [d for d, first in zip(ds, firsts) if first in links]
            self._index[key] = found
        return found

    # ----------------------------------------------------------- exists

    def _exists(self, L: int, R: int, le: ConnList, re: ConnList) -> bool:
        """Whether region (L, R) has a linkage — memoized.

        Tries the candidates in extraction order and stops at the
        first one with a linkage, so it decides exactly what a count
        of the region's linkages would say about zero.
        """
        self._ops += 1
        if not self._ops & 255:
            self._check_deadline()
        if R == L + 1:
            return not le and not re
        if not le and not re:
            return False
        key = (L, R, le, re)
        found = self._memo.get(key)
        if found is not None:
            return found
        found = False
        for W in range(L + 1, R):
            for d in self._candidates(W, le, re):
                self.candidates_tried += 1
                if self._choice_exists(L, R, le, re, W, d):
                    found = True
                    break
            if found:
                break
        self._memo[key] = found
        return found

    def _choice_exists(
        self, L: int, R: int, le: ConnList, re: ConnList,
        W: int, d: Disjunct,
    ) -> bool:
        """Whether disjunct *d* at W completes region (L, R).

        With connectors left on L, W takes le's head, and its right
        side either links to R too or leaves re for the words after
        W.  The decomposition is unique because W is pinned to the
        word that le's head links to; only when L has no connectors
        left may W instead be the target of re's head, which then
        leaves W's left side to the words before it.
        """
        if le:
            return any(
                self._exists(L, W, nle, ndl)
                for nle, ndl in _variants(le, d.left)
            ) and (
                any(
                    self._exists(W, R, ndr, nre)
                    for ndr, nre in self._match_variants(d.right, re)
                )
                or self._exists(W, R, d.right, re)
            )
        return self._exists(L, W, le, d.left) and any(
            self._exists(W, R, ndr, nre)
            for ndr, nre in _variants(d.right, re)
        )

    def _match_variants(
        self, plus_list: ConnList, minus_list: ConnList
    ) -> list[tuple[ConnList, ConnList]]:
        """:func:`_variants` if both lists have heads that link."""
        if (
            not plus_list
            or not minus_list
            or not self._links(plus_list[0].label, minus_list[0].label)
        ):
            return []
        return _variants(plus_list, minus_list)

    # --------------------------------------------------------- extract

    def _extract(
        self, L: int, R: int, le: ConnList, re: ConnList
    ) -> Iterator[tuple[list[Link], int]]:
        """Generate (links, cost) for region (L, R) — mirrors _exists.

        Choices come in candidate order, and for each choice the
        links to both L and R first, then to L only, then to R only.
        """
        if R == L + 1:
            if not le and not re:
                yield [], 0
            return
        if not le and not re:
            return
        key = (L, R, le, re)
        plans = self._plans.get(key)
        if plans is None:
            plans = self._plans[key] = ([], self._plan(L, R, le, re))
        for W, d, lefts, rights, to_l, to_r, only_l, only_r in _replay(
            *plans
        ):
            # Both boundary links.
            for nle, ndl in lefts if rights else ():
                for llinks, lcost in self._extract(L, W, nle, ndl):
                    for ndr, nre in rights:
                        for rlinks, rcost in self._extract(W, R, ndr, nre):
                            yield (
                                llinks + rlinks + [to_l, to_r],
                                lcost + rcost + d.cost,
                            )
            # Left boundary link only.
            for nle, ndl in lefts if only_l else ():
                for llinks, lcost in self._extract(L, W, nle, ndl):
                    for rlinks, rcost in self._extract(W, R, d.right, re):
                        yield llinks + rlinks + [to_l], lcost + rcost + d.cost
            # Right boundary link only (legal only with an exhausted
            # le — see _choice_exists).
            for ndr, nre in rights if only_r else ():
                for rlinks, rcost in self._extract(W, R, ndr, nre):
                    for llinks, lcost in self._extract(L, W, le, d.left):
                        yield llinks + rlinks + [to_r], lcost + rcost + d.cost

    def _plan(
        self, L: int, R: int, le: ConnList, re: ConnList
    ) -> Iterator[tuple]:
        """The choices of region (L, R) that have a linkage, in order.

        Each is ``(W, d, lefts, rights, to_l, to_r, only_l, only_r)``:
        the variants of W's link to L and of its link to R whose
        sub-regions have a linkage, those two links, and whether W may
        link to L only or to R only — the case analysis of
        :meth:`_choice_exists`, kept in full for extraction.  A region
        is extracted once per linkage of the regions around it;
        :meth:`_extract` memoizes what this yields so re-extraction
        skips the choices that yield nothing, and reads it lazily so
        an extraction stopped at the linkage limit never decides
        choices it does not reach.
        """
        for W in range(L + 1, R):
            for d in self._candidates(W, le, re):
                # The candidate index already matched the forced head.
                if le:
                    lefts = [
                        (nle, ndl) for nle, ndl in _variants(le, d.left)
                        if self._exists(L, W, nle, ndl)
                    ]
                    if not lefts:
                        continue
                    rights = [
                        (ndr, nre)
                        for ndr, nre in self._match_variants(d.right, re)
                        if self._exists(W, R, ndr, nre)
                    ]
                    only_l = self._exists(W, R, d.right, re)
                    if rights or only_l:
                        to_l = Link(L, W, link_label(le[0], d.left[0]))
                        to_r = (
                            Link(W, R, link_label(d.right[0], re[0]))
                            if rights
                            else None
                        )
                        yield W, d, lefts, rights, to_l, to_r, only_l, False
                    continue
                rights = [
                    (ndr, nre) for ndr, nre in _variants(d.right, re)
                    if self._exists(W, R, ndr, nre)
                ]
                if rights and self._exists(L, W, le, d.left):
                    to_r = Link(W, R, link_label(d.right[0], re[0]))
                    yield W, d, [], rights, None, to_r, False, True


def _replay(done: list, pending: Iterator) -> Iterator:
    """Iterate a memoized lazy sequence: *done* first, then whatever
    *pending* still yields, appending it to *done* for later readers.
    """
    i = 0
    while True:
        if i == len(done):
            item = next(pending, None)
            if item is None:
                return
            done.append(item)
        yield done[i]
        i += 1


def _variants(
    plus_list: ConnList, minus_list: ConnList
) -> list[tuple[ConnList, ConnList]]:
    """Successor list pairs after linking the two head connectors.

    ``plus_list`` belongs to the earlier word (pointing right),
    ``minus_list`` to the later word (pointing left), both
    farthest-first, and their heads link.  Multi-connectors may stay
    for further links.
    """
    a, b = plus_list[0], minus_list[0]
    variants = [(plus_list[1:], minus_list[1:])]
    if a.multi:
        variants.append((plus_list, minus_list[1:]))
    if b.multi:
        variants.append((plus_list[1:], minus_list))
    if a.multi and b.multi:
        variants.append((plus_list, minus_list))
    return variants


def _union(masks: list[int]) -> int:
    """OR of *masks*."""
    return functools.reduce(operator.or_, masks, 0)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of *mask*, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def parse(words: list[str], tags: list[str] | None = None) -> Linkage:
    """Module-level convenience: cheapest linkage with defaults."""
    return LinkGrammarParser().parse_one(words, tags)
