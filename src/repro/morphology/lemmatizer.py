"""Morphy-style lemmatizer (WordNet 2.0 substitute).

The paper uses WordNet "to get the lemma (uninfected form) of each
surface word in a sentence" — both for term normalization (§3.2) and
for the ``use lemma`` feature-extraction option (§3.3).  WordNet's
algorithm is: check the POS exception list, else apply *detachment
rules* (suffix rewrites) and accept the first result found in the
lexicon; if nothing validates, return the surface form.

Our lexicon is :mod:`repro.nlp.lexicon` plus the ontology vocabulary
(injectable), so the same two-stage contract holds.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.morphology.exceptions import (
    ADJECTIVE_EXCEPTIONS,
    NON_INFLECTED,
    NOUN_EXCEPTIONS,
    VERB_EXCEPTIONS,
)
from repro.nlp.lexicon import (
    ADJECTIVES,
    NOUN_BASES,
    VERB_BASES,
    WORD_TAGS,
)

# Detachment rules per POS: (suffix, replacement), tried in order.
_NOUN_RULES = [
    ("ies", "y"),
    ("ses", "s"),      # glasses -> glass (after 'es' fails)
    ("xes", "x"),
    ("zes", "z"),
    ("ches", "ch"),
    ("shes", "sh"),
    ("oes", "o"),
    ("ves", "f"),
    ("es", "e"),
    ("es", ""),
    ("s", ""),
]

_VERB_RULES = [
    ("ies", "y"),
    ("es", "e"),
    ("es", ""),
    ("s", ""),
    ("ied", "y"),
    ("ed", "e"),
    ("ed", ""),
    ("ing", "e"),
    ("ing", ""),
]

_ADJ_RULES = [
    ("ier", "y"),
    ("iest", "y"),
    ("er", "e"),
    ("er", ""),
    ("est", "e"),
    ("est", ""),
]

_EXCEPTIONS = {
    "noun": NOUN_EXCEPTIONS,
    "verb": VERB_EXCEPTIONS,
    "adjective": ADJECTIVE_EXCEPTIONS,
}
_RULES = {
    "noun": _NOUN_RULES,
    "verb": _VERB_RULES,
    "adjective": _ADJ_RULES,
}

#: Penn tag prefix -> morphy POS
TAG_TO_POS = {
    "NN": "noun",
    "VB": "verb",
    "JJ": "adjective",
    "RB": "adverb",
}


#: Entries the per-lemmatizer memo holds before it is cleared.
_LEMMA_MEMO_MAX = 65536


def _doubled_consonant_stem(word: str, suffix: str) -> str | None:
    """stopped -> stop, quitting -> quit (for -ed / -ing)."""
    stem = word[:-len(suffix)]
    if len(stem) >= 3 and stem[-1] == stem[-2] and stem[-1] not in "aeiouls":
        return stem[:-1]
    return None


class Lemmatizer:
    """Returns the uninflected form of a surface word.

    ``known`` is the word-validation predicate for rule results; by
    default a word validates if the built-in lexicon knows it.  The
    ontology layer passes its own vocabulary in so that medical terms
    outside the tagger lexicon still normalize correctly.

    A lemma depends only on the word, the POS and ``known``, so each
    instance memoizes :meth:`lemma`.  The memo belongs to the process:
    it is never pickled, and a lemmatizer unpickled from a state
    without one (an artifact written before it existed) starts empty.
    """

    def __init__(self, known: Callable[[str], bool] | None = None) -> None:
        self._known = known or self._default_known
        self._memo: dict[tuple[str, str | None], str] = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_memo", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._memo = {}

    @property
    def known(self) -> Callable[[str], bool]:
        """The word-validation predicate rule results must pass."""
        return self._known

    @staticmethod
    def _default_known(word: str) -> bool:
        return (
            word in WORD_TAGS
            or word in VERB_BASES
            or word in NOUN_BASES
            or word in ADJECTIVES
        )

    def lemma(self, word: str, pos: str | None = None) -> str:
        """Lemma of *word*; *pos* is a morphy POS or a Penn tag.

        With ``pos=None`` the POS order noun, verb, adjective is tried —
        the order WordNet's ``morphy`` uses when unconstrained.
        """
        key = (word, pos)
        memo = self._memo
        found = memo.get(key)
        if found is None:
            found = self._lemma(word, pos)
            if len(memo) >= _LEMMA_MEMO_MAX:
                memo.clear()
            memo[key] = found
        return found

    def _lemma(self, word: str, pos: str | None) -> str:
        lower = word.lower()
        if lower in NON_INFLECTED:
            return lower
        poses = self._poses(pos)
        for p in poses:
            exc = _EXCEPTIONS.get(p, {})
            if lower in exc:
                return exc[lower]
        for p in poses:
            result = self._apply_rules(lower, p)
            if result is not None:
                return result
        return lower

    def candidates(self, word: str, pos: str | None = None) -> list[str]:
        """Every stem the detachment rules yield, validated or not.

        Useful for lexicon-free normalization where the caller wants to
        test all candidates against its own vocabulary.
        """
        lower = word.lower()
        if lower in NON_INFLECTED:
            return [lower]
        seen: list[str] = []
        for p in self._poses(pos):
            exc = _EXCEPTIONS.get(p, {})
            if lower in exc and exc[lower] not in seen:
                seen.append(exc[lower])
            for suffix, replacement in _RULES.get(p, ()):
                if not lower.endswith(suffix):
                    continue
                if len(lower) - len(suffix) < 2:
                    continue
                stem = lower[:-len(suffix)] + replacement
                if stem not in seen:
                    seen.append(stem)
                if suffix in ("ed", "ing"):
                    doubled = _doubled_consonant_stem(lower, suffix)
                    if doubled and doubled not in seen:
                        seen.append(doubled)
        if lower not in seen:
            seen.append(lower)
        return seen

    def _poses(self, pos: str | None) -> list[str]:
        if pos is None:
            return ["noun", "verb", "adjective"]
        if pos in _RULES or pos == "adverb":
            return [pos]
        mapped = TAG_TO_POS.get(pos[:2])
        return [mapped] if mapped else ["noun", "verb", "adjective"]

    def _apply_rules(self, lower: str, pos: str) -> str | None:
        for suffix, replacement in _RULES.get(pos, ()):
            if not lower.endswith(suffix):
                continue
            if len(lower) - len(suffix) < 2:
                continue
            stem = lower[:-len(suffix)] + replacement
            if self._known(stem):
                return stem
            if suffix in ("ed", "ing"):
                doubled = _doubled_consonant_stem(lower, suffix)
                if doubled and self._known(doubled):
                    return doubled
        return None


_DEFAULT = Lemmatizer()


def lemma(word: str, pos: str | None = None) -> str:
    """Module-level convenience using the default lexicon."""
    return _DEFAULT.lemma(word, pos)
