"""Rule-based part-of-speech tagger (GATE/Hepple tagger substitute).

Three layers, mirroring the classic Brill architecture:

1. **Lexicon** — look the lowercased token up in
   :data:`repro.nlp.lexicon.WORD_TAGS`, the irregular-verb table and the
   clinical abbreviation table.
2. **Morphology** — unknown words get a tag from suffix analysis: the
   suffix tables below are ordered longest-first, and inflections of
   *known* lexicon stems are resolved exactly (``denies`` → ``deny`` is
   a known verb → VBZ).
3. **Context rules** — a fixed sequence of repair rules re-tags words
   whose lexicon tag is wrong in context (verb after pronoun/modal,
   noun after determiner, participle after ``have``/``be``, …).

The tagset is the Penn Treebank subset the extraction layer needs; the
paper's term patterns only distinguish JJ and NN/NNS, and its feature
extractor selects verbs, nouns, adjectives and adverbs.
"""

from __future__ import annotations

import re

from repro.nlp.abbreviations import CLINICAL_ABBREVIATIONS
from repro.nlp.document import TokenKind
from repro.nlp.lexicon import (
    ADJECTIVES,
    IRREGULAR_VERB_FORMS,
    NOUN_BASES,
    VERB_BASES,
    WORD_TAGS,
)

# Suffix -> tag for unknown words, ordered longest suffix first.
_SUFFIX_TAGS: list[tuple[str, str]] = [
    ("ational", "JJ"),
    ("ously", "RB"),
    ("ively", "RB"),
    ("fully", "RB"),
    ("ability", "NN"),
    ("ibility", "NN"),
    ("ization", "NN"),
    ("ectomy", "NN"),
    ("ostomy", "NN"),
    ("otomy", "NN"),
    ("plasty", "NN"),
    ("scopy", "NN"),
    ("graphy", "NN"),
    ("pathy", "NN"),
    ("itis", "NN"),
    ("osis", "NN"),
    ("emia", "NN"),
    ("oma", "NN"),
    ("gram", "NN"),
    ("ness", "NN"),
    ("ment", "NN"),
    ("tion", "NN"),
    ("sion", "NN"),
    ("ance", "NN"),
    ("ence", "NN"),
    ("ship", "NN"),
    ("ism", "NN"),
    ("ist", "NN"),
    ("ity", "NN"),
    ("age", "NN"),
    ("ery", "NN"),
    ("ical", "JJ"),
    ("able", "JJ"),
    ("ible", "JJ"),
    ("ious", "JJ"),
    ("eous", "JJ"),
    ("ful", "JJ"),
    ("less", "JJ"),
    ("ish", "JJ"),
    ("ive", "JJ"),
    ("ous", "JJ"),
    ("ary", "JJ"),
    ("oid", "JJ"),
    ("al", "JJ"),
    ("ic", "JJ"),
    ("ly", "RB"),
    ("ing", "VBG"),
    ("ed", "VBD"),
]

_HAVE_FORMS = {"have", "has", "had", "having"}
_BE_FORMS = {"be", "is", "am", "are", "was", "were", "been", "being"}
_HAVE_OR_BE_FORMS = _HAVE_FORMS | _BE_FORMS
# A context rule can fire only on a token with one of these tags or
# words; every other token keeps its initial tag.
_CONTEXT_TAGS = frozenset({"VBD", "NN", "VB", "VBP", "VBG"})
_CONTEXT_WORDS = frozenset({"her", "that", "no"})

#: Entries the per-tagger memo of layer 1 + 2 tags holds before it is
#: cleared (a clinical vocabulary needs a few thousand).
_TAG_MEMO_MAX = 65536


def _strip_inflection(word: str) -> list[str]:
    """Candidate stems of an inflected surface form, best first."""
    candidates: list[str] = []
    if word.endswith("ies") and len(word) > 4:
        candidates.append(word[:-3] + "y")
    if word.endswith("es") and len(word) > 3:
        candidates.append(word[:-2])
    if word.endswith("s") and not word.endswith("ss") and len(word) > 2:
        candidates.append(word[:-1])
    if word.endswith("ied") and len(word) > 4:
        candidates.append(word[:-3] + "y")
    if word.endswith("ed") and len(word) > 3:
        candidates.append(word[:-2])
        candidates.append(word[:-1])          # noted -> note
        if len(word) > 4 and word[-3] == word[-4]:
            candidates.append(word[:-3])      # stopped -> stop
    if word.endswith("ing") and len(word) > 4:
        candidates.append(word[:-3])
        candidates.append(word[:-3] + "e")    # smoking -> smoke
        if len(word) > 5 and word[-4] == word[-5]:
            candidates.append(word[:-4])      # quitting -> quit
    return candidates


class PosTagger:
    """Tags sentences given as token strings (and token kinds)."""

    def __init__(self) -> None:
        # (word, kind) -> lexicon/morphology tag: layers 1 and 2 read
        # only module tables, so each surface is resolved once.
        self._initial_tags: dict[tuple[str, TokenKind | None], str] = {}

    def tag(
        self,
        words: list[str],
        kinds: list[TokenKind | None] | None = None,
    ) -> list[str]:
        """Tag a sentence given as a list of token strings."""
        kinds = kinds or [None] * len(words)
        memo = self._initial_tags
        tags = [
            memo.get(key) or self._memoize_initial_tag(key)
            for key in zip(words, kinds)
        ]
        return self._apply_context_rules(words, tags)

    def _memoize_initial_tag(
        self, key: tuple[str, TokenKind | None]
    ) -> str:
        memo = self._initial_tags
        if len(memo) >= _TAG_MEMO_MAX:
            memo.clear()
        tag = memo[key] = self._initial_tag(*key)
        return tag

    # Layer 1 + 2: lexicon and morphology -------------------------------

    def _initial_tag(self, word: str, kind: TokenKind | None) -> str:
        if kind in (TokenKind.NUMBER, TokenKind.RATIO):
            return "CD"
        if kind is TokenKind.PUNCT or (
            kind is None and re.fullmatch(r"\W+", word)
        ):
            # Penn uses the punctuation mark itself as its tag.
            return word if word in {",", ":", ";", ".", "(", ")"} else "SYM"
        if kind is TokenKind.SYMBOL:
            return "SYM"
        lower = word.lower()
        if re.fullmatch(r"\d+(\.\d+)?(/\d+(\.\d+)?)?", word):
            return "CD"
        if lower in IRREGULAR_VERB_FORMS:
            return IRREGULAR_VERB_FORMS[lower][0]
        if lower in WORD_TAGS:
            return WORD_TAGS[lower]
        abbrev = CLINICAL_ABBREVIATIONS.get(lower.rstrip("."))
        if abbrev:
            return abbrev[0]
        resolved = self._tag_inflection(lower)
        if resolved:
            return resolved
        for suffix, tag in _SUFFIX_TAGS:
            if lower.endswith(suffix) and len(lower) > len(suffix) + 2:
                return tag
        if word[:1].isupper():
            return "NNP"
        return "NN"

    def _tag_inflection(self, lower: str) -> str | None:
        """Resolve inflections of known lexicon stems exactly."""
        for stem in _strip_inflection(lower):
            if lower.endswith("s") and not lower.endswith(("ed", "ing")):
                if stem in VERB_BASES and stem not in NOUN_BASES:
                    return "VBZ"
                if stem in NOUN_BASES:
                    return "NNS"
                if stem in VERB_BASES:
                    return "VBZ"
            if lower.endswith(("ed", "ied")) and stem in VERB_BASES:
                return "VBD"
            if lower.endswith("ing") and stem in VERB_BASES:
                return "VBG"
            if lower.endswith(("er", "est")) and stem in ADJECTIVES:
                return "JJR" if lower.endswith("er") else "JJS"
        return None

    # Layer 3: contextual repair rules -----------------------------------

    def _apply_context_rules(
        self, words: list[str], tags: list[str]
    ) -> list[str]:
        tags = list(tags)
        lowers = [w.lower() for w in words]

        def verb_context(i: int) -> str:
            """Nearest preceding non-adverb word ("has never smoked")."""
            j = i - 1
            while j >= 0 and tags[j] == "RB":
                j -= 1
            return lowers[j] if j >= 0 else ""

        for i, (word, tag) in enumerate(zip(lowers, tags)):
            if tag not in _CONTEXT_TAGS and word not in _CONTEXT_WORDS:
                continue
            prev = tags[i - 1] if i > 0 else "<s>"
            nxt = tags[i + 1] if i + 1 < len(tags) else "</s>"

            # VBD after a have-form (adverbs allowed in between) is a
            # past participle; after a be-form it is passive.
            if tag == "VBD" and verb_context(i) in _HAVE_OR_BE_FORMS:
                tags[i] = "VBN"
            # -ing noun right after a be-form is progressive.
            elif (
                tag == "NN"
                and word.endswith("ing")
                and verb_context(i) in _BE_FORMS
            ):
                tags[i] = "VBG"
            # Base verb after pronoun subject is present (VBP).
            elif tag == "VB" and prev in {"PRP", "NNP"}:
                tags[i] = "VBP"
            # Base verb right after modal or "to" stays VB; after a
            # determiner it is really a noun ("a smoke", "the report").
            elif tag in {"VB", "VBP"} and prev in {"DT", "PRP$", "JJ"}:
                tags[i] = "NN"
            # "her" before a noun is possessive.
            elif word == "her" and nxt in {"NN", "NNS", "JJ", "NNP"}:
                tags[i] = "PRP$"
            # "that" after a verb introduces a clause (IN).
            elif word == "that" and prev.startswith("VB"):
                tags[i] = "IN"
            # "no" before noun/adjective is a determiner (already DT) —
            # before a number it's an abbreviation for "number".
            elif word == "no" and nxt == "CD":
                tags[i] = "NN"
            # Participle used before a noun acts adjectivally, keep VBN:
            # the term patterns treat only JJ/NN, so map VBN->JJ there.
            elif tag == "VBG" and prev in {"DT", "IN"} and nxt in {
                "NN",
                "NNS",
            }:
                tags[i] = "JJ"  # "a screening mammogram"
        return tags


def tag_sentence(words: list[str]) -> list[str]:
    """Convenience wrapper for tests and examples."""
    return PosTagger().tag(words)
