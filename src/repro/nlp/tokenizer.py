"""Clinical text tokenizer (GATE tokenizer substitute).

Clinical dictation has token shapes a newswire tokenizer mishandles:

* ratio readings — blood pressure ``144/90``, which must stay one token
  (the paper's Figure 1 links ``is`` to ``144/90`` as a single object);
* decimals — temperature ``98.3``;
* dosage and unit mixes — ``81mg``, ``5cm``;
* clinical abbreviations with internal periods — ``q.d.``, ``p.r.n.``;
* hyphenated compounds — ``50-year-old``, ``S1 S2``.

The tokenizer is a single compiled alternation swept left to right;
the first branch that matches at a position wins, so branch order
encodes priority.  Every non-space character lands in exactly one token
(unknown characters become ``SYMBOL`` tokens) which keeps downstream
span arithmetic total.
"""

from __future__ import annotations

import re
import sys

from repro.nlp.document import TokenKind

# Ordered alternation; names become TokenKind values.
_TOKEN_RE = re.compile(
    r"""
    (?P<DIGITWORD>\d+-[A-Za-z][A-Za-z-]*)         # 50-year-old
  | (?P<RATIO>\d+(?:\.\d+)?/\d+(?:\.\d+)?)        # 144/90, 98.6/37.0
  | (?P<NUMBER>\d+(?:,\d{3})*(?:\.\d+)?)          # 154, 1,250, 98.3
  | (?P<WORD>
        [A-Za-z](?:\.[A-Za-z])+\.?                # q.d., p.r.n., U.S.
      | [A-Za-z]+(?:[-'][A-Za-z0-9]+)*            # fifty-four, it's
    )
  | (?P<PUNCT>[.,;:!?()\[\]{}"]|--|-|–|—|'|’)
  | (?P<SYMBOL>\S)                                # %, /, +, stray bytes
    """,
    re.VERBOSE,
)

# DIGITWORD precedes RATIO/NUMBER so "50-year-old" is not split after
# its digit prefix; it is still a WORD-kind token downstream.
_GROUP_KINDS = {
    "DIGITWORD": TokenKind.WORD,
    "RATIO": TokenKind.RATIO,
    "NUMBER": TokenKind.NUMBER,
    "WORD": TokenKind.WORD,
    "PUNCT": TokenKind.PUNCT,
    "SYMBOL": TokenKind.SYMBOL,
}


def scan_tokens(
    text: str,
) -> tuple[list[str], list[TokenKind], list[tuple[int, int]]]:
    """Interned surfaces, kinds and spans of the tokens of *text*.

    One ``finditer`` sweep: no branch of the alternation matches
    whitespace and ``SYMBOL`` matches every other character, so the
    sweep skips exactly the whitespace and yields every token.
    """
    intern = sys.intern
    matches = list(_TOKEN_RE.finditer(text))
    return (
        [intern(match.group()) for match in matches],
        [_GROUP_KINDS[match.lastgroup] for match in matches],
        [match.span() for match in matches],
    )


def tokenize(text: str) -> list[str]:
    """Convenience: token strings of *text* (for tests and examples)."""
    return scan_tokens(text)[0]
