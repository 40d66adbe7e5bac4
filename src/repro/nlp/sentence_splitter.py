"""Abbreviation-aware sentence splitter (GATE splitter substitute).

The splitter works over the token stream, not raw text, so it benefits
from the tokenizer's handling of decimals (``98.3``) and internal-period
abbreviations (``p.r.n.``).  A sentence break is recorded after a token
when:

* the token is a terminal punctuation mark (``.``, ``!``, ``?``) that is
  not part of a decimal or known abbreviation, or
* a newline in the source text separates this token from the next and
  the next token begins a new line that looks like a list item or a
  fresh fragment (clinical notes break lines between fragments that have
  no terminal punctuation at all).

Fragments with no verb — ubiquitous in clinical dictation
(``Vitals: Blood pressure is 142/78, pulse of 96``) — are still single
sentences here; deciding whether they *parse* is the link grammar
parser's job, and its failure triggers the paper's pattern fallback.
"""

from __future__ import annotations

from repro.nlp.abbreviations import NON_TERMINAL_ABBREVIATIONS

_TERMINALS = {".", "!", "?"}


def sentence_boundaries(
    text: str,
    spans: list[tuple[int, int]],
    texts: list[str],
) -> list[tuple[int, int]]:
    """Sentence spans for a pre-tokenized text.

    *spans* and *texts* are the token character spans and surfaces in
    document order.
    """
    out: list[tuple[int, int]] = []
    if not spans:
        return out
    sent_start = spans[0][0]
    last = len(spans) - 1
    for i in range(last):
        tok_text = texts[i]
        if tok_text in _TERMINALS:
            if tok_text == "." and _is_abbreviation_period(
                text, spans, texts, i
            ):
                continue
        elif "\n" not in text[spans[i][1]:spans[i + 1][0]]:
            continue
        out.append((sent_start, spans[i][1]))
        sent_start = spans[i + 1][0]
    # The last token always ends a sentence.
    out.append((sent_start, spans[last][1]))
    return out


def _is_abbreviation_period(
    text: str,
    spans: list[tuple[int, int]],
    texts: list[str],
    i: int,
) -> bool:
    """Is the period at token *i* part of an abbreviation?

    True when the previous token is a known non-terminal
    abbreviation that abuts the period, and the following token does
    not start a clearly new sentence (capitalized word after
    whitespace is treated as a new sentence even after an
    abbreviation, since dictated notes say e.g. "...154 lbs. HEENT:").
    """
    if i == 0:
        return False
    if spans[i - 1][1] != spans[i][0]:
        return False
    if texts[i - 1].lower() not in NON_TERMINAL_ABBREVIATIONS:
        return False
    gap = text[spans[i][1]:spans[i + 1][0]]
    if "\n" in gap:
        return False
    # Lowercase or numeric continuation -> same sentence.
    return not texts[i + 1][:1].isupper()


def split_sentences(text: str) -> list[str]:
    """Convenience: sentence strings of *text* (for tests/examples)."""
    from repro.nlp.pipeline import analyze

    doc = analyze(text)
    return [doc.span_text(s) for s in doc.sentences()]
