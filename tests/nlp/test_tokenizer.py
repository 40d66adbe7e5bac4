"""Tokenizer unit tests: clinical token shapes and span integrity."""

from typing import NamedTuple

from hypothesis import given
from hypothesis import strategies as st

from repro.nlp.document import TokenKind
from repro.nlp.pipeline import analyze
from repro.nlp.tokenizer import (
    _GROUP_KINDS,
    _TOKEN_RE,
    scan_tokens,
    tokenize,
)


class Tok(NamedTuple):
    text: str
    kind: TokenKind
    start: int
    end: int


def tokens_of(text):
    texts, kinds, spans = scan_tokens(text)
    return [
        Tok(surface, kind, start, end)
        for surface, kind, (start, end) in zip(texts, kinds, spans)
    ]


class TestBasicTokenization:
    def test_simple_sentence(self):
        assert tokenize("She quit smoking.") == [
            "She", "quit", "smoking", ".",
        ]

    def test_blood_pressure_is_single_ratio_token(self):
        toks = tokens_of("Blood pressure is 144/90.")
        ratio = [t for t in toks if t.kind is TokenKind.RATIO]
        assert [t.text for t in ratio] == ["144/90"]

    def test_decimal_ratio(self):
        toks = tokens_of("98.6/37.0")
        assert [t.text for t in toks] == ["98.6/37.0"]
        assert toks[0].kind is TokenKind.RATIO

    def test_decimal_number_not_split(self):
        toks = tokens_of("temperature of 98.3,")
        texts = [t.text for t in toks]
        assert "98.3" in texts
        kinds = {t.text: t.kind for t in toks}
        assert kinds["98.3"] is TokenKind.NUMBER

    def test_thousands_separator(self):
        toks = tokens_of("1,250 cells")
        assert toks[0].text == "1,250"
        assert toks[0].kind is TokenKind.NUMBER

    def test_hyphenated_age_phrase(self):
        assert tokenize("a 50-year-old woman") == [
            "a", "50-year-old", "woman",
        ]

    def test_internal_period_abbreviation(self):
        assert tokenize("Take aspirin p.r.n. daily") == [
            "Take", "aspirin", "p.r.n.", "daily",
        ]

    def test_apostrophe_word(self):
        assert tokenize("the patient's chart") == [
            "the", "patient's", "chart",
        ]

    def test_punctuation_kinds(self):
        toks = tokens_of("Vitals: BP, pulse; done.")
        kinds = {t.text: t.kind for t in toks}
        assert kinds[":"] is TokenKind.PUNCT
        assert kinds[","] is TokenKind.PUNCT
        assert kinds[";"] is TokenKind.PUNCT
        assert kinds["."] is TokenKind.PUNCT

    def test_symbol_tokens(self):
        toks = tokens_of("O2 sat 98%")
        assert "%" in [t.text for t in toks]

    def test_empty_text(self):
        assert tokens_of("") == []

    def test_whitespace_only(self):
        assert tokens_of("  \n\t ") == []


class TestSpanIntegrity:
    def test_spans_match_source(self):
        text = "Blood pressure is 144/90, pulse of 84."
        for tok in tokens_of(text):
            assert text[tok.start:tok.end] == tok.text

    def test_spans_are_ordered_and_disjoint(self):
        text = "Ms. 2 is a 50-year-old woman with BP 142/78."
        toks = tokens_of(text)
        for a, b in zip(toks, toks[1:]):
            assert a.end <= b.start

    def test_every_non_space_char_covered(self):
        text = "Menarche at age 10, gravida 4, para 3."
        toks = tokens_of(text)
        covered = set()
        for tok in toks:
            covered.update(range(tok.start, tok.end))
        expected = {i for i, c in enumerate(text) if not c.isspace()}
        assert covered == expected

    @given(st.text(max_size=300))
    def test_tokenizer_total_on_arbitrary_text(self, text):
        toks = tokens_of(text)
        covered = set()
        for tok in toks:
            assert text[tok.start:tok.end] == tok.text
            covered.update(range(tok.start, tok.end))
        expected = {i for i, c in enumerate(text) if not c.isspace()}
        assert covered == expected

    @given(st.text(max_size=300))
    def test_sweep_equals_cursor_walk(self, text):
        # The reference: skip whitespace one character at a time and
        # match the alternation at each non-space cursor position.
        expected = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            match = _TOKEN_RE.match(text, pos)
            kind = _GROUP_KINDS[match.lastgroup]
            expected.append((match.group(), kind, match.span()))
            pos = match.end()
        assert list(zip(*scan_tokens(text))) == expected

    @given(
        st.text(
            alphabet=st.characters(
                whitelist_categories=("Lu", "Ll", "Nd", "Po", "Zs")
            ),
            max_size=200,
        )
    )
    def test_roundtrip_preserves_order(self, text):
        toks = tokens_of(text)
        starts = [t.start for t in toks]
        assert starts == sorted(starts)


class TestDocumentAnnotation:
    def test_annotate_adds_token_annotations(self):
        doc = analyze("She is a smoker.")
        assert [doc.span_text(t) for t in doc.tokens()] == [
            "She", "is", "a", "smoker", ".",
        ]

    def test_token_kind_feature_present(self):
        doc = analyze("BP 142/78")
        kinds = [t.features["kind"] for t in doc.tokens()]
        assert TokenKind.RATIO in kinds
