"""Tokenizer unit tests: clinical token shapes and span integrity."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nlp.document import Document, TokenKind
from repro.nlp.tokenizer import (
    _GROUP_KINDS,
    _TOKEN_RE,
    Tokenizer,
    scan_tokens,
    tokenize,
)


@pytest.fixture
def tokenizer():
    return Tokenizer()


class TestBasicTokenization:
    def test_simple_sentence(self):
        assert tokenize("She quit smoking.") == [
            "She", "quit", "smoking", ".",
        ]

    def test_blood_pressure_is_single_ratio_token(self, tokenizer):
        toks = tokenizer.tokenize_text("Blood pressure is 144/90.")
        ratio = [t for t in toks if t.kind is TokenKind.RATIO]
        assert [t.text for t in ratio] == ["144/90"]

    def test_decimal_ratio(self, tokenizer):
        toks = tokenizer.tokenize_text("98.6/37.0")
        assert [t.text for t in toks] == ["98.6/37.0"]
        assert toks[0].kind is TokenKind.RATIO

    def test_decimal_number_not_split(self, tokenizer):
        toks = tokenizer.tokenize_text("temperature of 98.3,")
        texts = [t.text for t in toks]
        assert "98.3" in texts
        kinds = {t.text: t.kind for t in toks}
        assert kinds["98.3"] is TokenKind.NUMBER

    def test_thousands_separator(self, tokenizer):
        toks = tokenizer.tokenize_text("1,250 cells")
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

    def test_punctuation_kinds(self, tokenizer):
        toks = tokenizer.tokenize_text("Vitals: BP, pulse; done.")
        kinds = {t.text: t.kind for t in toks}
        assert kinds[":"] is TokenKind.PUNCT
        assert kinds[","] is TokenKind.PUNCT
        assert kinds[";"] is TokenKind.PUNCT
        assert kinds["."] is TokenKind.PUNCT

    def test_symbol_tokens(self, tokenizer):
        toks = tokenizer.tokenize_text("O2 sat 98%")
        assert "%" in [t.text for t in toks]

    def test_empty_text(self, tokenizer):
        assert tokenizer.tokenize_text("") == []

    def test_whitespace_only(self, tokenizer):
        assert tokenizer.tokenize_text("  \n\t ") == []


class TestSpanIntegrity:
    def test_spans_match_source(self, tokenizer):
        text = "Blood pressure is 144/90, pulse of 84."
        for tok in tokenizer.tokenize_text(text):
            assert text[tok.start:tok.end] == tok.text

    def test_spans_are_ordered_and_disjoint(self, tokenizer):
        text = "Ms. 2 is a 50-year-old woman with BP 142/78."
        toks = tokenizer.tokenize_text(text)
        for a, b in zip(toks, toks[1:]):
            assert a.end <= b.start

    def test_every_non_space_char_covered(self, tokenizer):
        text = "Menarche at age 10, gravida 4, para 3."
        toks = tokenizer.tokenize_text(text)
        covered = set()
        for tok in toks:
            covered.update(range(tok.start, tok.end))
        expected = {i for i, c in enumerate(text) if not c.isspace()}
        assert covered == expected

    @given(st.text(max_size=300))
    def test_tokenizer_total_on_arbitrary_text(self, text):
        toks = Tokenizer().tokenize_text(text)
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
        toks = Tokenizer().tokenize_text(text)
        starts = [t.start for t in toks]
        assert starts == sorted(starts)


class TestDocumentAnnotation:
    def test_annotate_adds_token_annotations(self):
        doc = Document("She is a smoker.")
        Tokenizer().annotate(doc)
        assert [doc.span_text(t) for t in doc.tokens()] == [
            "She", "is", "a", "smoker", ".",
        ]

    def test_token_kind_feature_present(self):
        doc = Document("BP 142/78")
        Tokenizer().annotate(doc)
        kinds = [t.features["kind"] for t in doc.tokens()]
        assert TokenKind.RATIO in kinds
