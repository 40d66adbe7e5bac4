"""Sentence splitter tests over clinical dictation shapes."""

from repro.nlp.pipeline import analyze
from repro.nlp.sentence_splitter import split_sentences


class TestTerminalPunctuation:
    def test_simple_periods(self):
        sents = split_sentences("She is a smoker. She quit last year.")
        assert sents == ["She is a smoker.", "She quit last year."]

    def test_question_and_exclamation(self):
        sents = split_sentences("Any pain? None reported!")
        assert sents == ["Any pain?", "None reported!"]

    def test_trailing_text_without_period(self):
        sents = split_sentences("Alcohol use, occasional")
        assert sents == ["Alcohol use, occasional"]

    def test_single_token(self):
        assert split_sentences("None") == ["None"]

    def test_empty_text(self):
        assert split_sentences("") == []


class TestAbbreviations:
    def test_title_abbreviation_not_a_break(self):
        sents = split_sentences("Ms. 2 is a 50-year-old woman.")
        assert len(sents) == 1

    def test_dosing_abbreviation_not_a_break(self):
        sents = split_sentences("Aspirin p.o. daily was continued.")
        assert len(sents) == 1

    def test_unit_abbreviation_mid_sentence(self):
        sents = split_sentences("weight of 154 lbs. and stable vitals")
        assert len(sents) == 1

    def test_abbreviation_then_capital_breaks(self):
        # Dictated notes end sentences on unit abbreviations.
        sents = split_sentences("Weight of 211 lbs. HEENT is normal.")
        assert len(sents) == 2

    def test_decimal_not_a_break(self):
        sents = split_sentences("Temperature of 98.3 was recorded.")
        assert len(sents) == 1


class TestNewlineFragments:
    def test_newline_splits_fragments(self):
        text = "Vitals: Blood pressure is 142/78\nHEENT: PERRLA"
        assert len(split_sentences(text)) == 2

    def test_abbreviation_before_newline_still_breaks(self):
        text = "Weight 154 lbs.\nPulse of 96."
        assert len(split_sentences(text)) == 2


class TestCoverage:
    def test_every_token_in_exactly_one_sentence(self):
        text = (
            "Ms. 2 is a 50-year-old woman. Blood pressure is 144/90, "
            "pulse of 84.\nSocial History: Smoking history, 15 years."
        )
        doc = analyze(text)
        token_count = 0
        for sent in doc.sentences():
            token_count += len(doc.tokens(sent))
        assert token_count == len(doc.tokens())

    def test_sentences_are_disjoint_and_ordered(self):
        text = "One here. Two there. Three everywhere."
        doc = analyze(text)
        sents = doc.sentences()
        assert len(sents) == 3
        for a, b in zip(sents, sents[1:]):
            assert a.end <= b.start
