"""Per-sentence parse budget: ParseTimeout and graceful degradation.

A sentence that blows its wall-clock budget must behave exactly like a
sentence the grammar cannot parse: the extractor falls back to the
paper's linguistic patterns and still produces values.
"""

import pytest

from repro import tracing
from repro.errors import ParseFailure, ParseTimeout
from repro.extraction.numeric import NumericExtractor
from repro.linkgrammar import LinkGrammarParser
from repro.synth import CohortSpec, RecordGenerator
from repro.tracing import Tracer

FIGURE1 = (
    "blood pressure is 144/90 , pulse of 84 , temperature of 98.3 , "
    "and weight of 154 pounds ."
).split()


@pytest.fixture(scope="module")
def cohort():
    return RecordGenerator(seed=23).generate_cohort(
        CohortSpec(
            size=4,
            smoking_counts={"never": 2, "current": 1, "former": 1},
        )
    )


class TestBudgetValidation:
    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            LinkGrammarParser(time_budget=-1.0)

    def test_none_budget_never_times_out(self):
        parser = LinkGrammarParser(time_budget=None)
        assert parser.parse_one(FIGURE1) is not None
        assert parser.stats.timeouts == 0


class TestTimeoutRaised:
    def test_zero_budget_times_out_immediately(self):
        parser = LinkGrammarParser(time_budget=0.0)
        with pytest.raises(ParseTimeout) as excinfo:
            parser.parse_one(FIGURE1)
        assert "budget" in str(excinfo.value)
        assert excinfo.value.budget == 0.0

    def test_timeout_is_a_parse_failure(self):
        # Every existing `except ParseFailure` fallback site must also
        # catch timeouts — that is what makes degradation automatic.
        assert issubclass(ParseTimeout, ParseFailure)

    def test_timeout_counted_in_stats(self):
        parser = LinkGrammarParser(time_budget=0.0)
        with pytest.raises(ParseTimeout):
            parser.parse(FIGURE1)
        assert parser.stats.timeouts == 1
        assert parser.stats.failures == 1
        assert "timeouts" in parser.stats.to_dict()

    def test_generous_budget_parses_normally(self):
        parser = LinkGrammarParser(time_budget=60.0)
        assert parser.parse_one(FIGURE1) is not None
        assert parser.stats.timeouts == 0


class TestDegradation:
    def test_timed_out_extractor_matches_pattern_only(self, cohort):
        """Fallback equivalence: budget=0 ≡ linkage disabled."""
        records, _ = cohort
        timed_out = NumericExtractor(
            parser=LinkGrammarParser(time_budget=0.0)
        )
        pattern_only = NumericExtractor(use_linkage=False)
        for record in records:
            assert timed_out.extract_record(record) == \
                pattern_only.extract_record(record)
        assert timed_out.parser.stats.timeouts > 0

    def test_timeout_emits_trace_event(self, cohort):
        records, _ = cohort
        extractor = NumericExtractor(
            parser=LinkGrammarParser(time_budget=0.0)
        )
        tracer = Tracer()
        with tracing.activated(tracer):
            with tracer.span("record", records[0].patient_id):
                extractor.extract_record(records[0])
        events = [
            span
            for root in tracer.roots
            for span in root.walk()
            if span.kind == "parse-timeout"
        ]
        assert events
        assert events[0].attributes["budget_s"] == 0.0

    def test_timeout_result_cached(self):
        extractor = NumericExtractor(
            parser=LinkGrammarParser(time_budget=0.0)
        )
        words = tuple(FIGURE1)
        assert extractor.linkage_cache.lookup(
            extractor.parser, words
        ) is None
        assert extractor.parser.stats.timeouts == 1
        # Second lookup hits the cached timeout marker: no re-parse.
        assert extractor.linkage_cache.lookup(
            extractor.parser, words
        ) is None
        assert extractor.parser.stats.timeouts == 1
