"""The parser returns exactly the pinned outcome on every corpus shape.

``golden_parses.json`` holds, for each sentence shape the extractor
parses on the style-pack and trap corpora (see ``golden_parses.py``),
a SHA-256 of the whole ``parse()`` outcome: every linkage's links,
cost and token map in returned order, or the failure reason.  Any
change to the dictionary or the parser that moves one linkage, one
cost or one failure fails here with the sentence named.
"""

from repro.linkgrammar import LinkGrammarParser
from tests.linkgrammar.golden_parses import digest, load, outcome

SHAPES = load()

#: Ceiling on the candidates the region recurrence tries over the
#: whole corpus (``ParserStats.match_bitset_hits``).  The counting
#: recurrence tried 713,972; the existence recurrence tries about
#: 190,000.  A change that brings back the wasted work fails here.
MAX_CANDIDATES_TRIED = 200_000


def mismatches(parser: LinkGrammarParser, shapes: list[dict]) -> list[str]:
    return [
        " ".join(shape["words"])
        for shape in shapes
        if digest(outcome(parser, shape["words"], shape["tags"]))
        != shape["sha256"]
    ]


class TestGoldenParses:
    def test_corpus_covers_the_invariant_sentences(self):
        from tests.linkgrammar.test_parser import TestLinkageInvariants

        pinned = {tuple(shape["words"]) for shape in SHAPES}
        for words in TestLinkageInvariants.SENTENCES:
            assert tuple(words) in pinned
        assert len(SHAPES) >= 80

    def test_every_shape_parses_as_pinned(self):
        parser = LinkGrammarParser()
        assert mismatches(parser, SHAPES) == []
        assert parser.stats.sentences == len(SHAPES)
        assert 0 < parser.stats.match_bitset_hits <= MAX_CANDIDATES_TRIED

    def test_unpruned_sample_parses_as_pinned(self):
        parser = LinkGrammarParser(prune=False)
        assert mismatches(parser, SHAPES[::6]) == []
        assert parser.stats.disjuncts_after == parser.stats.disjuncts_before
