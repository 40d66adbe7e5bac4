"""Parser tests: clinical sentences, invariants, failure modes."""

import gc
import weakref

import pytest

from repro.errors import ParseFailure
from repro.linkgrammar import (
    Dictionary,
    Link,
    LinkGrammarParser,
    Linkage,
)
from repro.linkgrammar.connectors import connectors_match
from repro.linkgrammar.dictionary import LEFT_WALL
from repro.linkgrammar.parser import _ParseSession

FIGURE1 = (
    "blood pressure is 144/90 , pulse of 84 , temperature of 98.3 , "
    "and weight of 154 pounds ."
).split()


@pytest.fixture(scope="module")
def parser():
    return LinkGrammarParser()


def link_set(linkage: Linkage):
    return {
        (linkage.words[l.left], linkage.words[l.right], l.label)
        for l in linkage.links
    }


class TestClinicalSentences:
    def test_figure1_parses(self, parser):
        linkage = parser.parse_one(FIGURE1)
        links = link_set(linkage)
        # The paper's headline link: verb–object between "is" and the
        # blood pressure reading.
        assert ("is", "144/90", "O") in links
        assert ("blood", "pressure", "AN") in links

    def test_quit_smoking(self, parser):
        linkage = parser.parse_one("she quit smoking five years ago .".split())
        links = link_set(linkage)
        assert ("she", "quit", "Ss") in links
        assert ("years", "ago", "TA") in links

    def test_never_smoked(self, parser):
        linkage = parser.parse_one("she has never smoked .".split())
        links = link_set(linkage)
        assert ("has", "smoked", "PP") in links
        assert ("never", "smoked", "E") in links

    def test_current_smoker(self, parser):
        linkage = parser.parse_one("she is currently a smoker .".split())
        links = link_set(linkage)
        assert ("is", "smoker", "O") in links
        assert ("is", "currently", "EB") in links

    def test_single_word(self, parser):
        linkage = parser.parse_one(["none"])
        assert len(linkage.links) == 1

    def test_predicate_adjective_with_complement(self, parser):
        linkage = parser.parse_one(
            "her breast history is negative for biopsies .".split()
        )
        links = link_set(linkage)
        assert ("is", "negative", "Pa") in links
        assert ("for", "biopsies", "J") in links

    def test_gyn_fragment(self, parser):
        linkage = parser.parse_one(
            "menarche at age 10 , gravida 4 , para 3 .".split()
        )
        links = link_set(linkage)
        assert ("age", "10", "NM") in links
        assert ("gravida", "4", "NM") in links
        assert ("para", "3", "NM") in links

    def test_tag_fallback_for_unknown_words(self, parser):
        # "flurbs" is not in the dictionary; the NNS tag default makes
        # the sentence parse anyway.
        words = "she reports two flurbs .".split()
        tags = ["PRP", "VBZ", "CD", "NNS", "."]
        linkage = parser.parse_one(words, tags)
        assert ("reports", "flurbs", "O") in link_set(linkage)


class TestFailureModes:
    def test_colon_fragment_fails_without_tags(self, parser):
        # §3.1: "the Link Grammar Parser cannot parse text fragments,
        # e.g., 'blood pressure: 144/90'" — the pattern approach takes
        # over.  Without a tag for ':' there is no dictionary entry.
        with pytest.raises(ParseFailure):
            parser.parse("blood pressure : 144/90".split(" ")[0:2] + ["###"])

    def test_empty_sentence(self, parser):
        with pytest.raises(ParseFailure):
            parser.parse([])

    def test_punctuation_only(self, parser):
        with pytest.raises(ParseFailure):
            parser.parse([".", ","])

    def test_unknown_word_no_tag(self, parser):
        with pytest.raises(ParseFailure):
            parser.parse(["zzzqqq", "xxxyyy"])

    def test_word_cap(self):
        small = LinkGrammarParser(max_words=5)
        with pytest.raises(ParseFailure):
            small.parse("she is a very very very old lady .".split())

    def test_ungrammatical_fails(self, parser):
        with pytest.raises(ParseFailure):
            parser.parse("the the the".split())


class TestLinkageInvariants:
    SENTENCES = [
        FIGURE1,
        "she quit smoking five years ago .".split(),
        "she has never smoked .".split(),
        "she is currently a smoker .".split(),
        "her breast history is negative for biopsies .".split(),
        "she drinks one glass of wine per day .".split(),
        "menarche at age 10 , gravida 4 , para 3 .".split(),
        "smoking history , 15 years .".split(),
    ]

    @pytest.mark.parametrize("words", SENTENCES, ids=lambda w: " ".join(w[:4]))
    def test_all_linkages_planar(self, parser, words):
        for linkage in parser.parse(words):
            assert linkage.is_planar()

    @pytest.mark.parametrize("words", SENTENCES, ids=lambda w: " ".join(w[:4]))
    def test_all_linkages_connected(self, parser, words):
        for linkage in parser.parse(words):
            assert linkage.is_connected()

    @pytest.mark.parametrize("words", SENTENCES, ids=lambda w: " ".join(w[:4]))
    def test_exclusion_no_duplicate_pairs(self, parser, words):
        for linkage in parser.parse(words):
            pairs = [(l.left, l.right) for l in linkage.links]
            assert len(pairs) == len(set(pairs))

    @pytest.mark.parametrize("words", SENTENCES, ids=lambda w: " ".join(w[:4]))
    def test_linkages_unique(self, parser, words):
        seen = set()
        for linkage in parser.parse(words):
            key = frozenset(linkage.links)
            assert key not in seen
            seen.add(key)

    def test_costs_sorted_ascending(self, parser):
        linkages = parser.parse(FIGURE1)
        costs = [lk.cost for lk in linkages]
        assert costs == sorted(costs)

    def test_token_map_skips_stripped_punctuation(self, parser):
        linkage = parser.parse_one("she has never smoked .".split())
        # wall maps to None, remaining words map to original indices.
        assert linkage.token_map[0] is None
        assert linkage.token_map[1:] == [0, 1, 2, 3]


class TestConnectivity:
    """``is_connected`` on hand-built linkages (wall at position 0)."""

    WORDS = ["###LEFT-WALL###", "she", "quit", "smoking"]

    def test_chain_through_the_wall(self):
        links = [Link(0, 2, "W"), Link(1, 2, "S"), Link(2, 3, "O")]
        assert Linkage(self.WORDS, links).is_connected()

    def test_links_listed_out_of_order(self):
        links = [Link(2, 3, "O"), Link(0, 1, "W"), Link(1, 3, "X")]
        assert Linkage(self.WORDS, links).is_connected()

    def test_island_is_disconnected(self):
        links = [Link(0, 1, "W"), Link(2, 3, "O")]
        assert not Linkage(self.WORDS, links).is_connected()

    def test_unlinked_last_word_is_disconnected(self):
        links = [Link(0, 2, "W"), Link(1, 2, "S")]
        assert not Linkage(self.WORDS, links).is_connected()

    def test_wall_only_and_one_word(self):
        assert Linkage(["###LEFT-WALL###"], []).is_connected()
        assert not Linkage(["###LEFT-WALL###", "pulse"], []).is_connected()
        assert Linkage(
            ["###LEFT-WALL###", "pulse"], [Link(0, 1, "W")]
        ).is_connected()


class TestCustomDictionary:
    def test_add_overrides(self):
        d = Dictionary()
        d.add("zzgloblet", "{D-} & (Wd- or O-)")
        parser = LinkGrammarParser(dictionary=d)
        linkage = parser.parse_one(["the", "zzgloblet"])
        assert ("the", "zzgloblet") in {
            (linkage.words[l.left], linkage.words[l.right])
            for l in linkage.links
        }

    def test_contains(self):
        d = Dictionary()
        assert "pressure" in d
        assert "zzgloblet" not in d

    def test_parse_one_returns_cheapest(self):
        parser = LinkGrammarParser()
        all_linkages = parser.parse(FIGURE1)
        assert parser.parse_one(FIGURE1).cost == all_linkages[0].cost


class TestBitsetParity:
    """The parser tests whether two connectors link with one bit of
    the dictionary's packed tables, and prunes with per-disjunct masks
    over the same bit ids.  The bit must say exactly what
    :func:`connectors_match` says; mask pruning must leave every
    linkage and failure of the unpruned parser (``prune=False``)
    unchanged and prune exactly the disjuncts it always has."""

    SENTENCES = TestLinkageInvariants.SENTENCES

    def test_bit_test_equals_connectors_match(self):
        dictionary = Dictionary()
        disjuncts = [
            d for ds in dictionary._disjunct_lists() for d in ds
        ]
        plus = {c for d in disjuncts for c in d.right}
        minus = {c for d in disjuncts for c in d.left}
        session = _ParseSession(
            [LEFT_WALL],
            [dictionary.disjuncts(LEFT_WALL)],
            dictionary.bitset_tables(),
        )
        # Every label pair of the dictionary's match table (625).
        assert {(p.label, m.label) for p in plus for m in minus} == set(
            dictionary.match_tables()
        )
        assert [
            (p.label, m.label)
            for p in plus
            for m in minus
            if session._links(p.label, m.label) != connectors_match(p, m)
        ] == []

    @pytest.mark.parametrize(
        "words", SENTENCES, ids=lambda w: " ".join(w[:4])
    )
    def test_linkages_identical(self, words):
        assert LinkGrammarParser().parse(words) == LinkGrammarParser(
            prune=False
        ).parse(words)

    def test_failures_identical(self):
        bad = "wine glass pressure the of .".split()
        for parser in (LinkGrammarParser(), LinkGrammarParser(prune=False)):
            with pytest.raises(ParseFailure, match="no complete linkage"):
                parser.parse(bad)

    def test_prune_counts_identical(self):
        # Pinned counts: pruning that keeps more, or fewer, disjuncts
        # moves them.
        parser = LinkGrammarParser()
        parser.parse(FIGURE1)
        assert parser.stats.disjuncts_before == 11045
        assert parser.stats.disjuncts_after == 930


class TestSessionLifetime:
    def test_session_is_freed_without_the_cycle_collector(
        self, monkeypatch
    ):
        # max_linkages=1 stops extraction with region plans still
        # suspended; they must not keep the session's tables alive.
        sessions = []
        real = _ParseSession.linkages

        def recording(session, limit):
            sessions.append(weakref.ref(session))
            return real(session, limit)

        monkeypatch.setattr(_ParseSession, "linkages", recording)
        parser = LinkGrammarParser(max_linkages=1)
        gc.disable()
        try:
            assert len(parser.parse(FIGURE1)) == 1
            assert sessions and sessions[0]() is None
        finally:
            gc.enable()
