"""Disjunct power-pruning: pure speed, zero behaviour change.

The Sleator–Temperley pruning pass deletes disjuncts whose connectors
cannot match any surviving connector in the allowed direction before
the O(n³) recurrence runs.  Pruned disjuncts can never take part in a
complete linkage, so linkages with pruning on must equal linkages with
pruning off — on the paper's Figure 1 sentence and across a generated
corpus sample — while the disjunct count entering the recurrence
strictly drops.
"""

import copy
import pickle

import pytest

from repro.errors import ParseFailure
from repro.linkgrammar import Dictionary, LinkGrammarParser
from repro.nlp import analyze
from repro.synth import CohortSpec, RecordGenerator

FIGURE1 = (
    "blood pressure is 144/90 , pulse of 84 , temperature of 98.3 , "
    "and weight of 154 pounds ."
).split()


def canonical(linkages):
    return sorted((lk.cost, lk.links) for lk in linkages)


def corpus_sentences(max_tokens: int = 12, limit: int = 10):
    """Distinct (words, tags) sentences from a small generated cohort."""
    records, _ = RecordGenerator(seed=21).generate_cohort(
        CohortSpec(
            size=3,
            smoking_counts={
                "never": 1, "current": 1, "former": 1,
            },
        )
    )
    seen: set[tuple] = set()
    out: list[tuple[list[str], list[str]]] = []
    for record in records:
        document = analyze(record.raw_text)
        for sentence in document.sentences():
            tokens = document.tokens(sentence)
            if not tokens or len(tokens) > max_tokens:
                continue
            words = [document.span_text(t).lower() for t in tokens]
            tags = [t.features.get("pos", "NN") for t in tokens]
            key = tuple(words)
            if key in seen:
                continue
            seen.add(key)
            out.append((words, tags))
            if len(out) >= limit:
                return out
    return out


class TestFigure1:
    def test_pruning_preserves_all_linkages(self):
        pruned = LinkGrammarParser(prune=True)
        unpruned = LinkGrammarParser(prune=False)
        assert canonical(pruned.parse(FIGURE1)) == canonical(
            unpruned.parse(FIGURE1)
        )

    def test_pruning_strictly_reduces_disjuncts(self):
        parser = LinkGrammarParser(prune=True)
        parser.parse(FIGURE1)
        stats = parser.stats
        assert stats.disjuncts_after < stats.disjuncts_before
        assert stats.prune_ratio() > 0.5

    def test_pruning_off_counts_match(self):
        parser = LinkGrammarParser(prune=False)
        parser.parse(FIGURE1)
        assert (
            parser.stats.disjuncts_after
            == parser.stats.disjuncts_before
        )


class TestCorpusSample:
    @pytest.mark.parametrize(
        "words,tags",
        corpus_sentences(),
        ids=lambda value: " ".join(value)[:40]
        if isinstance(value, list) and value and value[0].islower()
        else None,
    )
    def test_equivalence_on_corpus(self, words, tags):
        pruned = LinkGrammarParser(prune=True)
        unpruned = LinkGrammarParser(prune=False)
        try:
            with_prune = canonical(pruned.parse(words, tags))
        except ParseFailure:
            with pytest.raises(ParseFailure):
                unpruned.parse(words, tags)
            return
        assert with_prune == canonical(unpruned.parse(words, tags))
        assert (
            pruned.stats.disjuncts_after
            <= pruned.stats.disjuncts_before
        )


class TestStats:
    def test_reset(self):
        parser = LinkGrammarParser()
        parser.parse(FIGURE1)
        parser.stats.reset()
        assert parser.stats.sentences == 0
        assert parser.stats.parse_seconds == 0.0

    def test_failures_counted(self):
        parser = LinkGrammarParser()
        with pytest.raises(ParseFailure):
            parser.parse("blood pressure : 144/90".split(),
                         ["NN", "NN", ":", "CD"])
        assert parser.stats.failures == 1
        assert parser.stats.sentences == 1

    def test_parse_time_accumulates(self):
        parser = LinkGrammarParser()
        parser.parse(FIGURE1)
        assert parser.stats.parse_seconds > 0.0


class TestDisjunctMasks:
    """Mask pruning's per-disjunct table and the shared word lists."""

    @staticmethod
    def distinct_disjuncts(dictionary):
        return {
            id(d) for ds in dictionary._disjunct_lists() for d in ds
        }

    def test_words_with_one_entry_share_the_expression_list(self):
        d = Dictionary(
            entries=[("alpha beta", "X+"), ("beta", "Y+")],
            tag_defaults=[],
        )
        assert d.disjuncts("alpha") is d._expand("X+")
        merged = d.disjuncts("beta")
        assert merged is not d._expand("X+")
        assert [x.right[0].label for x in merged] == ["X", "Y"]
        assert [x.right[0].label for x in d._expand("X+")] == ["X"]

    def test_one_mask_per_distinct_disjunct(self):
        d = Dictionary()
        masks = d.disjunct_masks()[0]
        assert set(masks) == self.distinct_disjuncts(d)

    def test_private_list_copies_keep_the_bound_and_the_parses(self):
        # An artifact compiled before words shared lists carries one
        # private copy per word, of the same Disjunct objects.
        shared = Dictionary()
        private = Dictionary()
        private._words = {
            word: list(ds) for word, ds in private._words.items()
        }
        masks = private.disjunct_masks()[0]
        assert len(masks) == len(self.distinct_disjuncts(private))
        assert len(masks) == len(shared.disjunct_masks()[0])
        assert LinkGrammarParser(dictionary=private).parse(
            FIGURE1
        ) == LinkGrammarParser(dictionary=shared).parse(FIGURE1)

    def test_add_invalidates_and_copies_drop_the_masks(self):
        d = Dictionary()
        before = d.disjunct_masks()
        assert copy.deepcopy(d)._disjunct_masks is None
        assert pickle.loads(pickle.dumps(d))._disjunct_masks is None
        d.add("zzgloblet", "{D-} & (Wd- or O-)")
        assert d._disjunct_masks is None
        assert d.disjunct_masks() is not before

    def test_unlinkable_label_is_pruned_like_the_table_path(self):
        # Pinned counts: pruning that keeps more, or fewer, disjuncts
        # moves them.
        d = Dictionary(
            entries=[
                ("###LEFT-WALL###", "Wd+"),
                ("one", "Wd- & {Q+}"),
                ("two", "Q- or Zz-"),
            ],
            tag_defaults=[],
        )
        parser = LinkGrammarParser(dictionary=d)
        assert len(parser.parse(["one", "two"])) == 1
        # "Zz-" has no partner anywhere, so it never survives.
        assert parser.stats.disjuncts_before == 5
        assert parser.stats.disjuncts_after == 4

    def test_label_missing_from_the_tables_is_never_linked(self):
        # No word has a left connector, so the match tables are empty
        # and no label has an id.
        d = Dictionary(
            entries=[("###LEFT-WALL###", "Wd+"), ("one", "{Q+}")],
            tag_defaults=[],
        )
        parser = LinkGrammarParser(dictionary=d)
        with pytest.raises(ParseFailure, match="no complete linkage"):
            parser.parse(["one"])
        assert parser.stats.disjuncts_after == 1
