"""LRU, document, and linkage cache behaviour."""

import pytest

from repro.linkgrammar import LinkGrammarParser
from repro.linkgrammar.dictionary import Dictionary
from repro.runtime.cache import (
    DOCUMENT_FRONT_SIZE,
    DocumentCache,
    ExtractionCaches,
    LinkageCache,
    LRUCache,
)
from repro.runtime.parsecache import PersistentParseCache


class TestLRUCache:
    def test_put_get(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.counters() == {
            "hits": 1, "misses": 0, "evictions": 0,
        }

    def test_miss_counts(self):
        cache = LRUCache(maxsize=2)
        assert cache.get("nope") is None
        assert cache.misses == 1

    def test_eviction_is_lru(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")        # refresh a; b is now least-recent
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)

    def test_hit_rate(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert cache.hit_rate() == 0.5

    def test_stats_shape(self):
        stats = LRUCache(maxsize=4, name="x").stats()
        assert stats["name"] == "x"
        assert {"size", "maxsize", "hits", "misses", "evictions",
                "hit_rate"} <= set(stats)


class TestDocumentCache:
    def test_same_text_same_document(self):
        cache = DocumentCache(maxsize=4)
        first = cache.get("Pulse of 84.")
        second = cache.get("Pulse of 84.")
        assert first is second
        assert cache.counters()["hits"] == 1

    def test_document_is_processed(self):
        document = DocumentCache(maxsize=4).get("Pulse of 84.")
        assert document.sentences()
        assert document.numbers()

    @staticmethod
    def _others(cache, count, prefix="other"):
        for i in range(count):
            cache.get(f"{prefix} {i}.")

    def test_reads_within_one_record_stay_in_the_front(self):
        cache = DocumentCache()
        for _ in range(8):
            cache.get("Pulse of 84.")
        assert cache.counters() == {
            "hits": 7, "misses": 1, "evictions": 0,
        }
        assert "Pulse of 84." not in cache._main
        self._others(cache, 40)
        assert "Pulse of 84." not in cache._main

    def test_second_miss_is_admitted_then_hits(self):
        cache = DocumentCache()
        cache.get("Pulse of 84.")
        self._others(cache, 40)  # pushes it out of the 32-entry front
        assert "Pulse of 84." not in cache._front
        admitted = cache.get("Pulse of 84.")
        assert cache.misses == 42
        assert cache._main == {"Pulse of 84.": admitted}
        self._others(cache, 40, prefix="fresh")
        assert cache.get("Pulse of 84.") is admitted
        assert cache.misses == 82

    def test_one_read_texts_never_fill_main(self):
        cache = DocumentCache()
        self._others(cache, 3000)
        stats = cache.stats()
        assert stats["size"] <= DOCUMENT_FRONT_SIZE + cache.maxsize
        assert stats["size"] == DOCUMENT_FRONT_SIZE
        assert stats["evictions"] == 0
        assert stats["misses"] == 3000

    def test_clear_forgets_the_ghost(self):
        cache = DocumentCache()
        cache.get("Pulse of 84.")
        cache.clear()
        assert cache.stats()["size"] == 0
        cache.get("Pulse of 84.")
        assert "Pulse of 84." not in cache._main
        self._others(cache, 40)
        cache.get("Pulse of 84.")
        assert "Pulse of 84." in cache._main


class TestLinkageCache:
    SENTENCE_84 = "pulse of 84 .".split()
    SENTENCE_96 = "pulse of 96 .".split()
    TAGS = ["NN", "IN", "CD", "."]

    def test_parse_and_hit(self):
        parser = LinkGrammarParser()
        cache = LinkageCache()
        first = cache.lookup(parser, self.SENTENCE_84, self.TAGS)
        second = cache.lookup(parser, self.SENTENCE_84, self.TAGS)
        assert first is not None
        assert second is not None
        assert cache.counters() == {
            "hits": 1, "misses": 1, "evictions": 0,
        }
        assert second.links == first.links
        assert second.words == first.words

    def test_numeric_variants_share_one_parse(self):
        """Sentences differing only in values hit the same entry."""
        parser = LinkGrammarParser()
        cache = LinkageCache()
        first = cache.lookup(parser, self.SENTENCE_84, self.TAGS)
        second = cache.lookup(parser, self.SENTENCE_96, self.TAGS)
        assert cache.counters()["hits"] == 1
        # Structure is shared, surface words are the caller's own.
        assert second.links == first.links
        assert "96" in second.words and "84" not in second.words
        fresh = parser.parse_one(self.SENTENCE_96, self.TAGS)
        assert second.words == fresh.words
        assert sorted(second.links) == sorted(fresh.links)
        assert second.token_map == fresh.token_map
        assert second.cost == fresh.cost

    def test_parse_failure_cached(self):
        parser = LinkGrammarParser()
        cache = LinkageCache()
        fragment = "blood pressure : 144/90".split()
        tags = ["NN", "NN", ":", "CD"]
        assert cache.lookup(parser, fragment, tags) is None
        assert cache.lookup(parser, fragment, tags) is None
        assert cache.counters() == {
            "hits": 1, "misses": 1, "evictions": 0,
        }

    def test_parser_config_partitions_entries(self):
        """A max_linkages=1 parser must not reuse a 16-linkage parse."""
        cache = LinkageCache()
        wide = LinkGrammarParser(max_linkages=16)
        narrow = LinkGrammarParser(max_linkages=1)
        cache.lookup(wide, self.SENTENCE_84, self.TAGS)
        cache.lookup(narrow, self.SENTENCE_84, self.TAGS)
        assert cache.counters()["misses"] == 2

    def test_clear(self):
        """Clearing empties the front; the store still answers."""
        parser = LinkGrammarParser()
        cache = LinkageCache()
        cache.lookup(parser, self.SENTENCE_84, self.TAGS)
        cache.clear()
        cache.lookup(parser, self.SENTENCE_84, self.TAGS)
        assert cache.counters()["misses"] == 2
        assert parser.stats.persistent_hits == 1
        assert parser.stats.sentences == 1

    def test_parser_over_another_dictionary_is_refused(self):
        parser = LinkGrammarParser()
        signature = parser.dictionary.signature()
        cache = LinkageCache(PersistentParseCache(signature))
        assert cache.lookup(parser, self.SENTENCE_84, self.TAGS)
        other = Dictionary()
        other.add("zzgadget", "Os-")
        foreign = LinkGrammarParser(dictionary=other)
        with pytest.raises(ValueError) as refused:
            cache.lookup(foreign, self.SENTENCE_84, self.TAGS)
        assert signature in str(refused.value)
        assert other.signature() in str(refused.value)
        assert foreign.stats.sentences == 0

    def test_dictionary_changed_by_add_is_refused(self):
        """An in-memory store binds to the first dictionary it sees,
        so entries parsed before ``Dictionary.add`` are never served
        after it."""
        dictionary = Dictionary()
        parser = LinkGrammarParser(dictionary=dictionary)
        cache = LinkageCache()
        assert cache.store.dictionary_signature is None
        assert cache.lookup(parser, self.SENTENCE_84, self.TAGS)
        before = dictionary.signature()
        assert cache.store.dictionary_signature == before
        dictionary.add("zzgloblet", "{D-} & (Wd- or O-)")
        with pytest.raises(ValueError) as refused:
            cache.lookup(parser, self.SENTENCE_84, self.TAGS)
        assert before in str(refused.value)
        assert dictionary.signature() in str(refused.value)
        assert cache.counters()["hits"] == 0


class TestExtractionCaches:
    def test_bundle(self):
        caches = ExtractionCaches()
        caches.documents.get("Pulse of 84.")
        counters = caches.counters()
        assert counters["documents"]["misses"] == 1
        assert "linkages" in counters
        caches.clear()
        assert caches.stats()["documents"]["size"] == 0
