"""NLP substrate: tokenizer, sentence splitter, POS tagger, number NER.

Substitute for the GATE components the paper relies on (tokenization,
sentence splitting, part-of-speech tagging, number annotation), built on
a GATE-style :class:`~repro.nlp.document.Document`/annotation model.
"""

from repro.nlp.document import (
    Annotation,
    AnnotationSet,
    Document,
    TokenKind,
)
from repro.nlp.gazetteer import Gazetteer
from repro.nlp.jape import (
    Constraint,
    JapeEngine,
    Rule,
    duration_rules,
    measurement_rules,
)
from repro.nlp.numbers import parse_number_word, parse_word_sequence
from repro.nlp.pipeline import Pipeline, analyze, default_pipeline
from repro.nlp.pos_tagger import PosTagger, tag_sentence
from repro.nlp.sentence_splitter import split_sentences
from repro.nlp.tokenizer import scan_tokens, tokenize

__all__ = [
    "Annotation",
    "AnnotationSet",
    "Document",
    "TokenKind",
    "Gazetteer",
    "Constraint",
    "JapeEngine",
    "Rule",
    "duration_rules",
    "measurement_rules",
    "parse_number_word",
    "parse_word_sequence",
    "Pipeline",
    "analyze",
    "default_pipeline",
    "PosTagger",
    "tag_sentence",
    "split_sentences",
    "scan_tokens",
    "tokenize",
]
