"""Processing pipeline (GATE application substitute).

A :class:`Pipeline` is an ordered list of components, each exposing
``annotate(document)``.  The default pipeline reproduces the paper's
GATE application: tokenization → sentence splitting → POS tagging →
number annotation, fused into one traversal.
"""

from __future__ import annotations

from typing import Protocol

from repro.nlp.document import Document
from repro.nlp.scanner import FusedScanner


class Component(Protocol):
    """A processing resource in the GATE sense."""

    def annotate(self, document: Document) -> None: ...


class Pipeline:
    """Runs components in order over documents."""

    def __init__(self, components: list[Component]) -> None:
        self.components = list(components)

    def process(self, document: Document) -> Document:
        """Run every component over *document* and return it."""
        for component in self.components:
            component.annotate(document)
        return document

    def process_text(self, text: str, name: str = "") -> Document:
        """Create a document from *text* and process it."""
        return self.process(Document(text, name=name))


def default_pipeline() -> Pipeline:
    """The paper's GATE application: tokens, sentences, POS, numbers.

    The four stages run fused in a single traversal
    (:class:`repro.nlp.scanner.FusedScanner`).
    """
    return Pipeline([FusedScanner()])


def analyze(text: str, name: str = "") -> Document:
    """One-call analysis used throughout examples and tests."""
    return default_pipeline().process_text(text, name=name)
