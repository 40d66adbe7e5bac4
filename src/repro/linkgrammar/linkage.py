"""Linkage data model for the word graph of §3.1.

The paper: "Suppose a node represents a word, and an edge represents a
link.  Then the linkage diagram of a valid sentence can be looked at as
a connected graph.  Furthermore, each edge can be weighted against the
type of link according to the application.  Thus, the shortest distance
between any word pair can be calculated from the graph."
"""

from __future__ import annotations

from dataclasses import dataclass, field

LEFT_WALL = "###LEFT-WALL###"


@dataclass(frozen=True, order=True)
class Link:
    """One typed link between two word positions (left < right)."""

    left: int
    right: int
    label: str

    def __post_init__(self) -> None:
        if self.left >= self.right:
            raise ValueError(
                f"link endpoints must be ordered: {self.left} {self.right}"
            )


@dataclass
class Linkage:
    """A complete linkage of a sentence.

    ``words`` includes the LEFT-WALL at position 0, as the real parser
    prints it; ``token_map[i]`` gives the caller's original token index
    for word ``i`` (``None`` for the wall and stripped punctuation).
    """

    words: list[str]
    links: list[Link]
    cost: int = 0
    token_map: list[int | None] = field(default_factory=list)
    #: Optional memo for shortest-distance queries, keyed by
    #: ``(source, weights key)``.  The cross-record linkage cache
    #: shares one memo between every hit of the same parse signature,
    #: so a sentence shape pays for its Dijkstra runs once per corpus.
    #: Excluded from equality: a memo is an accelerator, not content.
    distance_cache: dict | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.token_map:
            self.token_map = [None] + list(range(len(self.words) - 1))

    def links_of(self, word_index: int) -> list[Link]:
        """Links incident to *word_index*."""
        return [
            l for l in self.links
            if word_index in (l.left, l.right)
        ]

    def neighbor(self, link: Link, word_index: int) -> int:
        """The other endpoint of *link*."""
        return link.right if link.left == word_index else link.left

    def is_planar(self) -> bool:
        """No two links cross (a structural invariant of the parser)."""
        for i, a in enumerate(self.links):
            for b in self.links[i + 1:]:
                if a.left < b.left < a.right < b.right:
                    return False
                if b.left < a.left < b.right < a.right:
                    return False
        return True

    def is_connected(self) -> bool:
        """Every word is reachable from every other through links."""
        reached, frontier = {0}, [0]
        while frontier:
            word = frontier.pop()
            for link in self.links_of(word):
                other = self.neighbor(link, word)
                if other not in reached:
                    reached.add(other)
                    frontier.append(other)
        return reached >= set(range(len(self.words)))

    def diagram(self) -> str:
        """Flat link listing (one ``label: a <-> b`` line per link)."""
        lines = [
            f"  {link.label}: {self.words[link.left]} <-> "
            f"{self.words[link.right]}"
            for link in sorted(self.links)
        ]
        return "\n".join([" ".join(self.words[1:])] + lines)

    def pretty(self, include_wall: bool = True) -> str:
        """ASCII arc diagram in the original parser's style (Figure 1)."""
        from repro.linkgrammar.diagram import render

        return render(self, include_wall=include_wall)


@dataclass
class LinkWeights:
    """Per-link-type edge weights ("weighted against the type of link").

    The default weight is 1.0 per link — plain hop distance — with an
    override table for applications that care (e.g. making O links
    cheap so verb–object pairs count as semantically close).
    """

    default: float = 1.0
    overrides: dict[str, float] = field(default_factory=dict)

    def weight(self, label: str) -> float:
        # Longest matching prefix wins so "MVp" can override "MV".
        best: float | None = None
        best_len = -1
        for prefix, value in self.overrides.items():
            if label.startswith(prefix) and len(prefix) > best_len:
                best = value
                best_len = len(prefix)
        return self.default if best is None else best
