"""Shortest word-pair distance over the linkage graph (§3.1).

The paper's association rule: "the shortest distance between any word
pair is a good measure of the semantic relationship of the word pair …
the association of feature and number in a sentence is equivalent to
searching for the node (feature) with the shortest distance from a
fixed node (number) in a (weighted) graph."
"""

from __future__ import annotations

import heapq
import math

from repro.linkgrammar.linkage import Linkage, LinkWeights

#: Edge weights for the feature–number association application (§3.1).
#: Coordination separates conjuncts, so crossing a CJ edge is expensive;
#: modifier and numeric links bind tightly, so they are cheap.  With
#: these weights "pulse of 84" puts 84 at distance 1.0 from "pulse"
#: while the conjoined reading "pulse … 144/90" costs 4.0.
ASSOCIATION_WEIGHTS = LinkWeights(
    default=1.0,
    overrides={
        "CJ": 2.0,   # coordination chain: crossing leaves the conjunct
        "M": 0.5,    # noun → prepositional modifier
        "J": 0.5,    # preposition → object
        "NM": 0.5,   # numeric apposition ("age 10")
        "Dn": 0.5,   # numeric determiner ("154 pounds")
        "TA": 0.5,   # time apposition ("five years ago")
    },
)


def _weights_key(
    weights: LinkWeights | None,
) -> tuple | None:
    """Hashable identity of a weight table for the distance memo."""
    if weights is None:
        return None
    return (
        weights.default,
        tuple(sorted(weights.overrides.items())),
    )


def _dijkstra(
    linkage: Linkage,
    source: int,
    weights: LinkWeights | None,
) -> dict[int, float]:
    """Single-source shortest paths over the linkage's word graph.

    A direct heap implementation over the link list — the association
    hot path calls this for every mention of every sentence, so it
    builds no general graph object.
    """
    weights = weights or LinkWeights()
    n = len(linkage.words)
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for link in linkage.links:
        weight = weights.weight(link.label)
        adjacency[link.left].append((link.right, weight))
        adjacency[link.right].append((link.left, weight))
    distances = {node: math.inf for node in range(n)}
    if 0 <= source < n:
        distances[source] = 0.0
        heap = [(0.0, source)]
        while heap:
            distance, node = heapq.heappop(heap)
            if distance > distances[node]:
                continue  # stale entry
            for neighbor, weight in adjacency[node]:
                candidate = distance + weight
                if candidate < distances[neighbor]:
                    distances[neighbor] = candidate
                    heapq.heappush(heap, (candidate, neighbor))
    return distances


def linkage_distances(
    linkage: Linkage,
    source: int,
    weights: LinkWeights | None = None,
) -> dict[int, float]:
    """Shortest distance from word *source* to every word.

    Word indices are linkage positions (wall = 0).  Unreachable words
    (none, in a valid linkage) map to ``math.inf``.  When the linkage
    carries a ``distance_cache`` (linkages resolved through the
    runtime's cross-record cache do), results are memoized per
    ``(source, weights)`` and shared by every sentence with the same
    parse signature — treat the returned mapping as read-only.
    """
    memo = linkage.distance_cache
    if memo is None:
        return _dijkstra(linkage, source, weights)
    key = (source, _weights_key(weights))
    found = memo.get(key)
    if found is None:
        found = _dijkstra(linkage, source, weights)
        memo[key] = found
    return found


def word_distance(
    linkage: Linkage,
    a: int,
    b: int,
    weights: LinkWeights | None = None,
) -> float:
    """Shortest distance between linkage positions *a* and *b*."""
    if a == b:
        return 0.0
    return linkage_distances(linkage, a, weights).get(b, math.inf)


def nearest_word(
    linkage: Linkage,
    source: int,
    candidates: list[int],
    weights: LinkWeights | None = None,
) -> tuple[int | None, float]:
    """The candidate position closest to *source*, with its distance.

    Ties break toward the earlier (leftmost) candidate, matching how a
    reader resolves "pulse of 84, temperature of 98.3" ambiguities.
    Returns ``(None, inf)`` when no candidate is reachable.
    """
    if not candidates:
        return None, math.inf
    distances = linkage_distances(linkage, source, weights)
    best: int | None = None
    best_distance = math.inf
    for candidate in sorted(candidates):
        d = distances.get(candidate, math.inf)
        if d < best_distance:
            best = candidate
            best_distance = d
    return best, best_distance
