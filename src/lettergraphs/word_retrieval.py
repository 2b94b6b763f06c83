"""Recovering a word from a colored graph and a decoder.

Given (G, chi, D), build a precedence digraph H on V(G): for distinct u, v
there is an arc (u, v), read "u comes before v", exactly when placing v
after u is forced, i.e. when

  * {u, v} is an edge but (chi(v), chi(u)) is not in D, or
  * {u, v} is not an edge but (chi(v), chi(u)) is in D.

With vertex sets as bitmasks that is one XOR per vertex: the arcs out of u
are N(u) XOR B(chi(u)), less u, where B(c) is the set of vertices whose
letter x has (x, c) in D.  Kahn's algorithm then walks the set bits of
each row.

A linear order realizes G as the letter graph of its color word if and only
if it is a topological order of H, so the instance is solvable exactly when
H is acyclic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import MalformedInstanceError
from .graphs import Coloring, Graph, check_total_coloring, color_masks, members
from .letters import Decoder, Word, decoder_letters, normalize_decoder


def _check_decoder_alphabet(coloring: Coloring, decoder: Decoder) -> None:
    stray = decoder_letters(decoder) - set(coloring.alphabet)
    if stray:
        raise MalformedInstanceError(f"decoder letters outside the alphabet: {sorted(stray)}")


def _successor_masks(graph: Graph, coloring: Coloring, decoder: Decoder) -> list[int]:
    """Arc bitmask per vertex index; bit j of succ[i] means arc (i, j).

    before[c] holds the vertices whose letter x has (x, c) in D, so the arcs
    out of i are its neighbors XOR before[chi(i)], less i itself.
    """
    masks = color_masks(graph, coloring)
    before = dict.fromkeys(coloring.alphabet, 0)
    for x, c in decoder:
        before[c] |= masks[x]
    return [(row ^ before[coloring[v]]) & ~(1 << i)
            for i, (v, row) in enumerate(zip(graph.vertices, graph.adjacency_masks()))]


def _topological_indices(succ: list[int]) -> Optional[list[int]]:
    """Kahn's algorithm over bitmask rows, smallest index first among sources."""
    n = len(succ)
    indegree = [0] * n
    for row in succ:
        for j in members(row):
            indegree[j] += 1
    ready = [i for i in range(n) if indegree[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in members(succ[i]):
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(ready, j)
    if len(order) != n:
        return None
    return order


class OrderDigraph:
    """The precedence digraph, materialized with named arcs."""

    __slots__ = ("vertices", "arcs", "_succ")

    def __init__(self, vertices: Sequence[str], succ: list[int]):
        self.vertices = tuple(vertices)
        self._succ = list(succ)
        self.arcs = frozenset((self.vertices[i], self.vertices[j])
                              for i, row in enumerate(succ) for j in members(row))

    def has_arc(self, u: str, v: str) -> bool:
        return (u, v) in self.arcs

    def __repr__(self) -> str:
        return f"OrderDigraph({list(self.vertices)!r}, arcs={sorted(self.arcs)!r})"


@dataclass(frozen=True)
class GeneralizedSolution:
    """A vertex order realizing the graph, with its induced color word."""

    permutation: tuple[str, ...]
    word: Word


def build_order_digraph(graph: Graph, coloring: Coloring,
                        decoder: Iterable[Sequence[str]]) -> OrderDigraph:
    check_total_coloring(graph, coloring)
    d = normalize_decoder(decoder)
    _check_decoder_alphabet(coloring, d)
    return OrderDigraph(graph.vertices, _successor_masks(graph, coloring, d))


def topological_order(digraph: OrderDigraph) -> Optional[list[str]]:
    """A topological order of the digraph, or None if it has a cycle.

    Deterministic: among available sources the smallest vertex index wins.
    """
    order = _topological_indices(digraph._succ)
    if order is None:
        return None
    return [digraph.vertices[i] for i in order]


def retrieve_word(graph: Graph, coloring: Coloring,
                  decoder: Iterable[Sequence[str]]) -> Optional[GeneralizedSolution]:
    """Find a vertex order whose color word decodes back to the graph.

    Returns None exactly when no such order exists.
    """
    check_total_coloring(graph, coloring)
    d = decoder if isinstance(decoder, frozenset) else normalize_decoder(decoder)
    _check_decoder_alphabet(coloring, d)
    order = _topological_indices(_successor_masks(graph, coloring, d))
    if order is None:
        return None
    permutation = tuple(graph.vertices[i] for i in order)
    return GeneralizedSolution(permutation, tuple(coloring[v] for v in permutation))
