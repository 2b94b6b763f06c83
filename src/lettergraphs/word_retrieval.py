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

from .graphs import Coloring, Graph, color_masks, members
from .letters import Word, checked_decoder


def _successor_masks(graph: Graph, coloring: Coloring,
                     decoder: Iterable[Sequence[str]]) -> list[int]:
    """Arc bitmask per vertex index; bit j of succ[i] means arc (i, j).

    before[c] holds the vertices whose letter x has (x, c) in D, so the arcs
    out of i are its neighbors XOR before[chi(i)], less i itself.
    """
    masks = color_masks(graph, coloring)
    before = dict.fromkeys(coloring.alphabet, 0)
    for x, c in checked_decoder(decoder, coloring.alphabet):
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


@dataclass(frozen=True)
class GeneralizedSolution:
    """A vertex order realizing the graph, with its induced color word."""

    permutation: tuple[str, ...]
    word: Word


def retrieve_word(graph: Graph, coloring: Coloring,
                  decoder: Iterable[Sequence[str]]) -> Optional[GeneralizedSolution]:
    """Find a vertex order whose color word decodes back to the graph.

    Returns None exactly when no such order exists.  Among the valid orders
    the smallest vertex index wins whenever several vertices are ready.
    """
    order = _topological_indices(_successor_masks(graph, coloring, decoder))
    if order is None:
        return None
    permutation = tuple(graph.vertices[i] for i in order)
    return GeneralizedSolution(permutation, tuple(coloring[v] for v in permutation))
