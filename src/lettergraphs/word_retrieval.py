"""Recovering a word from a colored graph and a decoder.

Given (G, chi, D), build a precedence digraph H on V(G): for distinct u, v
there is an arc (u, v), read "u comes before v", exactly when placing v
after u is forced, i.e. when

  * {u, v} is an edge but (chi(v), chi(u)) is not in D, or
  * {u, v} is not an edge but (chi(v), chi(u)) is in D.

With vertex sets as bitmasks that is one XOR per vertex: the arcs into v
come from N(v) XOR A(chi(v)), less v, where A(c) is the set of vertices
whose letter x has (c, x) in D.  The arcs are never listed one by one.
Instead the order is peeled: a vertex may go next when its predecessor row
has no bit left in the set of vertices not yet placed.  Each blocked vertex
watches one remaining predecessor, the highest-indexed one, and is tested
again only when that predecessor is placed; it then either watches the
next one or becomes ready.  This is the watched-literal idea of SAT
solvers (Moskewicz et al., "Chaff", 2001) applied to Kahn's algorithm: a
vertex becomes ready at the same step as under Kahn's in-degree counts, so
with the ready vertices in one heap the order is the same.

A linear order realizes G as the letter graph of its color word if and only
if it is a topological order of H, so the instance is solvable exactly when
H is acyclic, that is, when the peel places every vertex.  The answer is a
letters.Realization: the peeled order, its color word, the decoder as a
sorted tuple and the given coloring.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional, Sequence

from .graphs import Coloring, Graph, color_masks
from .letters import Decoder, Realization, checked_decoder


def _predecessor_rows(graph: Graph, coloring: Coloring, decoder: Decoder) -> list[int]:
    """Arc bitmask per vertex index; bit j of pred[i] means arc (j, i).

    after[c] holds the vertices whose letter x has (c, x) in D, so the arcs
    into i come from its neighbors XOR after[chi(i)], less i itself.  The
    decoder's letters must already be checked against the alphabet.
    """
    masks = color_masks(graph, coloring)
    after = dict.fromkeys(coloring.alphabet, 0)
    for c, x in decoder:
        after[c] |= masks[x]
    return [(row ^ after[coloring[v]]) & ~(1 << i)
            for i, (v, row) in enumerate(zip(graph.vertices, graph.adjacency_masks()))]


def _peel_order(pred: list[int]) -> Optional[list[int]]:
    """Smallest-index-first topological order by watched blockers, or None on a cycle."""
    n = len(pred)
    remaining = (1 << n) - 1
    watchers: list[list[int]] = [[] for _ in range(n)]
    ready = []
    for i, row in enumerate(pred):
        if row:
            watchers[row.bit_length() - 1].append(i)
        else:
            ready.append(i)
    # ready is ascending, hence already a heap.
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        remaining ^= 1 << i
        for j in watchers[i]:
            blockers = pred[j] & remaining
            if blockers:
                watchers[blockers.bit_length() - 1].append(j)
            else:
                heapq.heappush(ready, j)
    if len(order) != n:
        return None
    return order


def retrieve_word(graph: Graph, coloring: Coloring,
                  decoder: Iterable[Sequence[str]]) -> Optional[Realization]:
    """A realization whose color word decodes back to the graph.

    Returns None exactly when no vertex order does.  Among the valid orders
    the smallest vertex index wins whenever several vertices are ready.
    """
    d = checked_decoder(decoder, coloring.alphabet)
    order = _peel_order(_predecessor_rows(graph, coloring, d))
    if order is None:
        return None
    permutation = [graph.vertices[i] for i in order]
    return Realization(coloring.alphabet, tuple(coloring[v] for v in permutation),
                       tuple(sorted(d)), coloring,
                       {v: p for p, v in enumerate(permutation, 1)})
