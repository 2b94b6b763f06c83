"""Recovering a word from a colored graph and a decoder.

Given (G, chi, D), build a precedence digraph H on V(G): for distinct u, v
there is an arc (u, v), read "u comes before v", exactly when placing v
after u is forced, i.e. when

  * {u, v} is an edge but (chi(v), chi(u)) is not in D, or
  * {u, v} is not an edge but (chi(v), chi(u)) is in D.

A linear order realizes G as the letter graph of its color word if and only
if it is a topological order of H.  With vertex sets as bitmasks the arcs
into v are one XOR, its blocked row: N(v) XOR visible(chi(v)), less v,
where visible(a) is the set of vertices whose letter x has (a, x) in D.
The arcs are never listed; the order is peeled instead.  A vertex may go
next when its blocked row has no bit left among the vertices not yet
placed, and each blocked vertex watches one remaining blocker, the
highest-indexed one, to be tested again only when that one is placed.
This is the watched-literal idea of SAT solvers (Moskewicz et al.,
"Chaff", 2001) applied to Kahn's algorithm: with the ready vertices in one
heap the order is the one Kahn's in-degree counts give.

ColoredInstance indexes (G, chi) once and holds this rule and the
package's only peel: retrieve_word peels by index, decoder retrieval (a
subclass) peels along its word with one heap of ready vertices per letter,
and the brute-force lettericity scan builds one instance per coloring and
peels every decoder candidate on it.  It also holds the pair table, which
needs no word: each class pair's edge count and kind (full, empty or
one-sided), and whether two classes' cross graph is a chain graph.
Decoder retrieval's sanity checks and block checks read it, and the
brute-force scan drops colorings and decoder candidates by it.
"""

from __future__ import annotations

import heapq
from enum import Enum
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .graphs import Coloring, Graph, color_masks, members
from .letters import Realization, checked_decoder


class PairKind(Enum):
    FULL = "full"
    EMPTY = "empty"
    ONE_SIDED = "one-sided"


class ColoredInstance:
    """A graph and a total coloring indexed once by bitmasks: vertex i is
    bit i, and a letter coloring no vertex has an empty class."""

    def __init__(self, graph: Graph, coloring: Coloring):
        self.masks = color_masks(graph, coloring)
        self.graph = graph
        self.coloring = coloring
        self.letters = sorted(coloring.alphabet)
        self.adj = graph.adjacency_masks()
        self.colors = [coloring[v] for v in graph.vertices]
        self._chains: dict[tuple[str, str], bool] = {}

    @cached_property
    def pair_edges(self) -> dict[tuple[str, str], int]:
        """Edge count of every letter pair (a, b) with a <= b, in sorted
        order: the edges between the two classes, or inside the class when
        a = b (counted from both ends there, then halved)."""
        edges = {}
        for i, a in enumerate(self.letters):
            rows = [self.adj[v] for v in members(self.masks[a])]
            for b in self.letters[i:]:
                mask_b = self.masks[b]
                count = sum((row & mask_b).bit_count() for row in rows)
                edges[a, b] = count // 2 if a == b else count
        return edges

    @cached_property
    def pair_kinds(self) -> dict[tuple[str, str], PairKind]:
        """Kind of every letter pair (a, b) with a <= b, in sorted order.

        A pair's edges are compared with all |A| * |B| possible ones, or
        |A| * (|A| - 1) / 2 inside a class, which a clique meets exactly.
        """
        kinds = {}
        for (a, b), count in self.pair_edges.items():
            size = self.masks[a].bit_count()
            capacity = size * (size - 1) // 2 if a == b else size * self.masks[b].bit_count()
            if count == 0:
                kinds[a, b] = PairKind.EMPTY
            elif count == capacity:
                kinds[a, b] = PairKind.FULL
            else:
                kinds[a, b] = PairKind.ONE_SIDED
        return kinds

    def one_sided(self) -> list[tuple[str, str]]:
        """The one-sided pairs of two distinct letters, in sorted order."""
        return [(a, b) for (a, b), kind in self.pair_kinds.items()
                if kind is PairKind.ONE_SIDED and a != b]

    def chain(self, a: str, b: str) -> bool:
        """Whether the cross graph of distinct letters a and b is a chain
        graph: the a vertices' neighbourhoods in V_b are nested, and then so
        are the b vertices' in V_a.  Computed once per unordered pair."""
        key = (a, b) if a < b else (b, a)
        if key not in self._chains:
            mask = self.masks[key[1]]
            rows = sorted((self.adj[v] & mask for v in members(self.masks[key[0]])),
                          key=int.bit_count)
            self._chains[key] = all(low & ~high == 0 for low, high in zip(rows, rows[1:]))
        return self._chains[key]

    def visible(self, decoder: Iterable[Sequence[str]]) -> dict[str, int]:
        """Per letter a, the vertices whose letter x has (a, x) in the
        decoder; its letters must be alphabet letters."""
        visible = dict.fromkeys(self.letters, 0)
        for a, b in decoder:
            visible[a] |= self.masks[b]
        return visible

    def blocked_rows(self, visible: dict[str, int]) -> list[int]:
        """Per vertex i, the other vertices at which its row and what its
        letter sees differ; bit j of row i is the arc (j, i) of H."""
        colors = self.colors
        return [(row ^ visible[colors[i]]) & ~(1 << i) for i, row in enumerate(self.adj)]

    def peel(self, visible: dict[str, int],
             word: Optional[Sequence[str]] = None) -> Optional[list[int]]:
        """The vertex indices in a realizing order, by watched blockers, or
        None.  Without a word the smallest ready index goes next, and None
        means H has a cycle.  Along a word the next letter takes its smallest
        ready vertex, None when it has none: one letter's ready vertices are
        generalized twins, so that choice never loses a realization."""
        pred = self.blocked_rows(visible)
        n = len(pred)
        steps, group = (word, self.colors) if word is not None else ([None] * n,) * 2
        remaining = (1 << n) - 1
        watchers: list[list[int]] = [[] for _ in range(n)]
        ready: dict[Optional[str], list[int]] = {}
        for i, row in enumerate(pred):
            if row:
                watchers[row.bit_length() - 1].append(i)
            else:
                # Appended in ascending order, hence already a heap.
                ready.setdefault(group[i], []).append(i)
        order = []
        for letter in steps:
            heap = ready.get(letter)
            if not heap:
                return None
            i = heapq.heappop(heap)
            order.append(i)
            remaining ^= 1 << i
            for j in watchers[i]:
                blockers = pred[j] & remaining
                if blockers:
                    watchers[blockers.bit_length() - 1].append(j)
                else:
                    heapq.heappush(ready.setdefault(group[j], []), j)
        return order

    def realization(self, order: Sequence[int], decoder: Iterable[Sequence[str]]) -> Realization:
        """The realization placing the vertex indices of `order` in turn."""
        vertices, colors = self.graph.vertices, self.colors
        return Realization(self.coloring.alphabet, tuple(colors[i] for i in order),
                           tuple(sorted(decoder)), self.coloring,
                           {vertices[i]: p for p, i in enumerate(order, 1)})


def retrieve_word(graph: Graph, coloring: Coloring,
                  decoder: Iterable[Sequence[str]]) -> Optional[Realization]:
    """A realization whose color word decodes back to the graph.

    Returns None exactly when no vertex order does.  Among the valid orders
    the smallest vertex index wins whenever several vertices are ready.
    """
    d = checked_decoder(decoder, coloring.alphabet)
    inst = ColoredInstance(graph, coloring)
    order = inst.peel(inst.visible(d))
    return None if order is None else inst.realization(order, d)
