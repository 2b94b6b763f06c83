"""Recovering a coloring from a graph, a decoder, and a word.

The letter graph of (D, w) is fully determined, so a valid coloring is
exactly an isomorphism from G onto it: map each vertex to a position and
read the position's letter.  Finding one is graph isomorphism.  Generalized
twins are interchangeable, so the search runs on the twin quotients (one
vertex per twin class, colored by the class size and kind, two classes
adjacent when fully joined): colored refinement with backtracking
individualization matches the quotients, on an explicit stack so that no
frame depth grows with the graph, and each matched class pair is then
paired off member by member.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Optional, Sequence

from .diversity import twin_partition
from .errors import MalformedInstanceError
from .graphs import Coloring, Graph
from .letters import Decoder, Word, as_word, decode, normalize_decoder

Labels = list[int]
Neighbors = Sequence[Sequence[int]]


def _refine(nbrs_g: Neighbors, nbrs_h: Neighbors, labels_g: Labels,
            labels_h: Labels, cells: int) -> Optional[tuple[Labels, Labels, int]]:
    """The stable partition of both labelings, or None if they part ways.

    Each round relabels every vertex by the rank of its signature (own label
    plus the sorted neighbor labels) among the signatures of both graphs, so
    one palette names the cells of both; the two signature censuses must
    agree.  `cells` is the number of labels in use, 0..cells-1.
    """
    while True:
        sig_g = [(labels_g[i], tuple(sorted(labels_g[j] for j in nbrs)))
                 for i, nbrs in enumerate(nbrs_g)]
        sig_h = [(labels_h[i], tuple(sorted(labels_h[j] for j in nbrs)))
                 for i, nbrs in enumerate(nbrs_h)]
        census = Counter(sig_g)
        if census != Counter(sig_h):
            return None
        relabel = {sig: k for k, sig in enumerate(sorted(census))}
        labels_g = [relabel[s] for s in sig_g]
        labels_h = [relabel[s] for s in sig_h]
        if len(relabel) == cells:
            return labels_g, labels_h, cells
        cells = len(relabel)


def _match(nbrs_g: Neighbors, nbrs_h: Neighbors,
           labels_g: Labels, labels_h: Labels, cells: int) -> Optional[list[int]]:
    """A label- and edge-preserving bijection g -> h as an image list, or None.

    Refinement plus individualization with backtracking on an explicit
    stack.  Deterministic: the first smallest open cell and its lowest-index
    vertex are individualized first, candidate images in index order.
    """
    rows_h = [sum(1 << j for j in nbrs) for nbrs in nbrs_h]
    stack: list[tuple[Labels, Labels, int, int, Iterator[int]]] = []
    state = _refine(nbrs_g, nbrs_h, labels_g, labels_h, cells)
    while True:
        if state is not None:
            labels_g, labels_h, cells = state
            cells_g: dict[int, list[int]] = {}
            cells_h: dict[int, list[int]] = {}
            for i, label in enumerate(labels_g):
                cells_g.setdefault(label, []).append(i)
            for i, label in enumerate(labels_h):
                cells_h.setdefault(label, []).append(i)
            open_cells = [(len(vs), label) for label, vs in cells_g.items() if len(vs) > 1]
            if open_cells:
                _, label = min(open_cells)
                stack.append((labels_g, labels_h, cells, cells_g[label][0],
                              iter(cells_h[label])))
            else:
                image = [0] * len(labels_g)
                for label, (v,) in cells_g.items():
                    image[v] = cells_h[label][0]
                if all(sum(1 << image[j] for j in nbrs) == rows_h[image[i]]
                       for i, nbrs in enumerate(nbrs_g)):
                    return image
        state = None
        while state is None:
            if not stack:
                return None
            labels_g, labels_h, cells, v, images = stack[-1]
            u = next(images, None)
            if u is None:
                stack.pop()
                continue
            next_g = list(labels_g)
            next_h = list(labels_h)
            next_g[v] = cells
            next_h[u] = cells
            state = _refine(nbrs_g, nbrs_h, next_g, next_h, cells + 1)


def _quotient(graph: Graph) -> tuple[tuple[tuple[str, ...], ...], list[tuple[int, str]],
                                     Neighbors]:
    """Twin classes, their (size, kind) colors and the class neighbor lists."""
    part = twin_partition(graph)
    colors = [(len(block), kind) for block, kind in zip(part.blocks, part.kinds)]
    return part.blocks, colors, part.adjacency


def find_isomorphism(g: Graph, h: Graph) -> Optional[dict[str, str]]:
    """An isomorphism from g onto h as a vertex mapping, or None.

    Both graphs are reduced to their twin quotients, whose vertices are the
    generalized-twin classes colored by (size, kind) and whose edges join
    fully joined classes.  The quotients are matched by colored refinement
    with individualization (see `_match`), and the i-th vertex of each class
    B is mapped to the i-th vertex of its image class f(B); twins are
    interchangeable, so any such pairing is an isomorphism.
    """
    if h.n != g.n or g.edge_count != h.edge_count:
        return None
    blocks_g, colors_g, nbrs_g = _quotient(g)
    blocks_h, colors_h, nbrs_h = _quotient(h)
    if Counter(colors_g) != Counter(colors_h):
        return None
    palette = {color: k for k, color in enumerate(sorted(set(colors_g)))}
    image = _match(nbrs_g, nbrs_h, [palette[c] for c in colors_g],
                   [palette[c] for c in colors_h], len(palette))
    if image is None:
        return None
    lifted = {u: v for block, k in zip(blocks_g, image) for u, v in zip(block, blocks_h[k])}
    return {v: lifted[v] for v in g.vertices}


def retrieve_coloring(graph: Graph, alphabet: Sequence[str],
                      decoder: Iterable[Sequence[str]],
                      word: Sequence[str]) -> Optional[Coloring]:
    """A coloring under which the decoder and word realize the graph.

    Decodes (D, w) into its letter graph, searches for an isomorphism f from
    the graph onto it, and colors every vertex with the letter of its image
    position.  Returns None when the graphs are not isomorphic.
    """
    found = isomorphic_coloring(graph, alphabet, decoder, word)
    return None if found is None else found[1]


def isomorphic_coloring(graph: Graph, alphabet: Sequence[str],
                        decoder: Iterable[Sequence[str]],
                        word: Sequence[str]) -> Optional[tuple[dict[str, str], Coloring]]:
    """`retrieve_coloring` together with its isomorphism.

    Returns (f, coloring), where f maps each vertex to its image position in
    the letter graph of (D, w) (positions named "1".."n"), or None.
    """
    w = as_word(word)
    if len(w) != graph.n:
        raise MalformedInstanceError("word length differs from the vertex count")
    target = decode(decoder, w, alphabet)
    mapping = find_isomorphism(graph, target.graph)
    if mapping is None:
        return None
    assignment = {v: w[int(mapping[v]) - 1] for v in graph.vertices}
    return mapping, Coloring(assignment, tuple(alphabet))


def gi_to_coloring_instance(g1: Graph, g2: Graph) -> tuple[Graph, tuple[str, ...], Decoder, Word]:
    """Encode a graph-isomorphism question as a coloring-retrieval instance.

    The second graph's vertices become the alphabet, its edges the decoder
    (both orientations), and its vertex sequence the word; the letter graph
    of that word is g2 itself, so a valid coloring of g1 exists exactly when
    the two graphs are isomorphic.
    """
    letters = g2.vertices
    decoder = normalize_decoder([(u, v) for u, v in g2.edge_list()]
                                + [(v, u) for u, v in g2.edge_list()])
    return g1, letters, decoder, tuple(letters)
