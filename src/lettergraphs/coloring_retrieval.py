"""Recovering a coloring from a graph, a decoder, and a word.

The letter graph of (D, w) is fully determined, so a valid coloring is
exactly an isomorphism from G onto it: map each vertex to a position and
read the position's letter.  Finding one is graph isomorphism.  Generalized
twins are interchangeable, so the search runs on the twin quotients (one
vertex per twin class, colored by the class size and kind, two classes
adjacent when fully joined): colored refinement with backtracking
individualization, on one labeling of the two quotients' disjoint union,
matches them on an explicit stack so that no frame depth grows with the
graph, and each matched class pair is then paired off member by member.
A refinement round is one pass over the edges in label order, which leaves
every vertex's neighbor labels sorted without a sort per vertex, and
refinement stops as soon as the partition is discrete.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Optional, Sequence

from .diversity import twin_partition
from .errors import MalformedInstanceError
from .graphs import Coloring, Graph
from .letters import Decoder, Realization, Word, as_word, decode, normalize_decoder

Labels = list[int]
Neighbors = Sequence[Sequence[int]]


def _refine(nbrs: Neighbors, labels: Labels, cells: int,
            half: int) -> Optional[tuple[Labels, int]]:
    """The refined labeling, or None if the two halves part ways.

    Vertices 0..half-1 belong to the first graph and half.. to the second.
    Each round relabels every vertex by the rank of its signature (own label
    plus the ascending list of its neighbors' labels), so one palette names
    the cells of both graphs; the signature censuses of the two halves must
    agree.  `cells` is the number of labels in use, 0..cells-1.

    A round makes one pass over the edges and sorts nothing per vertex: it
    visits the vertices in ascending label order and appends each one's
    label to the list of every neighbor, so every list is filled in
    ascending order and is already the sorted neighbor labels.  Refinement
    stops at a stable partition, or as soon as there are `half` cells:
    equal censuses then put one vertex of each half in every cell, and
    `_match` settles that discrete partition by its edge check.
    """
    n = len(nbrs)
    while True:
        rows: list[list[int]] = [[] for _ in range(n)]
        for label, i in sorted(zip(labels, range(n))):
            for j in nbrs[i]:
                rows[j].append(label)
        for i, row in enumerate(rows):
            rows[i] = tuple(row)  # each list goes before the next is copied
        sigs = list(zip(labels, rows))
        del rows
        census = Counter(sigs[:half])
        if census != Counter(sigs[half:]):
            return None
        relabel = {sig: k for k, sig in enumerate(sorted(census))}
        del census
        labels = list(map(relabel.__getitem__, sigs))
        del sigs
        if len(relabel) in (cells, half):
            return labels, len(relabel)
        cells = len(relabel)
        del relabel


def _match(nbrs: Neighbors, labels: Labels, cells: int, half: int) -> Optional[list[int]]:
    """A label- and edge-preserving bijection first half -> second half, or None.

    Refinement plus individualization with backtracking on an explicit
    stack.  Every cell holds as many vertices of each half, first-half ones
    first, and image[v] is the index of v's image.  Deterministic: the first
    smallest open cell and its lowest-index vertex are individualized first,
    candidate images in index order.

    A leaf is a discrete partition, which `_refine` may hand over before it
    is stable.  One more round would either leave it as it is, reaching this
    same leaf, or split a vertex from its image and fail the census.  In the
    second case the vertex and its image see different neighbor labels;
    since each label names one vertex per half, the candidate map then sends
    some edge to a non-edge, so the edge check refutes the leaf just as that
    census would have.
    """
    stack: list[tuple[Labels, int, int, Iterator[int]]] = []
    state = _refine(nbrs, labels, cells, half)
    while True:
        if state is not None:
            labels, cells = state
            members: dict[int, list[int]] = {}
            for i, label in enumerate(labels):
                members.setdefault(label, []).append(i)
            open_cells = [(len(vs), label) for label, vs in members.items() if len(vs) > 2]
            if open_cells:
                vs = members[min(open_cells)[1]]
                stack.append((labels, cells, vs[0], iter(vs[len(vs) // 2:])))
            else:
                image = [0] * half
                for v, u in members.values():
                    image[v] = u
                if all(sorted(map(image.__getitem__, nbrs[i])) == nbrs[image[i]]
                       for i in range(half)):
                    return image
        state = None
        while state is None:
            if not stack:
                return None
            labels, cells, v, images = stack[-1]
            u = next(images, None)
            if u is None:
                stack.pop()
                continue
            labels = list(labels)
            labels[v] = labels[u] = cells
            state = _refine(nbrs, labels, cells + 1, half)


def find_isomorphism(g: Graph, h: Graph) -> Optional[dict[str, str]]:
    """An isomorphism from g onto h as a vertex mapping, or None.

    Both graphs are reduced to their twin quotients, whose vertices are the
    generalized-twin classes colored by (size, kind) and whose edges join
    fully joined classes.  One labeling of the quotients' disjoint union (g's
    classes first, then h's) is refined with individualization (see
    `_match`), and the i-th vertex of each class B of g is mapped to the i-th
    vertex of its image class f(B); twins are interchangeable, so any such
    pairing is an isomorphism.
    """
    if h.n != g.n or g.edge_count != h.edge_count:
        return None
    part_g, part_h = twin_partition(g), twin_partition(h)
    half = len(part_g.blocks)
    blocks = part_g.blocks + part_h.blocks
    colors = [(len(block), kind) for block, kind in zip(blocks, part_g.kinds + part_h.kinds)]
    palette = {color: k for k, color in enumerate(sorted(set(colors)))}
    # h's lists are shifted and must be lists: `_match` compares them with sorted().
    nbrs = part_g.adjacency + tuple([j + half for j in vs] for vs in part_h.adjacency)
    image = _match(nbrs, [palette[c] for c in colors], len(palette), half)
    if image is None:
        return None
    lifted = {u: v for block, k in zip(blocks, image) for u, v in zip(block, blocks[k])}
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
    return None if found is None else found.coloring


def isomorphic_coloring(graph: Graph, alphabet: Sequence[str],
                        decoder: Iterable[Sequence[str]],
                        word: Sequence[str]) -> Optional[Realization]:
    """`retrieve_coloring` together with its isomorphism, or None.

    The realization's mapping is the isomorphism: it sends each vertex to
    its image position (1..n) in the letter graph of (D, w).
    """
    w = as_word(word)
    if len(w) != graph.n:
        raise MalformedInstanceError("word length differs from the vertex count")
    d = normalize_decoder(decoder)
    target = decode(d, w, alphabet)
    image = find_isomorphism(graph, target.graph)
    if image is None:
        return None
    mapping = {v: int(image[v]) for v in graph.vertices}
    assignment = {v: w[p - 1] for v, p in mapping.items()}
    letters = tuple(alphabet)
    return Realization(letters, w, tuple(sorted(d)), Coloring(assignment, letters), mapping)


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
