"""Neighborhood diversity and symmetric letter realizations.

Two vertices are generalized twins when N(u) \\ {v} = N(v) \\ {u}; this is
an equivalence relation and its classes are cliques or independent sets,
uniformly adjacent to each other.  The number of classes (the neighborhood
diversity) equals the least alphabet size of any symmetric decoder
realizing the graph, and the class structure itself is such a realization:
one letter per class, class letters repeated in the word, a symmetric
decoder with ii for cliques of at least two vertices and ij, ji for fully
joined classes.

The twin quotient (one vertex per class, an edge per fully joined class
pair) is kept as neighbor lists, so it costs O(classes + quotient edges)
rather than a table over all class pairs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import repeat

from .errors import InternalConsistencyError
from .graphs import Coloring, Graph
from .letters import Realization


@dataclass(frozen=True)
class TwinPartition:
    """Generalized-twin classes in order of their smallest vertex index.

    `kinds[i]` is "clique" or "independent" (singletons count as
    independent); `adjacency[i]` lists, ascending, the blocks fully joined
    to block i (every other block has no edge to it at all).
    """

    blocks: tuple[tuple[str, ...], ...]
    kinds: tuple[str, ...]
    adjacency: tuple[tuple[int, ...], ...]


def twin_partition(graph: Graph) -> TwinPartition:
    """Partition the vertices into generalized-twin classes.

    No vertex u has both an open twin v and a closed twin w: w in N(u) = N(v)
    would put v in N[w] = N[u], that is, in N(v).  So each vertex is keyed
    by its open row when another vertex shares that row and by its closed
    row otherwise; the two kinds of key never collide, and equal keys are
    exactly the twin classes.  The grouping is then checked rather than
    assumed, with a linear number of bitmask operations: each member's row
    against its block's first member outside the block and against the
    clique or independent pattern inside it, and each pair of blocks with an
    edge between them once, on one representative row.
    """
    n = graph.n
    adj = graph.adjacency_masks()
    shared = Counter(adj)
    groups: dict[int, list[int]] = {}
    for i, row in enumerate(adj):
        groups.setdefault(row if shared[row] > 1 else row | 1 << i, []).append(i)
    blocks = list(groups.values())
    masks = [sum(1 << i for i in block) for block in blocks]

    # Every member must agree with the block's first member outside the
    # block and be joined to all or none of the block inside it; together
    # that is exactly "pairwise generalized twins, clique or independent".
    kinds = []
    for block, mask in zip(blocks, masks):
        first = block[0]
        outside = adj[first] & ~mask
        clique = len(block) >= 2 and adj[first] & mask == mask ^ 1 << first
        for i in block:
            if adj[i] & ~mask != outside:
                raise InternalConsistencyError("grouped vertices are not generalized twins")
            if adj[i] & mask != (mask ^ 1 << i if clique else 0):
                raise InternalConsistencyError("twin class is neither clique nor independent")
        kinds.append("clique" if clique else "independent")

    # Members share their outside rows, so one representative row decides
    # each block pair; pairs with no edge at all need no test.  The lowest
    # bit left in the row is always the first member of its block, so every
    # neighbor list is filled in ascending order.
    block_of = [0] * n
    for k, block in enumerate(blocks):
        for i in block:
            block_of[i] = k
    joined: list[list[int]] = [[] for _ in blocks]
    later = (1 << n) - 1
    for k, block in enumerate(blocks):
        later ^= masks[k]
        row = adj[block[0]] & later
        while row:
            m = block_of[(row & -row).bit_length() - 1]
            if row & masks[m] != masks[m]:
                raise InternalConsistencyError("twin classes are not uniformly joined")
            joined[k].append(m)
            joined[m].append(k)
            row ^= masks[m]

    names = graph.vertices
    return TwinPartition(
        blocks=tuple(tuple(names[i] for i in block) for block in blocks),
        kinds=tuple(kinds),
        adjacency=tuple(map(tuple, joined)),
    )


def neighborhood_diversity(graph: Graph) -> int:
    """Number of generalized-twin classes; 0 for the empty graph."""
    return len(twin_partition(graph).blocks)


def symmetric_witness(graph: Graph) -> Realization:
    """A symmetric realization of the graph on one letter per twin class.

    Letters are "1".."p" in block order; the word lists each block's letter
    block-size many times, one position per member in block order.  The
    decoder is emitted sorted, block by block from the twin quotient.  This
    uses the fewest letters any symmetric decoder can achieve; the empty
    graph gets the empty realization.
    """
    partition = twin_partition(graph)
    letters = tuple(str(i + 1) for i in range(len(partition.blocks)))
    word: list[str] = []
    assignment: dict[str, str] = {}
    mapping: dict[str, int] = {}
    for letter, block in zip(letters, partition.blocks):
        for v in block:
            word.append(letter)
            assignment[v] = letter
            mapping[v] = len(word)
    # adjacency is symmetric, so block j's turn adds the reverse pair.
    decoder: list[tuple[str, str]] = []
    for i in sorted(range(len(letters)), key=letters.__getitem__):
        partners = list(map(letters.__getitem__, partition.adjacency[i]))
        if partition.kinds[i] == "clique":
            partners.append(letters[i])
        partners.sort()
        decoder += zip(repeat(letters[i]), partners)
    return Realization(
        alphabet=letters,
        word=tuple(word),
        decoder=tuple(decoder),
        coloring=Coloring(assignment, letters),
        mapping=mapping,
    )
