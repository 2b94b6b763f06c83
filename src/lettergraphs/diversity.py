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
pair) is kept as neighbor lists.  Building it costs a constant number of
n-bit operations per vertex (keying, and checking each member against its
block's first member) and one graphs.select expansion per class, which is
C-level work over the row's bits plus a Python step per set bit only for
sparse rows; no Python step is taken per quotient edge.  Joins need no
test of their own: once every member of a block B has B's outside row, a
vertex c outside B is adjacent to all of B or to none of it, and since rows
are symmetric every member of c's block then has the same relation to B.
So B and C are fully joined exactly when C's first member is in B's outside
row, and otherwise have no edge between them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import repeat

from .errors import InternalConsistencyError
from .graphs import Coloring, Graph, select
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
    clique or independent pattern inside it.  Block pairs are not tested:
    after that check every member of a block B has B's outside row, so a
    vertex c outside B sees all of B or none of it, and by symmetry every
    member of c's block then sees all of B or none of it too.  Block B's
    quotient neighbours are therefore the blocks whose first member lies in
    B's outside row, read with one graphs.select call per block.
    """
    n = graph.n
    adj = graph.adjacency_masks()
    shared = Counter(adj)
    groups: dict[int, list[int]] = {}
    for i, row in enumerate(adj):
        groups.setdefault(row if shared[row] > 1 else row | 1 << i, []).append(i)
    blocks = list(groups.values())

    # Every member must agree with the block's first member outside the
    # block and be joined to all or none of the block inside it; together
    # that is exactly "pairwise generalized twins, clique or independent".
    # A singleton passes both tests, since rows have no self-loops.
    kinds = []
    outsides = []
    firsts = 0
    block_of = [0] * n
    for k, block in enumerate(blocks):
        first = block[0]
        firsts |= 1 << first
        block_of[first] = k
        clique = False
        outside = adj[first]
        if len(block) > 1:
            mask = sum(1 << i for i in block)
            outside &= ~mask
            clique = adj[first] & mask == mask ^ 1 << first
            for i in block:
                if adj[i] & ~mask != outside:
                    raise InternalConsistencyError("grouped vertices are not generalized twins")
                if adj[i] & mask != (mask ^ 1 << i if clique else 0):
                    raise InternalConsistencyError("twin class is neither clique nor independent")
        kinds.append("clique" if clique else "independent")
        outsides.append(outside)

    # First members ascend with block ids, so each list comes out ascending.
    names = graph.vertices
    return TwinPartition(
        blocks=tuple(tuple(map(names.__getitem__, block)) for block in blocks),
        kinds=tuple(kinds),
        adjacency=tuple(tuple(select(block_of, outside & firsts)) for outside in outsides),
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
