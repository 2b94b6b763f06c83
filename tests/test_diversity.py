from collections import Counter

from hypothesis import given, settings, strategies as st

import pytest

from lettergraphs import (Graph, InternalConsistencyError, decode,
                          neighborhood_diversity, symmetric_witness,
                          twin_partition, verify_decoder)
from lettergraphs.diversity import TwinPartition
from lettergraphs.graphs import are_generalized_twins
from lettergraphs.letters import (check_realization, check_twin_classes,
                                  is_symmetric_decoder)
from instances import random_graph


def star(m):
    leaves = [f"l{i}" for i in range(m)]
    return Graph(["center"] + leaves, [("center", leaf) for leaf in leaves])


def complete(n):
    vertices = [f"k{i}" for i in range(n)]
    return Graph(vertices, [(u, v) for i, u in enumerate(vertices)
                            for v in vertices[i + 1:]])


def test_known_diversity_values():
    assert neighborhood_diversity(Graph([])) == 0
    assert neighborhood_diversity(Graph(["x"])) == 1
    assert neighborhood_diversity(star(4)) == 2
    assert neighborhood_diversity(complete(5)) == 1
    assert neighborhood_diversity(Graph(["a", "b", "c"])) == 1
    p4 = Graph(["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4")])
    assert neighborhood_diversity(p4) == 4
    c5 = Graph(["1", "2", "3", "4", "5"],
               [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "1")])
    assert neighborhood_diversity(c5) == 5
    # complete bipartite K_{2,3}
    k23 = Graph(["x1", "x2", "y1", "y2", "y3"],
                [(x, y) for x in ("x1", "x2") for y in ("y1", "y2", "y3")])
    assert neighborhood_diversity(k23) == 2


def test_partition_structure_of_a_star():
    partition = twin_partition(star(3))
    assert partition.blocks == (("center",), ("l0", "l1", "l2"))
    assert partition.kinds == ("independent", "independent")
    assert partition.adjacency == ((1,), (0,))


def test_partition_kinds_of_a_clique_block():
    g = Graph(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
    partition = twin_partition(g)
    assert partition.blocks == (("a", "b", "c"),)
    assert partition.kinds == ("clique",)
    # within-block structure lives in kinds; a block never lists itself
    assert partition.adjacency == ((),)


def test_quotient_of_a_long_path_is_linear():
    vertices = [f"p{i}" for i in range(4000)]
    path = Graph(vertices, zip(vertices, vertices[1:]))
    partition = twin_partition(path)
    assert len(partition.blocks) == 4000
    assert sum(len(nbrs) for nbrs in partition.adjacency) == 2 * 3999


def test_blocks_ordered_by_smallest_member():
    g = Graph(["z", "m", "a"], [("z", "m")])
    partition = twin_partition(g)
    # z and m are twins only if their other neighborhoods agree; here z-m is
    # an edge and a is isolated, so {z, m} are true twins and a is alone
    assert partition.blocks == (("z", "m"), ("a",))


def test_symmetric_witness_on_star():
    witness = symmetric_witness(star(3))
    assert witness.alphabet == ("1", "2")
    assert witness.word == ("1", "2", "2", "2")
    assert is_symmetric_decoder(witness.decoder)
    assert witness.decoder == (("1", "2"), ("2", "1"))
    assert verify_decoder(star(3), witness.coloring, witness.word, witness.decoder)


def test_symmetric_witness_of_the_empty_graph_is_empty():
    g = Graph([])
    witness = symmetric_witness(g)
    assert witness.k == 0
    assert (witness.alphabet, witness.word, witness.decoder) == ((), (), ())
    assert witness.coloring.assignment == {} and witness.mapping == {}
    check_realization(g, witness.mapping, witness.word, witness.decoder, witness.coloring)


def test_symmetric_witness_clique_blocks_use_self_pairs():
    witness = symmetric_witness(complete(4))
    assert witness.alphabet == ("1",)
    assert witness.decoder == (("1", "1"),)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.randoms(use_true_random=False),
       st.floats(min_value=0.1, max_value=0.9))
def test_witness_always_realizes_the_graph(n, rng, p):
    g = random_graph(rng, n, p)
    witness = symmetric_witness(g)
    assert len(witness.alphabet) == neighborhood_diversity(g)
    assert is_symmetric_decoder(witness.decoder)
    assert verify_decoder(g, witness.coloring, witness.word, witness.decoder)
    check_realization(g, witness.mapping, witness.word, witness.decoder, witness.coloring)
    # decoding the witness word gives a graph isomorphic to g; per-letter
    # counts match the block sizes by construction
    colored = decode(witness.decoder, witness.word, witness.alphabet)
    assert colored.graph.edge_count == g.edge_count


def test_witness_decoder_sorts_letters_as_strings():
    # A path on 11 vertices has 11 twin classes, so the letters "10" and
    # "11" sort between "1" and "2".
    vertices = [f"p{i}" for i in range(11)]
    witness = symmetric_witness(Graph(vertices, zip(vertices, vertices[1:])))
    assert witness.decoder == tuple(sorted(witness.decoder))
    assert witness.decoder[:4] == (("1", "2"), ("10", "11"), ("10", "9"), ("11", "10"))


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=14), st.randoms(use_true_random=False),
       st.floats(min_value=0.0, max_value=1.0))
def test_witness_decoder_is_canonical(n, rng, p):
    g = random_graph(rng, n, p)
    witness = symmetric_witness(g)
    # Sorted and free of duplicates: exactly the order the CLI prints.
    assert witness.decoder == tuple(sorted(set(witness.decoder)))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=9), st.randoms(use_true_random=False),
       st.floats(min_value=0.0, max_value=1.0))
def test_no_vertex_has_both_an_open_and_a_closed_twin(n, rng, p):
    g = random_graph(rng, n, p)
    adj = g.adjacency_masks()
    for i in range(n):
        others = [j for j in range(n) if j != i]
        open_twin = any(adj[j] == adj[i] for j in others)
        closed_twin = any(adj[j] | 1 << j == adj[i] | 1 << i for j in others)
        assert not (open_twin and closed_twin)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.randoms(use_true_random=False))
def test_twin_blocks_are_maximal(n, rng):
    g = random_graph(rng, n)
    partition = twin_partition(g)
    assert sorted(v for block in partition.blocks for v in block) == sorted(g.vertices)
    members = {v: i for i, block in enumerate(partition.blocks) for v in block}
    for i, u in enumerate(g.vertices):
        for v in g.vertices[i + 1:]:
            same = members[u] == members[v]
            assert same == are_generalized_twins(g, u, v)
    for k, block in enumerate(partition.blocks):
        inside = {g.has_edge(u, v) for i, u in enumerate(block) for v in block[i + 1:]}
        assert partition.kinds[k] == ("clique" if inside == {True} else "independent")
        joined = tuple(m for m, other in enumerate(partition.blocks)
                       if m != k and g.has_edge(block[0], other[0]))
        assert partition.adjacency[k] == joined


def twin_partition_by_quotient_edges(graph):
    """twin_partition with every member of every block checked, and each
    pair of blocks with an edge between them tested for a full join, one
    Python step per quotient edge."""
    n = graph.n
    adj = graph.adjacency_masks()
    shared = Counter(adj)
    groups = {}
    for i, row in enumerate(adj):
        groups.setdefault(row if shared[row] > 1 else row | 1 << i, []).append(i)
    blocks = list(groups.values())
    masks = [sum(1 << i for i in block) for block in blocks]
    kinds = []
    for block, mask in zip(blocks, masks):
        first = block[0]
        outside = adj[first] & ~mask
        clique = len(block) >= 2 and adj[first] & mask == mask ^ 1 << first
        for i in block:
            assert adj[i] & ~mask == outside
            assert adj[i] & mask == (mask ^ 1 << i if clique else 0)
        kinds.append("clique" if clique else "independent")
    block_of = [0] * n
    for k, block in enumerate(blocks):
        for i in block:
            block_of[i] = k
    joined = [[] for _ in blocks]
    later = (1 << n) - 1
    for k, block in enumerate(blocks):
        later ^= masks[k]
        row = adj[block[0]] & later
        while row:
            m = block_of[(row & -row).bit_length() - 1]
            assert row & masks[m] == masks[m], "twin classes are not uniformly joined"
            joined[k].append(m)
            joined[m].append(k)
            row ^= masks[m]
    names = graph.vertices
    return TwinPartition(
        blocks=tuple(tuple(names[i] for i in block) for block in blocks),
        kinds=tuple(kinds),
        adjacency=tuple(map(tuple, joined)),
    )


def blow_up(rng, base, p):
    """Each vertex of a random base graph becomes a clique or an independent
    set of 1-4 vertices, joined to the blow-ups of its neighbours; the
    vertices are declared in shuffled order."""
    g = random_graph(rng, base, p)
    parts = {u: [f"{u}.{i}" for i in range(rng.randint(1, 4))] for u in g.vertices}
    edges = [(x, y) for u in g.vertices if rng.random() < 0.5
             for i, x in enumerate(parts[u]) for y in parts[u][i + 1:]]
    edges += [(x, y) for u, v in g.edge_list() for x in parts[u] for y in parts[v]]
    vertices = [x for u in g.vertices for x in parts[u]]
    rng.shuffle(vertices)
    return Graph(vertices, edges)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=60), st.randoms(use_true_random=False),
       st.sampled_from([0.0, 0.03, 0.1, 0.5, 0.9, 1.0]), st.booleans())
def test_partition_matches_the_per_quotient_edge_join_loop(n, rng, p, twins):
    g = blow_up(rng, n // 2, p) if twins else random_graph(rng, n, p)
    assert twin_partition(g) == twin_partition_by_quotient_edges(g)


def three_blocks():
    """A clique pair a fully joined to an independent triple b, which is
    fully joined to one more vertex c: blocks {a1, a2}, {b1, b2, b3}, {c}."""
    a, b = ["a1", "a2"], ["b1", "b2", "b3"]
    return Graph(a + b + ["c"], [("a1", "a2")] + [(u, v) for u in a for v in b]
                 + [(v, "c") for v in b])


def test_twin_class_check_accepts_the_twin_partition():
    g = three_blocks()
    partition = twin_partition(g)
    assert partition.blocks == (("a1", "a2"), ("b1", "b2", "b3"), ("c",))
    check_twin_classes(g, partition.blocks, partition.kinds)
    check_twin_classes(Graph([]), (), ())


@pytest.mark.parametrize("blocks,kinds", [
    # merged: c is not a twin of the b's
    ((("a1", "a2"), ("b1", "b2", "b3", "c")), ("clique", "independent")),
    # split: two blocks of b's are twins, so one letter fewer suffices
    ((("a1", "a2"), ("b1",), ("b2", "b3"), ("c",)),
     ("clique", "independent", "independent", "independent")),
    # moved member: b3 sits with the a's
    ((("a1", "a2", "b3"), ("b1", "b2"), ("c",)), ("clique", "independent", "independent")),
    # wrong kind: the a's are adjacent
    ((("a1", "a2"), ("b1", "b2", "b3"), ("c",)), ("independent", "independent", "independent")),
    # a singleton counts as independent
    ((("a1", "a2"), ("b1", "b2", "b3"), ("c",)), ("clique", "independent", "clique")),
    # not a partition: c is missing, or listed twice, or a block is empty
    ((("a1", "a2"), ("b1", "b2", "b3")), ("clique", "independent")),
    ((("a1", "a2"), ("b1", "b2", "b3"), ("c",), ("c",)),
     ("clique", "independent", "independent", "independent")),
    ((("a1", "a2"), ("b1", "b2", "b3"), ("c",), ()),
     ("clique", "independent", "independent", "independent")),
], ids=["merged", "split", "moved", "wrong-kind", "singleton-clique", "missing",
        "repeated", "empty"])
def test_twin_class_check_rejects(blocks, kinds):
    with pytest.raises(InternalConsistencyError):
        check_twin_classes(three_blocks(), blocks, kinds)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.randoms(use_true_random=False),
       st.floats(min_value=0.1, max_value=0.9), st.booleans())
def test_twin_class_check_accepts_every_twin_partition(n, rng, p, twins):
    g = blow_up(rng, n // 2 + 1, p) if twins else random_graph(rng, n, p)
    partition = twin_partition(g)
    check_twin_classes(g, partition.blocks, partition.kinds)
