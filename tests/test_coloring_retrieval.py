import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from lettergraphs import (Graph, MalformedInstanceError, decode,
                          find_isomorphism, gi_to_coloring_instance,
                          retrieve_coloring, verify_decoder)
from lettergraphs.oracles import brute_isomorphism
from instances import random_graph


def cycle(n, prefix="v"):
    vertices = [f"{prefix}{i}" for i in range(n)]
    return Graph(vertices, [(vertices[i], vertices[(i + 1) % n]) for i in range(n)])


def path(n, prefix="p"):
    vertices = [f"{prefix}{i}" for i in range(n)]
    return Graph(vertices, [(vertices[i], vertices[i + 1]) for i in range(n - 1)])


def check_isomorphism(g, h, mapping):
    assert sorted(mapping) == sorted(g.vertices)
    assert sorted(mapping.values()) == sorted(h.vertices)
    for i, u in enumerate(g.vertices):
        for v in g.vertices[i + 1:]:
            assert g.has_edge(u, v) == h.has_edge(mapping[u], mapping[v])


def test_empty_and_trivial_graphs():
    assert find_isomorphism(Graph([]), Graph([])) == {}
    assert find_isomorphism(Graph(["x"]), Graph(["y"])) == {"x": "y"}
    assert find_isomorphism(Graph(["x"]), Graph([])) is None


def test_cycle_to_relabeled_cycle():
    g, h = cycle(5), cycle(5, prefix="w")
    mapping = find_isomorphism(g, h)
    assert mapping is not None
    check_isomorphism(g, h, mapping)


def test_distinguishes_c6_from_two_triangles():
    # both are 2-regular with 6 vertices and 6 edges
    c6 = cycle(6)
    triangles = Graph(["t0", "t1", "t2", "t3", "t4", "t5"],
                      [("t0", "t1"), ("t1", "t2"), ("t0", "t2"),
                       ("t3", "t4"), ("t4", "t5"), ("t3", "t5")])
    assert find_isomorphism(c6, triangles) is None
    assert find_isomorphism(triangles, c6) is None


def test_cycle_and_path_differ():
    assert find_isomorphism(cycle(4), path(4)) is None


def test_edge_count_precheck():
    g = Graph(["a", "b"], [("a", "b")])
    h = Graph(["c", "d"])
    assert find_isomorphism(g, h) is None


def test_retrieve_coloring_from_decoded_word():
    word = tuple("banane")
    decoder = [("b", "a"), ("a", "n"), ("n", "e")]
    alphabet = ("b", "a", "n", "e")
    target = decode(decoder, word, alphabet)
    coloring = retrieve_coloring(target.graph, alphabet, decoder, word)
    assert coloring is not None
    for letter in alphabet:
        assert len(coloring.group(letter)) == word.count(letter)
    # under the retrieved coloring the word must realize the graph
    assert verify_decoder(target.graph, coloring, word, decoder)


def test_retrieve_coloring_infeasible():
    decoder = [("a", "b")]
    word = tuple("ab")
    # a single edge cannot appear: the decoded graph has one, ours has none
    g = Graph(["x", "y"])
    assert retrieve_coloring(g, ("a", "b"), decoder, word) is None


def test_retrieve_coloring_length_mismatch():
    with pytest.raises(MalformedInstanceError):
        retrieve_coloring(Graph(["x"]), ("a",), [], tuple("aa"))


def test_gi_encoding_answers_isomorphism():
    g1, g2 = cycle(5), cycle(5, prefix="w")
    graph, alphabet, decoder, word = gi_to_coloring_instance(g1, g2)
    assert graph is g1
    assert alphabet == g2.vertices
    assert word == g2.vertices
    coloring = retrieve_coloring(graph, alphabet, decoder, word)
    assert coloring is not None
    # the coloring itself is an isomorphism onto g2
    mapping = {v: coloring[v] for v in g1.vertices}
    check_isomorphism(g1, g2, mapping)

    c6 = cycle(6)
    triangles = Graph(["t0", "t1", "t2", "t3", "t4", "t5"],
                      [("t0", "t1"), ("t1", "t2"), ("t0", "t2"),
                       ("t3", "t4"), ("t4", "t5"), ("t3", "t5")])
    graph, alphabet, decoder, word = gi_to_coloring_instance(c6, triangles)
    assert retrieve_coloring(graph, alphabet, decoder, word) is None


def test_decoded_word_graph_equals_second_graph():
    g1, g2 = path(3), path(3, prefix="q")
    _, alphabet, decoder, word = gi_to_coloring_instance(g1, g2)
    colored = decode(decoder, word, alphabet)
    mapping = {str(i + 1): g2.vertices[i] for i in range(g2.n)}
    check_isomorphism(colored.graph, g2, mapping)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=7), st.randoms(use_true_random=False),
       st.booleans())
def test_agrees_with_permutation_search(n, rng, relabel):
    g = random_graph(rng, n)
    if relabel:
        # shuffled copy of g, always isomorphic
        order = rng.sample(range(n), n)
        names = [f"w{i}" for i in range(n)]
        edges = [(names[order[g.index(u)]], names[order[g.index(v)]])
                 for u, v in g.edge_list()]
        h = Graph(names, edges)
    else:
        h = random_graph(rng, n)
    got = find_isomorphism(g, h)
    expected = brute_isomorphism(g, h)
    assert (got is None) == (expected is None)
    if got is not None:
        check_isomorphism(g, h, got)


def blow_up(base, classes, rng, prefix):
    """Replace base vertex i by a twin class of classes[i] = (size, clique)
    vertices, joined fully to the classes of its base neighbors, and declare
    the vertices in random order."""
    members = [[f"{prefix}{i}_{j}" for j in range(size)] for i, (size, _) in enumerate(classes)]
    edges = [(u, v) for block, (_, clique) in zip(members, classes) if clique
             for j, u in enumerate(block) for v in block[j + 1:]]
    edges += [(u, v) for a, b in base.edge_list()
              for u in members[base.index(a)] for v in members[base.index(b)]]
    vertices = [v for block in members for v in block]
    rng.shuffle(vertices)
    return Graph(vertices, edges)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.randoms(use_true_random=False),
       st.sampled_from(["relabel", "permute classes", "other base"]))
def test_twin_blow_ups(n, rng, variant):
    base = random_graph(rng, n)
    classes = [(rng.randint(1, 4), rng.random() < 0.5) for _ in range(n)]
    g = blow_up(base, classes, rng, "g")
    if variant == "relabel":
        h = blow_up(base, classes, rng, "h")
    elif variant == "permute classes":
        # same base and class census, sizes and kinds dealt to other vertices
        h = blow_up(base, rng.sample(classes, n), rng, "h")
    else:
        h = blow_up(random_graph(rng, n), rng.sample(classes, n), rng, "h")
    got = find_isomorphism(g, h)
    if variant == "relabel":
        assert got is not None
    if got is not None:
        check_isomorphism(g, h, got)
    if g.n <= 8:
        assert (got is None) == (brute_isomorphism(g, h) is None)


def disjoint_paths(copies, prefix, rng):
    """Disjoint copies of the path on three vertices, declared in random order."""
    edges = [(f"{prefix}{c}{end}", f"{prefix}{c}m") for c in range(copies) for end in "ab"]
    vertices = [f"{prefix}{c}{x}" for c in range(copies) for x in "amb"]
    rng.shuffle(vertices)
    return Graph(vertices, edges)


def test_search_depth_does_not_grow_with_the_graph():
    # Refinement leaves one cell of 300 path centers; each individualization
    # settles one path, so the search goes at least 300 levels deep.
    rng = random.Random(3)
    g, h = disjoint_paths(300, "g", rng), disjoint_paths(300, "h", rng)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        mapping = find_isomorphism(g, h)
    finally:
        sys.setrecursionlimit(limit)
    assert mapping is not None
    check_isomorphism(g, h, mapping)
