import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from lettergraphs import (Graph, MalformedInstanceError, decode,
                          find_isomorphism, gi_to_coloring_instance,
                          retrieve_coloring, verify_decoder)
from lettergraphs import coloring_retrieval
from lettergraphs.oracles import brute_isomorphism
from instances import random_graph


def cycle(n, prefix="v"):
    vertices = [f"{prefix}{i}" for i in range(n)]
    return Graph(vertices, [(vertices[i], vertices[(i + 1) % n]) for i in range(n)])


def path(n, prefix="p"):
    vertices = [f"{prefix}{i}" for i in range(n)]
    return Graph(vertices, [(vertices[i], vertices[i + 1]) for i in range(n - 1)])


def relabeled(g, rng):
    """A shuffled copy of g on vertices w0.., always isomorphic to g."""
    order = rng.sample(range(g.n), g.n)
    names = [f"w{i}" for i in range(g.n)]
    return Graph(names, [(names[order[g.index(u)]], names[order[g.index(v)]])
                         for u, v in g.edge_list()])


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
    # C6 and two triangles are both 2-regular with 6 vertices and 6 edges;
    # P3+K1 and 2K2 both have 4 vertices and 2 edges, but 3 and 2 twin classes.
    c6 = cycle(6)
    triangles = Graph(["t0", "t1", "t2", "t3", "t4", "t5"],
                      [("t0", "t1"), ("t1", "t2"), ("t0", "t2"),
                       ("t3", "t4"), ("t4", "t5"), ("t3", "t5")])
    p3_k1 = Graph(["p0", "p1", "p2", "k"], [("p0", "p1"), ("p1", "p2")])
    two_k2 = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    for g, h in ((c6, triangles), (p3_k1, two_k2)):
        assert find_isomorphism(g, h) is None
        assert find_isomorphism(h, g) is None


def test_tie_break_is_pinned():
    # Automorphism-rich pairs admit many isomorphisms; the search must keep
    # returning the same one (smallest open cell, its lowest-index vertex,
    # candidate images in index order).
    ring = ["w0", "w2", "w4", "w1", "w3", "w5"]
    c6 = Graph([f"w{i}" for i in range(6)], [(ring[i], ring[(i + 1) % 6]) for i in range(6)])
    k33 = Graph(["a0", "a1", "a2", "b0", "b1", "b2"],
                [(f"a{i}", f"b{j}") for i in range(3) for j in range(3)])
    k33_mixed = Graph(["x0", "y0", "x1", "y1", "x2", "y2"],
                      [(f"x{i}", f"y{j}") for i in range(3) for j in range(3)])
    paths = Graph([f"{c}{x}" for c in "pqr" for x in "amb"],
                  [(f"{c}{end}", f"{c}m") for c in "pqr" for end in "ab"])
    paths_mixed = Graph(["um", "va", "wb", "ua", "vm", "wa", "ub", "vb", "wm"],
                        [(f"{c}{end}", f"{c}m") for c in "uvw" for end in "ab"])
    # two clique pairs joined to one center, plus an isolated vertex
    blow_up = Graph(["x0", "x1", "y", "z0", "z1", "e"],
                    [("x0", "x1"), ("x0", "y"), ("x1", "y"), ("y", "z0"), ("y", "z1"),
                     ("z0", "z1")])
    blow_up_mixed = Graph(["s1", "c", "t0", "s0", "t1", "f"],
                          [("t0", "t1"), ("t0", "c"), ("t1", "c"), ("c", "s0"), ("c", "s1"),
                           ("s0", "s1")])
    assert find_isomorphism(cycle(6), c6) == {
        "v0": "w0", "v1": "w5", "v2": "w3", "v3": "w1", "v4": "w4", "v5": "w2"}
    assert find_isomorphism(k33, k33_mixed) == {
        "a0": "x0", "a1": "x1", "a2": "x2", "b0": "y0", "b1": "y1", "b2": "y2"}
    assert find_isomorphism(paths, paths_mixed) == {
        "pa": "ua", "pm": "um", "pb": "ub", "qa": "va", "qm": "vm", "qb": "vb",
        "ra": "wb", "rm": "wm", "rb": "wa"}
    assert find_isomorphism(blow_up, blow_up_mixed) == {
        "x0": "s1", "x1": "s0", "y": "c", "z0": "t0", "z1": "t1", "e": "f"}


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
        h = relabeled(g, rng)
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


def reference_refine(nbrs, labels, cells, half):
    """The reference for `_refine`: every round sorts each vertex's neighbor
    labels on its own, and only a stable partition (or a census mismatch)
    ends it."""
    while True:
        sigs = [(labels[i], tuple(sorted(labels[j] for j in vs))) for i, vs in enumerate(nbrs)]
        census = Counter(sigs[:half])
        if census != Counter(sigs[half:]):
            return None
        relabel = {sig: k for k, sig in enumerate(sorted(census))}
        labels = [relabel[s] for s in sigs]
        if len(relabel) == cells:
            return labels, cells
        cells = len(relabel)


def near_miss(g, rng):
    """g with one edge moved to a non-edge: same vertices, same edge count."""
    edges = set(g.edge_list())
    pairs = [(u, v) for i, u in enumerate(g.vertices) for v in g.vertices[i + 1:]
             if (u, v) not in edges]
    if edges and pairs:
        edges.remove(rng.choice(sorted(edges)))
        edges.add(rng.choice(pairs))
    return Graph(g.vertices, sorted(edges))


def differential_pairs():
    rng = random.Random(29)
    ring = ["w0", "w2", "w4", "w1", "w3", "w5"]
    yield cycle(6), Graph([f"w{i}" for i in range(6)],
                          [(ring[i], ring[(i + 1) % 6]) for i in range(6)])
    yield (Graph(["a0", "a1", "a2", "b0", "b1", "b2"],
                 [(f"a{i}", f"b{j}") for i in range(3) for j in range(3)]),
           Graph(["x0", "y0", "x1", "y1", "x2", "y2"],
                 [(f"x{i}", f"y{j}") for i in range(3) for j in range(3)]))
    yield cycle(4), path(4)
    # Not isomorphic; after one individualization refinement reaches a
    # discrete partition that the next round would refute by its census,
    # so the new kernel refutes it at the leaf's edge check instead.
    g_edges = ["04", "05", "13", "15", "17", "18", "25", "26", "27", "34", "35", "36", "37",
               "38", "45", "46", "48", "57", "58", "68", "78"]
    h_edges = ["03", "06", "07", "08", "12", "15", "17", "18", "24", "25", "27", "28", "35",
               "36", "37", "38", "45", "56", "57", "58", "78"]
    yield tuple(Graph([f"{c}{i}" for i in range(9)], [(f"{c}{a}", f"{c}{b}") for a, b in edges])
                for c, edges in (("v", g_edges), ("w", h_edges)))
    yield cycle(24), relabeled(cycle(24), rng)
    yield disjoint_paths(12, "g", rng), disjoint_paths(12, "h", rng)
    for n in (5, 9, 16, 30, 60):
        for p in (0.06, 0.15, 0.5):
            for _ in range(2):
                g = random_graph(rng, n, p)
                yield g, relabeled(g, rng)
                yield g, relabeled(near_miss(g, rng), rng)
    for n in (3, 5):
        base = random_graph(rng, n)
        classes = [(rng.randint(1, 4), rng.random() < 0.5) for _ in range(n)]
        yield blow_up(base, classes, rng, "g"), blow_up(base, classes, rng, "h")


def test_refinement_matches_the_sorted_signature_reference(monkeypatch):
    # The label-order pass builds exactly the reference's signatures, so the
    # search takes the same path: every answer is the same mapping or None.
    # Each reference call that ends in a partition is reproduced unchanged;
    # one that ends in a census mismatch may instead stop one round earlier
    # at a discrete partition, which the leaf's edge check then refutes.
    # Both kinds of call occur among the pairs.
    calls = []

    def recording(nbrs, labels, cells, half):
        result = reference_refine(nbrs, labels, cells, half)
        calls.append(((nbrs, list(labels), cells, half), result))
        return result

    pairs = list(differential_pairs())
    answers = [find_isomorphism(g, h) for g, h in pairs]
    monkeypatch.setattr(coloring_retrieval, "_refine", recording)
    assert [find_isomorphism(g, h) for g, h in pairs] == answers
    monkeypatch.undo()
    assert any(answer is None for answer in answers) and any(answers)
    stable_open = early_leaves = 0
    for (nbrs, labels, cells, half), expected in calls:
        got = coloring_retrieval._refine(nbrs, labels, cells, half)
        if expected is not None:
            assert got == expected
            stable_open += expected[1] != half
        else:
            assert got is None or got[1] == half
            early_leaves += got is not None
    assert stable_open and early_leaves
