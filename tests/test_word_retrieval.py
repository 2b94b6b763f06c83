import heapq
import random

import pytest
from hypothesis import given, settings, strategies as st

from lettergraphs import (Coloring, Graph, MalformedInstanceError, decode,
                          retrieve_word)
from lettergraphs.cli import _flip_pair, _gen_parts
from lettergraphs.graphs import members
from lettergraphs.word_retrieval import ColoredInstance
from instances import (banane_instance, random_graph, random_realizable,
                       realization_exists)


def blocked_rows(graph, coloring, decoder):
    inst = ColoredInstance(graph, coloring)
    return inst.blocked_rows(inst.visible(decoder))


def named_arcs(graph, coloring, decoder):
    """The precedence digraph's arcs (u, v), read off the blocked rows."""
    pred = blocked_rows(graph, coloring, decoder)
    return {(graph.vertices[j], graph.vertices[i])
            for i, row in enumerate(pred) for j in members(row)}


def test_banane_digraph_arcs():
    graph, coloring, decoder = banane_instance()
    arcs = named_arcs(graph, coloring, decoder)
    assert arcs == {
        ("b1", "a1"), ("b1", "a2"), ("a1", "n1"), ("a1", "n2"),
        ("a2", "n2"), ("n1", "a2"), ("n1", "e1"), ("n2", "e1"),
    }


def test_banane_word_is_unique_and_recovered():
    graph, coloring, decoder = banane_instance()
    solution = retrieve_word(graph, coloring, decoder)
    assert solution is not None
    assert "".join(solution.word) == "banane"
    assert solution.permutation == ("b1", "a1", "n1", "a2", "n2", "e1")
    # every other vertex order breaks at least one arc
    import itertools
    arcs = named_arcs(graph, coloring, decoder)
    extensions = 0
    for perm in itertools.permutations(graph.vertices):
        rank = {v: i for i, v in enumerate(perm)}
        if all(rank[u] < rank[v] for u, v in arcs):
            extensions += 1
    assert extensions == 1


def test_adjacent_pair_without_decoder_support_is_infeasible():
    g = Graph(["x", "y"], [("x", "y")])
    c = Coloring({"x": "a", "y": "b"}, ("a", "b"))
    assert retrieve_word(g, c, []) is None
    assert retrieve_word(g, c, [("a", "b")]) is not None


def test_nonedge_with_both_orientations_is_infeasible():
    g = Graph(["x", "y"])
    c = Coloring({"x": "a", "y": "b"}, ("a", "b"))
    assert retrieve_word(g, c, [("a", "b"), ("b", "a")]) is None


def test_topological_order_prefers_small_indices():
    g = Graph(["p", "q", "r"])
    c = Coloring({"p": "a", "q": "a", "r": "a"}, ("a",))
    solution = retrieve_word(g, c, [])
    assert solution.permutation == ("p", "q", "r")


def test_empty_graph_gives_empty_word():
    g = Graph([])
    c = Coloring({}, ("a",))
    solution = retrieve_word(g, c, [("a", "a")])
    assert solution.word == () and solution.permutation == ()


def test_decoder_letters_must_stay_in_alphabet():
    g = Graph(["x"])
    c = Coloring({"x": "a"}, ("a",))
    with pytest.raises(MalformedInstanceError):
        retrieve_word(g, c, [("a", "z")])


def test_a_frozenset_decoder_is_normalized_like_any_other():
    # "ab" unpacks to the pair (a, b), in a frozenset as in a list.
    g = Graph(["x", "y"], [("x", "y")])
    c = Coloring({"x": "a", "y": "b"}, ("a", "b"))
    solution = retrieve_word(g, c, frozenset({"ab"}))
    assert solution.decoder == (("a", "b"),)
    assert solution == retrieve_word(g, c, ["ab"])
    with pytest.raises(MalformedInstanceError):
        retrieve_word(g, c, frozenset({("a", "")}))


def test_topological_order_detects_cycles():
    # ab and ba both present make every nonadjacent a-b pair a 2-cycle
    graph = Graph(["x", "y"])
    coloring = Coloring({"x": "a", "y": "b"}, ("a", "b"))
    decoder = [("a", "b"), ("b", "a")]
    assert blocked_rows(graph, coloring, decoder) == [0b10, 0b01]
    assert retrieve_word(graph, coloring, decoder) is None


@given(st.integers(min_value=0, max_value=9), st.integers(min_value=1, max_value=4),
       st.randoms(use_true_random=False))
def test_decode_built_instances_always_solve(n, k, rng):
    if k > max(n, 1):
        k = max(n, 1)
    if n == 0:
        return
    graph, coloring, word, decoder = random_realizable(rng, n, k)
    solution = retrieve_word(graph, coloring, decoder)
    assert solution is not None
    # the returned word must decode back to the graph under the permutation
    decoded = decode(decoder, solution.word)
    rank = {v: i for i, v in enumerate(solution.permutation)}
    for i, u in enumerate(graph.vertices):
        for v in graph.vertices[i + 1:]:
            assert graph.has_edge(u, v) == decoded.graph.has_edge(
                str(rank[u] + 1), str(rank[v] + 1))
    for v in graph.vertices:
        assert solution.word[rank[v]] == coloring[v]


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=5), st.randoms(use_true_random=False))
def test_feasibility_matches_permutation_oracle(n, rng):
    letters = "ab"
    vertices = [f"v{i}" for i in range(n)]
    edges = [(u, v) for i, u in enumerate(vertices)
             for v in vertices[i + 1:] if rng.random() < 0.5]
    graph = Graph(vertices, edges)
    coloring = Coloring({v: letters[rng.randrange(2)] for v in vertices}, ("a", "b"))
    decoder = frozenset((a, b) for a in letters for b in letters if rng.random() < 0.5)
    got = retrieve_word(graph, coloring, decoder)
    assert (got is not None) == realization_exists(graph, coloring, decoder)


def pairwise_successor_masks(graph, coloring, decoder):
    """The arc rule pair by pair, as stated in the module docstring."""
    colors = [coloring[v] for v in graph.vertices]
    adj = graph.adjacency_masks()
    succ = [0] * graph.n
    for i in range(graph.n):
        for j in range(graph.n):
            if i == j:
                continue
            if (colors[j], colors[i]) in decoder:
                if not adj[i] >> j & 1:
                    succ[i] |= 1 << j
            elif adj[i] >> j & 1:
                succ[i] |= 1 << j
    return succ


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=9), st.integers(min_value=1, max_value=4),
       st.randoms(use_true_random=False))
def test_predecessor_rows_match_the_pairwise_rule(n, k, rng):
    letters = "abcd"[:k]
    graph = random_graph(rng, n, rng.random())
    coloring = Coloring({v: rng.choice(letters) for v in graph.vertices}, tuple(letters))
    decoder = frozenset((a, b) for a in letters for b in letters if rng.random() < 0.5)
    succ = pairwise_successor_masks(graph, coloring, decoder)
    transpose = [sum(1 << j for j in range(graph.n) if succ[j] >> i & 1)
                 for i in range(graph.n)]
    assert blocked_rows(graph, coloring, decoder) == transpose


def kahn_order(succ):
    """Kahn's algorithm with in-degree counts over every arc, smallest
    index first among the sources; None when a cycle is left."""
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
    return order if len(order) == n else None


def test_watched_peel_matches_kahns_sort():
    outcomes = {"solved": 0, "cyclic": 0}
    for seed in range(320):
        rng = random.Random(seed)
        n = rng.randint(2, 40)
        k = rng.randint(1, min(n, 5))
        graph, _, coloring, _, decoder = _gen_parts(rng, n, k)
        if seed % 2:
            graph = _flip_pair(graph, rng)
        expected = kahn_order(pairwise_successor_masks(graph, coloring, decoder))
        solution = retrieve_word(graph, coloring, decoder)
        if expected is None:
            assert solution is None
        else:
            assert solution.permutation == tuple(graph.vertices[i] for i in expected)
        outcomes["solved" if expected is not None else "cyclic"] += 1
    # both outcomes are exercised, and the flips make many instances cyclic
    assert outcomes["solved"] >= 160 and outcomes["cyclic"] >= 100


def test_solution_is_deterministic():
    rng = random.Random(11)
    graph, coloring, word, decoder = random_realizable(rng, 9, 3)
    first = retrieve_word(graph, coloring, decoder)
    second = retrieve_word(graph, coloring, decoder)
    assert first == second
