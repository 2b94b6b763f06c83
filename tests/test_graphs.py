import pytest
from hypothesis import given, strategies as st

from lettergraphs import Coloring, Graph, MalformedInstanceError
from lettergraphs.graphs import (SPARSE_STRIDE, are_generalized_twins,
                                 check_token, color_masks, members, select)


def test_vertices_keep_declaration_order():
    g = Graph(["c", "a", "b"])
    assert g.vertices == ("c", "a", "b")
    assert g.index("a") == 1
    assert len(g) == 3 and g.n == 3


def test_duplicate_edges_collapse():
    g = Graph(["x", "y"], [("x", "y"), ("y", "x"), ("x", "y")])
    assert g.edge_count == 1
    assert g.edge_list() == (("x", "y"),)


def test_rejects_self_loop_and_unknown_vertex():
    with pytest.raises(MalformedInstanceError):
        Graph(["x"], [("x", "x")])
    with pytest.raises(MalformedInstanceError):
        Graph(["x"], [("x", "y")])
    with pytest.raises(MalformedInstanceError):
        Graph(["x", "x"])


def test_rejects_bad_tokens():
    for bad in ["", "a b", "a\tb", 3, None]:
        with pytest.raises(MalformedInstanceError):
            check_token(bad, "vertex")
    assert check_token("ok", "vertex") == "ok"


def test_neighbors_and_degree():
    g = Graph(["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4")])
    assert g.neighbors("2") == ("1", "3")
    assert g.degree("2") == 2
    assert g.has_edge("2", "1") and not g.has_edge("1", "3")
    assert g.neighbor_mask("1") == 0b0010


def test_edge_list_is_index_ordered():
    g = Graph(["b", "a", "c"], [("c", "a"), ("b", "c"), ("a", "b")])
    assert g.edge_list() == (("b", "a"), ("b", "c"), ("a", "c"))


def test_equality_and_hash():
    g1 = Graph(["x", "y"], [("x", "y")])
    g2 = Graph(["x", "y"], [("y", "x")])
    g3 = Graph(["y", "x"], [("x", "y")])
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != g3


def test_generalized_twins():
    # In a path 1-2-3, the ends are false twins; in a triangle any two
    # vertices are true twins.
    p3 = Graph(["1", "2", "3"], [("1", "2"), ("2", "3")])
    assert are_generalized_twins(p3, "1", "3")
    assert not are_generalized_twins(p3, "1", "2")
    k3 = Graph(["1", "2", "3"], [("1", "2"), ("2", "3"), ("1", "3")])
    assert are_generalized_twins(k3, "1", "2")
    with pytest.raises(MalformedInstanceError):
        are_generalized_twins(p3, "1", "1")


def test_coloring_groups_and_alphabet_inference():
    c = Coloring({"v": "a", "u": "b", "w": "a"})
    assert c.alphabet == ("a", "b")
    assert c.group("a") == ("v", "w")
    assert c["u"] == "b"
    assert "v" in c and "zz" not in c


def test_coloring_explicit_alphabet_allows_unused_letters():
    c = Coloring({"v": "a"}, ("a", "b"))
    assert c.group("b") == ()
    with pytest.raises(MalformedInstanceError):
        Coloring({"v": "z"}, ("a", "b"))
    with pytest.raises(MalformedInstanceError):
        Coloring({"v": "a"}, ("a", "a"))


def test_check_total_coloring():
    g = Graph(["x", "y"])
    assert color_masks(g, Coloring({"x": "a", "y": "a"})) == {"a": 0b11}
    with pytest.raises(MalformedInstanceError, match="not total"):
        color_masks(g, Coloring({"x": "a"}))
    with pytest.raises(MalformedInstanceError, match="not total"):
        color_masks(g, Coloring({"x": "a", "y": "a", "z": "a"}))


def test_color_masks():
    g = Graph(["x", "y", "z"])
    c = Coloring({"x": "a", "y": "b", "z": "a"}, ("a", "b", "c"))
    assert color_masks(g, c) == {"a": 0b101, "b": 0b010, "c": 0}


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    vertices = [f"v{i}" for i in range(n)]
    pairs = [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1:]]
    edges = [p for p in pairs if draw(st.booleans())]
    return Graph(vertices, edges)


@given(graphs())
def test_edge_list_matches_has_edge(g):
    listed = set(g.edge_list())
    for i, u in enumerate(g.vertices):
        for v in g.vertices[i + 1:]:
            assert ((u, v) in listed) == g.has_edge(u, v)
    assert len(listed) == g.edge_count


@given(graphs())
def test_adjacency_masks_are_symmetric_and_loop_free(g):
    masks = g.adjacency_masks()
    for i in range(g.n):
        assert not masks[i] >> i & 1
        for j in range(g.n):
            assert masks[i] >> j & 1 == masks[j] >> i & 1


@given(graphs(max_n=6))
def test_twins_agree_with_neighborhood_definition(g):
    for i, u in enumerate(g.vertices):
        for v in g.vertices[i + 1:]:
            expected = (set(g.neighbors(u)) - {v}) == (set(g.neighbors(v)) - {u})
            assert are_generalized_twins(g, u, v) == expected


def reference_graph(vertices, edges):
    """(rows, edge count) set bit by bit per edge, or the first error message."""
    index = {v: i for i, v in enumerate(vertices)}
    rows = [0] * len(vertices)
    for u, v in edges:
        for w in (u, v):
            if w not in index:
                return f"unknown vertex {w!r}"
        i, j = index[u], index[v]
        if i == j:
            return f"self-loop at {u!r}"
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return rows, sum(bin(r).count("1") for r in rows) // 2


@st.composite
def edge_lists(draw):
    """Vertices v0..v(n-1) and edges in either orientation, with repeats, and
    sometimes a self-loop or an endpoint outside the graph."""
    n = draw(st.integers(min_value=0, max_value=9))
    vertices = [f"v{i}" for i in range(n)]
    if draw(st.booleans()):
        ends = st.sampled_from(vertices + ["x"])
        return vertices, draw(st.lists(st.tuples(ends, ends), max_size=30))
    if n < 2:
        return vertices, []
    ends = st.sampled_from(vertices)
    pairs = st.tuples(ends, ends).filter(lambda p: p[0] != p[1])
    return vertices, draw(st.lists(pairs, max_size=30))


@given(edge_lists())
def test_graph_rows_match_a_per_edge_builder(case):
    vertices, edges = case
    expected = reference_graph(vertices, edges)
    if isinstance(expected, str):
        with pytest.raises(MalformedInstanceError) as err:
            Graph(vertices, edges)
        assert str(err.value) == expected
        return
    rows, count = expected
    g = Graph(vertices, iter(edges))
    assert g.adjacency_masks() == rows
    assert g.edge_count == count


def test_first_bad_edge_decides_the_error():
    with pytest.raises(MalformedInstanceError, match="unknown vertex 'z'"):
        Graph(["x", "y"], [("x", "y"), ("x", "z"), ("y", "y")])
    with pytest.raises(MalformedInstanceError, match="self-loop at 'y'"):
        Graph(["x", "y"], [("x", "y"), ("y", "y"), ("z", "x")])
    with pytest.raises(MalformedInstanceError, match="unknown vertex 'z'"):
        Graph(["x", "y"], [("z", "z")])
    assert Graph([]).adjacency_masks() == [] and Graph(["x"]).edge_count == 0


@st.composite
def row_masks(draw):
    """Empty, all-ones, dense and sparse rows of up to 5000 bits."""
    width = draw(st.integers(min_value=1, max_value=5000))
    density = draw(st.sampled_from([0.0, 1.0 / width, 0.01, 0.5, 0.99, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    return int("".join("1" if rng.random() < density else "0" for _ in range(width)), 2)


@given(st.one_of(st.just(0), st.integers(min_value=0, max_value=4999).map(lambda i: 1 << i),
                 row_masks()))
def test_members_lists_the_set_bits_ascending(mask):
    assert members(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]


def spread_mask(width, count):
    """A mask of bit_length `width` with `count` set bits spread evenly."""
    return sum(1 << (width - 1 - i * width // count) for i in range(count))


@pytest.mark.parametrize("width", [SPARSE_STRIDE, 2 * SPARSE_STRIDE, 50 * SPARSE_STRIDE, 4000])
def test_members_on_both_sides_of_the_sparse_switch(width):
    # The switch is bit_count() * SPARSE_STRIDE < bit_length(): one bit
    # fewer than `dense` set bits is walked bit by bit, `dense` is compressed.
    dense = -(-width // SPARSE_STRIDE)
    for count in {1, max(dense - 1, 1), dense, dense + 1, width // 2, width}:
        mask = spread_mask(width, count)
        assert mask.bit_length() == width and mask.bit_count() == count
        expected = [i for i in range(width) if mask >> i & 1]
        assert members(mask) == expected
        names = [f"v{i}" for i in range(width + 3)]
        assert select(names, mask) == [names[i] for i in expected]
    assert members(0) == [] and select(["x"], 0) == []


@given(graphs(max_n=12))
def test_from_rows_equals_the_edge_list_graph(g):
    built = Graph.from_rows(g.vertices, iter(g.adjacency_masks()))
    assert built == g
    assert built.edge_count == g.edge_count
    assert built.edge_list() == g.edge_list()


@given(graphs(max_n=10), st.data())
def test_from_rows_names_an_asymmetric_pair(g, data):
    if g.n < 2:
        return
    i, j = data.draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
    rows = g.adjacency_masks()
    rows[i] ^= 1 << j
    u, v = g.vertices[min(i, j)], g.vertices[max(i, j)]
    with pytest.raises(MalformedInstanceError) as err:
        Graph.from_rows(g.vertices, rows)
    assert str(err.value) == f"adjacency rows disagree on the pair {u!r},{v!r}"


@given(graphs(max_n=10), st.data())
def test_from_rows_rejects_a_self_loop(g, data):
    if g.n == 0:
        return
    i = data.draw(st.integers(0, g.n - 1))
    rows = g.adjacency_masks()
    rows[i] |= 1 << i
    with pytest.raises(MalformedInstanceError) as err:
        Graph.from_rows(g.vertices, rows)
    assert str(err.value) == f"self-loop at {g.vertices[i]!r}"


def test_from_rows_rejects_malformed_rows():
    with pytest.raises(MalformedInstanceError, match="^1 adjacency rows for 2 vertices$"):
        Graph.from_rows(["x", "y"], [0])
    with pytest.raises(MalformedInstanceError, match="^3 adjacency rows for 2 vertices$"):
        Graph.from_rows(["x", "y"], [0b10, 0b01, 0])
    with pytest.raises(MalformedInstanceError, match="^adjacency row of 'y' has bits outside 0..1$"):
        Graph.from_rows(["x", "y"], [0b10, 0b101])
    with pytest.raises(MalformedInstanceError, match="^adjacency row of 'x' has bits outside 0..1$"):
        Graph.from_rows(["x", "y"], [-1, 0])
    with pytest.raises(MalformedInstanceError, match="^duplicate vertex label$"):
        Graph.from_rows(["x", "x"], [0, 0])
    with pytest.raises(MalformedInstanceError, match="^self-loop at 'x'$"):
        Graph.from_rows(["x"], [1])
    with pytest.raises(MalformedInstanceError, match="^adjacency rows disagree on the pair 'x','z'$"):
        Graph.from_rows(["x", "y", "z"], [0b110, 0b001, 0b000])
    with pytest.raises(MalformedInstanceError):
        Graph.from_rows(["a b"], [0])
    assert Graph.from_rows([], []) == Graph([])
    assert Graph.from_rows(["x", "y"], [0b10, 0b01]).edge_list() == (("x", "y"),)


@pytest.mark.parametrize("row", [1.0, "1", None], ids=["float", "str", "none"])
def test_from_rows_refuses_a_row_that_is_not_an_int(row):
    with pytest.raises(MalformedInstanceError, match="^adjacency row of 'y' is not an int$"):
        Graph.from_rows(["x", "y"], [0, row])
