import pytest
from hypothesis import given, strategies as st

from lettergraphs import Coloring, Graph, MalformedInstanceError
from lettergraphs.graphs import (are_generalized_twins, check_token,
                                 check_total_coloring, color_masks)


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
    check_total_coloring(g, Coloring({"x": "a", "y": "a"}))
    with pytest.raises(MalformedInstanceError):
        check_total_coloring(g, Coloring({"x": "a"}))
    with pytest.raises(MalformedInstanceError):
        check_total_coloring(g, Coloring({"x": "a", "y": "a", "z": "a"}))


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
