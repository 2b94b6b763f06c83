import json

import pytest
from hypothesis import example, given, strategies as st

from lettergraphs import (Coloring, Graph, InstanceDocument,
                          MalformedInstanceError, parse_instance,
                          serialize_instance)
from lettergraphs.documents import dump_json, graph_payload

FULL_TEXT = """\
{
  "graph": {
    "vertices": [
      "x",
      "y"
    ],
    "edges": [
      [
        "x",
        "y"
      ]
    ]
  },
  "alphabet": [
    "a",
    "b"
  ],
  "coloring": {
    "x": "a",
    "y": "b"
  },
  "word": [
    "a",
    "b"
  ],
  "decoder": [
    [
      "a",
      "b"
    ]
  ],
  "meta": {
    "note": "tiny"
  }
}
"""


def test_parse_full_document():
    doc = parse_instance(FULL_TEXT)
    assert doc.graph == Graph(["x", "y"], [("x", "y")])
    assert doc.alphabet == ("a", "b")
    assert doc.coloring == Coloring({"x": "a", "y": "b"}, ("a", "b"))
    assert doc.word == ("a", "b")
    assert doc.decoder == frozenset({("a", "b")})
    assert doc.meta == {"note": "tiny"}


def test_serialize_is_canonical_and_inverse_of_parse():
    doc = parse_instance(FULL_TEXT)
    assert serialize_instance(doc) == FULL_TEXT
    assert parse_instance(serialize_instance(doc)) == doc


def test_key_order_is_fixed_regardless_of_input_order():
    scrambled = json.dumps({
        "meta": {},
        "decoder": [["a", "a"]],
        "word": ["a"],
        "coloring": {"x": "a"},
        "alphabet": ["a"],
        "graph": {"edges": [], "vertices": ["x"]},
    })
    out = serialize_instance(parse_instance(scrambled))
    keys = list(json.loads(out))
    assert keys == ["graph", "alphabet", "coloring", "word", "decoder", "meta"]


def test_graph_only_document():
    doc = parse_instance('{"graph": {"vertices": []}}')
    assert doc.graph.n == 0
    assert doc.alphabet is None and doc.coloring is None
    assert doc.word is None and doc.decoder is None and doc.meta is None
    assert serialize_instance(doc) == '{\n  "graph": {\n    "vertices": [],\n    "edges": []\n  }\n}\n'


def test_decoder_pairs_are_sorted_on_output():
    doc = parse_instance('{"graph": {"vertices": []}, "decoder": [["b","a"],["a","b"]]}')
    out = json.loads(serialize_instance(doc))
    assert out["decoder"] == [["a", "b"], ["b", "a"]]
    # A frozenset of many pairs iterates in hash order, far from sorted.
    letters = [f"{c}{i}" for c in "ab" for i in range(12)]
    pairs = frozenset((a, b) for i, a in enumerate(letters) for j, b in enumerate(letters)
                      if (7 * i + j) % 3)
    doc = InstanceDocument(graph=Graph([]), decoder=pairs)
    assert json.loads(serialize_instance(doc))["decoder"] == sorted(map(list, pairs))


def test_coloring_keys_follow_vertex_declaration_order():
    text = '{"graph": {"vertices": ["b","a"]}, "coloring": {"a": "x", "b": "x"}}'
    out = serialize_instance(parse_instance(text))
    assert out.index('"b": "x"') < out.index('"a": "x"')


@pytest.mark.parametrize("text", [
    "not json",
    "[1, 2]",
    '{"graph": {"vertices": ["x"]}, "bogus": 1}',
    '{"alphabet": ["a"]}',
    '{"graph": {"vertices": "x"}}',
    '{"graph": {"vertices": ["x"], "edges": [["x"]]}}',
    '{"graph": {"vertices": ["x"], "edges": [["x", "x"]]}}',
    '{"graph": {"vertices": ["x"], "edges": [[["x"], "x"]]}}',
    '{"graph": {"vertices": ["x"], "edges": [["x", {"x": 1}]]}}',
    '{"graph": {"vertices": ["x"], "loops": []}}',
    '{"graph": {"vertices": ["x", "x"]}}',
    '{"graph": {"vertices": ["x"]}, "alphabet": ["a", "a"]}',
    '{"graph": {"vertices": ["x"]}, "alphabet": "ab"}',
    '{"graph": {"vertices": ["x"]}, "alphabet": ["a"], "word": ["z"]}',
    '{"graph": {"vertices": ["x"]}, "alphabet": ["a"], "decoder": [["a", "z"]]}',
    '{"graph": {"vertices": ["x"]}, "alphabet": ["a"], "coloring": {"x": "z"}}',
    '{"graph": {"vertices": ["x"]}, "coloring": {"nope": "a"}}',
    '{"graph": {"vertices": ["x"]}, "coloring": ["x"]}',
    '{"graph": {"vertices": ["x"]}, "word": "aa"}',
    '{"graph": {"vertices": ["x"]}, "word": [""]}',
    '{"graph": {"vertices": ["x"]}, "decoder": [["a", "b", "c"]]}',
    '{"graph": {"vertices": ["x"]}, "decoder": {"a": "b"}}',
    '{"graph": {"vertices": ["x"]}, "meta": 3}',
])
def test_malformed_documents_raise(text):
    with pytest.raises(MalformedInstanceError):
        parse_instance(text)


def test_document_construction_round_trip():
    doc = InstanceDocument(
        graph=Graph(["u", "v", "w"], [("u", "w")]),
        alphabet=("p", "q"),
        coloring=Coloring({"u": "p", "v": "q", "w": "p"}, ("p", "q")),
        word=("p", "q", "p"),
        decoder=frozenset({("p", "p"), ("q", "p")}),
        meta={"seed": 1},
    )
    assert parse_instance(serialize_instance(doc)) == doc


def test_word_letters_unconstrained_without_alphabet():
    doc = parse_instance('{"graph": {"vertices": []}, "word": ["z", "q"]}')
    assert doc.word == ("z", "q")


def test_first_bad_edge_or_pair_is_named():
    text = '{"graph": {"vertices": ["x", "y"], "edges": [["x", "y"], ["y"], 3]}}'
    with pytest.raises(MalformedInstanceError, match=r"bad edge \['y'\]"):
        parse_instance(text)
    text = '{"graph": {"vertices": []}, "decoder": [["a", "b"], "ab", ["a"]]}'
    with pytest.raises(MalformedInstanceError, match="bad decoder pair 'ab'"):
        parse_instance(text)


# Strings that exercise every escaping rule: quotes, backslashes, control
# characters, non-BMP code points and lone surrogates.
SPECIAL = ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "\u2028", "\ud800", "\udfff",
           "\U0001f600", "é"]
json_strings = st.lists(st.one_of(st.characters(), st.sampled_from(SPECIAL)),
                        max_size=6).map("".join)
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                         st.sampled_from([1e400, -1e400, -0.0]), json_strings)
json_keys = st.one_of(json_strings, st.integers(), st.floats(), st.booleans(), st.none())


def sequences(elements):
    return st.one_of(st.lists(elements, max_size=5), st.lists(elements, max_size=5).map(tuple))


@st.composite
def string_rows(draw):
    """A list of string lists or tuples, all of one width, or ragged.

    Cells are often drawn from two shared strings, so consecutive rows
    share their leading strings in runs.
    """
    widths = st.integers(0, 3)
    width = draw(widths)
    rows = draw(st.lists(st.tuples(st.booleans(), st.one_of(st.just(width), widths)),
                         max_size=6))
    cells = st.one_of(json_strings, st.sampled_from(draw(st.lists(json_strings, min_size=2,
                                                                  max_size=2))))
    return [(tuple if as_tuple else list)(draw(st.lists(cells, min_size=w, max_size=w)))
            for as_tuple, w in rows]


json_values = st.recursive(
    st.one_of(json_scalars, string_rows()),
    lambda children: st.one_of(sequences(children),
                               st.dictionaries(json_keys, children, max_size=5)),
    max_leaves=25,
)


@given(json_values)
@example([["a", 1], ["b", "c"]])
@example([("a", "b"), ["c", "d"], ("e", "f")])
@example([[], []])
@example({"": [], "k": {}, 1: [[["x"]]], None: [["a", "b"], ["c"]]})
@example([("a", "b"), ("a", "c"), ("b", "a")])
@example([["x"], ["y"]])
@example([("a", "b", "c"), ("a", "b", "d"), ("a", "c", "c"), ("b", "b", "c")])
@example([("a", '"'), ("a", "c"), ("\\", "a")])
@example({"status": "solution", "neighborhood_diversity": 2,
          "blocks": [["v1", "v3"], ["v2", "v4"]], "kinds": ["independent", "clique"],
          "timing_ms": 0.5})
def test_dump_json_equals_json_dumps_indent_2(value):
    assert dump_json(value) == json.dumps(value, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("value", [{(1, 2): 3}, [b"bytes"], [["a", b"b"]], {"k": {1, 2}}])
def test_dump_json_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, ensure_ascii=False)
    with pytest.raises(TypeError):
        dump_json(value)


# Vertex tokens whose JSON text needs escapes: quotes, backslashes,
# non-whitespace control characters, non-BMP code points, lone surrogates.
TOKEN_SPECIAL = ['"', "\\", "\x00", "\x01", "\x7f", "\ud800", "\udfff", "\U0001f600", "é"]
tokens = st.lists(st.one_of(st.characters().filter(lambda c: not c.isspace()),
                            st.sampled_from(TOKEN_SPECIAL)), min_size=1, max_size=4).map("".join)


@st.composite
def graphs(draw):
    vertices = draw(st.lists(tokens, unique=True, max_size=9))
    n = len(vertices)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []
    return Graph(vertices, [(vertices[i], vertices[j]) for i, j in edges])


@given(graphs())
@example(Graph([]))
@example(Graph(["x", "y", '"z']))
@example(Graph(["a", "b", "c", "d", "e"], [("a", "b"), ("a", "c"), ("b", "c")]))
@example(Graph([f"v{i}" for i in range(40)], [("v0", "v39"), ("v1", "v2")]))  # sparse rows
@example(Graph(["\\", "\ud800", "\U0001f600", "q"], [("\\", "q"), ("\ud800", "\U0001f600")]))
def test_graph_payload_equals_json_dumps_of_the_edge_list(g):
    """The writer lists a graph's edges from its rows, run by run."""
    expected = {"graph": {"vertices": list(g.vertices), "edges": g.edge_list()}}
    assert dump_json({"graph": graph_payload(g)}) == \
        json.dumps(expected, indent=2, ensure_ascii=False) + "\n"
