"""Reading and writing instances and results as JSON.

An instance document is a JSON object with the fields graph (required),
alphabet, coloring, word, decoder, and meta, in that canonical order.
Vertices, letters, words, and decoders all use explicit token lists, so
multi-character letters survive serialization.  Serialization is canonical
(fixed key order, two-space indent, sorted decoder pairs, coloring keyed in
vertex declaration order), which makes parse and serialize mutually inverse
on canonical text.

Canonical text is exactly ``json.dumps(value, indent=2, ensure_ascii=False)``
plus a newline.  ``indent`` makes json fall back to its pure-Python encoder,
so `dump_json` writes the same bytes itself: it recurses through dicts and
lists and escapes strings with json's own C escaper
(``json.encoder.encode_basestring``, the one ``ensure_ascii=False`` uses).
A list of strings, or of equal-width rows of strings such as edges and
decoder pairs, is written in runs: a run is a set of consecutive rows that
share every string but the last, and its text is one ``str.join`` over those
last strings, so no Python code runs and no tuple is made per row.  A graph
in a payload stands for its edge list and is written the same way, straight
from its adjacency rows: vertex i's run is its name and the names of its
neighbours after it.  Every run is appended to one list of parts, so the
final ``"".join`` makes the only full-size copy of the text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, groupby
from operator import itemgetter
from typing import Any, Optional

from .errors import MalformedInstanceError
from .graphs import Coloring, Graph, check_token, select
from .letters import Decoder, Word, as_word, normalize_decoder

INSTANCE_FIELDS = ("graph", "alphabet", "coloring", "word", "decoder", "meta")

_escape = json.encoder.encode_basestring


@dataclass
class InstanceDocument:
    graph: Graph
    alphabet: Optional[tuple[str, ...]] = None
    coloring: Optional[Coloring] = None
    word: Optional[Word] = None
    decoder: Optional[Decoder] = None
    meta: Optional[dict] = None


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise MalformedInstanceError(message)


def _expect_pairs(items: list, what: str) -> None:
    """Require every item to be a two-element list, naming the first that is not."""
    if set(map(type, items)) - {list} or set(map(len, items)) - {2}:
        bad = next(x for x in items if not (isinstance(x, list) and len(x) == 2))
        raise MalformedInstanceError(f"bad {what} {bad!r}")


def parse_instance(text: str) -> InstanceDocument:
    """Parse and validate an instance document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInstanceError(f"invalid JSON: {exc}") from None
    _expect(isinstance(raw, dict), "instance document must be a JSON object")
    unknown = set(raw) - set(INSTANCE_FIELDS)
    _expect(not unknown, f"unknown instance fields: {sorted(unknown)}")
    _expect("graph" in raw, "instance document needs a graph")

    g = raw["graph"]
    _expect(isinstance(g, dict), "graph must be an object")
    _expect(not set(g) - {"vertices", "edges"}, "graph allows only vertices and edges")
    _expect(isinstance(g.get("vertices"), list), "graph.vertices must be a list")
    edges = g.get("edges", [])
    _expect(isinstance(edges, list), "graph.edges must be a list")
    _expect_pairs(edges, "edge")
    try:
        graph = Graph(g["vertices"], edges)
    except TypeError:  # an endpoint that is a JSON array or object cannot be looked up
        bad = next(x for edge in edges for x in edge if isinstance(x, (list, dict)))
        raise MalformedInstanceError(f"unknown vertex {bad!r}") from None

    alphabet: Optional[tuple[str, ...]] = None
    if "alphabet" in raw:
        _expect(isinstance(raw["alphabet"], list), "alphabet must be a list")
        alphabet = as_word(raw["alphabet"])
        _expect(len(set(alphabet)) == len(alphabet), "alphabet letters must be distinct")

    def check_letters(letters, what: str) -> None:
        if alphabet is not None:
            stray = set(letters) - set(alphabet)
            _expect(not stray, f"{what} letters outside the alphabet: {sorted(stray)}")

    coloring: Optional[Coloring] = None
    if "coloring" in raw:
        _expect(isinstance(raw["coloring"], dict), "coloring must be an object")
        for v, c in raw["coloring"].items():
            graph.index(v)
            check_token(c, "letter")
        check_letters(raw["coloring"].values(), "coloring")
        coloring = Coloring(raw["coloring"], alphabet)

    word: Optional[Word] = None
    if "word" in raw:
        _expect(isinstance(raw["word"], list), "word must be a list of letters")
        word = as_word(raw["word"])
        check_letters(word, "word")

    decoder: Optional[Decoder] = None
    if "decoder" in raw:
        _expect(isinstance(raw["decoder"], list), "decoder must be a list of pairs")
        _expect_pairs(raw["decoder"], "decoder pair")
        decoder = normalize_decoder(raw["decoder"])
        check_letters([c for pair in decoder for c in pair], "decoder")

    meta = None
    if "meta" in raw:
        _expect(isinstance(raw["meta"], dict), "meta must be an object")
        meta = raw["meta"]

    return InstanceDocument(graph, alphabet, coloring, word, decoder, meta)


def graph_payload(graph: Graph) -> dict[str, Any]:
    """Vertices in declaration order, and the graph itself as its edges:
    `dump_json` writes a graph as its `Graph.edge_list` pairs."""
    return {"vertices": graph.vertices, "edges": graph}


def coloring_payload(coloring: Coloring, vertex_order) -> dict[str, str]:
    return {v: coloring[v] for v in vertex_order if v in coloring}


def decoder_payload(decoder) -> list[tuple[str, str]]:
    """The pairs of a decoder set, sorted.  A `Realization.decoder` is
    already the sorted tuple of its pairs and is written as it is."""
    return sorted(decoder)


def serialize_instance(doc: InstanceDocument) -> str:
    out: dict[str, Any] = {"graph": graph_payload(doc.graph)}
    if doc.alphabet is not None:
        out["alphabet"] = doc.alphabet
    if doc.coloring is not None:
        out["coloring"] = coloring_payload(doc.coloring, doc.graph.vertices)
    if doc.word is not None:
        out["word"] = doc.word
    if doc.decoder is not None:
        out["decoder"] = decoder_payload(doc.decoder)
    if doc.meta is not None:
        out["meta"] = doc.meta
    return dump_json(out)


def dump_json(payload: Any) -> str:
    """The canonical text of a JSON value.

    Equal to ``json.dumps(payload, indent=2, ensure_ascii=False) + "\\n"``,
    where a `Graph` in the payload stands for its `Graph.edge_list()`.
    """
    parts: list[str] = []
    _write(payload, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _write(value: Any, newline: str, parts: list[str]) -> None:
    """Append the text of value; newline is a line break plus the current indent."""
    if isinstance(value, str):
        parts.append(_escape(value))
    elif isinstance(value, Graph):
        _write_runs(_edge_runs(value), "", True, newline, parts)
    elif isinstance(value, (list, tuple)):
        runs = _string_runs(value)
        if runs is not None:
            _write_runs(*runs, newline, parts)
            return
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        parts.append("[" + inner)
        sep = ""
        for item in value:
            parts.append(sep)
            _write(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        parts.append("{" + inner)
        sep = ""
        for key, item in value.items():
            parts.append(sep + _escape(_key(key)) + ": ")
            _write(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    else:
        parts.append(json.dumps(value))


def _edge_runs(graph: Graph):
    """The runs of a graph's edge list: vertex i's escaped name, and the
    escaped names of its neighbours after it, for each i that has some."""
    names = list(map(_escape, graph.vertices))
    for i, row in enumerate(graph.adjacency_masks(), 1):
        later = row >> i
        if later:
            yield (names[i - 1],), select(names[i:], later)


def _string_runs(items):
    """The runs, quote and rows flag with which `_write_runs` writes a list
    of strings or of equal-width rows of strings; None for any other list.

    Consecutive rows that share every string but the last form one run, and
    a list of strings or of one-string rows is one run with an empty head.
    When no string needs an escape, the strings stay as they are and the
    quotes go into the separators; otherwise each string is escaped.
    """
    kinds = set(map(type, items))
    if kinds == {str}:
        rows, width, cells = False, 1, items
    elif kinds and kinds <= {list, tuple}:
        widths = set(map(len, items))
        width = widths.pop()
        if widths or not width:
            return None
        rows, cells = True, chain.from_iterable(items)
    else:
        return None
    try:
        raw = "".join(cells)
    except TypeError:  # a row holds something other than a string
        return None
    last = itemgetter(width - 1)
    if width == 1:
        runs = iter([((), map(last, items) if rows else items)])
    else:
        lead = itemgetter(*range(width - 1))
        runs = (((head,) if width == 2 else head, map(last, group))
                for head, group in groupby(items, lead))
    if len(_escape(raw)) == len(raw) + 2:
        return runs, '"', rows
    return ((list(map(_escape, head)), map(_escape, tails)) for head, tails in runs), "", rows


def _write_runs(runs, quote: str, rows: bool, newline: str, parts: list[str]) -> None:
    """Append a list given as runs of (head, tails) at the indent after newline.

    A run stands for the rows head + (t,), one for each t in tails (never
    empty), or, when rows is false, for the strings of tails (head empty).
    Its strings are escaped already when quote is "", and need no escape
    when quote is '"'.  Each run is one join over its tails, appended to parts.
    """
    first = next(runs, None)
    if first is None:
        parts.append("[]")
        return
    inner = newline + "  "
    cell = inner + "  "
    start, end = ("[" + cell, inner + "]") if rows else ("", "")
    parts.append("[" + inner)
    between = ""
    for head, tails in chain((first,), runs):
        lead = start + "".join([quote + s + quote + "," + cell for s in head]) + quote
        parts += between, lead, (quote + end + "," + inner + lead).join(tails), quote + end
        between = "," + inner
    parts.append(newline + "]")


def _key(key: Any) -> str:
    """A dict key as json writes it: strings as they are, scalars as their JSON text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
