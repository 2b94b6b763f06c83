"""Reading and writing instances and results as JSON.

An instance document is a JSON object with the fields graph (required),
alphabet, coloring, word, decoder, and meta, in that canonical order.
Vertices, letters, words, and decoders all use explicit token lists, so
multi-character letters survive serialization.  Serialization is canonical
(fixed key order, two-space indent, sorted decoder pairs, coloring keyed in
vertex declaration order), which makes parse and serialize mutually inverse
on canonical text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

from .errors import MalformedInstanceError
from .graphs import Coloring, Graph, check_token
from .letters import Decoder, Word, as_word, normalize_decoder

INSTANCE_FIELDS = ("graph", "alphabet", "coloring", "word", "decoder", "meta")


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
    for edge in edges:
        _expect(isinstance(edge, list) and len(edge) == 2, f"bad edge {edge!r}")
    graph = Graph(g["vertices"], edges)

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
        for pair in raw["decoder"]:
            _expect(isinstance(pair, list) and len(pair) == 2, f"bad decoder pair {pair!r}")
        decoder = normalize_decoder(raw["decoder"])
        check_letters([c for pair in decoder for c in pair], "decoder")

    meta = None
    if "meta" in raw:
        _expect(isinstance(raw["meta"], dict), "meta must be an object")
        meta = raw["meta"]

    return InstanceDocument(graph, alphabet, coloring, word, decoder, meta)


def graph_payload(graph: Graph) -> dict[str, Any]:
    return {
        "vertices": list(graph.vertices),
        "edges": [[u, v] for u, v in graph.edge_list()],
    }


def coloring_payload(coloring: Coloring, vertex_order) -> dict[str, str]:
    return {v: coloring[v] for v in vertex_order if v in coloring}


def decoder_payload(decoder) -> list[list[str]]:
    return [[a, b] for a, b in sorted(decoder)]


def serialize_instance(doc: InstanceDocument) -> str:
    out: dict[str, Any] = {"graph": graph_payload(doc.graph)}
    if doc.alphabet is not None:
        out["alphabet"] = list(doc.alphabet)
    if doc.coloring is not None:
        out["coloring"] = coloring_payload(doc.coloring, doc.graph.vertices)
    if doc.word is not None:
        out["word"] = list(doc.word)
    if doc.decoder is not None:
        out["decoder"] = decoder_payload(doc.decoder)
    if doc.meta is not None:
        out["meta"] = doc.meta
    return dump_json(out)


def dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
