"""Command line front end.

Every subcommand reads a JSON instance document (file path or "-" for
stdin), runs one operation, and prints a JSON result document.  Exit codes:
0 a solution or answer was produced, 1 the instance is infeasible, 2 the
instance is malformed or cannot be read, 3 an exhaustive-search size guard
refused the input, 70 an internal re-verification failed or an unexpected
exception escaped (a bug, never an input problem).

Solutions are re-verified in process before they are printed: a word or
witness is checked position by position against the graph it claims to
realize, a retrieved decoder is run back through the verifier, and a
retrieved coloring's isomorphism is checked edge by edge.
"""

from __future__ import annotations

import argparse
import random
import string
import sys
import time
import traceback
from typing import Optional

from .coloring_retrieval import find_isomorphism
from .decoder_retrieval import retrieve_decoder, verify_decoder
from .diversity import symmetric_witness, twin_partition
from .documents import (InstanceDocument, coloring_payload, decoder_payload,
                        dump_json, graph_payload, parse_instance,
                        serialize_instance)
from .errors import (InternalConsistencyError, MalformedInstanceError,
                     SizeLimitError)
from .graphs import Coloring, Graph
from .letters import check_realization, decode
from .oracles import (brute_isomorphism, brute_lettericity,
                      brute_word_realization, enumerate_decoders)
from .word_retrieval import retrieve_word

GEN_MODES = ("word", "decoder", "coloring")

EXIT_SOLUTION = 0
EXIT_INFEASIBLE = 1
EXIT_MALFORMED = 2
EXIT_SIZE_LIMIT = 3
EXIT_INTERNAL = 70


def _require(doc: InstanceDocument, *fields: str) -> None:
    missing = [f for f in fields if getattr(doc, f) is None]
    if missing:
        raise MalformedInstanceError(f"this command needs instance fields: {', '.join(missing)}")


def _timed(func, *args, **kwargs):
    start = time.perf_counter()
    result = func(*args, **kwargs)
    return result, round((time.perf_counter() - start) * 1000.0, 3)


def _cmd_decode(doc: InstanceDocument, args) -> tuple[dict, int]:
    _require(doc, "decoder", "word")
    colored, ms = _timed(decode, doc.decoder, doc.word, doc.alphabet)
    identity = {v: i + 1 for i, v in enumerate(colored.graph.vertices)}
    check_realization(colored.graph, identity, doc.word, doc.decoder, colored.coloring)
    payload = {
        "status": "solution",
        "graph": graph_payload(colored.graph),
        "coloring": coloring_payload(colored.coloring, colored.graph.vertices),
        "timing_ms": ms,
    }
    return payload, EXIT_SOLUTION


def _cmd_retrieve_word(doc: InstanceDocument, args) -> tuple[dict, int]:
    _require(doc, "coloring", "decoder")
    solution, ms = _timed(retrieve_word, doc.graph, doc.coloring, doc.decoder)
    if solution is None:
        return {"status": "infeasible", "timing_ms": ms}, EXIT_INFEASIBLE
    mapping = {v: i + 1 for i, v in enumerate(solution.permutation)}
    check_realization(doc.graph, mapping, solution.word, doc.decoder, doc.coloring)
    payload = {
        "status": "solution",
        "word": list(solution.word),
        "permutation": list(solution.permutation),
        "timing_ms": ms,
    }
    return payload, EXIT_SOLUTION


def _cmd_retrieve_decoder(doc: InstanceDocument, args) -> tuple[dict, int]:
    _require(doc, "alphabet", "coloring", "word")
    if args.all:
        decoders, ms = _timed(enumerate_decoders, doc.graph, doc.coloring,
                              doc.word, jobs=args.jobs)
        for d in decoders:
            if not verify_decoder(doc.graph, doc.coloring, doc.word, d):
                raise InternalConsistencyError("enumerated decoder failed verification")
        payload = {
            "status": "solution" if decoders else "infeasible",
            "decoders": [decoder_payload(d) for d in decoders],
            "count": len(decoders),
            "timing_ms": ms,
        }
        return payload, EXIT_SOLUTION if decoders else EXIT_INFEASIBLE
    decoder, ms = _timed(retrieve_decoder, doc.graph, doc.coloring, doc.word)
    if decoder is None:
        return {"status": "infeasible", "timing_ms": ms}, EXIT_INFEASIBLE
    if not verify_decoder(doc.graph, doc.coloring, doc.word, decoder):
        raise InternalConsistencyError("retrieved decoder failed verification")
    return {
        "status": "solution",
        "decoder": decoder_payload(decoder),
        "timing_ms": ms,
    }, EXIT_SOLUTION


def _cmd_retrieve_coloring(doc: InstanceDocument, args) -> tuple[dict, int]:
    _require(doc, "alphabet", "decoder", "word")
    if len(doc.word) != doc.graph.n:
        raise MalformedInstanceError("word length differs from the vertex count")
    start = time.perf_counter()
    target = decode(doc.decoder, doc.word, doc.alphabet)
    mapping = find_isomorphism(doc.graph, target.graph)
    ms = round((time.perf_counter() - start) * 1000.0, 3)
    if mapping is None:
        return {"status": "infeasible", "timing_ms": ms}, EXIT_INFEASIBLE
    positions = {v: int(mapping[v]) for v in doc.graph.vertices}
    assignment = {v: doc.word[positions[v] - 1] for v in doc.graph.vertices}
    coloring = Coloring(assignment, doc.alphabet)
    check_realization(doc.graph, positions, doc.word, doc.decoder, coloring)
    payload = {
        "status": "solution",
        "coloring": coloring_payload(coloring, doc.graph.vertices),
        "isomorphism": {v: mapping[v] for v in doc.graph.vertices},
        "timing_ms": ms,
    }
    return payload, EXIT_SOLUTION


def _cmd_verify(doc: InstanceDocument, args) -> tuple[dict, int]:
    _require(doc, "coloring", "word", "decoder")
    verified, ms = _timed(verify_decoder, doc.graph, doc.coloring, doc.word, doc.decoder)
    payload = {
        "status": "solution" if verified else "infeasible",
        "verified": verified,
        "timing_ms": ms,
    }
    return payload, EXIT_SOLUTION if verified else EXIT_INFEASIBLE


def _cmd_nd(doc: InstanceDocument, args) -> tuple[dict, int]:
    partition, ms = _timed(twin_partition, doc.graph)
    payload = {
        "status": "solution",
        "neighborhood_diversity": len(partition.blocks),
        "blocks": [list(block) for block in partition.blocks],
        "kinds": list(partition.kinds),
        "timing_ms": ms,
    }
    return payload, EXIT_SOLUTION


def _witness_mapping(graph: Graph, coloring: Coloring, word) -> dict[str, int]:
    """Assign each vertex a word position of its own letter, in order.

    Valid whenever same-letter vertices are interchangeable, which holds for
    twin-partition witnesses by construction.
    """
    pending: dict[str, list[int]] = {}
    for i, letter in enumerate(word):
        pending.setdefault(letter, []).append(i + 1)
    mapping = {}
    for v in graph.vertices:
        slots = pending.get(coloring[v])
        if not slots:
            raise InternalConsistencyError(f"witness word has too few {coloring[v]!r} letters")
        mapping[v] = slots.pop(0)
    return mapping


def _cmd_sym_lettericity(doc: InstanceDocument, args) -> tuple[dict, int]:
    if doc.graph.n == 0:
        payload = {
            "status": "solution",
            "value": 0,
            "alphabet": [],
            "word": [],
            "decoder": [],
            "coloring": {},
            "timing_ms": 0.0,
        }
        return payload, EXIT_SOLUTION
    witness, ms = _timed(symmetric_witness, doc.graph)
    mapping = _witness_mapping(doc.graph, witness.coloring, witness.word)
    check_realization(doc.graph, mapping, witness.word, witness.decoder, witness.coloring)
    payload = {
        "status": "solution",
        "value": len(witness.alphabet),
        "alphabet": list(witness.alphabet),
        "word": list(witness.word),
        "decoder": decoder_payload(witness.decoder),
        "coloring": coloring_payload(witness.coloring, doc.graph.vertices),
        "timing_ms": ms,
    }
    return payload, EXIT_SOLUTION


def _cmd_lettericity(doc: InstanceDocument, args) -> tuple[dict, int]:
    witness, ms = _timed(brute_lettericity, doc.graph, args.max_k, jobs=args.jobs)
    if witness is None:
        return {"status": "infeasible", "max_k": args.max_k, "timing_ms": ms}, EXIT_INFEASIBLE
    check_realization(doc.graph, witness.mapping, witness.word, witness.decoder,
                      witness.coloring)
    payload = {
        "status": "solution",
        "value": witness.k,
        "alphabet": list(witness.alphabet),
        "word": list(witness.word),
        "decoder": decoder_payload(witness.decoder),
        "coloring": coloring_payload(witness.coloring, doc.graph.vertices),
        "mapping": {v: witness.mapping[v] for v in doc.graph.vertices},
        "timing_ms": ms,
    }
    return payload, EXIT_SOLUTION


def _flip_pair(graph: Graph, rng: random.Random) -> Graph:
    """Toggle one vertex pair chosen at random; returns a new graph."""
    i = rng.randrange(graph.n)
    j = rng.randrange(graph.n - 1)
    if j >= i:
        j += 1
    u, v = graph.vertices[i], graph.vertices[j]
    edges = set(graph.edge_list())
    for pair in ((u, v), (v, u)):
        if pair in edges:
            edges.remove(pair)
            break
    else:
        edges.add((u, v))
    return Graph(graph.vertices, sorted(edges))


def _gen_parts(rng: random.Random, n: int, k: int):
    """One random feasible instance: graph, alphabet, coloring, word, decoder."""
    letters = tuple(string.ascii_lowercase[:k])
    word = [letters[rng.randrange(k)] for _ in range(n)]
    for letter, i in zip(letters, rng.sample(range(n), k)):
        word[i] = letter
    decoder = frozenset((a, b) for a in letters for b in letters if rng.random() < 0.5)
    colored = decode(decoder, word, letters)
    order = rng.sample(range(n), n)
    names = tuple(f"v{j + 1}" for j in range(n))
    declared = {order[j] + 1: j for j in range(n)}
    edges = [(names[declared[int(u)]], names[declared[int(v)]])
             for u, v in colored.graph.edge_list()]
    graph = Graph(names, edges)
    assignment = {names[j]: word[order[j]] for j in range(n)}
    return graph, letters, Coloring(assignment, letters), tuple(word), decoder


def gen_instance(seed: int, n: int, k: int, mode: str, feasible: bool) -> InstanceDocument:
    """Deterministic random instance; infeasible ones are oracle-confirmed."""
    if mode not in GEN_MODES:
        raise MalformedInstanceError(f"gen mode must be one of {', '.join(GEN_MODES)}")
    if n < 1:
        raise MalformedInstanceError("gen needs n >= 1")
    if not 1 <= k <= min(n, 26):
        raise MalformedInstanceError("gen needs 1 <= k <= min(n, 26)")
    if not feasible:
        if mode == "word" and n > 7:
            raise SizeLimitError("gen --feasible false --mode word needs n <= 7")
        if mode == "decoder" and k > 4:
            raise SizeLimitError("gen --feasible false --mode decoder needs k <= 4")
        if mode == "coloring" and n > 8:
            raise SizeLimitError("gen --feasible false --mode coloring needs n <= 8")
    rng = random.Random(seed)
    meta = {"seed": seed, "n": n, "k": k, "mode": mode, "feasible": feasible}
    for _ in range(500):
        graph, letters, coloring, word, decoder = _gen_parts(rng, n, k)
        if feasible:
            if mode == "word":
                return InstanceDocument(graph, letters, coloring, None, decoder, meta)
            if mode == "decoder":
                return InstanceDocument(graph, letters, coloring, word, None, meta)
            return InstanceDocument(graph, letters, None, word, decoder, meta)
        flipped = _flip_pair(graph, rng)
        confirmed = dict(meta)
        if mode == "word":
            if brute_word_realization(flipped, coloring, decoder):
                continue
            confirmed["oracle"] = "permutation search"
            return InstanceDocument(flipped, letters, coloring, None, decoder, confirmed)
        if mode == "decoder":
            if enumerate_decoders(flipped, coloring, word):
                continue
            confirmed["oracle"] = "decoder enumeration"
            return InstanceDocument(flipped, letters, coloring, word, None, confirmed)
        if brute_isomorphism(flipped, decode(decoder, word, letters).graph) is not None:
            continue
        confirmed["oracle"] = "isomorphism search"
        return InstanceDocument(flipped, letters, None, word, decoder, confirmed)
    raise SizeLimitError("gave up searching for a confirmed-infeasible instance; try another seed")


def _cmd_gen(args) -> tuple[str, int]:
    doc = gen_instance(args.seed, args.n, args.k, args.mode, args.feasible == "true")
    return serialize_instance(doc), EXIT_SOLUTION


_HANDLERS = {
    "decode": _cmd_decode,
    "retrieve-word": _cmd_retrieve_word,
    "retrieve-decoder": _cmd_retrieve_decoder,
    "retrieve-coloring": _cmd_retrieve_coloring,
    "verify": _cmd_verify,
    "nd": _cmd_nd,
    "sym-lettericity": _cmd_sym_lettericity,
    "lettericity": _cmd_lettericity,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lettergraphs",
        description="Decode words into graphs and retrieve words, decoders, and colorings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def instance_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("instance", nargs="?", default="-",
                       help="instance JSON file, or - for stdin (default)")
        p.add_argument("-o", "--output", default=None,
                       help="write the result document here instead of stdout")
        return p

    instance_command("decode", "build the letter graph of a decoder and word")
    instance_command("retrieve-word", "find a word realizing the graph under its coloring")
    p = instance_command("retrieve-decoder", "find a decoder realizing the graph")
    p.add_argument("--all", action="store_true",
                   help="enumerate every decoder instead of returning one")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the exhaustive enumeration")
    instance_command("retrieve-coloring", "find a coloring matching a decoder and word")
    instance_command("verify", "check whether a word realizes the graph under a decoder")
    instance_command("nd", "compute the neighborhood diversity and twin classes")
    instance_command("sym-lettericity", "symmetric lettericity with a witness")
    p = instance_command("lettericity", "exact lettericity by exhaustive search")
    p.add_argument("--max-k", type=int, required=True,
                   help="largest alphabet size to try")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the exhaustive search")

    p = sub.add_parser("gen", help="generate a random instance document")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.add_argument("--k", type=int, default=2, help="alphabet size (default 2)")
    p.add_argument("--mode", choices=GEN_MODES, default="decoder",
                   help="which field to leave open (default decoder)")
    p.add_argument("--feasible", choices=("true", "false"), default="true",
                   help="whether the open field must admit a solution (default true)")
    p.add_argument("-o", "--output", default=None,
                   help="write the instance here instead of stdout")
    return parser


def _read_instance(path: str) -> InstanceDocument:
    try:
        if path == "-":
            return parse_instance(sys.stdin.read())
        with open(path, "r", encoding="utf-8") as handle:
            return parse_instance(handle.read())
    except OSError as exc:
        raise MalformedInstanceError(f"cannot read instance: {exc}") from None
    except (RecursionError, ValueError) as exc:
        # Undecodable bytes, or JSON nested too deeply for the parser.
        raise MalformedInstanceError(f"cannot parse instance: {exc}") from None


def _write(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            text, code = _cmd_gen(args)
            _write(text, args.output)
            return code
        doc = _read_instance(args.instance)
        payload, code = _HANDLERS[args.command](doc, args)
        _write(dump_json(payload), args.output)
        return code
    except MalformedInstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _write(dump_json({"status": "error", "error": str(exc)}), getattr(args, "output", None))
        return EXIT_MALFORMED
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _write(dump_json({"status": "error", "error": str(exc)}), getattr(args, "output", None))
        return EXIT_SIZE_LIMIT
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # Anything else is a bug; exit 1 would misreport it as infeasible.
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
