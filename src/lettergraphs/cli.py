"""Command line front end.

Every subcommand reads a JSON instance document (file path or "-" for
stdin), runs one operation, and prints a JSON result document.  Exit codes:
0 a solution or answer was produced, 1 the instance is infeasible, 2 the
instance is malformed or cannot be read, or the -o file cannot be written,
3 an exhaustive-search size guard refused the input, 70 an internal
re-verification failed or an unexpected exception escaped (a bug, never an
input problem).

Every solver answers with a letters.Realization (a retrieved decoder with
the order its final check peeled), and every answer is re-verified in
process before it is printed, at one site, by check_realization: each
vertex's bitmask adjacency row among the later word positions must be the
row its letter's decoder pairs require, and each vertex must carry its
position's letter.  That covers verify's "true", every decoder of
retrieve-decoder --all and the graph decode prints.  nd's blocks and
sym-lettericity's letter classes are checked by check_twin_classes, which
shares no code with twin_partition, to be exactly the generalized-twin
classes, so the value printed is also the least one.

main() runs with Python's cyclic garbage collector paused: parsing a large
instance would otherwise trigger hundreds of collections over lists that
hold no cycles.  The collector's on/off state is process-global, so main()
restores the state it found when it returns or raises.
"""

from __future__ import annotations

import argparse
import gc
import os
import random
import string
import sys
import time
import traceback
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .coloring_retrieval import isomorphic_coloring
from .decoder_retrieval import decoder_realization, realize_decoder
from .diversity import symmetric_witness, twin_partition
from .documents import (InstanceDocument, coloring_payload, decoder_payload,
                        dump_json, graph_payload, parse_instance,
                        serialize_instance)
from .errors import (InternalConsistencyError, MalformedInstanceError,
                     SizeLimitError)
from .graphs import Coloring, Graph
from .letters import Realization, check_realization, check_twin_classes, decode
from .oracles import (brute_isomorphism, brute_lettericity,
                      brute_word_realization, enumerate_decoders)
from .word_retrieval import ColoredInstance, retrieve_word

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


def _answer(graph: Graph, found: Optional[Realization], ms: float,
            fields: Callable[[Realization], dict], **infeasible) -> tuple[dict, int]:
    """The result document and exit code of an answer: None reports the
    instance infeasible with the `infeasible` fields, and a realization is
    re-checked by check_realization before fields(found) fills the document."""
    if found is None:
        return {"status": "infeasible", **infeasible, "timing_ms": ms}, EXIT_INFEASIBLE
    check_realization(graph, found.mapping, found.word, found.decoder, found.coloring)
    return {"status": "solution", **fields(found), "timing_ms": ms}, EXIT_SOLUTION


def _cmd_decode(doc: InstanceDocument, args) -> tuple[dict, int]:
    _require(doc, "decoder", "word")
    colored, ms = _timed(decode, doc.decoder, doc.word, doc.alphabet)
    graph, coloring = colored.graph, colored.coloring
    found = ColoredInstance(graph, coloring).realization(range(graph.n), doc.decoder)
    return _answer(graph, found, ms, lambda r: {
        "graph": graph_payload(graph),
        "coloring": coloring_payload(coloring, graph.vertices),
    })


def _cmd_retrieve_word(doc: InstanceDocument, args) -> tuple[dict, int]:
    _require(doc, "coloring", "decoder")
    found, ms = _timed(retrieve_word, doc.graph, doc.coloring, doc.decoder)
    return _answer(doc.graph, found, ms, lambda r: {
        "word": list(r.word),
        "permutation": list(r.permutation),
    })


def _cmd_retrieve_decoder(doc: InstanceDocument, args) -> tuple[dict, int]:
    _require(doc, "coloring", "word")
    if not args.all:
        found, ms = _timed(decoder_realization, doc.graph, doc.coloring, doc.word)
        return _answer(doc.graph, found, ms, lambda r: {"decoder": r.decoder})
    decoders, ms = _timed(enumerate_decoders, doc.graph, doc.coloring, doc.word)
    for d in decoders:
        # Checked as a single answer is; an enumerated decoder must peel.
        found = realize_decoder(doc.graph, doc.coloring, doc.word, d)
        if _answer(doc.graph, found, ms, lambda r: {})[1] != EXIT_SOLUTION:
            raise InternalConsistencyError("enumerated decoder failed verification")
    payload = {
        "status": "solution" if decoders else "infeasible",
        "decoders": [decoder_payload(d) for d in decoders],
        "count": len(decoders),
        "timing_ms": ms,
    }
    return payload, EXIT_SOLUTION if decoders else EXIT_INFEASIBLE


def _cmd_retrieve_coloring(doc: InstanceDocument, args) -> tuple[dict, int]:
    _require(doc, "alphabet", "decoder", "word")
    found, ms = _timed(isomorphic_coloring, doc.graph, doc.alphabet, doc.decoder, doc.word)
    vertices = doc.graph.vertices
    return _answer(doc.graph, found, ms, lambda r: {
        "coloring": coloring_payload(r.coloring, vertices),
        "isomorphism": {v: str(r.mapping[v]) for v in vertices},
    })


def _cmd_verify(doc: InstanceDocument, args) -> tuple[dict, int]:
    _require(doc, "coloring", "word", "decoder")
    found, ms = _timed(realize_decoder, doc.graph, doc.coloring, doc.word, doc.decoder)
    return _answer(doc.graph, found, ms, lambda r: {"verified": True}, verified=False)


def _cmd_nd(doc: InstanceDocument, args) -> tuple[dict, int]:
    partition, ms = _timed(twin_partition, doc.graph)
    check_twin_classes(doc.graph, partition.blocks, partition.kinds)
    payload = {
        "status": "solution",
        "neighborhood_diversity": len(partition.blocks),
        "blocks": [list(block) for block in partition.blocks],
        "kinds": list(partition.kinds),
        "timing_ms": ms,
    }
    return payload, EXIT_SOLUTION


def _witness_fields(vertices: Sequence[str], witness: Realization) -> dict:
    return {
        "value": witness.k,
        "alphabet": list(witness.alphabet),
        "word": list(witness.word),
        "decoder": witness.decoder,
        "coloring": coloring_payload(witness.coloring, vertices),
    }


def _cmd_sym_lettericity(doc: InstanceDocument, args) -> tuple[dict, int]:
    found, ms = _timed(symmetric_witness, doc.graph)
    # _answer checks the realization, the upper bound; its letter classes
    # being the twin classes is the lower bound.
    loops = {a for a, b in found.decoder if a == b}
    check_twin_classes(doc.graph, [found.coloring.group(a) for a in found.alphabet],
                       ["clique" if a in loops else "independent" for a in found.alphabet])
    return _answer(doc.graph, found, ms, lambda r: _witness_fields(doc.graph.vertices, r))


def _cmd_lettericity(doc: InstanceDocument, args) -> tuple[dict, int]:
    found, ms = _timed(brute_lettericity, doc.graph, args.max_k, jobs=args.jobs)
    vertices = doc.graph.vertices
    return _answer(doc.graph, found, ms, lambda r: {
        **_witness_fields(vertices, r),
        "mapping": {v: r.mapping[v] for v in vertices},
    }, max_k=args.max_k)


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
    rows = decode(decoder, word, letters).graph.adjacency_masks()
    order = rng.sample(range(n), n)
    names = tuple(f"v{j + 1}" for j in range(n))
    # Vertex j is position order[j], so bit j' of its row is bit order[j'] of
    # that position's row: picking those characters of the position row's
    # bits, lowest first, in reverse order of j' spells the row highest first.
    pick = itemgetter(*reversed(order))
    top = 1 << n
    graph = Graph.from_rows(names, [int("".join(pick(bin(rows[p] | top)[:2:-1])), 2)
                                    for p in order])
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
        if n < 2:
            raise MalformedInstanceError("gen --feasible false needs n >= 2")
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


def _jobs(text: str) -> int:
    jobs = int(text)
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise argparse.ArgumentTypeError(f"must be between 1 and the CPU count {cpus}")
    return jobs


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
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="accepted and checked like lettericity's (1 to the CPU count); "
                        "the enumeration runs in one process whatever its value")
    instance_command("retrieve-coloring", "find a coloring matching a decoder and word")
    instance_command("verify", "check whether a word realizes the graph under a decoder")
    instance_command("nd", "compute the neighborhood diversity and twin classes")
    instance_command("sym-lettericity", "symmetric lettericity with a witness")
    p = instance_command("lettericity", "exact lettericity by exhaustive search")
    p.add_argument("--max-k", type=int, required=True,
                   help="largest alphabet size to try")
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="worker processes for the exhaustive search (1 to the CPU count)")

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


def _run(args) -> tuple[str, int]:
    if args.command == "gen":
        return _cmd_gen(args)
    doc = _read_instance(args.instance)
    payload, code = _HANDLERS[args.command](doc, args)
    return dump_json(payload), code


def main(argv: Optional[list[str]] = None) -> int:
    # A call leaves a few hundred cyclic objects (the argument parser)
    # whatever the instance size; the next collection after it reclaims them.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        try:
            text, code = _run(args)
        except (MalformedInstanceError, SizeLimitError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            text = dump_json({"status": "error", "error": str(exc)})
            code = EXIT_MALFORMED if isinstance(exc, MalformedInstanceError) else EXIT_SIZE_LIMIT
        except InternalConsistencyError as exc:
            print(f"internal error: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
        except Exception as exc:
            # Anything else is a bug; exit 1 would misreport it as infeasible.
            traceback.print_exc()
            print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
        try:
            _write(text, args.output)
        except OSError as exc:
            # The answer or error document is lost, so its exit code would lie.
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_MALFORMED
        return code
    finally:
        if enabled:
            gc.enable()


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
