"""Seeded instance families and the operation list of each workload.

Every instance is derived from the workload name, the --seed argument and
the instance key alone, so one seed always yields byte-identical files.
Feasible instances are feasible by construction (expected exit code 0);
infeasible ones come from `gen_instance(..., feasible=False)`, whose
brute-force oracle confirms them (expected exit code 1).
"""

from __future__ import annotations

import dataclasses
import random
import string
from dataclasses import dataclass
from typing import Callable

from lettergraphs import Coloring, Graph, InstanceDocument, decode
from lettergraphs.cli import gen_instance


@dataclass(frozen=True)
class Spec:
    """One instance file: its key, family and a builder seeded from the key."""

    key: str
    family: str
    build: Callable[[random.Random], InstanceDocument]


@dataclass(frozen=True)
class Op:
    """One CLI call on one instance, with the answer it must produce."""

    name: str
    instance: str
    argv: tuple[str, ...]
    total: str
    expected: int


@dataclass(frozen=True)
class Workload:
    specs: tuple[Spec, ...]
    ops: tuple[Op, ...]
    # Known-defect probes run once per run, outside the timed window and
    # outside the gated operation count; their outcome is reported as is.
    probes: tuple[Op, ...] = ()


def decoded_instance(rng: random.Random, n: int, k: int, *, palindromic: bool = False,
                     symmetric: bool = False) -> InstanceDocument:
    """A feasible instance with every field, from gen_instance's family.

    As in gen_instance, the word is random, each ordered letter pair is in
    the decoder with probability 1/2, and the decoded graph's vertices are
    renamed v1..vn in random order.  The counts that set the solvers' cost
    are fixed instead of drawn, so that it does not swing with the seed:
    each letter takes n/k of the positions (a palindromic word is s then
    reversed s), half of the letters have aa in the decoder, and of the
    other letter pairs half are one-sided (ab or ba), a quarter full and a
    quarter empty.  A symmetric decoder makes half of them full instead.
    """
    letters = tuple(string.ascii_lowercase[:k])
    length = n // 2 if palindromic else n
    word = [letters[i % k] for i in range(length)]
    rng.shuffle(word)
    if palindromic:
        word += word[::-1]
    decoder = {(a, a) for a in rng.sample(letters, k // 2)}
    pairs = [(a, b) for i, a in enumerate(letters) for b in letters[i + 1:]]
    rng.shuffle(pairs)
    split = len(pairs) // 2
    joined = pairs[:split] if symmetric else pairs[split // 2:split]
    for a, b in joined:
        decoder |= {(a, b), (b, a)}
    if not symmetric:
        decoder |= {rng.choice(((a, b), (b, a))) for a, b in pairs[split:]}
    colored = decode(decoder, word, letters)
    order = rng.sample(range(n), n)
    names = [f"v{j + 1}" for j in range(n)]
    name_at = {str(order[j] + 1): names[j] for j in range(n)}
    edges = [(name_at[u], name_at[v]) for u, v in colored.graph.edge_list()]
    coloring = Coloring({names[j]: word[order[j]] for j in range(n)}, letters)
    return InstanceDocument(Graph(names, edges), letters, coloring, tuple(word),
                            frozenset(decoder))


def _feasible(n: int, k: int, hidden: str, **shape) -> Callable[[random.Random], InstanceDocument]:
    """decoded_instance without the field the operation has to retrieve."""
    return lambda rng: dataclasses.replace(decoded_instance(rng, n, k, **shape), **{hidden: None})


def _infeasible(n: int, k: int, mode: str) -> Callable[[random.Random], InstanceDocument]:
    return lambda rng: gen_instance(rng.randrange(1 << 31), n, k, mode, False)


def _polytime_large() -> Workload:
    specs, ops = [], []
    for n, k in ((100, 8), (100, 12), (500, 8), (500, 12), (1000, 12)):
        key = f"gen-n{n}-k{k}"
        specs.append(Spec(key, "gen", lambda rng, n=n, k=k: decoded_instance(rng, n, k)))
        for sub in ("decode", "retrieve-word", "verify", "nd", "sym-lettericity"):
            ops.append(Op(f"{sub}/{key}", key, (sub,), sub.replace("-", "_") + "_s", 0))
    for i in (1, 2):
        key = f"infeasible-word-{i}"
        specs.append(Spec(key, "infeasible", _infeasible(7, 3, "word")))
        ops.append(Op(f"retrieve-word/{key}", key, ("retrieve-word",), "retrieve_word_s", 1))
    return Workload(tuple(specs), tuple(ops))


def _decoder_orient() -> Workload:
    specs, single, exhaustive = [], [], []
    for n in (500, 1000):
        specs.append(Spec(f"random-n{n}-k26", "random-word", _feasible(n, 26, "decoder")))
    for n in (200, 500):
        for k in (8, 12):
            specs.append(Spec(f"palindromic-n{n}-k{k}", "palindromic",
                              _feasible(n, k, "decoder", palindromic=True)))
    for n in (10, 12):
        specs.append(Spec(f"infeasible-n{n}-k3", "infeasible", _infeasible(n, 3, "decoder")))
    for k in (3, 4):
        specs.append(Spec(f"small-n12-k{k}", "exhaustive", _feasible(12, k, "decoder")))
    for spec in specs:
        expected = 1 if spec.family == "infeasible" else 0
        if spec.family != "exhaustive":
            single.append(Op(f"retrieve-decoder/{spec.key}", spec.key, ("retrieve-decoder",),
                             "retrieve_decoder_s", expected))
        if spec.family == "exhaustive" or spec.key == "infeasible-n12-k3":
            exhaustive.append(Op(f"retrieve-decoder-all/{spec.key}", spec.key,
                                 ("retrieve-decoder", "--all", "--jobs", "1"),
                                 "retrieve_decoder_all_s", expected))
    return Workload(tuple(specs), tuple(single + exhaustive))


def _edgeless(n: int) -> Callable[[random.Random], InstanceDocument]:
    names = [f"v{j + 1}" for j in range(n)]
    return lambda rng: InstanceDocument(Graph(names), ("a",), None, ("a",) * n, frozenset())


def _coloring_search() -> Workload:
    specs = [Spec(f"gen-n{n}-k8", "gen", _feasible(n, 8, "coloring")) for n in (200, 400)]
    specs += [Spec(f"twin-heavy-n{n}-k4", "twin-heavy", _feasible(n, 4, "coloring", symmetric=True))
              for n in (150, 300)]
    specs += [Spec(f"infeasible-n8-k{k}", "infeasible", _infeasible(8, k, "coloring")) for k in (3, 4)]
    ops = [Op(f"retrieve-coloring/{s.key}", s.key, ("retrieve-coloring",), "retrieve_coloring_s",
              1 if s.family == "infeasible" else 0) for s in specs]
    specs.append(Spec("edgeless-n1200", "edgeless", _edgeless(1200)))
    probe = Op("retrieve-coloring/edgeless-n1200", "edgeless-n1200", ("retrieve-coloring",),
               "retrieve_coloring_s", 0)
    return Workload(tuple(specs), tuple(ops), (probe,))


WORKLOADS = {
    "polytime-large": _polytime_large,
    "decoder-orient": _decoder_orient,
    "coloring-search": _coloring_search,
}


def instance_rng(workload: str, seed: int, key: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{key}")
