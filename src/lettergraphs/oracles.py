"""Exhaustive reference searches, independent of the polynomial solvers.

These exist to pin down ground truth at small sizes: minimum alphabet
realizations (plain and symmetric), complete decoder enumeration, the
three-part block characterization of decoder solutions, and permutation
searches for word realizations and isomorphisms.  Every search carries a
hard size guard and fails fast with SizeLimitError instead of running
unbounded.

The realization searches enumerate colorings up to letter renaming (first
occurrence order is canonical) and decoders over the chosen letters.  Each
coloring is indexed once as a word_retrieval.ColoredInstance, and its pair
table drops colorings that no decoder realizes and, on the others, every
decoder whose pairs disagree with a class pair's kind (_coloring_candidates
says why no realization is lost).  The candidates left are slot masks
peeled in ascending order, so the first hit is the one a scan of every
mask would find.

The decoder enumeration peels, along the word, only the candidates whose
letter graph has the graph's edge count between every two classes and
inside every class; the block characterization checks blocks by degree
counts (decoder_retrieval.DecoderInstance.realizes_block).
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .decoder_retrieval import DecoderInstance
from .errors import MalformedInstanceError, SizeLimitError
from .graphs import Coloring, Graph, members
from .letters import Decoder, Realization, checked_decoder
from .word_retrieval import ColoredInstance, PairKind

ORACLE_LETTERS = "abcdef"
MAX_ORACLE_VERTICES = 12
MAX_ORACLE_LETTERS = 6
MAX_LEVEL_CANDIDATES = 1 << 27
MAX_ENUMERATION_LETTERS = 4
MAX_ISOMORPHISM_VERTICES = 8
MAX_WORD_ORACLE_VERTICES = 7


def _surjective_colorings(n: int, k: int):
    """Letter index per vertex, all k letters used, canonical first-occurrence
    order (vertex 0 gets letter 0, each new letter is the next unused one).
    Yields in lexicographic order."""
    if k > n:
        return
    assignment = [0] * n

    def extend(i: int, used: int):
        if n - i < k - used:
            return
        if i == n:
            if used == k:
                yield tuple(assignment)
            return
        top = min(used, k - 1)
        for value in range(top + 1):
            assignment[i] = value
            yield from extend(i + 1, used + (1 if value == used else 0))

    yield from extend(1, 1)


def _stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into k nonempty blocks."""
    if k == 0:
        return 1 if n == 0 else 0
    table = [[0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, k + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][k]


def _decoder_slots(letters: Sequence[str], symmetric: bool) -> list[tuple[str, str]]:
    """Decoder slots, bit i of a candidate mask standing for slots[i]: every
    ordered letter pair, (letters[i], letters[j]) at i * k + j, or with
    symmetric every pair (a, b) with a <= b, in sorted order."""
    return [(a, b) for i, a in enumerate(letters) for b in (letters[i:] if symmetric else letters)]


def _mask_product(options: Iterable[Sequence[int]]) -> list[int]:
    """Every mask that ORs one choice of slot bits from each option list,
    ascending."""
    masks = [0]
    for choices in options:
        masks = [mask | bits for mask in masks for bits in choices]
    return sorted(masks)


def _coloring_candidates(inst: ColoredInstance, slots: list[tuple[str, str]],
                         symmetric: bool) -> list[int]:
    """The slot masks whose decoders the colored graph's pair table allows,
    ascending; none when a class is mixed, when two classes' cross graph is
    not a chain graph, or, with symmetric, when any pair is one-sided.

    Every letter graph has homogeneous classes and chain cross graphs, and
    a class pair's edges come only from its own slots: aa gives the whole
    class, ab alone between none and all of |A| * |B| edges (a chain graph),
    and ab with ba all of them.  So aa follows its class's kind, a one-sided
    pair takes ab or ba, a full one ab, ba or both, an empty one none, ab or
    ba, and a symmetric slot is taken exactly for a full pair.  Every mask
    left out has no realization.
    """
    bit = {pair: 1 << i for i, pair in enumerate(slots)}
    options = []
    for (a, b), kind in inst.pair_kinds.items():
        if kind is PairKind.ONE_SIDED and (a == b or symmetric or not inst.chain(a, b)):
            return []
        if a == b or symmetric:
            options.append((bit[a, b] if kind is PairKind.FULL else 0,))
        else:
            ab, ba = bit[a, b], bit[b, a]
            options.append((ab, ba) if kind is PairKind.ONE_SIDED else
                           (ab, ba, ab | ba) if kind is PairKind.FULL else (0, ab, ba))
    return _mask_product(options)


def _mask_decoder(slots: list[tuple[str, str]], mask: int, symmetric: bool) -> Decoder:
    pairs = set()
    while mask:
        bit = mask & -mask
        a, b = slots[bit.bit_length() - 1]
        pairs.add((a, b))
        if symmetric:
            pairs.add((b, a))
        mask ^= bit
    return frozenset(pairs)


def _scan_colorings(args):
    """(coloring index, realization) for the first coloring and decoder mask
    admitting a realization, scanning colorings in order and each one's
    candidate masks ascending.  args holds the graph, k, the colorings and
    the first one's index, and symmetric."""
    graph, k, rgs_list, base_index, symmetric = args
    letters = ORACLE_LETTERS[:k]
    slots = _decoder_slots(letters, symmetric)
    vertices = graph.vertices
    for offset, rgs in enumerate(rgs_list):
        coloring = Coloring({vertices[i]: letters[rgs[i]] for i in range(len(vertices))},
                            tuple(letters))
        inst = ColoredInstance(graph, coloring)
        for mask in _coloring_candidates(inst, slots, symmetric):
            decoder = _mask_decoder(slots, mask, symmetric)
            order = inst.peel(inst.visible(decoder))
            if order is not None:
                return base_index + offset, inst.realization(order, decoder)
    return None


def _fan_out(worker, task, total: int, jobs: int, serial_below: int) -> list:
    """worker's results on task(start, stop) for contiguous chunks of
    range(total), in chunk order.  At most `jobs` processes share the chunks,
    never more than the CPU count; with one job, or fewer than serial_below
    items, worker runs once on task(0, total) in this process."""
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or total < serial_below:
        return [worker(task(0, total))]
    chunk = (total + jobs - 1) // jobs
    tasks = [task(start, min(start + chunk, total)) for start in range(0, total, chunk)]
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(worker, tasks))


def _search_realization(graph: Graph, k_max: int, symmetric: bool,
                        jobs: int) -> Optional[Realization]:
    if k_max < 1:
        raise MalformedInstanceError("the alphabet bound must be at least 1")
    n = graph.n
    if n > MAX_ORACLE_VERTICES:
        raise SizeLimitError(
            f"realization search handles at most {MAX_ORACLE_VERTICES} vertices, got {n}")
    if k_max > MAX_ORACLE_LETTERS:
        raise SizeLimitError(
            f"realization search handles at most {MAX_ORACLE_LETTERS} letters, got {k_max}")
    if n == 0:
        return Realization((), (), (), Coloring({}, ()), {})
    for k in range(1, min(k_max, n) + 1):
        slot_bound = k * (k + 1) // 2 if symmetric else k * k
        level = _stirling2(n, k) << slot_bound
        if level > MAX_LEVEL_CANDIDATES:
            raise SizeLimitError(
                f"level {k} would enumerate about {level} candidates "
                f"(limit {MAX_LEVEL_CANDIDATES})")
        rgs_list = list(_surjective_colorings(n, k))
        hits = _fan_out(_scan_colorings, lambda start, stop: (
            graph, k, rgs_list[start:stop], start, symmetric), len(rgs_list), jobs, 2)
        hit = min((h for h in hits if h is not None), key=itemgetter(0), default=None)
        if hit is not None:
            return hit[1]
    return None


def brute_lettericity(graph: Graph, k_max: int, jobs: int = 1) -> Optional[Realization]:
    """Smallest-alphabet realization with at most k_max letters, or None.

    Guards: at most 12 vertices, at most 6 letters, and each alphabet level
    must stay under 2**27 enumerated candidates.  At most `jobs` worker
    processes, and never more than the CPU count, scan the colorings.
    """
    return _search_realization(graph, k_max, symmetric=False, jobs=jobs)


def brute_symmetric_lettericity(graph: Graph, k_max: int,
                                jobs: int = 1) -> Optional[Realization]:
    """Like brute_lettericity but restricted to symmetric decoders."""
    return _search_realization(graph, k_max, symmetric=True, jobs=jobs)


def enumerate_decoders(graph: Graph, coloring: Coloring,
                       word: Sequence[str]) -> list[Decoder]:
    """All decoders over the alphabet that realize the graph from the word.

    The alphabet may have at most 4 letters (65536 subsets of its ordered
    pairs).  Bit i * k + j of a candidate mask stands for the pair
    (letters[i], letters[j]) of the sorted alphabet.  A decoder's letter
    graph has joined(a, b) edges for each pair (a, b) in it, where
    joined(a, b) counts the positions i < j with w_i = a and w_j = b; the
    edges inside class a come only from aa, and those between classes a and
    b only from ab and ba.  So each class pair's own edge count
    (ColoredInstance.pair_edges) fixes which of its one or two pairs a
    candidate may hold, and only the product of those per-pair options is
    built into decoders and peeled along the word, in this process.
    Results come sorted by their sorted pair tuples.
    """
    inst = DecoderInstance(graph, coloring, word)
    inst.require_used_letters()
    k = len(coloring.alphabet)
    if k > MAX_ENUMERATION_LETTERS:
        raise SizeLimitError(
            f"decoder enumeration handles at most {MAX_ENUMERATION_LETTERS} letters, got {k}")
    at = inst.at
    slots = _decoder_slots(inst.letters, symmetric=False)
    bit = {pair: 1 << i for i, pair in enumerate(slots)}
    options = []
    for (a, b), count in inst.pair_edges.items():
        choices = [(0, 0)]  # (slot bits, edges they give), doubled once per slot
        for x, y in dict.fromkeys([(a, b), (b, a)]):
            joined = sum((at[x] & (1 << q) - 1).bit_count() for q in members(at[y]))
            choices += [(bits | bit[x, y], edges + joined) for bits, edges in choices]
        options.append([bits for bits, edges in choices if edges == count])
    decoders = (_mask_decoder(slots, mask, symmetric=False) for mask in _mask_product(options))
    return sorted((d for d in decoders if inst.peel(inst.visible(d), inst.word) is not None),
                  key=lambda d: tuple(sorted(d)))


def characterization_check(graph: Graph, coloring: Coloring, word: Sequence[str],
                           decoder) -> bool:
    """Blockwise test of a decoder: every class and every full or empty
    pair (one row each of the pair table; a mixed class always fails) and
    every letter's block of one-sided partners must verify on its own.

    Requires every one-sided pair's projection to have at least two runs of
    one of its letters; instances violating that are rejected as malformed
    (they are already known to have no solution at all).
    """
    inst = DecoderInstance(graph, coloring, word)
    inst.require_used_letters()
    d = checked_decoder(decoder, coloring.alphabet)
    pair = inst.single_run_pair()
    if pair is not None:
        raise MalformedInstanceError(
            f"one-sided pair {pair[0]}{pair[1]} has a single run of each letter")
    for (a, b), kind in inst.pair_kinds.items():
        if a == b or kind is not PairKind.ONE_SIDED:
            if not inst.realizes_block(a, (b,), d & {(a, b), (b, a)}):
                return False
    for a, (block, _) in inst.blocks.items():
        allowed = {(a, b) for b in block} | {(b, a) for b in block}
        if not inst.realizes_block(a, block, d & allowed):
            return False
    return True


def brute_isomorphism(g: Graph, h: Graph) -> Optional[dict[str, str]]:
    """Exact isomorphism search trying every bijection; at most 8 vertices."""
    if max(g.n, h.n) > MAX_ISOMORPHISM_VERTICES:
        raise SizeLimitError(
            f"permutation search handles at most {MAX_ISOMORPHISM_VERTICES} vertices")
    if g.n != h.n or g.edge_count != h.edge_count:
        return None
    n = g.n
    adj_h = h.adjacency_masks()
    g_edges = [(g.index(u), g.index(v)) for u, v in g.edge_list()]
    for perm in itertools.permutations(range(n)):
        if all(adj_h[perm[i]] >> perm[j] & 1 for i, j in g_edges):
            return {g.vertices[i]: h.vertices[perm[i]] for i in range(n)}
    return None


def brute_word_realization(graph: Graph, coloring: Coloring, decoder) -> bool:
    """Whether some vertex order realizes the graph under the coloring and
    decoder, by trying every permutation; at most 7 vertices."""
    n = graph.n
    if n > MAX_WORD_ORACLE_VERTICES:
        raise SizeLimitError(
            f"word realization search handles at most {MAX_WORD_ORACLE_VERTICES} vertices, got {n}")
    adj = graph.adjacency_masks()
    letters = [coloring[v] for v in graph.vertices]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    d = set(decoder)
    for perm in itertools.permutations(range(n)):
        if all((adj[perm[i]] >> perm[j] & 1) == ((letters[perm[i]], letters[perm[j]]) in d)
               for i, j in pairs):
            return True
    return False
