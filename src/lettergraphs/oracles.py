"""Exhaustive reference searches, independent of the polynomial solvers.

These exist to pin down ground truth at small sizes: minimum alphabet
realizations (plain and symmetric), complete decoder enumeration, the
three-part block characterization of decoder solutions, and permutation
searches for word realizations and isomorphisms.  Every search carries a
hard size guard and fails fast with SizeLimitError instead of running
unbounded.

The realization searches enumerate colorings up to letter renaming (first
occurrence order is canonical) and decoders over the chosen letters, and
delegate each (coloring, decoder) feasibility question to the word
retriever.  Two sound prunings keep that tractable without touching
completeness: self pairs aa are skipped when the letter colors fewer than
two vertices (such pairs never produce an edge, so dropping them loses no
realization), and candidates whose possible edge-count range cannot meet
the target edge count are skipped (for a one-way pair the cross edges can
be anything from none to all, for a two-way pair they are all present, so
the bounds follow by counting).
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from .decoder_retrieval import DecoderInstance, PairKind
from .errors import MalformedInstanceError, SizeLimitError
from .graphs import Coloring, Graph
from .letters import Decoder, Word, normalize_decoder
from .word_retrieval import retrieve_word

ORACLE_LETTERS = "abcdef"
MAX_ORACLE_VERTICES = 12
MAX_ORACLE_LETTERS = 6
MAX_LEVEL_CANDIDATES = 1 << 27
MAX_ENUMERATION_LETTERS = 4
MAX_ISOMORPHISM_VERTICES = 8
MAX_WORD_ORACLE_VERTICES = 7


@dataclass(frozen=True)
class LettericityWitness:
    """A minimum-alphabet realization found by exhaustive search."""

    k: int
    alphabet: tuple[str, ...]
    coloring: Coloring
    decoder: Decoder
    word: Word
    mapping: dict[str, int]


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


def _decoder_slots(letters: Sequence[str], sizes: dict[str, int], symmetric: bool):
    """Candidate decoder slot list with capacities and partner indices."""
    slots: list[tuple[str, str]] = []
    caps: list[int] = []
    if symmetric:
        for i, a in enumerate(letters):
            if sizes[a] >= 2:
                slots.append((a, a))
                caps.append(sizes[a] * (sizes[a] - 1) // 2)
            for b in letters[i + 1:]:
                slots.append((a, b))
                caps.append(sizes[a] * sizes[b])
        partner = list(range(len(slots)))
    else:
        for a in letters:
            for b in letters:
                if a == b and sizes[a] < 2:
                    continue
                slots.append((a, b))
                caps.append(sizes[a] * (sizes[a] - 1) // 2 if a == b else sizes[a] * sizes[b])
        index = {pair: i for i, pair in enumerate(slots)}
        partner = [index[(b, a)] if a != b else i for i, (a, b) in enumerate(slots)]
    return slots, caps, partner


def _edge_bound_tables(caps: list[int], partner: list[int], symmetric: bool):
    """Per-mask lower and upper bounds on the realizable edge count."""
    m = len(caps)
    low = [0] * (1 << m)
    high = [0] * (1 << m)
    for mask in range(1, 1 << m):
        bit = mask & -mask
        i = bit.bit_length() - 1
        rest = mask ^ bit
        if symmetric or partner[i] == i:
            low[mask] = low[rest] + caps[i]
            high[mask] = high[rest] + caps[i]
        elif rest >> partner[i] & 1:
            low[mask] = low[rest] + caps[i]
            high[mask] = high[rest]
        else:
            low[mask] = low[rest]
            high[mask] = high[rest] + caps[i]
    return low, high


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


def _scan_colorings(graph: Graph, k: int, rgs_list: list[tuple[int, ...]],
                    base_index: int, symmetric: bool):
    """First (coloring index, decoder mask) admitting a realization, scanning
    colorings in order and decoder masks ascending."""
    letters = ORACLE_LETTERS[:k]
    vertices = graph.vertices
    target = graph.edge_count
    for offset, rgs in enumerate(rgs_list):
        coloring = Coloring({vertices[i]: letters[rgs[i]] for i in range(len(vertices))},
                            tuple(letters))
        sizes = {a: 0 for a in letters}
        for value in rgs:
            sizes[letters[value]] += 1
        slots, caps, partner = _decoder_slots(letters, sizes, symmetric)
        m = len(slots)
        tables = _edge_bound_tables(caps, partner, symmetric) if m <= 18 else None
        for mask in range(1 << m):
            if tables is not None:
                if not tables[0][mask] <= target <= tables[1][mask]:
                    continue
            decoder = _mask_decoder(slots, mask, symmetric)
            solution = retrieve_word(graph, coloring, decoder)
            if solution is not None:
                return (base_index + offset, mask, rgs, decoder,
                        solution.permutation, solution.word)
    return None


def _scan_chunk(args):
    return _scan_colorings(*args)


def _search_realization(graph: Graph, k_max: int, symmetric: bool,
                        jobs: int) -> Optional[LettericityWitness]:
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
        return LettericityWitness(0, (), Coloring({}, ()), frozenset(), (), {})
    for k in range(1, min(k_max, n) + 1):
        slot_bound = k * (k + 1) // 2 if symmetric else k * k
        level = _stirling2(n, k) << slot_bound
        if level > MAX_LEVEL_CANDIDATES:
            raise SizeLimitError(
                f"level {k} would enumerate about {level} candidates "
                f"(limit {MAX_LEVEL_CANDIDATES})")
        rgs_list = list(_surjective_colorings(n, k))
        if jobs > 1 and len(rgs_list) >= 2:
            chunk = (len(rgs_list) + jobs - 1) // jobs
            tasks = [(graph, k, rgs_list[start:start + chunk], start, symmetric)
                     for start in range(0, len(rgs_list), chunk)]
            with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
                hits = [h for h in pool.map(_scan_chunk, tasks) if h is not None]
            hit = min(hits, default=None)
        else:
            hit = _scan_colorings(graph, k, rgs_list, 0, symmetric)
        if hit is not None:
            _, _, rgs, decoder, permutation, word = hit
            letters = ORACLE_LETTERS[:k]
            coloring = Coloring(
                {graph.vertices[i]: letters[rgs[i]] for i in range(n)}, tuple(letters))
            mapping = {v: i + 1 for i, v in enumerate(permutation)}
            return LettericityWitness(k, tuple(letters), coloring, decoder, word, mapping)
    return None


def brute_lettericity(graph: Graph, k_max: int, jobs: int = 1) -> Optional[LettericityWitness]:
    """Smallest-alphabet realization with at most k_max letters, or None.

    Guards: at most 12 vertices, at most 6 letters, and each alphabet level
    must stay under 2**27 enumerated candidates.
    """
    return _search_realization(graph, k_max, symmetric=False, jobs=jobs)


def brute_symmetric_lettericity(graph: Graph, k_max: int,
                                jobs: int = 1) -> Optional[LettericityWitness]:
    """Like brute_lettericity but restricted to symmetric decoders."""
    return _search_realization(graph, k_max, symmetric=True, jobs=jobs)


def _verify_mask_range(args):
    inst, slots, start, stop = args
    hits = []
    for mask in range(start, stop):
        decoder = _mask_decoder(slots, mask, symmetric=False)
        if inst.realizes(decoder):
            hits.append(decoder)
    return hits


def enumerate_decoders(graph: Graph, coloring: Coloring, word: Sequence[str],
                       jobs: int = 1) -> list[Decoder]:
    """All decoders over the alphabet that realize the graph from the word.

    Checks every subset of the alphabet's ordered pairs with the verifier,
    on one instance built up front; the alphabet may have at most 4 letters
    (65536 candidates).  Results come sorted by their sorted pair tuples.
    """
    inst = DecoderInstance(graph, coloring, word)
    inst.require_used_letters()
    k = len(coloring.alphabet)
    if k > MAX_ENUMERATION_LETTERS:
        raise SizeLimitError(
            f"decoder enumeration handles at most {MAX_ENUMERATION_LETTERS} letters, got {k}")
    letters = sorted(coloring.alphabet)
    slots = [(a, b) for a in letters for b in letters]
    total = 1 << len(slots)
    if jobs > 1 and total >= 1 << 12:
        chunk = (total + jobs - 1) // jobs
        tasks = [(inst, slots, start, min(start + chunk, total))
                 for start in range(0, total, chunk)]
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            found = [d for hits in pool.map(_verify_mask_range, tasks) for d in hits]
    else:
        found = _verify_mask_range((inst, slots, 0, total))
    return sorted(found, key=lambda d: tuple(sorted(d)))


def characterization_check(graph: Graph, coloring: Coloring, word: Sequence[str],
                           decoder) -> bool:
    """Blockwise test of a decoder: within-letter, settled pairs, and the
    per-letter one-sided blocks must each verify on their own block.

    Requires every one-sided pair's projection to have at least two runs of
    one of its letters; instances violating that are rejected as malformed
    (they are already known to have no solution at all).
    """
    inst = DecoderInstance(graph, coloring, word)
    inst.require_used_letters()
    d = normalize_decoder(decoder)
    for a, b in inst.one_sided():
        runs = inst.pair_word(a, b).runs
        if runs[a] < 2 and runs[b] < 2:
            raise MalformedInstanceError(
                f"one-sided pair {a}{b} has a single run of each letter")

    for a in inst.letters:
        if not inst.realizes_block(a, (a,), d & {(a, a)}):
            return False
    for (a, b), kind in inst.pair_kinds.items():
        if kind is PairKind.ONE_SIDED:
            continue
        if not inst.realizes_block(a, (b,), d & {(a, b), (b, a)}):
            return False
    for a in inst.letters:
        block = [b for b in inst.partners(a) if inst.pair_word(a, b).runs[a] >= 2]
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
