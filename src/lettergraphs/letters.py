"""Words over an alphabet and the letter-graph construction.

A word w together with a decoder D (a set of ordered letter pairs) defines
a graph on positions 1..|w|: positions i < j are adjacent exactly when the
ordered pair (w_i, w_j) belongs to D.  Every position inherits its letter
as a color.  check_realization tests a claimed realization of a given graph
against that rule directly, without decoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import groupby, repeat
from operator import itemgetter, or_
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InternalConsistencyError, MalformedInstanceError
from .graphs import Coloring, Graph, check_token

Word = tuple[str, ...]
Decoder = frozenset[tuple[str, str]]


def as_word(letters: Iterable[str]) -> Word:
    return tuple(check_token(c, "letter") for c in letters)


def normalize_decoder(pairs: Iterable[Sequence[str]]) -> Decoder:
    out = set()
    for pair in pairs:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise MalformedInstanceError(f"decoder pair {pair!r} is not two letters") from None
        out.add((check_token(a, "letter"), check_token(b, "letter")))
    return frozenset(out)


def decoder_letters(decoder: Iterable[Sequence[str]]) -> set[str]:
    return {c for pair in decoder for c in pair}


def checked_decoder(decoder: Iterable[Sequence[str]], alphabet: Iterable[str]) -> Decoder:
    """The decoder as a frozenset of pairs, refusing letters outside the alphabet."""
    d = normalize_decoder(decoder)
    stray = decoder_letters(d) - set(alphabet)
    if stray:
        raise MalformedInstanceError(f"decoder letters outside the alphabet: {sorted(stray)}")
    return d


def is_symmetric_decoder(decoder: Iterable[Sequence[str]]) -> bool:
    d = {(a, b) for a, b in decoder}
    return all((b, a) in d for a, b in d)


def project_word(word: Sequence[str], letters: Iterable[str]) -> Word:
    """Subsequence of the word keeping only the given letters."""
    wanted = set(letters)
    return tuple(c for c in word if c in wanted)


def count_runs(word: Sequence[str], letter: str) -> int:
    """Number of maximal blocks of consecutive occurrences of the letter."""
    runs = 0
    previous = None
    for c in word:
        if c == letter and previous != letter:
            runs += 1
        previous = c
    return runs


def is_palindrome(word: Sequence[str]) -> bool:
    seq = tuple(word)
    return seq == seq[::-1]


@dataclass(frozen=True)
class ColoredGraph:
    """A graph together with a total coloring of its vertices."""

    graph: Graph
    coloring: Coloring


def decode(decoder: Iterable[Sequence[str]], word: Sequence[str],
           alphabet: Optional[Sequence[str]] = None) -> ColoredGraph:
    """Letter graph of the word under the decoder.

    Vertices are the positions "1".."n" in order, colored by their letters.
    When an alphabet is given, the word and decoder must stay inside it;
    otherwise the alphabet is inferred (word letters first, in order of
    first occurrence, then any decoder-only letters sorted).
    """
    w = as_word(word)
    d = normalize_decoder(decoder)
    if alphabet is None:
        seen: dict[str, None] = {}
        for c in w:
            seen.setdefault(c, None)
        for c in sorted(decoder_letters(d)):
            seen.setdefault(c, None)
        alphabet = tuple(seen)
    else:
        alphabet = tuple(check_token(c, "letter") for c in alphabet)
        stray = (set(w) | decoder_letters(d)) - set(alphabet)
        if stray:
            raise MalformedInstanceError(f"letters outside the alphabet: {sorted(stray)}")

    # Position i's row is its later positions whose letter b has (w_i, b) in
    # D, from a table keyed by first letter, and its earlier positions whose
    # letter a has (a, w_i) in D, from a table keyed by second letter.
    # Graph.from_rows checks that the two halves agree.
    at: dict[str, int] = {}
    for i, c in enumerate(w):
        at[c] = at.get(c, 0) | 1 << i
    later: dict[str, int] = {}
    earlier: dict[str, int] = {}
    for a, b in d:
        later[a] = later.get(a, 0) | at.get(b, 0)
        earlier[b] = earlier.get(b, 0) | at.get(a, 0)
    rows = [(later.get(c, 0) >> i + 1 << i + 1) | (earlier.get(c, 0) & (1 << i) - 1)
            for i, c in enumerate(w)]
    positions = [str(i + 1) for i in range(len(w))]
    graph = Graph.from_rows(positions, rows)
    coloring = Coloring(dict(zip(positions, w)), alphabet)
    return ColoredGraph(graph, coloring)


@dataclass(frozen=True)
class Realization:
    """A word and decoder realizing a graph; `mapping` is each vertex's 1-based
    word position, `coloring` its letter, `decoder` the sorted tuple of pairs."""

    alphabet: tuple[str, ...]
    word: Word
    decoder: tuple[tuple[str, str], ...]
    coloring: Coloring
    mapping: dict[str, int]

    @property
    def k(self) -> int:
        return len(self.alphabet)

    @property
    def permutation(self) -> tuple[str, ...]:
        """The vertices in word order."""
        return tuple(sorted(self.mapping, key=self.mapping.__getitem__))


def check_realization(graph: Graph, mapping: Mapping[str, int], word: Sequence[str],
                      decoder: Iterable[Sequence[str]],
                      coloring: Optional[Coloring] = None) -> None:
    """Raise unless mapping sends the graph onto the letter graph of (decoder, word).

    mapping assigns each vertex a 1-based word position.  Among the later
    positions, the vertex at position p must be adjacent to exactly those
    whose letter b has (w_p, b) in the decoder, compared as bitmask rows; rows
    are symmetric, so each unordered pair is checked once, from its earlier
    position.  Decoder pairs may come in any order; each run of pairs with one
    first letter costs one Python step.  When a coloring is given every
    vertex's letter must match its position's letter.
    """
    n = graph.n
    if len(word) != n or sorted(mapping) != sorted(graph.vertices) \
            or sorted(mapping.values()) != list(range(1, n + 1)):
        raise InternalConsistencyError("solution does not map vertices onto word positions")
    at = [0] * n
    for v, p in mapping.items():
        at[p - 1] = graph.index(v)
    letter_masks: dict[str, int] = {}
    for p, c in enumerate(word):
        letter_masks[c] = letter_masks.get(c, 0) | (1 << at[p])
    sees_later = dict.fromkeys(letter_masks, 0)
    for a, run in groupby(decoder, key=itemgetter(0)):
        seen = reduce(or_, map(letter_masks.get, map(itemgetter(1), run), repeat(0)), 0)
        sees_later[a] = sees_later.get(a, 0) | seen
    adj = graph.adjacency_masks()
    wrong = []
    later = 0
    for p in range(n - 1, -1, -1):
        v = at[p]
        row = (adj[v] ^ sees_later[word[p]]) & later
        if row:
            # The row's lowest bit gives v's first wrong pair in vertex order.
            u = (row & -row).bit_length() - 1
            wrong.append((min(u, v), max(u, v)))
        later |= 1 << v
    if wrong:
        i, j = min(wrong)
        raise InternalConsistencyError(
            f"solution misrepresents the pair {graph.vertices[i]},{graph.vertices[j]}")
    if coloring is not None:
        for v in graph.vertices:
            if word[mapping[v] - 1] != coloring[v]:
                raise InternalConsistencyError(f"solution word disagrees with the coloring at {v}")


def check_twin_classes(graph: Graph, blocks: Sequence[Sequence[str]],
                       kinds: Sequence[str]) -> None:
    """Raise unless the blocks are exactly the graph's generalized-twin classes.

    That makes len(blocks) the least alphabet of any symmetric decoder, both
    ways: one letter per block realizes the graph, and under a symmetric
    decoder two vertices with one letter are twins, so p pairwise non-twin
    vertices need p letters.  Checked directly on the bitmask rows: the
    blocks partition the vertices; every member v of a block with first
    member u has rows[v] & ~bit(u) == rows[u] & ~bit(v); each kind is
    "clique" for a block of two or more pairwise adjacent members and
    "independent" for one with no inner edge (a twin class is one or the
    other, so u's row inside the block decides it); and no two blocks are
    twins.  Vertices u and w are twins exactly when their open rows are
    equal (u, w not adjacent) or their closed rows are (u, w adjacent), so
    the last test is that the first members' open rows are distinct and so
    are their closed rows.
    """
    if len(kinds) != len(blocks) or not all(blocks) \
            or sorted(v for block in blocks for v in block) != sorted(graph.vertices):
        raise InternalConsistencyError("blocks do not partition the vertices")
    rows = graph.adjacency_masks()
    firsts = []
    for block, kind in zip(blocks, kinds):
        ids = list(map(graph.index, block))
        u = ids[0]
        firsts.append(u)
        for v in ids:
            if rows[v] & ~(1 << u) != rows[u] & ~(1 << v):
                raise InternalConsistencyError(f"{graph.vertices[v]} is not a twin of {block[0]}")
        mask = sum(1 << v for v in ids)
        inside = rows[u] & mask
        if kind != ("clique" if len(ids) > 1 and inside == mask ^ 1 << u
                    else "independent" if inside == 0 else None):
            raise InternalConsistencyError(f"the block of {block[0]} is not of kind {kind}")
    if len({rows[u] for u in firsts}) != len(firsts) \
            or len({rows[u] | 1 << u for u in firsts}) != len(firsts):
        raise InternalConsistencyError("two blocks are twins, so fewer letters suffice")
