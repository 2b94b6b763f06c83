"""Words over an alphabet and the letter-graph construction.

A word w together with a decoder D (a set of ordered letter pairs) defines
a graph on positions 1..|w|: positions i < j are adjacent exactly when the
ordered pair (w_i, w_j) belongs to D.  Every position inherits its letter
as a color.  check_realization tests a claimed realization of a given graph
against that rule directly, without decoding.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        a, b = pair
        out.add((check_token(a, "letter"), check_token(b, "letter")))
    return frozenset(out)


def decoder_letters(decoder: Iterable[Sequence[str]]) -> set[str]:
    return {c for pair in decoder for c in pair}


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

    positions = [str(i + 1) for i in range(len(w))]
    by_letter: dict[str, list[int]] = {}
    for i, c in enumerate(w):
        by_letter.setdefault(c, []).append(i)
    edges = []
    for a, b in d:
        for i in by_letter.get(a, ()):
            for j in by_letter.get(b, ()):
                if i < j:
                    edges.append((positions[i], positions[j]))
    graph = Graph(positions, edges)
    coloring = Coloring({positions[i]: w[i] for i in range(len(w))}, alphabet)
    return ColoredGraph(graph, coloring)


def check_realization(graph: Graph, mapping: Mapping[str, int], word: Sequence[str],
                      decoder: Iterable[Sequence[str]],
                      coloring: Optional[Coloring] = None) -> None:
    """Raise unless mapping sends the graph onto the letter graph of (decoder, word).

    mapping assigns each vertex a 1-based word position.  The vertex at
    position p must be adjacent to exactly the vertices at later positions
    whose letter b has (w_p, b) in the decoder and at earlier positions
    whose letter b has (b, w_p) in it; both sides are compared as bitmask
    rows over vertex indices.  When a coloring is given every vertex's
    letter must match its position's letter.
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
    sees_earlier = dict.fromkeys(letter_masks, 0)
    for a, b in decoder:
        if a in sees_later:
            sees_later[a] |= letter_masks.get(b, 0)
        if b in sees_earlier:
            sees_earlier[b] |= letter_masks.get(a, 0)
    adj = graph.adjacency_masks()
    wrong = [0] * n
    later = 0
    for p in range(n - 1, -1, -1):
        v, c = at[p], word[p]
        earlier = ((1 << n) - 1) ^ later ^ (1 << v)
        wrong[v] = adj[v] ^ ((later & sees_later[c]) | (earlier & sees_earlier[c]))
        later |= 1 << v
    for i, row in enumerate(wrong):
        if row:
            # Both rows are symmetric, so the first wrong row's lowest bit
            # lies above i: this is the first wrong pair in vertex order.
            u, v = graph.vertices[i], graph.vertices[(row & -row).bit_length() - 1]
            raise InternalConsistencyError(f"solution misrepresents the pair {u},{v}")
    if coloring is not None:
        for v in graph.vertices:
            if word[mapping[v] - 1] != coloring[v]:
                raise InternalConsistencyError(f"solution word disagrees with the coloring at {v}")
