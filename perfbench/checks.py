"""Independent answer checks, written against the raw instance JSON.

Nothing here calls the package: every returned word, decoder, coloring and
twin partition is checked against the instance's edge list with this
module's own code.  A realization check covers every vertex pair: the pair
is an edge exactly when the letters at its two word positions, in position
order, form a decoder pair.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional


class CheckFailed(Exception):
    """An answer that does not match the instance."""


class Facts:
    """The instance as plain data: vertex order, adjacency rows, fields."""

    def __init__(self, raw: dict):
        self.vertices: list[str] = raw["graph"]["vertices"]
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.edges = [(self.index[u], self.index[v]) for u, v in raw["graph"]["edges"]]
        self.adj = [0] * len(self.vertices)
        for i, j in self.edges:
            self.adj[i] |= 1 << j
            self.adj[j] |= 1 << i
        self.alphabet: Optional[list[str]] = raw.get("alphabet")
        self.coloring: Optional[dict[str, str]] = raw.get("coloring")
        self.word: Optional[list[str]] = raw.get("word")
        self.decoder = None if "decoder" not in raw else {tuple(p) for p in raw["decoder"]}
        self._twin_classes: Optional[int] = None
        self._decoders: Optional[set[frozenset]] = None

    @property
    def n(self) -> int:
        return len(self.vertices)

    def twin_classes(self) -> int:
        """Neighborhood diversity: classes of vertices sharing N(v) or N[v]."""
        if self._twin_classes is None:
            parent = list(range(self.n))

            def find(i: int) -> int:
                while parent[i] != i:
                    parent[i] = parent[parent[i]]
                    i = parent[i]
                return i

            first_open: dict[int, int] = {}
            first_closed: dict[int, int] = {}
            for v, row in enumerate(self.adj):
                for first, key in ((first_open, row), (first_closed, row | 1 << v)):
                    parent[find(v)] = find(first.setdefault(key, v))
            self._twin_classes = sum(1 for v in range(self.n) if find(v) == v)
        return self._twin_classes

    def realizing_decoders(self) -> set[frozenset]:
        """Every decoder over the alphabet realizing the graph from the word.

        A candidate must give the graph's edge count (its edge count is the
        number of position pairs whose letters it contains), then a peeled
        vertex order must pass the pairwise check.
        """
        if self._decoders is None:
            letters = sorted(self.alphabet)
            slots = [(a, b) for a in letters for b in letters]
            pair_counts: Counter = Counter()
            seen: Counter = Counter()
            for b in self.word:
                for a, count in seen.items():
                    pair_counts[(a, b)] += count
                seen[b] += 1
            weights = [pair_counts[s] for s in slots]
            found = set()
            for mask in range(1 << len(slots)):
                chosen = [i for i in range(len(slots)) if mask >> i & 1]
                if sum(weights[i] for i in chosen) != len(self.edges):
                    continue
                decoder = frozenset(slots[i] for i in chosen)
                positions = peel(self, self.word, decoder)
                if positions is not None:
                    check_realization(self, positions, self.word, decoder)
                    found.add(decoder)
            self._decoders = found
        return self._decoders


def check_realization(facts: Facts, positions: dict[str, int], word, decoder) -> None:
    """Raise unless vertex v at 0-based word position positions[v] realizes the graph."""
    n = facts.n
    if len(word) != n or len(positions) != n or set(positions) != set(facts.vertices) \
            or sorted(positions.values()) != list(range(n)):
        raise CheckFailed("positions are not a bijection onto the word")
    at = [positions[v] for v in facts.vertices]
    rows = [0] * n
    for i, j in facts.edges:
        rows[at[i]] |= 1 << at[j]
        rows[at[j]] |= 1 << at[i]
    where: dict[str, int] = {}
    for p, letter in enumerate(word):
        where[letter] = where.get(letter, 0) | 1 << p
    sees = {a: 0 for a in where}
    for a, b in decoder:
        if a in sees:
            sees[a] |= where.get(b, 0)
    full = (1 << n) - 1
    for p, letter in enumerate(word):
        later = full >> (p + 1) << (p + 1)
        if rows[p] & later != sees[letter] & later:
            q = ((rows[p] ^ sees[letter]) & later).bit_length() - 1
            raise CheckFailed(f"position pair {p + 1},{q + 1} disagrees with the decoder")


def peel(facts: Facts, word, decoder) -> Optional[dict[str, int]]:
    """Vertex order for (word, decoder) under the instance coloring, or None.

    Position p takes a vertex of its letter whose neighbors among the
    vertices still unplaced are exactly the unplaced vertices of the letters
    it sees; such candidates are interchangeable twins.
    """
    members: dict[str, int] = {}
    for i, v in enumerate(facts.vertices):
        members[facts.coloring[v]] = members.get(facts.coloring[v], 0) | 1 << i
    sees = {a: 0 for a in members}
    for a, b in decoder:
        sees[a] = sees.get(a, 0) | members.get(b, 0)
    remaining = (1 << facts.n) - 1
    positions = {}
    for p, letter in enumerate(word):
        candidates = members.get(letter, 0) & remaining
        allowed = sees.get(letter, 0) & remaining
        while candidates:
            low = candidates & -candidates
            if facts.adj[low.bit_length() - 1] & remaining == allowed & ~low:
                break
            candidates ^= low
        else:
            return None
        positions[facts.vertices[low.bit_length() - 1]] = p
        remaining ^= low
    return positions


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _decoder(pairs) -> frozenset:
    _expect(all(isinstance(p, list) and len(p) == 2 for p in pairs), "malformed decoder pairs")
    return frozenset(tuple(p) for p in pairs)


def _check_decode(facts: Facts, out: dict) -> None:
    n = len(facts.word)
    vertices = out["graph"]["vertices"]
    _expect(vertices == [str(i + 1) for i in range(n)], "decoded vertices are not 1..n")
    _expect(out["coloring"] == {str(i + 1): a for i, a in enumerate(facts.word)},
            "decoded coloring differs from the word")
    decoded = Facts({"graph": out["graph"]})
    _expect(len({frozenset(e) for e in decoded.edges if e[0] != e[1]}) == len(decoded.edges),
            "repeated edge or self-loop")
    check_realization(decoded, {v: i for i, v in enumerate(vertices)}, facts.word, facts.decoder)


def _check_retrieve_word(facts: Facts, out: dict) -> None:
    order, word = out["permutation"], out["word"]
    _expect(len(order) == facts.n, "permutation has the wrong length")
    _expect(word == [facts.coloring.get(v) for v in order], "word disagrees with the coloring")
    check_realization(facts, {v: p for p, v in enumerate(order)}, word, facts.decoder)


def _check_nd(facts: Facts, out: dict) -> None:
    blocks = out["blocks"]
    _expect(out["neighborhood_diversity"] == len(blocks) == facts.twin_classes(),
            "neighborhood diversity differs from the twin-class count")
    _expect(sorted(v for block in blocks for v in block) == sorted(facts.vertices),
            "blocks do not partition the vertices")
    for block, kind in zip(blocks, out["kinds"], strict=True):
        rows = set()
        for v in block:
            i = facts.index[v]
            rows.add(facts.adj[i] | (1 << i if kind == "clique" else 0))
        _expect(len(rows) == 1, f"block of {block[0]} is not one {kind} twin class")


def _check_sym_lettericity(facts: Facts, out: dict) -> None:
    decoder = _decoder(out["decoder"])
    _expect(out["value"] == len(out["alphabet"]) == facts.twin_classes(),
            "symmetric lettericity differs from the twin-class count")
    _expect(all((b, a) in decoder for a, b in decoder), "witness decoder is not symmetric")
    coloring, word = out["coloring"], out["word"]
    _expect(sorted(coloring) == sorted(facts.vertices), "witness coloring is not total")
    _expect(Counter(word) == Counter(coloring.values()), "witness word and coloring disagree")
    slots: dict[str, list[int]] = {}
    for p, letter in enumerate(word):
        slots.setdefault(letter, []).append(p)
    positions = {v: slots[coloring[v]].pop(0) for v in facts.vertices}
    check_realization(facts, positions, word, decoder)


def _check_decoder(facts: Facts, decoder: frozenset) -> None:
    positions = peel(facts, facts.word, decoder)
    _expect(positions is not None, "no vertex order realizes the returned decoder")
    _expect(all(facts.word[p] == facts.coloring[v] for v, p in positions.items()),
            "vertex order disagrees with the coloring")
    check_realization(facts, positions, facts.word, decoder)


def _check_retrieve_decoder(facts: Facts, out: dict) -> None:
    if "decoders" in out:
        found = [_decoder(d) for d in out["decoders"]]
        _expect(out["count"] == len(found) == len(set(found)), "decoder count is wrong")
        _expect(set(found) == facts.realizing_decoders(),
                "enumerated decoders differ from the exhaustive check")
    else:
        _check_decoder(facts, _decoder(out["decoder"]))


def _check_retrieve_coloring(facts: Facts, out: dict) -> None:
    iso, coloring = out["isomorphism"], out["coloring"]
    _expect(sorted(iso) == sorted(coloring) == sorted(facts.vertices),
            "isomorphism or coloring is not total")
    positions = {v: int(p) - 1 for v, p in iso.items()}
    _expect(all(coloring.get(v) == facts.word[p] for v, p in positions.items()
                if 0 <= p < facts.n), "coloring disagrees with the isomorphism")
    check_realization(facts, positions, facts.word, facts.decoder)


def _check_verify(facts: Facts, out: dict) -> None:
    _expect(out["verified"] is True, "verify did not confirm a feasible instance")


CHECKS = {
    "decode": _check_decode,
    "retrieve-word": _check_retrieve_word,
    "retrieve-decoder": _check_retrieve_decoder,
    "retrieve-coloring": _check_retrieve_coloring,
    "verify": _check_verify,
    "nd": _check_nd,
    "sym-lettericity": _check_sym_lettericity,
}


def check_answer(subcommand: str, facts: Facts, out: dict, expected: int) -> None:
    """Raise CheckFailed unless the output document answers the instance."""
    if expected == 1:
        _expect(out.get("status") == "infeasible", "infeasible instance got an answer")
        _expect(out.get("count", 0) == 0, "infeasible instance got decoders")
        return
    _expect(out.get("status") == "solution", f"status {out.get('status')!r}, expected a solution")
    CHECKS[subcommand](facts, out)
