"""Simple undirected graphs and total vertex colorings.

Vertex and letter labels are arbitrary non-empty text tokens without
whitespace.  A graph keeps its vertices in declaration order and maps them
to dense indices internally; adjacency is stored as one bitmask per vertex,
which makes neighborhood comparisons single integer operations.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from .errors import MalformedInstanceError


def check_token(token: object, what: str) -> str:
    if not isinstance(token, str) or not token or any(c.isspace() for c in token):
        raise MalformedInstanceError(
            f"{what} must be a non-empty token without whitespace, got {token!r}"
        )
    return token


class Graph:
    """An immutable simple graph over named vertices.

    Self-loops are rejected and repeated edges collapse to one.
    """

    __slots__ = ("vertices", "_index", "_adj", "_edge_count")

    def __init__(self, vertices: Iterable[str], edges: Iterable[Sequence[str]] = ()):
        self.vertices = tuple(check_token(v, "vertex") for v in vertices)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise MalformedInstanceError("duplicate vertex label")
        adj = [0] * len(self.vertices)
        count = 0
        for pair in edges:
            u, v = pair
            i, j = self.index(u), self.index(v)
            if i == j:
                raise MalformedInstanceError(f"self-loop at {u!r}")
            if not adj[i] >> j & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
                count += 1
        self._adj = adj
        self._edge_count = count

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise MalformedInstanceError(f"unknown vertex {v!r}") from None

    def __contains__(self, v: object) -> bool:
        return v in self._index

    def has_edge(self, u: str, v: str) -> bool:
        return self._adj[self.index(u)] >> self.index(v) & 1 == 1

    def neighbor_mask(self, v: str) -> int:
        """Open neighborhood of v as a bitmask over vertex indices."""
        return self._adj[self.index(v)]

    def adjacency_masks(self) -> list[int]:
        """One open-neighborhood bitmask per vertex, in declaration order."""
        return list(self._adj)

    def neighbors(self, v: str) -> tuple[str, ...]:
        mask = self.neighbor_mask(v)
        return tuple(u for i, u in enumerate(self.vertices) if mask >> i & 1)

    def degree(self, v: str) -> int:
        return self.neighbor_mask(v).bit_count()

    def edge_list(self) -> tuple[tuple[str, str], ...]:
        """All edges as (u, v) pairs ordered by vertex indices, u before v."""
        out = []
        for i, u in enumerate(self.vertices):
            rest = self._adj[i] >> (i + 1)
            j = i + 1
            while rest:
                if rest & 1:
                    out.append((u, self.vertices[j]))
                rest >>= 1
                j += 1
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.vertices, tuple(self._adj)))

    def __repr__(self) -> str:
        return f"Graph({list(self.vertices)!r}, {list(self.edge_list())!r})"


def are_generalized_twins(graph: Graph, u: str, v: str) -> bool:
    """True when N(u) \\ {v} equals N(v) \\ {u}.

    This covers both true twins (adjacent, same closed neighborhood) and
    false twins (non-adjacent, same open neighborhood).
    """
    i, j = graph.index(u), graph.index(v)
    if i == j:
        raise MalformedInstanceError("twin test needs two distinct vertices")
    masks = graph.adjacency_masks()
    return masks[i] & ~(1 << j) == masks[j] & ~(1 << i)


class Coloring:
    """A total assignment of letters to vertices plus the derived groups.

    The alphabet is an ordered tuple of distinct letters; when omitted it is
    taken as the letters of the assignment in first-occurrence order.
    Letters with no vertices are allowed here; operations that forbid them
    check separately.
    """

    __slots__ = ("assignment", "alphabet", "color_groups")

    def __init__(self, assignment: Mapping[str, str], alphabet: Optional[Sequence[str]] = None):
        pairs = {check_token(v, "vertex"): check_token(c, "letter") for v, c in assignment.items()}
        if alphabet is None:
            seen: dict[str, None] = {}
            for c in pairs.values():
                seen.setdefault(c, None)
            alphabet = tuple(seen)
        else:
            alphabet = tuple(check_token(c, "letter") for c in alphabet)
            if len(set(alphabet)) != len(alphabet):
                raise MalformedInstanceError("duplicate letter in alphabet")
            missing = set(pairs.values()) - set(alphabet)
            if missing:
                raise MalformedInstanceError(f"letters not in alphabet: {sorted(missing)}")
        groups: dict[str, list[str]] = {c: [] for c in alphabet}
        for v, c in pairs.items():
            groups[c].append(v)
        self.assignment = pairs
        self.alphabet = alphabet
        self.color_groups = {c: tuple(vs) for c, vs in groups.items()}

    def __getitem__(self, v: str) -> str:
        try:
            return self.assignment[v]
        except KeyError:
            raise MalformedInstanceError(f"vertex {v!r} has no color") from None

    def __contains__(self, v: object) -> bool:
        return v in self.assignment

    def group(self, letter: str) -> tuple[str, ...]:
        try:
            return self.color_groups[letter]
        except KeyError:
            raise MalformedInstanceError(f"letter {letter!r} not in alphabet") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coloring):
            return NotImplemented
        return self.assignment == other.assignment and self.alphabet == other.alphabet

    def __hash__(self) -> int:
        return hash((tuple(sorted(self.assignment.items())), self.alphabet))

    def __repr__(self) -> str:
        return f"Coloring({self.assignment!r}, alphabet={list(self.alphabet)!r})"


def check_total_coloring(graph: Graph, coloring: Coloring) -> None:
    """Require the coloring to name exactly the vertices of the graph."""
    if set(coloring.assignment) != set(graph.vertices):
        raise MalformedInstanceError("coloring is not total on the graph's vertices")


def color_masks(graph: Graph, coloring: Coloring) -> dict[str, int]:
    """Bitmask of vertex indices per letter, for every alphabet letter."""
    masks = {c: 0 for c in coloring.alphabet}
    for v, c in coloring.assignment.items():
        masks[c] |= 1 << graph.index(v)
    return masks
