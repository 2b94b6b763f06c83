"""Simple undirected graphs and total vertex colorings.

Vertex and letter labels are arbitrary non-empty text tokens without
whitespace.  A graph keeps its vertices in declaration order and maps them
to dense indices internally; adjacency is stored as one bitmask per vertex,
which makes neighborhood comparisons single integer operations.

A graph is built either from an edge list, one Python step per edge, or
row-first with Graph.from_rows, whose checks (row count, bits in range,
symmetry, no self-loops) are string operations over all n * n bits at once,
so a caller that can compute rows never lists its edges.  Set bits are
expanded the same way in reverse: a mask becomes a string of 0/1 bytes and
itertools.compress picks the items at the set positions (select), so
members, edge_list and the twin quotient take no Python step per bit;
only a sparse mask is walked set bit by set bit instead.
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import Iterable, Mapping, Optional, Sequence, TypeVar

from .errors import MalformedInstanceError


def check_token(token: object, what: str) -> str:
    if not isinstance(token, str) or not token or any(c.isspace() for c in token):
        raise MalformedInstanceError(
            f"{what} must be a non-empty token without whitespace, got {token!r}"
        )
    return token


SPARSE_STRIDE = 32

_ZERO_ONE = bytes.maketrans(b"01", b"\x00\x01")

T = TypeVar("T")


def select(items: Sequence[T], mask: int) -> list[T]:
    """items[i] for each set bit i of a non-negative mask, ascending; the mask
    must have no bit at or beyond len(items).

    A mask with fewer than one set bit per SPARSE_STRIDE bits of its length
    is walked by its lowest set bit, a few integer operations per set bit.
    Any other is spelled as one 0/1 byte per bit, lowest first, and picked
    from with one itertools.compress: C-level work per bit.
    """
    if mask.bit_count() * SPARSE_STRIDE < mask.bit_length():
        out = []
        while mask:
            low = mask & -mask
            out.append(items[low.bit_length() - 1])
            mask ^= low
        return out
    return list(compress(items, bin(mask)[:1:-1].encode().translate(_ZERO_ONE)))


def members(mask: int) -> list[int]:
    """Indices of the set bits of a non-negative mask, ascending."""
    return select(range(mask.bit_length()), mask)


class Graph:
    """An immutable simple graph over named vertices.

    Self-loops are rejected and repeated edges collapse to one.
    """

    __slots__ = ("vertices", "_index", "_adj", "_edge_count")

    def __init__(self, vertices: Iterable[str], edges: Iterable[Sequence[str]] = ()):
        self._set_vertices(vertices)
        # One '0'/'1' byte per vertex pair (n * n bytes while building),
        # converted to an int once per row: setting bits of a growing int
        # edge by edge copies the row's int once per edge.
        n = len(self.vertices)
        index = self._index
        rows = [bytearray(b"0") * n for _ in range(n)]
        try:
            for u, v in edges:
                i = index[u]
                j = index[v]
                if i == j:
                    raise MalformedInstanceError(f"self-loop at {u!r}")
                rows[i][j] = rows[j][i] = 49  # ord("1")
        except KeyError as exc:
            raise MalformedInstanceError(f"unknown vertex {exc.args[0]!r}") from None
        self._set_rows([int(row[::-1], 2) for row in rows])

    @classmethod
    def from_rows(cls, vertices: Iterable[str], rows: Iterable[int]) -> "Graph":
        """The graph whose vertex i has the open neighborhood bitmask rows[i].

        Rows must be non-negative ints below 2**n, symmetric (bit j of row i
        equals bit i of row j) and free of self-loops (bit i of row i clear).
        The rows' bits are laid out once as one string of n * n characters,
        row after row, lowest bit first; then column j is the slice
        flat[j::n], which must equal row j, and the diagonal flat[::n + 1]
        must hold no "1".  Each check is a C-level string operation, so no
        Python step is taken per edge or per vertex pair.
        """
        graph = cls.__new__(cls)
        graph._set_vertices(vertices)
        names = graph.vertices
        n = len(names)
        rows = list(rows)
        if len(rows) != n:
            raise MalformedInstanceError(f"{len(rows)} adjacency rows for {n} vertices")
        for name, row in zip(names, rows):
            if not isinstance(row, int) or row < 0 or row >> n:
                what = f"has bits outside 0..{n - 1}" if isinstance(row, int) else "is not an int"
                raise MalformedInstanceError(f"adjacency row of {name!r} {what}")
        top = 1 << n
        # bin(row | top) is "0b1" and then row's n bits, highest first.
        flat = "".join([bin(row | top)[:2:-1] for row in rows])
        loop = flat[::n + 1].find("1")
        if loop >= 0:
            raise MalformedInstanceError(f"self-loop at {names[loop]!r}")
        for j in range(n):
            column = flat[j::n]
            row = flat[j * n:(j + 1) * n]
            if column != row:
                i = next(i for i in range(n) if column[i] != row[i])
                raise MalformedInstanceError(
                    f"adjacency rows disagree on the pair {names[min(i, j)]!r},{names[max(i, j)]!r}")
        graph._set_rows(rows)
        return graph

    def _set_vertices(self, vertices: Iterable[str]) -> None:
        self.vertices = tuple(check_token(v, "vertex") for v in vertices)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise MalformedInstanceError("duplicate vertex label")

    def _set_rows(self, rows: list[int]) -> None:
        self._adj = rows
        self._edge_count = sum(map(int.bit_count, rows)) // 2

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
        return tuple(select(self.vertices, self.neighbor_mask(v)))

    def degree(self, v: str) -> int:
        return self.neighbor_mask(v).bit_count()

    def edge_list(self) -> tuple[tuple[str, str], ...]:
        """All edges as (u, v) pairs ordered by vertex indices, u before v."""
        names = self.vertices
        out = []
        for i, row in enumerate(self._adj):
            out.extend(zip(repeat(names[i]), select(names, row >> i + 1 << i + 1)))
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


def color_masks(graph: Graph, coloring: Coloring) -> dict[str, int]:
    """Bitmask of vertex indices per letter, for every alphabet letter.

    The coloring must name exactly the vertices of the graph.
    """
    if set(coloring.assignment) != set(graph.vertices):
        raise MalformedInstanceError("coloring is not total on the graph's vertices")
    masks = {c: 0 for c in coloring.alphabet}
    for v, c in coloring.assignment.items():
        masks[c] |= 1 << graph.index(v)
    return masks
