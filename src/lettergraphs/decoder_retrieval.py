"""Recovering a decoder from a colored graph and a word.

The pipeline rests on three observations about an instance (G, Sigma, chi, w)
asking for a decoder D with G isomorphic to the letter graph of w under D,
respecting chi:

  * within one letter a, either every solution works with aa or every
    solution works without it, depending on whether G[V_a] is a clique or an
    independent set; anything else is a global no,
  * a pair {a, b} whose cross edges are all present or all absent pins
    {ab, ba} to both-in or both-out,
  * a pair with some but not all cross edges present ("one-sided") contains
    exactly one of ab, ba in any solution, so those choices become boolean
    variables of a 2-SAT formula whose clauses are computed by verifying
    candidate decoders on blocks of the instance.

Everything runs on one DecoderInstance, built and validated once per call:
word_retrieval.ColoredInstance's index of the colored graph (adjacency
rows, class masks, visible masks, the watched-blocker peel, the
Realization of a peeled order, and the pair table: every letter pair full,
empty or one-sided, with a chain flag per cross graph) plus the word, its
projections (cached per letter set), the block table (per letter, its
one-sided partners whose projection has at least two of its runs, and the
palindromic ones among them) and, per center and partner, the cross
graph's degrees with the partner counts before each center position.

The forced pairs, the cascades and the block loop check a block by
counting degrees (DecoderInstance.realizes_block), never by peeling.  The
final verify peels the whole instance along the word (ColoredInstance.peel
with the word), and decoder_realization returns its order as a Realization.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import InternalConsistencyError, MalformedInstanceError
from .graphs import Coloring, Graph, members
from .letters import (
    Decoder,
    Realization,
    Word,
    checked_decoder,
    count_runs,
    is_palindrome,
    project_word,
)
from .twosat import TwoSatFormula, solve_2sat
from .word_retrieval import ColoredInstance, PairKind

DirectedPair = tuple[str, str]


class DecoderInstance(ColoredInstance):
    """A validated instance (G, chi, w): the colored graph's index plus the word.

    Letters coloring no vertex are accepted here (they must then be absent
    from the word); the solvers refuse them through require_used_letters.
    """

    def __init__(self, graph: Graph, coloring: Coloring, word: Sequence[str]):
        super().__init__(graph, coloring)
        if len(word) != graph.n:
            raise MalformedInstanceError("word length differs from the vertex count")
        stray = set(word) - set(coloring.alphabet)
        if stray:
            raise MalformedInstanceError(f"word letters outside the alphabet: {sorted(stray)}")
        self.word: Word = tuple(word)
        # Per letter, the bitmask of its word positions.
        self.at = dict.fromkeys(self.letters, 0)
        for i, c in enumerate(self.word):
            self.at[c] |= 1 << i
        for a, mask in self.masks.items():
            if self.at[a].bit_count() != mask.bit_count():
                raise MalformedInstanceError(f"letter {a!r} appears {self.at[a].bit_count()} times "
                                             f"but colors {mask.bit_count()} vertices")
        self._projections: dict[frozenset[str], Word] = {}
        self._crosses: dict[DirectedPair, tuple[list[int], bool, list[int]]] = {}

    def require_used_letters(self) -> None:
        for a, mask in self.masks.items():
            if not mask:
                raise MalformedInstanceError(f"letter {a!r} colors no vertex")

    def projection(self, letters: Iterable[str]) -> Word:
        """The word projected to the letters, computed once per letter set."""
        key = frozenset(letters)
        word = self._projections.get(key)
        if word is None:
            word = self._projections[key] = project_word(self.word, key)
        return word

    @cached_property
    def blocks(self) -> dict[str, tuple[list[str], list[str]]]:
        """Per letter b: its block, the letters x forming a one-sided pair
        with b whose projection has at least two b-runs, and the block's
        letters whose projection with b is a palindrome; both sorted."""
        partners: dict[str, list[str]] = {b: [] for b in self.letters}
        for a, b in self.one_sided():
            partners[a].append(b)
            partners[b].append(a)
        table = {}
        for b, others in partners.items():
            block = [x for x in others if count_runs(self.projection((x, b)), b) >= 2]
            table[b] = (block, [x for x in block if is_palindrome(self.projection((x, b)))])
        return table

    def single_run_pair(self) -> Optional[tuple[str, str]]:
        """The first one-sided pair in neither letter's block, or None.

        Its projection is one run of each letter, so either orientation
        would make the first run's vertices see the whole other class,
        which a one-sided pair rules out: no decoder exists.
        """
        return next(((a, b) for a, b in self.one_sided()
                     if b not in self.blocks[a][0] and a not in self.blocks[b][0]), None)

    def cross(self, center: str, partner: str) -> tuple[list[int], bool, list[int]]:
        """The cross graph of distinct letters c and p, computed once: each c
        vertex's degree into V_p, ascending by vertex, whether it is a chain
        graph (ColoredInstance.chain), and per c position the p before it."""
        key = (center, partner)
        if key not in self._crosses:
            mask, seen = self.masks[partner], self.at[partner]
            degrees = [(self.adj[v] & mask).bit_count() for v in members(self.masks[center])]
            before = [(seen & (1 << i) - 1).bit_count() for i in members(self.at[center])]
            self._crosses[key] = (degrees, self.chain(center, partner), before)
        return self._crosses[key]

    def realizes_block(self, center: str, partners: Sequence[str],
                       decoder: Iterable[DirectedPair]) -> bool:
        """Whether the decoder, over the block's letters, realizes the block
        of center c and partners: their vertices and only the edges between
        V_c and the partners' classes.  Given c as its sole partner the block
        is G[V_c], realized when V_c is a clique with cc in the decoder, or
        independent with cc absent or |V_c| < 2.

        Otherwise it is realized exactly when (i) no decoder pair but the cp
        and pc, p a partner, joins two positions of the projected word; (ii)
        each cross graph (c, p) is a chain graph (nested c neighbourhoods in
        V_p), as in every letter graph; and (iii) the c vertices' degree
        vectors into the partners equal, as a multiset, the vectors over the
        word's c positions whose p entry counts the p positions after it if
        cp is in the decoder plus those before it if pc is.  In a chain graph
        a vertex of degree d sees exactly the d partner vertices of highest
        degree, never splitting a tie, so matching V_c to the c positions by
        equal vectors and each V_p to the p positions by degree rank realizes
        the block, and every realization is such a matching.
        """
        d = set(decoder)
        if center in partners:
            wanted = PairKind.FULL if (center, center) in d else PairKind.EMPTY
            return self.pair_kinds[center, center] is wanted or self.masks[center].bit_count() < 2
        # (x, y) joins two positions when the first x, the lowest bit of
        # at[x], lies below the last y (two x's when x = y).
        letters, at = {center, *partners}, self.at
        if any(x in letters and y in letters and (x == center) == (y == center)
               and 0 < at[x] & -at[x] < at[y] for x, y in d):
            return False
        graph_side, word_side = [], []
        for p in partners:
            degrees, chain, before = self.cross(center, p)
            if not chain:
                return False
            total = self.masks[p].bit_count()
            after, ahead = (center, p) in d, (p, center) in d
            graph_side.append(degrees)
            word_side.append([after * (total - b) + ahead * b for b in before])
        return sorted(zip(*graph_side)) == sorted(zip(*word_side))


def realize_decoder(graph: Graph, coloring: Coloring, word: Sequence[str],
                    decoder: Iterable[Sequence[str]]) -> Optional[Realization]:
    """The realization of the graph by the word and decoder, or None.

    Peels the vertices along the word (see ColoredInstance.peel) after checking
    that the word and decoder stay inside the alphabet and that each letter
    occurs as often as it colors vertices; each vertex's word position is
    its place in the peeled order.
    """
    inst = DecoderInstance(graph, coloring, word)
    d = checked_decoder(decoder, coloring.alphabet)
    order = inst.peel(inst.visible(d), inst.word)
    return None if order is None else inst.realization(order, d)


def verify_decoder(graph: Graph, coloring: Coloring, word: Sequence[str],
                   decoder: Iterable[Sequence[str]]) -> bool:
    """Whether realize_decoder finds a realization."""
    return realize_decoder(graph, coloring, word, decoder) is not None


def forced_pair_word(inst: DecoderInstance, a: str, b: str) -> Optional[DirectedPair]:
    """The one of ab / ba that realizes the pair's cross edges on its own,
    or None when neither does.

    Checks the two singleton candidates {ab} and {ba} on the pair's block
    by degree counts; for a non-palindromic projection at most one can
    pass, and a palindromic one is refused.  Stripping matching end runs
    off the projection would expose the orientation too, at no gain.
    """
    if b not in inst.blocks[a][0] and a not in inst.blocks[b][0]:
        raise InternalConsistencyError("forced_pair_word needs a pair in some letter's block")
    if is_palindrome(inst.projection((a, b))):
        raise InternalConsistencyError("forced_pair_word needs a non-palindromic pair word")
    return _sole_fit(inst, a, (b,), (), ((a, b), (b, a)),
                     "both orientations fit a non-palindromic pair word")


def cascade_word(inst: DecoderInstance, a: str, b: str, c: str,
                 premise: DirectedPair) -> Optional[DirectedPair]:
    """Propagate a pair orientation across a shared letter.

    Given a and c in b's block, with w[b, c] a palindrome, assume the
    {a, b} choice is `premise` and test the decoders {premise, bc} and
    {premise, cb} on the block of edges leaving V_b.  At most one fits; if neither does, no
    solution contains the premise at all and None is returned.
    """
    if len({a, b, c}) != 3:
        raise InternalConsistencyError("cascade needs three distinct letters")
    if premise not in ((a, b), (b, a)):
        raise InternalConsistencyError("premise must orient the first pair")
    block, palindromic = inst.blocks[b]
    if a not in block or c not in palindromic:
        raise InternalConsistencyError(f"{a!r} and {c!r} must be in {b!r}'s block, "
                                       f"with w[{b}, {c}] a palindrome")
    return _sole_fit(inst, b, (a, c), (premise,), ((b, c), (c, b)),
                     "both cascade candidates fit the block")


def _sole_fit(inst: DecoderInstance, center: str, partners: Sequence[str],
              base: Sequence[DirectedPair], candidates: Sequence[DirectedPair],
              clash: str) -> Optional[DirectedPair]:
    """The one candidate that realizes the block together with the base
    pairs, or None; more than one is an internal error."""
    fits = [pair for pair in candidates if inst.realizes_block(center, partners, {*base, pair})]
    if len(fits) > 1:
        raise InternalConsistencyError(clash)
    return fits[0] if fits else None


def build_formula(graph: Graph, coloring: Coloring,
                  word: Sequence[str]) -> Optional[TwoSatFormula]:
    """The 2-SAT formula whose models are the one-sided orientation choices.

    Returns None when a sanity check already rules out every decoder: some
    letter class is neither a clique nor independent, some one-sided pair's
    projection is a single a-run followed by a single b-run (or vice versa),
    or a non-palindromic one-sided pair fits neither orientation.
    """
    inst = DecoderInstance(graph, coloring, word)
    inst.require_used_letters()
    return _formula(inst)


def _formula(inst: DecoderInstance) -> Optional[TwoSatFormula]:
    mixed = any(inst.pair_kinds[a, a] is PairKind.ONE_SIDED for a in inst.letters)
    if mixed or inst.single_run_pair() is not None:
        return None
    one_sided = inst.one_sided()
    variables: list[DirectedPair] = []
    for a, b in one_sided:
        variables.append((a, b))
        variables.append((b, a))
    formula = TwoSatFormula(variables)

    forced: dict[tuple[str, str], DirectedPair] = {}
    for a, b in one_sided:
        formula.add_clause(((a, b), True), ((b, a), True))
        formula.add_clause(((a, b), False), ((b, a), False))
    for a, b in one_sided:
        if is_palindrome(inst.projection((a, b))):
            continue
        direction = forced_pair_word(inst, a, b)
        if direction is None:
            return None
        forced[a, b] = forced[b, a] = direction
        formula.add_clause((direction, True))

    # Orientation links across a shared letter: for x in b's block and z
    # among its palindromic members, each choice for {x, b} implies at most
    # one choice for {b, z}.  Each outcome is kept under its center b, since
    # a premise xb can also belong to center x.
    implied: dict[tuple[str, DirectedPair, str], Optional[DirectedPair]] = {}
    for b in inst.letters:
        block, palindromic = inst.blocks[b]
        for x in block:
            for z in palindromic:
                if z == x:
                    continue
                for premise in ((x, b), (b, x)):
                    outcome = implied[b, premise, z] = cascade_word(inst, x, b, z, premise)
                    if outcome is None:
                        formula.add_clause((premise, False))
                    else:
                        formula.add_clause((premise, False), (outcome, True))

    # Per-letter block consistency: the orientations of all pairs in a's
    # block must together realize the edges leaving V_a.  Fixing one pair
    # determines the rest, so each starting orientation that fails the
    # block check is excluded by a unit clause.  A start some cascade
    # refuted already has that clause from the links above.
    for a in inst.letters:
        block, palindromic = inst.blocks[a]
        if not block:
            continue
        plain = [b for b in block if b not in palindromic]
        if plain:
            b0 = plain[0]
            starts = [forced[a, b0]]
        else:
            b0 = palindromic[0]
            starts = [(a, b0), (b0, a)]
        for start in starts:
            outcomes = [implied[a, start, c] for c in palindromic if c != b0]
            if None in outcomes:
                continue
            candidate = {start, *outcomes, *(forced[a, c] for c in plain)}
            if not inst.realizes_block(a, block, candidate):
                formula.add_clause((start, False))
    return formula


def decoder_realization(graph: Graph, coloring: Coloring,
                        word: Sequence[str]) -> Optional[Realization]:
    """The realization of the graph by the word under a retrieved decoder,
    or None if no decoder exists; its order is the final check's peel."""
    inst = DecoderInstance(graph, coloring, word)
    inst.require_used_letters()
    formula = _formula(inst)
    if formula is None:
        return None
    model = solve_2sat(formula)
    if model is None:
        return None
    chosen = {pair for pair, value in model.items() if value}
    for (a, b), kind in inst.pair_kinds.items():
        if kind is PairKind.FULL:
            chosen.update(((a, b), (b, a)))
    order = inst.peel(inst.visible(chosen), inst.word)
    if order is None:
        raise InternalConsistencyError("assembled decoder failed verification")
    return inst.realization(order, chosen)


def retrieve_decoder(graph: Graph, coloring: Coloring,
                     word: Sequence[str]) -> Optional[Decoder]:
    """A decoder realizing the graph from the word, or None if none exists."""
    found = decoder_realization(graph, coloring, word)
    return None if found is None else frozenset(found.decoder)
