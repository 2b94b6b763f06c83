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
adjacency rows and per-letter vertex masks, the within-letter status and
pair kinds, and each pair's projected word, cached on first use.  A block
(a center letter, its partners, and only the center-to-partner edges) is
checked by masking the instance's rows, not by building a smaller graph.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import InternalConsistencyError, MalformedInstanceError
from .graphs import Coloring, Graph, check_total_coloring, color_masks
from .letters import (
    Decoder,
    Word,
    count_runs,
    decoder_letters,
    is_palindrome,
    normalize_decoder,
    project_word,
)
from .twosat import TwoSatFormula, solve_2sat

DirectedPair = tuple[str, str]


def _members(mask: int) -> list[int]:
    """Indices of the set bits of the mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class PairKind(Enum):
    FULL = "full"
    EMPTY = "empty"
    ONE_SIDED = "one-sided"


class PairWord(NamedTuple):
    """The word projected to a letter pair, with each letter's run count."""

    word: Word
    runs: dict[str, int]
    palindrome: bool


class DecoderInstance:
    """A validated instance (G, chi, w) indexed by bitmasks.

    Vertex i is bit i.  Letters coloring no vertex are accepted here (they
    must then be absent from the word); the solvers refuse them through
    require_used_letters.
    """

    def __init__(self, graph: Graph, coloring: Coloring, word: Sequence[str]):
        check_total_coloring(graph, coloring)
        if len(word) != graph.n:
            raise MalformedInstanceError("word length differs from the vertex count")
        counts = Counter(word)
        stray = set(counts) - set(coloring.alphabet)
        if stray:
            raise MalformedInstanceError(f"word letters outside the alphabet: {sorted(stray)}")
        self.masks = color_masks(graph, coloring)
        for a, mask in self.masks.items():
            if counts[a] != mask.bit_count():
                raise MalformedInstanceError(
                    f"letter {a!r} appears {counts[a]} times but colors {mask.bit_count()} vertices"
                )
        self.word: Word = tuple(word)
        self.letters = sorted(coloring.alphabet)
        self.adj = graph.adjacency_masks()
        self._whole = dict.fromkeys(self.letters, (1 << graph.n) - 1)
        self._pair_words: dict[tuple[str, str], PairWord] = {}

    def require_used_letters(self) -> None:
        for a, mask in self.masks.items():
            if not mask:
                raise MalformedInstanceError(f"letter {a!r} colors no vertex")

    @cached_property
    def within(self) -> dict[str, Optional[str]]:
        """Per letter: "clique", "independent", or None when G[V_a] is neither."""
        status: dict[str, Optional[str]] = {}
        for a in self.letters:
            mask = self.masks[a]
            size = mask.bit_count()
            inside = sum((self.adj[v] & mask).bit_count() for v in _members(mask)) // 2
            if inside == size * (size - 1) // 2 and size >= 2:
                status[a] = "clique"
            elif inside == 0:
                status[a] = "independent"
            else:
                status[a] = None
        return status

    @cached_property
    def pair_kinds(self) -> dict[tuple[str, str], PairKind]:
        """Kind of every letter pair (a, b) with a < b, in sorted order."""
        kinds = {}
        for i, a in enumerate(self.letters):
            rows = [self.adj[v] for v in _members(self.masks[a])]
            for b in self.letters[i + 1:]:
                mask_b = self.masks[b]
                count = sum((row & mask_b).bit_count() for row in rows)
                if count == 0:
                    kinds[(a, b)] = PairKind.EMPTY
                elif count == len(rows) * mask_b.bit_count():
                    kinds[(a, b)] = PairKind.FULL
                else:
                    kinds[(a, b)] = PairKind.ONE_SIDED
        return kinds

    def kind(self, a: str, b: str) -> PairKind:
        try:
            return self.pair_kinds[(a, b) if a < b else (b, a)]
        except KeyError:
            raise MalformedInstanceError(
                f"{a!r} and {b!r} are not two distinct alphabet letters") from None

    def one_sided(self) -> list[tuple[str, str]]:
        return [pair for pair, kind in self.pair_kinds.items() if kind is PairKind.ONE_SIDED]

    def partners(self, a: str) -> list[str]:
        """Letters forming a one-sided pair with a, in sorted order."""
        return [b for b in self.letters if b != a and self.kind(a, b) is PairKind.ONE_SIDED]

    def pair_word(self, a: str, b: str) -> PairWord:
        key = (a, b) if a < b else (b, a)
        pair = self._pair_words.get(key)
        if pair is None:
            word = project_word(self.word, key)
            pair = PairWord(word, {c: count_runs(word, c) for c in key}, is_palindrome(word))
            self._pair_words[key] = pair
        return pair

    def realizes(self, decoder: Iterable[DirectedPair]) -> bool:
        """Whether the decoder, over alphabet letters, realizes the whole instance."""
        return self._peels(self.word, self._whole, decoder)

    def realizes_block(self, center: str, partners: Sequence[str],
                       decoder: Iterable[DirectedPair]) -> bool:
        """Whether the decoder realizes the block of center and partners.

        The block has the letters' vertices and only the edges joining the
        center's class to the partners' classes; the center given as its own
        sole partner keeps the edges inside its class instead.  The decoder
        may use only the block's letters.
        """
        partner_mask = 0
        for b in partners:
            partner_mask |= self.masks[b]
        rows = dict.fromkeys(partners, self.masks[center])
        rows[center] = partner_mask
        if len(rows) == 2:
            word = self.pair_word(*rows).word
        else:
            word = project_word(self.word, rows)
        return self._peels(word, rows, decoder)

    def _peels(self, word: Sequence[str], rows: dict[str, int],
               decoder: Iterable[DirectedPair]) -> bool:
        """Greedy peeling on the letters of `rows`, each letter's vertices
        keeping only their edges into rows[letter].

        The first word letter must be matched by some vertex of its color
        whose remaining neighborhood is exactly the union of the color
        classes its letter can see under the decoder.  Any two vertices
        eligible at the same step are generalized twins, so taking the one
        with the smallest index never loses a solution.
        """
        masks, adj = self.masks, self.adj
        visible = dict.fromkeys(rows, 0)
        remaining = 0
        for a in rows:
            remaining |= masks[a]
        for a, b in decoder:
            visible[a] |= masks[b]
        for letter in word:
            allowed = visible[letter] & remaining
            kept = rows[letter] & remaining
            candidates = masks[letter] & remaining
            while candidates:
                low = candidates & -candidates
                v = low.bit_length() - 1
                if adj[v] & kept == allowed & ~low:
                    remaining ^= low
                    break
                candidates ^= low
            else:
                return False
        return True


def verify_decoder(graph: Graph, coloring: Coloring, word: Sequence[str],
                   decoder: Iterable[Sequence[str]]) -> bool:
    """Decide whether the decoder realizes the graph from the word.

    Peels vertices greedily (see DecoderInstance._peels) after checking
    that the word and decoder stay inside the alphabet and that each letter
    occurs as often as it colors vertices.
    """
    inst = DecoderInstance(graph, coloring, word)
    d = decoder if isinstance(decoder, frozenset) else normalize_decoder(decoder)
    stray = decoder_letters(d) - set(coloring.alphabet)
    if stray:
        raise MalformedInstanceError(f"decoder letters outside the alphabet: {sorted(stray)}")
    return inst.realizes(d)


class PairStatus(Enum):
    FORCED = "forced"
    FREE = "free"
    INFEASIBLE = "infeasible"


def forced_pair_word(inst: DecoderInstance, a: str,
                     b: str) -> tuple[PairStatus, Optional[DirectedPair]]:
    """Which of ab / ba can realize the pair's cross edges on its own.

    Checks the two singleton candidates {ab} and {ba} on the pair's block.
    Exactly one passing pins the orientation; for a non-palindromic
    projection at most one can pass.  (An equivalent derivation strips
    matching first and last runs off the projection until the orientation
    is exposed; checking both candidates is simpler and just as fast at
    this scale.)
    """
    if inst.kind(a, b) is not PairKind.ONE_SIDED:
        raise InternalConsistencyError("forced_pair_word needs a one-sided pair")
    pair = inst.pair_word(a, b)
    if pair.runs[a] < 2 and pair.runs[b] < 2:
        raise InternalConsistencyError("pair word has a single run of each letter")
    ok_ab = inst.realizes_block(a, (b,), {(a, b)})
    ok_ba = inst.realizes_block(a, (b,), {(b, a)})
    if ok_ab and ok_ba:
        if not pair.palindrome:
            raise InternalConsistencyError("both orientations fit a non-palindromic pair word")
        return PairStatus.FREE, None
    if ok_ab:
        return PairStatus.FORCED, (a, b)
    if ok_ba:
        return PairStatus.FORCED, (b, a)
    return PairStatus.INFEASIBLE, None


def cascade_word(inst: DecoderInstance, a: str, b: str, c: str,
                 premise: DirectedPair) -> Optional[DirectedPair]:
    """Propagate a pair orientation across a shared letter.

    Given one-sided pairs {a, b} and {b, c} whose projections both have at
    least two b-runs, with w[b, c] a palindrome, assume the {a, b} choice is
    `premise` and test the decoders {premise, bc} and {premise, cb} on the
    block of edges leaving V_b.  At most one fits; if neither does, no
    solution contains the premise at all and None is returned.
    """
    if len({a, b, c}) != 3:
        raise InternalConsistencyError("cascade needs three distinct letters")
    if premise not in ((a, b), (b, a)):
        raise InternalConsistencyError("premise must orient the first pair")
    for x, y in ((a, b), (b, c)):
        if inst.kind(x, y) is not PairKind.ONE_SIDED:
            raise InternalConsistencyError(f"pair {x}{y} is not one-sided")
        if inst.pair_word(x, y).runs[b] < 2:
            raise InternalConsistencyError(f"pair word {x}{y} needs two runs of {b!r}")
    if not inst.pair_word(b, c).palindrome:
        raise InternalConsistencyError("second pair word must be a palindrome")

    ok_bc = inst.realizes_block(b, (a, c), {premise, (b, c)})
    ok_cb = inst.realizes_block(b, (a, c), {premise, (c, b)})
    if ok_bc and ok_cb:
        raise InternalConsistencyError("both cascade candidates fit the block")
    if ok_bc:
        return (b, c)
    if ok_cb:
        return (c, b)
    return None


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
    if any(status is None for status in inst.within.values()):
        return None
    one_sided = inst.one_sided()
    for a, b in one_sided:
        runs = inst.pair_word(a, b).runs
        if runs[a] < 2 and runs[b] < 2:
            # One run of each letter: either orientation would make the
            # first-run vertices universal toward the other side, which a
            # one-sided pair cannot satisfy.
            return None

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
        if inst.pair_word(a, b).palindrome:
            continue
        status, direction = forced_pair_word(inst, a, b)
        if status is PairStatus.INFEASIBLE:
            return None
        assert status is PairStatus.FORCED and direction is not None
        forced[(a, b)] = direction
        formula.add_clause((direction, True))

    # Orientation links across a shared letter: for one-sided pairs {x, b}
    # and {b, z} with two b-runs each and w[b, z] palindromic, each choice
    # for {x, b} implies at most one choice for {b, z}.
    for b in inst.letters:
        partners = inst.partners(b)
        for x in partners:
            if inst.pair_word(x, b).runs[b] < 2:
                continue
            for z in partners:
                if z == x:
                    continue
                p_bz = inst.pair_word(b, z)
                if p_bz.runs[b] < 2 or not p_bz.palindrome:
                    continue
                for premise in ((x, b), (b, x)):
                    implied = cascade_word(inst, x, b, z, premise)
                    if implied is None:
                        formula.add_clause((premise, False))
                    else:
                        formula.add_clause((premise, False), (implied, True))

    # Per-letter block consistency: the orientations of all pairs {a, b}
    # whose projections have two a-runs must together realize the edges
    # leaving V_a.  Fixing one pair determines the rest, so each starting
    # orientation that fails the block check is excluded by a unit clause.
    for a in inst.letters:
        block = [b for b in inst.partners(a) if inst.pair_word(a, b).runs[a] >= 2]
        if not block:
            continue
        palindromic = [b for b in block if inst.pair_word(a, b).palindrome]
        plain = [b for b in block if b not in set(palindromic)]
        if plain:
            b0 = plain[0]
            key = (a, b0) if a < b0 else (b0, a)
            starts = [forced[key]]
        else:
            b0 = palindromic[0]
            starts = [(a, b0), (b0, a)]
        for start in starts:
            candidate = {start}
            consistent = True
            for c in block:
                if c == b0:
                    continue
                if c in set(palindromic):
                    implied = cascade_word(inst, b0, a, c, start)
                    if implied is None:
                        formula.add_clause((start, False))
                        consistent = False
                        break
                    candidate.add(implied)
                else:
                    key = (a, c) if a < c else (c, a)
                    candidate.add(forced[key])
            if consistent and not inst.realizes_block(a, block, candidate):
                formula.add_clause((start, False))
    return formula


def retrieve_decoder(graph: Graph, coloring: Coloring,
                     word: Sequence[str]) -> Optional[Decoder]:
    """A decoder realizing the graph from the word, or None if none exists."""
    inst = DecoderInstance(graph, coloring, word)
    inst.require_used_letters()
    formula = _formula(inst)
    if formula is None:
        return None
    model = solve_2sat(formula)
    if model is None:
        return None
    chosen = {pair for pair, value in model.items() if value}
    for a, status in inst.within.items():
        if status == "clique":
            chosen.add((a, a))
    for (a, b), kind in inst.pair_kinds.items():
        if kind is PairKind.FULL:
            chosen.add((a, b))
            chosen.add((b, a))
    decoder = frozenset(chosen)
    if not inst.realizes(decoder):
        raise InternalConsistencyError("assembled decoder failed verification")
    return decoder
