import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from lettergraphs import (Coloring, Graph, InternalConsistencyError,
                          MalformedInstanceError, decode, decoder_retrieval,
                          enumerate_decoders, retrieve_decoder, verify_decoder)
from lettergraphs.decoder_retrieval import (DecoderInstance, PairKind,
                                            build_formula, cascade_word,
                                            forced_pair_word)
from lettergraphs.graphs import color_masks
from instances import (banane_instance, bijection_verifies, cascade_instance,
                       forced_instance, random_realizable)


def banane_word_instance():
    colored = decode([("b", "a"), ("a", "n"), ("n", "e")], tuple("banane"))
    return colored.graph, colored.coloring, tuple("banane")


class TestVerifyDecoder:
    def test_accepts_the_generating_decoder(self):
        graph, coloring, word = banane_word_instance()
        assert verify_decoder(graph, coloring, word,
                              [("b", "a"), ("a", "n"), ("n", "e")])

    def test_rejects_a_wrong_decoder(self):
        graph, coloring, word = banane_word_instance()
        assert not verify_decoder(graph, coloring, word, [("b", "a")])
        assert not verify_decoder(graph, coloring, word,
                                  [("a", "b"), ("a", "n"), ("n", "e")])

    def test_respects_any_valid_bijection_not_just_identity(self):
        graph, coloring, decoder = banane_instance()
        assert verify_decoder(graph, coloring, tuple("banane"), decoder)

    def test_empty_graph_and_word(self):
        assert verify_decoder(Graph([]), Coloring({}, ()), (), [])
        assert verify_decoder(Graph([]), Coloring({}, ("a",)), (), [("a", "a")])

    def test_letters_without_vertices_need_zero_occurrences(self):
        g = Graph(["x"])
        c = Coloring({"x": "a"}, ("a", "b"))
        assert verify_decoder(g, c, ("a",), [])
        with pytest.raises(MalformedInstanceError):
            verify_decoder(g, c, ("b",), [])

    def test_validation_errors(self):
        g = Graph(["x", "y"], [("x", "y")])
        c = Coloring({"x": "a", "y": "a"}, ("a",))
        with pytest.raises(MalformedInstanceError):
            verify_decoder(g, c, ("a",), [])
        with pytest.raises(MalformedInstanceError):
            verify_decoder(g, c, ("a", "z"), [])
        with pytest.raises(MalformedInstanceError):
            verify_decoder(g, c, ("a", "a"), [("a", "z")])
        with pytest.raises(MalformedInstanceError):
            verify_decoder(g, Coloring({"x": "a"}, ("a",)), ("a", "a"), [])

    @settings(max_examples=150)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=3),
           st.randoms(use_true_random=False), st.booleans())
    def test_agrees_with_bijection_oracle(self, n, k, rng, scramble):
        k = min(k, n)
        graph, coloring, word, decoder = random_realizable(rng, n, k)
        if scramble:
            # random decoder and reshuffled word with the same letter counts
            letters = sorted(coloring.alphabet)
            decoder = frozenset((a, b) for a in letters for b in letters
                                if rng.random() < 0.5)
            word = tuple(sorted(word, key=lambda _: rng.random()))
        got = verify_decoder(graph, coloring, word, decoder)
        assert got == bijection_verifies(graph, coloring, word, decoder)


def row_comparison_scan(masks, adj, word, rows, decoder):
    """Reference peel, the row-comparison scan the blocked-mask kernel
    replaced: at each word letter, try that letter's remaining vertices
    from the lowest index and take the first whose neighborhood, kept to
    rows[letter] and to the remaining vertices, is exactly the rest of the
    classes the letter sees.  Returns the vertex indices taken, or None."""
    visible = dict.fromkeys(rows, 0)
    remaining = 0
    for a in rows:
        remaining |= masks[a]
    for a, b in decoder:
        visible[a] |= masks[b]
    order = []
    for letter in word:
        allowed = visible[letter] & remaining
        kept = rows[letter] & remaining
        candidates = masks[letter] & remaining
        while candidates:
            low = candidates & -candidates
            v = low.bit_length() - 1
            if adj[v] & kept == allowed & ~low:
                remaining ^= low
                order.append(v)
                break
            candidates ^= low
        else:
            return None
    return order


def test_peel_kernel_matches_row_comparison_scan():
    # Sizes past the bijection oracle's reach: n <= 40, k <= 5.
    rng = random.Random(2026)
    outcomes = Counter()
    for _ in range(300):
        n = rng.randint(1, 40)
        k = rng.randint(1, min(5, n))
        graph, coloring, word, generating = random_realizable(rng, n, k)
        if rng.random() < 0.5:
            word = tuple(sorted(word, key=lambda _: rng.random()))
        inst = DecoderInstance(graph, coloring, word)
        masks, adj = color_masks(graph, coloring), graph.adjacency_masks()
        letters = sorted(coloring.alphabet)
        pairs = [(a, b) for a in letters for b in letters]
        whole = dict.fromkeys(letters, (1 << n) - 1)
        for decoder in (generating, *(frozenset(p for p in pairs if rng.random() < 0.5)
                                      for _ in range(3))):
            # The order is pinned, not only whether one exists.
            order = inst.peel(inst.visible(decoder), inst.word)
            assert order == row_comparison_scan(masks, adj, word, whole, decoder)
            outcomes["whole", order is not None] += 1

        center = rng.choice(letters)
        others = [b for b in letters if b != center]
        partners = (center,) if rng.random() < 0.25 else \
            tuple(rng.sample(others, rng.randint(0, len(others))))
        # Partners keep their edges into the center's class, the center its
        # edges into the partners' classes (into itself as its own partner).
        rows = {b: masks[center] for b in partners}
        rows[center] = sum(masks[b] for b in set(partners))
        block_word = [c for c in word if c in rows]
        block_pairs = [(a, b) for a in sorted(rows) for b in sorted(rows)]
        kept = {(center, b) for b in partners} | {(b, center) for b in partners}
        for decoder in (generating & kept, *(frozenset(p for p in block_pairs if rng.random() < 0.5)
                                             for _ in range(3))):
            got = inst.realizes_block(center, partners, decoder)
            assert got == (row_comparison_scan(masks, adj, block_word, rows, decoder) is not None)
            outcomes["block", got] += 1
    # Both answers occur often at both levels, so the comparison has teeth.
    assert len(outcomes) == 4 and min(outcomes.values()) >= 200, outcomes


def sub_instance(graph, coloring, word, center, partners):
    """The block of center and partners as a Graph and Coloring of its own:
    their vertices, only the center-to-partner edges (the center's inner
    edges when it is its own sole partner), and the projected word."""
    letters = {center, *partners}

    def kept(u, v):
        cu, cv = coloring[u], coloring[v]
        if partners == (center,):
            return cu == cv == center
        return {cu, cv} <= letters and (cu == center) != (cv == center)

    keep = [v for v in graph.vertices if coloring[v] in letters]
    edges = [(u, v) for u, v in graph.edge_list() if kept(u, v)]
    sub_coloring = Coloring({v: coloring[v] for v in keep},
                            [c for c in coloring.alphabet if c in letters])
    return Graph(keep, edges), sub_coloring, tuple(c for c in word if c in letters)


class TestPairMachinery:
    def test_classify_forced_pair(self):
        inst = DecoderInstance(*forced_instance())
        assert inst.pair_kinds == {("a", "a"): PairKind.EMPTY, ("a", "b"): PairKind.ONE_SIDED,
                                   ("b", "b"): PairKind.EMPTY}
        assert inst.one_sided() == [("a", "b")]
        assert inst.projection("ab") == tuple("abbaba")
        assert inst.projection("ba") is inst.projection("ab")
        # abbaba has three a-runs and two b-runs and is not a palindrome
        assert inst.blocks == {"a": (["b"], []), "b": (["a"], [])}

    def test_classify_full_and_empty(self):
        g = Graph(["a1", "a2", "b1", "c1", "d1", "d2", "d3"],
                  [("a1", "a2"), ("a1", "b1"), ("a2", "b1"), ("d1", "d2")])
        c = Coloring({"a1": "a", "a2": "a", "b1": "b", "c1": "c",
                      "d1": "d", "d2": "d", "d3": "d"}, ("a", "b", "c", "d"))
        inst = DecoderInstance(g, c, tuple("aabcddd"))
        kinds = inst.pair_kinds
        assert list(kinds) == [(a, b) for a in "abcd" for b in "abcd" if a <= b]
        # a two-vertex clique is full, a singleton and an edgeless class
        # are empty, and a class with some but not all inner edges is mixed
        assert kinds["a", "a"] is PairKind.FULL
        assert kinds["b", "b"] is kinds["c", "c"] is PairKind.EMPTY
        assert kinds["d", "d"] is PairKind.ONE_SIDED
        assert kinds["a", "b"] is PairKind.FULL
        assert kinds["a", "c"] is kinds["b", "d"] is PairKind.EMPTY
        # a mixed class is no 2-SAT variable and no block partner
        assert inst.one_sided() == []
        assert all(table == ([], []) for table in inst.blocks.values())
        assert build_formula(g, c, tuple("aabcddd")) is None

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=4),
           st.randoms(use_true_random=False), st.booleans())
    def test_pair_kinds_from_definition(self, n, k, rng, flip):
        # Each row compares the present edges between two classes (inside
        # one class for a self pair) with all possible ones.
        k = min(k, n)
        graph, coloring, word, _ = random_realizable(rng, n, k)
        if flip and n >= 2:
            u, v = rng.sample(graph.vertices, 2)
            edges = [e for e in graph.edge_list() if set(e) != {u, v}]
            if not graph.has_edge(u, v):
                edges.append((u, v))
            graph = Graph(graph.vertices, edges)
        letters = sorted(coloring.alphabet)
        expected = {}
        for i, a in enumerate(letters):
            for b in letters[i:]:
                pairs = [(x, y) for x in graph.vertices for y in graph.vertices
                         if x != y and coloring[x] == a and coloring[y] == b]
                present = sum(graph.has_edge(x, y) for x, y in pairs)
                expected[a, b] = (PairKind.EMPTY if present == 0 else
                                  PairKind.FULL if present == len(pairs) else
                                  PairKind.ONE_SIDED)
        inst = DecoderInstance(graph, coloring, word)
        assert list(inst.pair_kinds.items()) == list(expected.items())
        assert inst.one_sided() == [(a, b) for (a, b), kind in expected.items()
                                    if a != b and kind is PairKind.ONE_SIDED]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=4),
           st.randoms(use_true_random=False))
    def test_subinstances(self, n, k, rng):
        # The masked block check accepts exactly the decoders that
        # verify_decoder accepts on the block built as a separate graph.
        k = min(k, n)
        graph, coloring, word, generating = random_realizable(rng, n, k)
        if rng.random() < 0.5:
            word = tuple(sorted(word, key=lambda _: rng.random()))
        inst = DecoderInstance(graph, coloring, word)
        letters = sorted(coloring.alphabet)
        center = rng.choice(letters)
        others = [b for b in letters if b != center]
        partners = (center,) if rng.random() < 0.25 else \
            tuple(rng.sample(others, rng.randint(0, len(others))))
        sub = sub_instance(graph, coloring, word, center, partners)
        block = {center, *partners}
        pairs = [(a, b) for a in sorted(block) for b in sorted(block)]
        # The generating decoder's pairs between center and partners realize
        # the block unless the word was shuffled; the rest are random.
        kept = {(center, b) for b in partners} | {(b, center) for b in partners}
        decoders = [frozenset(generating & kept)]
        decoders += [frozenset(p for p in pairs if rng.random() < 0.5) for _ in range(7)]
        for decoder in decoders:
            assert inst.realizes_block(center, partners, decoder) == \
                verify_decoder(*sub, decoder)
        assert inst.projection(block) == sub[2]

        # The block table, from its definition: one-sided partners x whose
        # projection w[x, center] has at least two center-runs.
        def projected(x):
            return [ch for ch in word if ch in (x, center)]

        expected = [x for x in others
                    if inst.pair_kinds[min(x, center), max(x, center)] is PairKind.ONE_SIDED
                    and [key for key, _ in itertools.groupby(projected(x))].count(center) >= 2]
        palindromic = [x for x in expected if projected(x) == projected(x)[::-1]]
        assert inst.blocks[center] == (expected, palindromic)

    def test_forced_pair_word_orientations(self):
        inst = DecoderInstance(*forced_instance())
        assert forced_pair_word(inst, "a", "b") == ("a", "b")
        assert forced_pair_word(inst, "b", "a") == ("a", "b")

    def test_forced_pair_word_refuses_palindrome(self):
        # aba puts the pair in a's block, but a palindromic pair word has no
        # forced orientation; its pairs are left to the cascades.
        g = Graph(["a1", "a2", "b1"], [("a1", "b1")])
        c = Coloring({"a1": "a", "a2": "a", "b1": "b"}, ("a", "b"))
        inst = DecoderInstance(g, c, tuple("aba"))
        assert inst.blocks["a"] == (["b"], ["b"])
        with pytest.raises(InternalConsistencyError, match="palindromic"):
            forced_pair_word(inst, "a", "b")

    def test_forced_pair_word_needs_a_block_pair(self):
        g = Graph(["a1", "a2", "b1", "b2"], [("a1", "b1")])
        c = Coloring({"a1": "a", "a2": "a", "b1": "b", "b2": "b"}, ("a", "b"))
        with pytest.raises(InternalConsistencyError, match="block"):
            forced_pair_word(DecoderInstance(g, c, tuple("aabb")), "a", "b")

    def test_forced_pair_word_infeasible(self):
        # two disjoint cross edges over word abab fit neither orientation
        g = Graph(["a1", "a2", "b1", "b2"], [("a1", "b1"), ("a2", "b2")])
        c = Coloring({"a1": "a", "a2": "a", "b1": "b", "b2": "b"}, ("a", "b"))
        assert forced_pair_word(DecoderInstance(g, c, tuple("abab")), "a", "b") is None

    def test_block_that_is_no_chain_graph_is_refused(self):
        # a1 sees b1, b2 and a2 sees b3, b4: an induced 2K2, so no word
        # realizes it, although both a vertices have degree 2 and under {ab}
        # both a positions of bbaabb see the two b positions after them.
        g = Graph(["a1", "a2", "b1", "b2", "b3", "b4"],
                  [("a1", "b1"), ("a1", "b2"), ("a2", "b3"), ("a2", "b4")])
        c = Coloring({"a1": "a", "a2": "a", "b1": "b", "b2": "b", "b3": "b", "b4": "b"},
                     ("a", "b"))
        inst = DecoderInstance(g, c, tuple("bbaabb"))
        degrees, chain, before = inst.cross("a", "b")
        assert sorted(degrees) == [2, 2] and not chain and before == [2, 2]
        assert not inst.realizes_block("a", ("b",), {("a", "b")})
        assert not verify_decoder(g, c, tuple("bbaabb"), {("a", "b")})

    def test_cascade_word_propagates_and_refutes(self):
        inst = DecoderInstance(*cascade_instance())
        assert cascade_word(inst, "a", "b", "c", ("b", "a")) == ("b", "c")
        assert cascade_word(inst, "a", "b", "c", ("a", "b")) is None


def random_palindromic(rng, half, k):
    """A decoded instance whose word is a random s followed by s reversed."""
    letters = "abcdefgh"[:k]
    start = [letters[i % k] for i in range(half)]
    rng.shuffle(start)
    word = start + start[::-1]
    decoder = frozenset((a, b) for a in letters for b in letters if rng.random() < 0.5)
    colored = decode(decoder, word, letters)
    return colored.graph, colored.coloring, tuple(word)


@pytest.mark.parametrize("instance", [
    cascade_instance(),
    random_palindromic(random.Random(3), 12, 5),
], ids=["cascade", "palindromic-k5"])
def test_each_cascade_and_projection_computed_once(instance, monkeypatch):
    projected, cascades = [], []
    real_project, real_cascade = decoder_retrieval.project_word, decoder_retrieval.cascade_word

    def project(word, letters):
        projected.append(frozenset(letters))
        return real_project(word, letters)

    def cascade(inst, a, b, c, premise):
        cascades.append((b, premise, c))
        return real_cascade(inst, a, b, c, premise)

    monkeypatch.setattr(decoder_retrieval, "project_word", project)
    monkeypatch.setattr(decoder_retrieval, "cascade_word", cascade)
    assert retrieve_decoder(*instance) is not None
    assert cascades and len(set(cascades)) == len(cascades)
    assert len(set(projected)) == len(projected)


class TestBuildFormula:
    def test_cascade_formula_clauses(self):
        graph, coloring, word = cascade_instance()
        formula = build_formula(graph, coloring, word)
        assert formula is not None
        assert sorted(formula.variables) == [("a", "b"), ("b", "a"),
                                             ("b", "c"), ("c", "b")]
        assert formula.has_clause((("a", "b"), True), (("b", "a"), True))
        assert formula.has_clause((("a", "b"), False), (("b", "a"), False))
        assert formula.has_clause((("b", "c"), True), (("c", "b"), True))
        assert formula.has_clause((("b", "c"), False), (("c", "b"), False))
        assert formula.has_clause((("b", "a"), True))
        assert formula.has_clause((("a", "b"), False))
        assert formula.has_clause((("b", "a"), False), (("b", "c"), True))
        assert len(formula.clauses) == 7

    def test_mixed_within_class_is_a_global_no(self):
        g = Graph(["a1", "a2", "a3"], [("a1", "a2")])
        c = Coloring({"a1": "a", "a2": "a", "a3": "a"}, ("a",))
        assert build_formula(g, c, tuple("aaa")) is None
        assert retrieve_decoder(g, c, tuple("aaa")) is None

    def test_single_run_each_one_sided_pair_is_a_global_no(self):
        g = Graph(["a1", "a2", "b1", "b2"], [("a1", "b1")])
        c = Coloring({"a1": "a", "a2": "a", "b1": "b", "b2": "b"}, ("a", "b"))
        assert build_formula(g, c, tuple("aabb")) is None
        assert retrieve_decoder(g, c, tuple("aabb")) is None

    def test_infeasible_orientation_is_a_global_no(self):
        g = Graph(["a1", "a2", "b1", "b2"], [("a1", "b1"), ("a2", "b2")])
        c = Coloring({"a1": "a", "a2": "a", "b1": "b", "b2": "b"}, ("a", "b"))
        assert build_formula(g, c, tuple("abab")) is None


class TestRetrieveDecoder:
    def test_forced_instance_retrieves_exactly_ab(self):
        graph, coloring, word = forced_instance()
        assert retrieve_decoder(graph, coloring, word) == frozenset({("a", "b")})

    def test_cascade_instance_retrieves_ba_bc(self):
        graph, coloring, word = cascade_instance()
        assert retrieve_decoder(graph, coloring, word) == \
            frozenset({("b", "a"), ("b", "c")})

    def test_banane_word_instance_feasible(self):
        graph, coloring, word = banane_word_instance()
        decoder = retrieve_decoder(graph, coloring, word)
        assert decoder is not None
        assert verify_decoder(graph, coloring, word, decoder)

    def test_full_pairs_and_cliques_join_the_decoder(self):
        # two letters, each a clique, fully joined
        g = Graph(["a1", "a2", "b1"],
                  [("a1", "a2"), ("a1", "b1"), ("a2", "b1")])
        c = Coloring({"a1": "a", "a2": "a", "b1": "b"}, ("a", "b"))
        decoder = retrieve_decoder(g, c, tuple("aab"))
        assert decoder == frozenset({("a", "a"), ("a", "b"), ("b", "a")})

    def test_unused_letter_is_malformed(self):
        g = Graph(["x"])
        c = Coloring({"x": "a"}, ("a", "b"))
        with pytest.raises(MalformedInstanceError):
            retrieve_decoder(g, c, ("a",))

    def test_count_mismatch_is_malformed(self):
        g = Graph(["x", "y"])
        c = Coloring({"x": "a", "y": "b"}, ("a", "b"))
        with pytest.raises(MalformedInstanceError):
            retrieve_decoder(g, c, ("a", "a"))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=3),
           st.randoms(use_true_random=False), st.booleans())
    def test_agrees_with_enumeration(self, n, k, rng, scramble):
        k = min(k, n)
        graph, coloring, word, _ = random_realizable(rng, n, k)
        if scramble:
            word = tuple(sorted(word, key=lambda _: rng.random()))
        all_decoders = enumerate_decoders(graph, coloring, word)
        got = retrieve_decoder(graph, coloring, word)
        if got is None:
            assert all_decoders == []
        else:
            assert got in all_decoders
