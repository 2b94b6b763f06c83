import pytest
from hypothesis import given, settings, strategies as st

from lettergraphs import (Coloring, Graph, MalformedInstanceError, decode,
                          enumerate_decoders, retrieve_decoder, verify_decoder)
from lettergraphs.decoder_retrieval import (DecoderInstance, PairKind,
                                            PairStatus, build_formula,
                                            cascade_word, forced_pair_word)
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
        assert inst.kind("a", "b") is PairKind.ONE_SIDED
        assert inst.kind("b", "a") is PairKind.ONE_SIDED
        assert inst.within == {"a": "independent", "b": "independent"}
        pair = inst.pair_word("a", "b")
        assert pair.word == tuple("abbaba")
        assert pair.runs == {"a": 3, "b": 2}
        assert not pair.palindrome
        assert inst.pair_word("b", "a") is pair

    def test_classify_full_and_empty(self):
        g = Graph(["a1", "a2", "b1", "c1"], [("a1", "a2"), ("a1", "b1"), ("a2", "b1")])
        c = Coloring({"a1": "a", "a2": "a", "b1": "b", "c1": "c"}, ("a", "b", "c"))
        inst = DecoderInstance(g, c, tuple("aabc"))
        assert inst.kind("a", "b") is PairKind.FULL
        assert inst.kind("a", "c") is PairKind.EMPTY
        assert inst.one_sided() == []
        assert inst.within == {"a": "clique", "b": "independent", "c": "independent"}
        with pytest.raises(MalformedInstanceError):
            inst.kind("a", "a")
        with pytest.raises(MalformedInstanceError):
            inst.kind("a", "z")

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

    def test_forced_pair_word_orientations(self):
        inst = DecoderInstance(*forced_instance())
        assert forced_pair_word(inst, "a", "b") == (PairStatus.FORCED, ("a", "b"))

    def test_forced_pair_word_free_on_palindrome(self):
        g = Graph(["a1", "a2", "b1"], [("a1", "b1")])
        c = Coloring({"a1": "a", "a2": "a", "b1": "b"}, ("a", "b"))
        assert forced_pair_word(DecoderInstance(g, c, tuple("aba")), "a", "b") == \
            (PairStatus.FREE, None)

    def test_forced_pair_word_infeasible(self):
        # two disjoint cross edges over word abab fit neither orientation
        g = Graph(["a1", "a2", "b1", "b2"], [("a1", "b1"), ("a2", "b2")])
        c = Coloring({"a1": "a", "a2": "a", "b1": "b", "b2": "b"}, ("a", "b"))
        assert forced_pair_word(DecoderInstance(g, c, tuple("abab")), "a", "b") == \
            (PairStatus.INFEASIBLE, None)

    def test_cascade_word_propagates_and_refutes(self):
        inst = DecoderInstance(*cascade_instance())
        assert cascade_word(inst, "a", "b", "c", ("b", "a")) == ("b", "c")
        assert cascade_word(inst, "a", "b", "c", ("a", "b")) is None


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
