import itertools

import pytest
from hypothesis import given, settings, strategies as st

from lettergraphs import (Coloring, Graph, MalformedInstanceError,
                          SizeLimitError, brute_isomorphism,
                          brute_lettericity, brute_symmetric_lettericity,
                          characterization_check, decode, enumerate_decoders,
                          verify_decoder)
from lettergraphs.oracles import (_decoder_slots, _edge_bound_tables,
                                  _mask_decoder, _stirling2,
                                  _surjective_colorings,
                                  brute_word_realization)
from instances import (bijection_verifies, forced_instance, random_graph,
                       random_realizable, realization_exists)


def p4():
    return Graph(["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4")])


def check_witness(graph, witness):
    """The witness word must decode to the graph under its mapping."""
    assert witness.k == len(witness.alphabet)
    decoded = decode(witness.decoder, witness.word, witness.alphabet)
    assert sorted(witness.mapping.values()) == list(range(1, graph.n + 1))
    for i, u in enumerate(graph.vertices):
        assert witness.word[witness.mapping[u] - 1] == witness.coloring[u]
        for v in graph.vertices[i + 1:]:
            assert graph.has_edge(u, v) == decoded.graph.has_edge(
                str(witness.mapping[u]), str(witness.mapping[v]))


class TestSurjectiveColorings:
    def test_counts_match_stirling_numbers(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                got = sum(1 for _ in _surjective_colorings(n, k))
                assert got == _stirling2(n, k)

    def test_canonical_first_occurrence_order(self):
        for rgs in _surjective_colorings(5, 3):
            seen = 0
            for value in rgs:
                assert value <= seen
                if value == seen:
                    seen += 1
            assert seen == 3

    def test_lexicographic_order(self):
        out = list(_surjective_colorings(4, 2))
        assert out == sorted(out)
        assert out[0] == (0, 0, 0, 1)

    def test_oversized_k_yields_nothing(self):
        assert list(_surjective_colorings(2, 3)) == []


class TestEdgeBounds:
    def test_bounds_bracket_reachable_counts(self):
        # two letters of sizes 2 and 1: slots aa, ab, ba
        slots, caps, partner = _decoder_slots(("a", "b"), {"a": 2, "b": 1},
                                              symmetric=False)
        assert slots == [("a", "a"), ("a", "b"), ("b", "a")]
        low, high = _edge_bound_tables(caps, partner, symmetric=False)
        for mask in range(1 << len(slots)):
            decoder = _mask_decoder(slots, mask, symmetric=False)
            counts = set()
            for word in itertools.product("ab", repeat=3):
                if word.count("a") == 2:
                    counts.add(decode(decoder, word).graph.edge_count)
            assert low[mask] <= min(counts) and max(counts) <= high[mask]
            # two-way and self pairs are tight
            if mask in (0b000, 0b001, 0b110, 0b111):
                assert low[mask] == high[mask]

    def test_singleton_self_pairs_are_skipped(self):
        slots, _, _ = _decoder_slots(("a", "b"), {"a": 1, "b": 3},
                                     symmetric=False)
        assert ("a", "a") not in slots
        assert ("b", "b") in slots
        sym_slots, _, _ = _decoder_slots(("a", "b"), {"a": 1, "b": 3},
                                         symmetric=True)
        assert sym_slots == [("a", "b"), ("b", "b")]


class TestBruteLettericity:
    def test_empty_graph(self):
        witness = brute_lettericity(Graph([]), 3)
        assert witness.k == 0 and witness.word == ()

    def test_single_vertex(self):
        witness = brute_lettericity(Graph(["x"]), 2)
        assert witness.k == 1
        check_witness(Graph(["x"]), witness)

    def test_p4_needs_two_letters(self):
        assert brute_lettericity(p4(), 1) is None
        witness = brute_lettericity(p4(), 2)
        assert witness.k == 2
        check_witness(p4(), witness)

    def test_star_needs_two_letters(self):
        star = Graph(["c", "l1", "l2", "l3"],
                     [("c", "l1"), ("c", "l2"), ("c", "l3")])
        witness = brute_lettericity(star, 3)
        assert witness.k == 2
        check_witness(star, witness)

    def test_clique_and_edgeless_need_one(self):
        for n in (2, 4):
            vertices = [f"v{i}" for i in range(n)]
            clique = Graph(vertices, list(itertools.combinations(vertices, 2)))
            assert brute_lettericity(clique, 2).k == 1
            assert brute_lettericity(Graph(vertices), 2).k == 1

    def test_symmetric_restriction_can_cost_letters(self):
        # P4 symmetrically needs 4 letters (its twin classes are singletons)
        assert brute_symmetric_lettericity(p4(), 3) is None
        witness = brute_symmetric_lettericity(p4(), 4)
        assert witness.k == 4
        check_witness(p4(), witness)

    def test_guards(self):
        with pytest.raises(SizeLimitError):
            brute_lettericity(random_graph_fixture(13), 2)
        with pytest.raises(SizeLimitError):
            brute_lettericity(p4(), 7)
        with pytest.raises(MalformedInstanceError):
            brute_lettericity(p4(), 0)

    def test_parallel_scan_matches_serial(self):
        g = random_graph_fixture(7, seed=5)
        serial = brute_lettericity(g, 3, jobs=1)
        parallel = brute_lettericity(g, 3, jobs=3)
        assert serial == parallel


def random_graph_fixture(n, seed=1):
    import random
    return random_graph(random.Random(seed), n)


class TestEnumerateDecoders:
    def test_forced_instance_is_unique(self):
        graph, coloring, word = forced_instance()
        assert enumerate_decoders(graph, coloring, word) == \
            [frozenset({("a", "b")})]

    def test_results_all_verify_and_are_sorted(self):
        import random
        graph, coloring, word, _ = random_realizable(random.Random(3), 6, 2)
        out = enumerate_decoders(graph, coloring, word)
        assert out
        keys = [tuple(sorted(d)) for d in out]
        assert keys == sorted(keys)
        for d in out:
            assert verify_decoder(graph, coloring, word, d)

    def test_too_many_letters(self):
        g = Graph(["1", "2", "3", "4", "5"])
        c = Coloring({v: letter for v, letter in zip(g.vertices, "abcde")},
                     tuple("abcde"))
        with pytest.raises(SizeLimitError):
            enumerate_decoders(g, c, tuple("abcde"))

    def test_jobs_agree(self):
        import random
        graph, coloring, word, _ = random_realizable(random.Random(9), 5, 3)
        assert enumerate_decoders(graph, coloring, word) == \
            enumerate_decoders(graph, coloring, word, jobs=4)


class TestCharacterization:
    def test_matches_verifier_on_forced_instance(self):
        graph, coloring, word = forced_instance()
        assert characterization_check(graph, coloring, word, [("a", "b")])
        assert not characterization_check(graph, coloring, word, [("b", "a")])
        assert not characterization_check(graph, coloring, word, [])

    def test_rejects_single_run_one_sided_instances(self):
        g = Graph(["a1", "a2", "b1", "b2"], [("a1", "b1")])
        c = Coloring({"a1": "a", "a2": "a", "b1": "b", "b2": "b"}, ("a", "b"))
        with pytest.raises(MalformedInstanceError):
            characterization_check(g, c, tuple("aabb"), [("a", "b")])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=3),
           st.randoms(use_true_random=False))
    def test_equivalent_to_global_verification(self, n, k, rng):
        k = min(k, n)
        graph, coloring, word, _ = random_realizable(rng, n, k)
        letters = sorted(coloring.alphabet)
        decoder = frozenset((a, b) for a in letters for b in letters
                            if rng.random() < 0.5)
        try:
            blockwise = characterization_check(graph, coloring, word, decoder)
        except MalformedInstanceError:
            # instance outside the characterization's precondition; it must
            # then have no solution at all
            assert not verify_decoder(graph, coloring, word, decoder)
            return
        assert blockwise == verify_decoder(graph, coloring, word, decoder)


class TestBruteWordRealization:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=3),
           st.randoms(use_true_random=False), st.booleans())
    def test_agrees_with_reference(self, n, k, rng, flip):
        k = min(k, n)
        graph, coloring, _, decoder = random_realizable(rng, n, k)
        if flip and n >= 2:
            u, v = rng.sample(graph.vertices, 2)
            edges = [e for e in graph.edge_list() if set(e) != {u, v}]
            if not graph.has_edge(u, v):
                edges.append((u, v))
            graph = Graph(graph.vertices, edges)
        assert brute_word_realization(graph, coloring, decoder) == \
            realization_exists(graph, coloring, decoder)

    def test_guard(self):
        g = Graph([f"v{i}" for i in range(8)])
        with pytest.raises(SizeLimitError):
            brute_word_realization(g, Coloring({v: "a" for v in g.vertices}), [])


class TestBruteIsomorphism:
    def test_finds_relabelings(self):
        g = p4()
        h = Graph(["d", "c", "b", "a"], [("a", "b"), ("b", "c"), ("c", "d")])
        mapping = brute_isomorphism(g, h)
        assert mapping is not None
        for u, v in itertools.combinations(g.vertices, 2):
            assert g.has_edge(u, v) == h.has_edge(mapping[u], mapping[v])

    def test_counts_rule_out_fast(self):
        assert brute_isomorphism(p4(), Graph(["1", "2", "3", "4"])) is None
        assert brute_isomorphism(p4(), Graph(["1"])) is None

    def test_guard(self):
        big = Graph([f"v{i}" for i in range(9)])
        with pytest.raises(SizeLimitError):
            brute_isomorphism(big, big)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.randoms(use_true_random=False))
def test_lettericity_witnesses_verify(n, rng):
    g = random_graph(rng, n)
    witness = brute_lettericity(g, n)
    assert witness is not None
    check_witness(g, witness)
    assert bijection_verifies(g, witness.coloring, witness.word, witness.decoder)
