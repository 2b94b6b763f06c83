import string

import pytest
from hypothesis import given, settings, strategies as st

from lettergraphs import (Coloring, Graph, InternalConsistencyError,
                          MalformedInstanceError, brute_lettericity, decode,
                          decoder_realization, isomorphic_coloring,
                          normalize_decoder, realize_decoder, retrieve_word,
                          symmetric_witness)
from lettergraphs.letters import (as_word, check_realization, count_runs,
                                  decoder_letters, is_palindrome,
                                  is_symmetric_decoder, project_word)
from instances import banane_instance, random_realizable

words = st.lists(st.sampled_from("abc"), max_size=10).map(tuple)


def test_normalize_decoder_dedups_and_checks_tokens():
    d = normalize_decoder([("a", "b"), ["a", "b"], ("b", "a")])
    assert d == frozenset({("a", "b"), ("b", "a")})
    with pytest.raises(MalformedInstanceError):
        normalize_decoder([("a", "")])


@pytest.mark.parametrize("pair", [("a",), ("a", "b", "c"), 7], ids=["1-tuple", "3-tuple", "int"])
def test_a_pair_that_is_not_two_letters_is_malformed(pair):
    g = Graph(["x"])
    c = Coloring({"x": "a"}, ("a", "b"))
    with pytest.raises(MalformedInstanceError, match="is not two letters"):
        normalize_decoder([pair])
    with pytest.raises(MalformedInstanceError, match="is not two letters"):
        retrieve_word(g, c, [pair])
    with pytest.raises(MalformedInstanceError, match="is not two letters"):
        realize_decoder(g, c, ("a",), frozenset({pair}))


def test_decoder_letters_and_symmetry():
    assert decoder_letters([("a", "b"), ("c", "c")]) == {"a", "b", "c"}
    assert is_symmetric_decoder([("a", "b"), ("b", "a"), ("c", "c")])
    assert not is_symmetric_decoder([("a", "b")])
    assert is_symmetric_decoder([])


def test_word_helpers():
    w = tuple("abbcbba")
    assert project_word(w, {"a", "b"}) == tuple("abbbba")
    assert count_runs(w, "b") == 2
    assert count_runs(w, "z") == 0
    assert is_palindrome(w)
    assert not is_palindrome("ab")
    assert is_palindrome("")


def test_decode_banana_edges():
    colored = decode([("b", "a"), ("a", "n"), ("n", "e")], tuple("banane"))
    g = colored.graph
    assert g.vertices == ("1", "2", "3", "4", "5", "6")
    assert set(g.edge_list()) == {("1", "2"), ("1", "4"), ("2", "3"),
                                  ("2", "5"), ("4", "5"), ("3", "6"), ("5", "6")}
    assert colored.coloring["1"] == "b" and colored.coloring["6"] == "e"
    assert colored.coloring.alphabet == ("b", "a", "n", "e")


def test_decode_empty_word():
    colored = decode([("a", "a")], ())
    assert colored.graph.n == 0
    assert colored.coloring.alphabet == ("a",)


def test_decode_self_pair_makes_clique():
    colored = decode([("a", "a")], tuple("aaa"))
    assert colored.graph.edge_count == 3


def test_decode_alphabet_inference_order():
    colored = decode([("z", "y")], tuple("ba"))
    assert colored.coloring.alphabet == ("b", "a", "y", "z")


def test_decode_rejects_stray_letters():
    with pytest.raises(MalformedInstanceError):
        decode([("a", "b")], tuple("abc"), alphabet=("a", "b"))
    with pytest.raises(MalformedInstanceError):
        decode([("a", "q")], tuple("ab"), alphabet=("a", "b"))


def test_as_word_validates():
    assert as_word(["ab", "c"]) == ("ab", "c")
    with pytest.raises(MalformedInstanceError):
        as_word(["a", " "])


@given(words, st.sets(st.tuples(st.sampled_from("abc"), st.sampled_from("abc"))))
def test_decode_edges_match_pair_rule(word, pairs):
    colored = decode(pairs, word)
    d = set(pairs)
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            assert colored.graph.has_edge(str(i + 1), str(j + 1)) == ((word[i], word[j]) in d)


@given(words)
def test_projection_and_runs_are_consistent(word):
    for letter in "abc":
        assert count_runs(word, letter) <= word.count(letter)
        assert (count_runs(word, letter) == 0) == (letter not in word)
        only = project_word(word, {letter})
        assert only == (letter,) * word.count(letter)


@given(words)
def test_reversal_flips_decoding(word):
    # Decoding the reversed word under the reversed decoder yields the
    # reversed-position isomorphic graph.
    decoder = {("a", "b"), ("b", "c"), ("a", "c")}
    flipped = {(b, a) for a, b in decoder}
    g1 = decode(decoder, word).graph
    g2 = decode(flipped, word[::-1]).graph
    n = len(word)
    for i in range(n):
        for j in range(i + 1, n):
            assert g1.has_edge(str(i + 1), str(j + 1)) == \
                g2.has_edge(str(n - j), str(n - i))


def decode_by_pairs(decoder, word, alphabet=None):
    """decode as one edge per position pair (i, j), i < j, whose letters
    (w_i, w_j) are a decoder pair, fed to Graph as an edge list."""
    d = set(decoder)
    if alphabet is None:
        alphabet = tuple(dict.fromkeys(list(word) + sorted({c for pair in d for c in pair})))
    positions = [str(i + 1) for i in range(len(word))]
    by_letter = {}
    for i, c in enumerate(word):
        by_letter.setdefault(c, []).append(i)
    edges = [(positions[i], positions[j]) for a, b in d
             for i in by_letter.get(a, ()) for j in by_letter.get(b, ()) if i < j]
    return Graph(positions, edges), Coloring(dict(zip(positions, word)), alphabet)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=26),
       st.floats(min_value=0.0, max_value=1.0), st.randoms(use_true_random=False),
       st.booleans())
def test_decode_matches_the_per_pair_edge_list(n, k, p, rng, explicit):
    # Letters beyond the k used in the word occur only in the decoder.
    letters = string.ascii_lowercase
    word = tuple(letters[rng.randrange(k)] for _ in range(n))
    used = letters[:min(k + 3, 26)]
    decoder = {(a, b) for a in used for b in used if rng.random() < p}
    alphabet = tuple(used) if explicit else None
    colored = decode(decoder, word, alphabet)
    graph, coloring = decode_by_pairs(decoder, word, alphabet)
    assert colored.graph == graph
    assert colored.graph.edge_count == graph.edge_count
    assert colored.coloring == coloring


def test_decode_of_the_empty_word_matches_the_per_pair_edge_list():
    for alphabet in (None, ("a", "b", "z")):
        colored = decode([("a", "b"), ("z", "z")], (), alphabet)
        assert (colored.graph, colored.coloring) == \
            decode_by_pairs([("a", "b"), ("z", "z")], (), alphabet)


class TestCheckRealization:
    MAPPING = {"b1": 1, "a1": 2, "n1": 3, "a2": 4, "n2": 5, "e1": 6}

    def test_accepts_banane(self):
        graph, coloring, decoder = banane_instance()
        check_realization(graph, self.MAPPING, tuple("banane"), decoder, coloring)

    def test_raises_on_one_flipped_edge(self):
        graph, coloring, decoder = banane_instance()
        flipped = Graph(graph.vertices, set(graph.edge_list()) - {("a1", "n2")})
        with pytest.raises(InternalConsistencyError, match="pair a1,n2$"):
            check_realization(flipped, self.MAPPING, tuple("banane"), decoder, coloring)

    def test_raises_on_non_bijective_mapping(self):
        graph, coloring, decoder = banane_instance()
        for mapping in ({**self.MAPPING, "a2": 2}, {**self.MAPPING, "a2": 7},
                        {v: p for v, p in self.MAPPING.items() if v != "e1"}):
            with pytest.raises(InternalConsistencyError, match="does not map"):
                check_realization(graph, mapping, tuple("banane"), decoder)

    def test_raises_on_coloring_mismatch(self):
        graph, coloring, decoder = banane_instance()
        recolored = Coloring({**coloring.assignment, "a2": "n"}, coloring.alphabet)
        check_realization(graph, self.MAPPING, tuple("banane"), decoder)
        with pytest.raises(InternalConsistencyError, match="coloring at a2$"):
            check_realization(graph, self.MAPPING, tuple("banane"), decoder, recolored)

    @given(words.filter(lambda w: len(w) >= 2),
           st.sets(st.tuples(st.sampled_from("abc"), st.sampled_from("abc"))), st.data())
    def test_names_the_flipped_pair(self, word, pairs, data):
        # Declared in reverse, so vertex indices and positions disagree.
        colored = decode(pairs, word)
        graph = Graph(colored.graph.vertices[::-1], colored.graph.edge_list())
        mapping = {v: int(v) for v in graph.vertices}
        check_realization(graph, mapping, word, pairs, colored.coloring)
        u, v = data.draw(st.lists(st.sampled_from(graph.vertices), min_size=2,
                                  max_size=2, unique=True))
        edges = [e for e in graph.edge_list() if set(e) != {u, v}]
        if not graph.has_edge(u, v):
            edges.append((u, v))
        flipped = Graph(graph.vertices, edges)
        with pytest.raises(InternalConsistencyError) as error:
            check_realization(flipped, mapping, word, pairs)
        assert set(str(error.value).rsplit(" ", 1)[1].split(",")) == {u, v}


def _outcome(graph, mapping, word, decoder, coloring=None):
    try:
        check_realization(graph, mapping, word, decoder, coloring)
    except InternalConsistencyError as error:
        return str(error)
    return None


def _first_wrong_pair(graph, mapping, word, decoder):
    """Reference: the first pair in vertex-index order whose edge disagrees
    with the decoder rule, tested pair by pair."""
    d = set(decoder)
    vertices = graph.vertices
    for i, u in enumerate(vertices):
        for v in vertices[i + 1:]:
            p, q = sorted((mapping[u], mapping[v]))
            if graph.has_edge(u, v) != ((word[p - 1], word[q - 1]) in d):
                return u, v
    return None


def _shuffled_instance(word, pairs, rng):
    """The letter graph of (pairs, word) with its vertices declared in a
    random order, so vertex indices and word positions disagree."""
    colored = decode(pairs, word)
    vertices = list(colored.graph.vertices)
    rng.shuffle(vertices)
    graph = Graph(vertices, colored.graph.edge_list())
    return graph, {v: int(v) for v in vertices}, colored.coloring


class TestCheckRealizationPairs:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from("abcd"), min_size=3, max_size=12).map(tuple),
           st.sets(st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd"))),
           st.randoms(use_true_random=False), st.data())
    def test_names_the_first_of_several_wrong_pairs(self, word, pairs, rng, data):
        graph, mapping, _ = _shuffled_instance(word, pairs, rng)
        all_pairs = [(u, v) for i, u in enumerate(graph.vertices)
                     for v in graph.vertices[i + 1:]]
        flips = data.draw(st.lists(st.sampled_from(all_pairs), min_size=2,
                                   max_size=min(4, len(all_pairs)), unique=True))
        edges = set(map(frozenset, graph.edge_list())) ^ set(map(frozenset, flips))
        flipped = Graph(graph.vertices, map(tuple, edges))
        first = _first_wrong_pair(flipped, mapping, word, pairs)
        assert first == min(flips, key=lambda e: sorted(map(graph.index, e)))
        assert _outcome(flipped, mapping, word, pairs) == \
            "solution misrepresents the pair {},{}".format(*first)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from("abcd"), min_size=2, max_size=12).map(tuple),
           st.sets(st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde"))),
           st.randoms(use_true_random=False), st.booleans())
    def test_pair_order_does_not_matter(self, word, pairs, rng, flip):
        graph, mapping, coloring = _shuffled_instance(word, pairs, rng)
        if flip:
            u, v = rng.sample(graph.vertices, 2)
            edges = set(map(frozenset, graph.edge_list())) ^ {frozenset((u, v))}
            graph = Graph(graph.vertices, map(tuple, edges))
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        orders = [frozenset(pairs), sorted(pairs), sorted(pairs, reverse=True), shuffled]
        outcomes = {_outcome(graph, mapping, word, d, coloring) for d in orders}
        assert len(outcomes) == 1
        assert (outcomes.pop() is None) == (not flip)


# Each producer of a Realization, as a solver of a random_realizable tuple
# (graph, coloring, word, decoder), with the largest n and k it is run at.
# Brute force stops at k = 3: a fourth letter alone is 2**16 decoders per
# coloring.
PRODUCERS = {
    "retrieve_word": (lambda g, c, w, d: retrieve_word(g, c, d), 8, 4),
    "realize_decoder": (realize_decoder, 8, 4),
    "decoder_realization": (lambda g, c, w, d: decoder_realization(g, c, w), 8, 4),
    "isomorphic_coloring": (lambda g, c, w, d: isomorphic_coloring(g, c.alphabet, d, w), 8, 4),
    "symmetric_witness": (lambda g, c, w, d: symmetric_witness(g), 8, 4),
    "brute_lettericity": (lambda g, c, w, d: brute_lettericity(g, len(c.alphabet)), 6, 3),
}


@pytest.mark.parametrize("producer", sorted(PRODUCERS))
@settings(deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=4),
       st.randoms(use_true_random=False))
def test_every_producer_returns_a_checked_realization(producer, n, k, rng):
    solve, max_n, max_k = PRODUCERS[producer]
    n = min(n, max_n)
    graph, coloring, word, decoder = random_realizable(rng, n, min(k, max_k, n))
    found = solve(graph, coloring, word, decoder)
    assert found is not None
    # Answers write the decoder as it is, so it must be the sorted tuple.
    assert type(found.decoder) is tuple
    assert list(found.decoder) == sorted(set(found.decoder))
    assert [found.mapping[v] for v in found.permutation] == list(range(1, n + 1))
    check_realization(graph, found.mapping, found.word, found.decoder, found.coloring)
