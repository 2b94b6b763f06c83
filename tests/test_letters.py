import pytest
from hypothesis import given, strategies as st

from lettergraphs import (Coloring, Graph, InternalConsistencyError,
                          MalformedInstanceError, decode, normalize_decoder)
from lettergraphs.letters import (as_word, check_realization, count_runs,
                                  decoder_letters, is_palindrome,
                                  is_symmetric_decoder, project_word)
from instances import banane_instance

words = st.lists(st.sampled_from("abc"), max_size=10).map(tuple)


def test_normalize_decoder_dedups_and_checks_tokens():
    d = normalize_decoder([("a", "b"), ["a", "b"], ("b", "a")])
    assert d == frozenset({("a", "b"), ("b", "a")})
    with pytest.raises(MalformedInstanceError):
        normalize_decoder([("a", "")])


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
