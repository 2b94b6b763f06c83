import itertools

import pytest
from hypothesis import given, settings, strategies as st

from lettergraphs import (Coloring, Graph, InstanceDocument,
                          MalformedInstanceError, Realization, SizeLimitError,
                          brute_isomorphism, brute_lettericity,
                          brute_symmetric_lettericity, characterization_check,
                          decode, enumerate_decoders, serialize_instance,
                          verify_decoder)
from lettergraphs import cli, oracles
from lettergraphs.decoder_retrieval import DecoderInstance, build_formula
from lettergraphs.letters import check_realization
from lettergraphs.oracles import (ORACLE_LETTERS, _coloring_candidates,
                                  _decoder_slots, _mask_decoder, _stirling2,
                                  _surjective_colorings,
                                  brute_word_realization)
from lettergraphs.word_retrieval import ColoredInstance, retrieve_word
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


def edge_bounded_slots(letters, sizes, symmetric):
    """The reference scan's decoder slots, a self pair only for a letter of
    two or more vertices, and per slot mask the lowest and highest edge
    count of its letter graphs: a self pair or a symmetric slot adds its
    capacity, and so does a pair taken with its reverse; a one-way pair
    adds anywhere from none to all of its capacity."""
    if symmetric:
        slots = [(a, b) for i, a in enumerate(letters) for b in letters[i:]
                 if a != b or sizes[a] >= 2]
    else:
        slots = [(a, b) for a in letters for b in letters if a != b or sizes[a] >= 2]
    caps = [sizes[a] * (sizes[a] - 1) // 2 if a == b else sizes[a] * sizes[b] for a, b in slots]
    index = {pair: i for i, pair in enumerate(slots)}
    partner = [i if symmetric or a == b else index[b, a] for i, (a, b) in enumerate(slots)]
    low, high = [0] * (1 << len(slots)), [0] * (1 << len(slots))
    for mask in range(1, 1 << len(slots)):
        bit = mask & -mask
        i = bit.bit_length() - 1
        rest = mask ^ bit
        if partner[i] == i:
            low[mask], high[mask] = low[rest] + caps[i], high[rest] + caps[i]
        elif rest >> partner[i] & 1:
            low[mask], high[mask] = low[rest] + caps[i], high[rest]
        else:
            low[mask], high[mask] = low[rest], high[rest] + caps[i]
    return slots, low, high


class TestEdgeBounds:
    def test_bounds_bracket_reachable_counts(self):
        # two letters of sizes 2 and 1: slots aa, ab, ba
        slots, low, high = edge_bounded_slots(("a", "b"), {"a": 2, "b": 1}, symmetric=False)
        assert slots == [("a", "a"), ("a", "b"), ("b", "a")]
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
        # A one-vertex class has no inner edge, so no candidate takes its
        # self pair, in either scan; the other class's follows its kind.
        graph = Graph(["x", "y1", "y2", "y3"], [("y1", "y2"), ("y1", "y3"), ("y2", "y3")])
        coloring = Coloring({"x": "a", "y1": "b", "y2": "b", "y3": "b"}, ("a", "b"))
        inst = ColoredInstance(graph, coloring)
        for symmetric in (False, True):
            slots = _decoder_slots(("a", "b"), symmetric)
            candidates = _coloring_candidates(inst, slots, symmetric)
            decoders = [_mask_decoder(slots, mask, symmetric) for mask in candidates]
            assert decoders
            assert all(("a", "a") not in d and ("b", "b") in d for d in decoders)


class TestColoringCandidates:
    """Every slot mask whose decoder realizes a coloring is among its
    candidates, so a coloring left without candidates has none.  A mask
    that takes the self pair of a one-vertex class is left out: that pair
    gives no edge, and no candidate takes it."""

    @pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "symmetric"])
    def test_every_realizing_mask_is_a_candidate(self, symmetric):
        import random
        rng = random.Random(21)
        dropped = realized = 0
        for n in (3, 4, 5, 5, 6):
            graph = random_graph(rng, n, rng.random())
            for k in range(1, 4):
                letters = ORACLE_LETTERS[:k]
                slots = _decoder_slots(letters, symmetric)
                for rgs in _surjective_colorings(n, k):
                    coloring = Coloring({v: letters[rgs[i]] for i, v in enumerate(graph.vertices)},
                                        tuple(letters))
                    inst = ColoredInstance(graph, coloring)
                    candidates = _coloring_candidates(inst, slots, symmetric)
                    assert candidates == sorted(set(candidates))
                    lone = sum(1 << slots.index((a, a)) for i, a in enumerate(letters)
                               if rgs.count(i) == 1)
                    realizing = [mask for mask in range(1 << len(slots))
                                 if not mask & lone and retrieve_word(
                                     graph, coloring, _mask_decoder(slots, mask, symmetric))
                                 is not None]
                    assert set(realizing) <= set(candidates)
                    dropped += not candidates
                    realized += bool(realizing)
        assert dropped and realized


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

    def test_paths_follow_fergusons_formula(self):
        # lett(P_n) = floor((n + 4) / 3) (Ferguson, "On the lettericity of
        # paths", 2020); P2 = K2 needs one letter, so the formula starts at 3.
        for n in range(3, 9):
            vertices = [f"p{i}" for i in range(n)]
            path = Graph(vertices, list(zip(vertices, vertices[1:])))
            witness = brute_lettericity(path, 4)
            assert witness.k == (n + 4) // 3
            check_realization(path, witness.mapping, witness.word, witness.decoder,
                              witness.coloring)

    def test_parallel_scan_matches_serial(self):
        g = random_graph_fixture(7, seed=5)
        serial = brute_lettericity(g, 3, jobs=1)
        parallel = brute_lettericity(g, 3, jobs=3)
        assert serial == parallel


def per_candidate_scan(graph, k_max, symmetric):
    """The realization search as one retrieve_word call per candidate:
    levels ascending, colorings in order, decoder masks ascending, the
    whole-graph edge-count bounds of edge_bounded_slots applied (not the
    scan's pair table), and the first realization found wins."""
    if graph.n == 0:
        return Realization((), (), (), Coloring({}, ()), {})
    for k in range(1, min(k_max, graph.n) + 1):
        letters = ORACLE_LETTERS[:k]
        for rgs in _surjective_colorings(graph.n, k):
            coloring = Coloring({v: letters[rgs[i]] for i, v in enumerate(graph.vertices)},
                                tuple(letters))
            sizes = {a: len(group) for a, group in coloring.color_groups.items()}
            slots, low, high = edge_bounded_slots(letters, sizes, symmetric)
            for mask in range(1 << len(slots)):
                if low[mask] <= graph.edge_count <= high[mask]:
                    found = retrieve_word(graph, coloring, _mask_decoder(slots, mask, symmetric))
                    if found is not None:
                        return found
    return None


def labeled_graphs(n):
    names = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(names, 2))
    for bits in range(1 << len(pairs)):
        yield Graph(names, list(itertools.compress(pairs, (bits >> i & 1 for i in range(len(pairs))))))


class TestScanMatchesPerCandidateSearch:
    """The scan peels one indexed instance per coloring; its answer must be
    the per-candidate search's, realization for realization."""

    @pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "symmetric"])
    def test_every_labeled_graph_up_to_five_vertices(self, symmetric):
        search = brute_symmetric_lettericity if symmetric else brute_lettericity
        for n in range(6):
            for graph in labeled_graphs(n):
                assert search(graph, 5) == per_candidate_scan(graph, 5, symmetric)

    @pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "symmetric"])
    def test_seeded_random_graphs_of_six_and_seven_vertices(self, symmetric):
        import random
        search = brute_symmetric_lettericity if symmetric else brute_lettericity
        found = 0
        for seed in range(12):
            rng = random.Random(seed)
            graph = random_graph(rng, rng.randint(6, 7), rng.random())
            expected = per_candidate_scan(graph, 3, symmetric)
            assert search(graph, 3) == expected
            found += expected is not None
        assert found >= 4


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

    @staticmethod
    def every_verifying_decoder(graph, coloring, word):
        """Every subset of the alphabet's ordered pairs that verify_decoder
        accepts, sorted like enumerate_decoders' results."""
        pairs = [(a, b) for a in coloring.alphabet for b in coloring.alphabet]
        subsets = (frozenset(itertools.compress(pairs, picks))
                   for picks in itertools.product((False, True), repeat=len(pairs)))
        return sorted((d for d in subsets if verify_decoder(graph, coloring, word, d)),
                      key=lambda d: tuple(sorted(d)))

    # Multi-character letters declared out of sorted order, so a table laid
    # out in declaration order picks the wrong classes.
    LETTERS = ("mid", "a10", "zz", "a9")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=4),
           st.randoms(use_true_random=False), st.booleans())
    def test_equals_exhaustive_verification(self, k, extra, rng, shuffle):
        letters = self.LETTERS[:k]
        word = [*letters, *(rng.choice(letters) for _ in range(extra))]
        rng.shuffle(word)
        decoder = [(a, b) for a in letters for b in letters if rng.random() < 0.5]
        colored = decode(decoder, word, letters)
        if shuffle:
            rng.shuffle(word)
        graph, coloring = colored.graph, colored.coloring
        assert enumerate_decoders(graph, coloring, word) == \
            self.every_verifying_decoder(graph, coloring, word)

    def test_equals_exhaustive_verification_four_letters(self):
        word = ("zz", "a9", "mid", "a10", "a9", "zz", "mid")
        decoder = [("zz", "a9"), ("a9", "mid"), ("mid", "mid"), ("a10", "zz")]
        colored = decode(decoder, word, self.LETTERS)
        expected = self.every_verifying_decoder(colored.graph, colored.coloring, word)
        assert len(expected) >= 2
        assert enumerate_decoders(colored.graph, colored.coloring, word) == expected

    def test_too_many_letters(self):
        g = Graph(["1", "2", "3", "4", "5"])
        c = Coloring({v: letter for v, letter in zip(g.vertices, "abcde")},
                     tuple("abcde"))
        with pytest.raises(SizeLimitError):
            enumerate_decoders(g, c, tuple("abcde"))

    def test_jobs_agree(self, tmp_path, capsys, monkeypatch):
        # The enumeration runs in one process; retrieve-decoder --all still
        # accepts --jobs, and the listing does not depend on it.
        import json
        import random
        graph, coloring, word, _ = random_realizable(random.Random(9), 5, 3)
        path = tmp_path / "k3.json"
        path.write_text(serialize_instance(InstanceDocument(graph, coloring=coloring, word=word)))
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        docs = []
        for jobs in ("1", "4"):
            assert cli.main(["retrieve-decoder", "--all", "--jobs", jobs, str(path)]) == 0
            docs.append(json.loads(capsys.readouterr().out))
            docs[-1].pop("timing_ms")
        assert docs[0] == docs[1]
        assert docs[0]["decoders"] == [sorted(map(list, d))
                                       for d in enumerate_decoders(graph, coloring, word)]


def recording_pool(monkeypatch, cpus):
    """Swap in a pool that records max_workers and maps in process."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return list(map(fn, tasks))

    monkeypatch.setattr(oracles, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    return sizes


def test_worker_count_never_exceeds_cpu_count(monkeypatch):
    g = random_graph_fixture(7, seed=5)
    serial_witness = brute_lettericity(g, 3)
    sizes = recording_pool(monkeypatch, cpus=3)
    assert brute_lettericity(g, 3, jobs=5000) == serial_witness
    assert len(sizes) > 1 and max(sizes) <= 3


class TestCharacterization:
    def test_matches_verifier_on_forced_instance(self):
        graph, coloring, word = forced_instance()
        assert characterization_check(graph, coloring, word, [("a", "b")])
        assert not characterization_check(graph, coloring, word, [("b", "a")])
        assert not characterization_check(graph, coloring, word, [])

    def test_rejects_decoder_letters_outside_the_alphabet(self):
        graph, coloring, word = forced_instance()
        for check in (characterization_check, verify_decoder):
            with pytest.raises(MalformedInstanceError, match="outside the alphabet"):
                check(graph, coloring, word, [("a", "b"), ("z", "z")])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=2, max_value=4),
           st.randoms(use_true_random=False))
    def test_single_run_pair_named_alike(self, n, k, rng):
        # The instance's single-run pair, build_formula's None and the
        # characterization's refusal all name the same pair.
        k = min(k, n)
        graph, coloring, word, decoder = random_realizable(rng, n, k)
        word = tuple(sorted(word, key=lambda _: rng.random()))
        pair = DecoderInstance(graph, coloring, word).single_run_pair()
        if pair is None:
            characterization_check(graph, coloring, word, decoder)
            return
        assert build_formula(graph, coloring, word) is None
        with pytest.raises(MalformedInstanceError) as refused:
            characterization_check(graph, coloring, word, decoder)
        assert str(refused.value) == \
            f"one-sided pair {pair[0]}{pair[1]} has a single run of each letter"

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
