import dataclasses
import gc
import io
import json
import random

import pytest

from lettergraphs import cli, diversity
from lettergraphs.cli import gen_instance, main
from lettergraphs.diversity import TwinPartition
from lettergraphs.documents import (InstanceDocument, parse_instance,
                                    serialize_instance)
from instances import banane_instance

BANANE_DOC = """\
{
  "graph": {
    "vertices": ["b1", "a1", "n1", "a2", "n2", "e1"],
    "edges": [["b1", "a1"], ["b1", "a2"], ["a1", "n1"], ["a1", "n2"],
              ["a2", "n2"], ["n1", "e1"], ["n2", "e1"]]
  },
  "alphabet": ["b", "a", "n", "e"],
  "coloring": {"b1": "b", "a1": "a", "n1": "n", "a2": "a", "n2": "n", "e1": "e"},
  "word": ["b", "a", "n", "a", "n", "e"],
  "decoder": [["b", "a"], ["a", "n"], ["n", "e"]]
}
"""


@pytest.fixture
def banane_path(tmp_path):
    path = tmp_path / "banane.json"
    path.write_text(BANANE_DOC)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_retrieve_word_solution(banane_path, capsys):
    code, doc = run(capsys, ["retrieve-word", banane_path])
    assert code == 0
    assert doc["status"] == "solution"
    assert "".join(doc["word"]) == "banane"
    assert doc["permutation"] == ["b1", "a1", "n1", "a2", "n2", "e1"]
    assert doc["timing_ms"] >= 0


def test_decode_matches_graph(banane_path, capsys):
    code, doc = run(capsys, ["decode", banane_path])
    assert code == 0
    assert len(doc["graph"]["edges"]) == 7
    assert doc["coloring"]["1"] == "b"


def test_verify_yes_and_no(banane_path, capsys, tmp_path):
    code, doc = run(capsys, ["verify", banane_path])
    assert code == 0 and doc["verified"] is True
    bad = json.loads(BANANE_DOC)
    bad["decoder"] = [["b", "a"]]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    code, doc = run(capsys, ["verify", str(bad_path)])
    assert code == 1 and doc["verified"] is False and doc["status"] == "infeasible"


def test_retrieve_decoder_and_all(banane_path, capsys):
    code, doc = run(capsys, ["retrieve-decoder", banane_path])
    assert code == 0
    assert ["a", "n"] in doc["decoder"] or ["n", "a"] in doc["decoder"]
    code, doc = run(capsys, ["retrieve-decoder", "--all", banane_path])
    assert code == 0
    assert doc["count"] == len(doc["decoders"]) > 0


def test_retrieve_decoder_needs_no_alphabet(banane_path, capsys, tmp_path):
    # The solver takes its letters from the coloring, as retrieve-word does.
    doc = json.loads(BANANE_DOC)
    del doc["alphabet"]
    path = tmp_path / "no_alphabet.json"
    path.write_text(json.dumps(doc))
    for flags in ([], ["--all", "--jobs", "1"]):
        with_alphabet = run(capsys, ["retrieve-decoder", *flags, banane_path])
        without = run(capsys, ["retrieve-decoder", *flags, str(path)])
        assert with_alphabet[0] == without[0] == 0
        with_alphabet[1].pop("timing_ms")
        without[1].pop("timing_ms")
        assert without == with_alphabet


def test_retrieve_coloring(banane_path, capsys):
    code, doc = run(capsys, ["retrieve-coloring", banane_path])
    assert code == 0
    assert sorted(doc["coloring"]) == ["a1", "a2", "b1", "e1", "n1", "n2"]
    assert sorted(doc["isomorphism"].values()) == ["1", "2", "3", "4", "5", "6"]


@pytest.mark.parametrize("complete", [False, True])
def test_retrieve_coloring_on_one_twin_class(complete, capsys, tmp_path):
    n = 1200
    vertices = [f"v{i}" for i in range(n)]
    edges = [[u, v] for i, u in enumerate(vertices) for v in vertices[i + 1:]] if complete else []
    path = tmp_path / "one_class.json"
    path.write_text(json.dumps({
        "graph": {"vertices": vertices, "edges": edges},
        "alphabet": ["a"],
        "word": ["a"] * n,
        "decoder": [["a", "a"]] if complete else [],
    }))
    code, doc = run(capsys, ["retrieve-coloring", str(path)])
    assert code == 0
    assert set(doc["coloring"].values()) == {"a"}
    assert sorted(map(int, doc["isomorphism"].values())) == list(range(1, n + 1))


def test_nd_and_lettericity(banane_path, capsys):
    code, doc = run(capsys, ["nd", banane_path])
    assert code == 0 and doc["neighborhood_diversity"] == 6
    code, doc = run(capsys, ["sym-lettericity", banane_path])
    assert code == 0 and doc["value"] == 6
    code, doc = run(capsys, ["lettericity", "--max-k", "4", banane_path])
    assert code == 0 and doc["value"] <= 4


@pytest.mark.parametrize("argv", [["sym-lettericity"], ["lettericity", "--max-k", "1"]])
def test_lettericity_of_the_empty_graph(argv, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"graph": {"vertices": []}}'))
    code, doc = run(capsys, argv + ["-"])
    assert code == 0
    assert list(doc)[-1] == "timing_ms" and doc.pop("timing_ms") >= 0
    expected = {"status": "solution", "value": 0, "alphabet": [], "word": [],
                "decoder": [], "coloring": {}}
    if argv[0] == "lettericity":
        expected["mapping"] = {}
    assert list(doc.items()) == list(expected.items())


def test_lettericity_infeasible_bound(banane_path, capsys):
    code, doc = run(capsys, ["lettericity", "--max-k", "1", banane_path])
    assert code == 1 and doc["status"] == "infeasible"


def test_reads_stdin(banane_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(BANANE_DOC))
    code, doc = run(capsys, ["retrieve-word", "-"])
    assert code == 0 and doc["status"] == "solution"


def test_output_file(banane_path, capsys, tmp_path):
    out_path = tmp_path / "result.json"
    code = main(["retrieve-word", banane_path, "-o", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["status"] == "solution"
    assert capsys.readouterr().out == ""


def test_malformed_instance_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, doc = run(capsys, ["retrieve-word", str(path)])
    assert code == 2 and doc["status"] == "error"
    code, doc = run(capsys, ["nd", str(tmp_path / "missing.json")])
    assert code == 2


@pytest.mark.parametrize("instance", ["readable", "missing"])
def test_unwritable_output_exit_2(instance, banane_path, capsys, tmp_path):
    # Neither the answer nor the error document can be written, so the exit
    # code must claim neither.
    path = banane_path if instance == "readable" else str(tmp_path / "missing.json")
    code = main(["nd", path, "-o", str(tmp_path / "no-such-dir" / "out.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: cannot write output:" in captured.err
    assert captured.out == ""


def test_unparseable_instance_exit_2(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"graph": {"vertices": ["\xe9"]}}')
    for path in (deep, latin):
        code, doc = run(capsys, ["nd", str(path)])
        assert code == 2 and doc["status"] == "error"


def test_non_token_coloring_value_exit_2(capsys, tmp_path):
    path = tmp_path / "list_letter.json"
    path.write_text('{"graph": {"vertices": ["x"]}, "alphabet": ["a"], "coloring": {"x": ["a"]}}')
    code, doc = run(capsys, ["nd", str(path)])
    assert code == 2 and doc["status"] == "error"


def test_unexpected_exception_exit_70(banane_path, capsys, monkeypatch):
    def boom(doc, args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "nd", boom)
    code = main(["nd", banane_path])
    err = capsys.readouterr().err
    assert code == 70
    assert "internal error: RuntimeError: boom" in err


@pytest.mark.parametrize("command", [["lettericity", "--max-k", "3"],
                                     ["retrieve-decoder", "--all"]])
def test_jobs_bounded_by_cpu_count_at_parse_time(command, banane_path, capsys, monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)

    def must_not_run(doc, args):
        raise AssertionError("the handler ran")

    monkeypatch.setitem(cli._HANDLERS, command[0], must_not_run)
    for jobs in ("0", "5", "5000"):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--jobs", jobs, banane_path])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
    assert cli.build_parser().parse_args(command + ["--jobs", "4", banane_path]).jobs == 4


def test_missing_fields_exit_2(capsys, tmp_path):
    path = tmp_path / "graph_only.json"
    path.write_text('{"graph": {"vertices": ["x"]}}')
    code, doc = run(capsys, ["retrieve-word", str(path)])
    assert code == 2 and "coloring" in doc["error"]


def test_size_guard_exit_3(capsys, tmp_path):
    vertices = [f"v{i}" for i in range(13)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"graph": {"vertices": vertices, "edges": []}}))
    code, doc = run(capsys, ["lettericity", "--max-k", "2", str(path)])
    assert code == 3 and doc["status"] == "error"


def test_infeasible_exit_1(capsys, tmp_path):
    # an edge between two letters with an empty decoder
    doc = {
        "graph": {"vertices": ["x", "y"], "edges": [["x", "y"]]},
        "alphabet": ["a", "b"],
        "coloring": {"x": "a", "y": "b"},
        "decoder": [],
    }
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, ["retrieve-word", str(path)])
    assert code == 1 and out["status"] == "infeasible"


def swapped(found):
    """The realization with the word positions of b1 and a1 exchanged."""
    mapping = dict(found.mapping)
    mapping["b1"], mapping["a1"] = mapping["a1"], mapping["b1"]
    return dataclasses.replace(found, mapping=mapping)


@pytest.mark.parametrize("argv,solver", [
    (["retrieve-word"], "retrieve_word"),
    (["retrieve-decoder"], "decoder_realization"),
    (["retrieve-decoder", "--all"], "realize_decoder"),
    (["retrieve-coloring"], "isomorphic_coloring"),
    (["verify"], "realize_decoder"),
], ids=["retrieve-word", "retrieve-decoder", "retrieve-decoder-all", "retrieve-coloring",
        "verify"])
def test_internal_verification_failure_exit_70(argv, solver, banane_path, capsys, monkeypatch):
    real = getattr(cli, solver)
    monkeypatch.setattr(cli, solver, lambda *args, **kwargs: swapped(real(*args, **kwargs)))
    code = main(argv + [banane_path])
    err = capsys.readouterr().err
    assert code == 70
    assert "internal error" in err


@pytest.mark.parametrize("command", ["nd", "sym-lettericity"])
def test_non_minimal_twin_classes_exit_70(command, capsys, monkeypatch, tmp_path):
    # Splitting a star's leaves over two letters still realizes the star, so
    # only the twin-class check can refuse it: the two leaf blocks are twins.
    path = tmp_path / "star.json"
    path.write_text(json.dumps({"graph": {"vertices": ["c", "l0", "l1", "l2"],
                                          "edges": [["c", "l0"], ["c", "l1"], ["c", "l2"]]}}))
    split = TwinPartition(blocks=(("c",), ("l0",), ("l1", "l2")), kinds=("independent",) * 3,
                          adjacency=((1, 2), (0,), (0,)))
    monkeypatch.setattr(cli, "twin_partition", lambda graph: split)
    monkeypatch.setattr(diversity, "twin_partition", lambda graph: split)
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 70 and not captured.out
    assert "two blocks are twins" in captured.err


def test_gen_round_trips_and_is_deterministic(capsys):
    code = main(["gen", "--seed", "4", "--n", "6", "--k", "2"])
    first = capsys.readouterr().out
    assert code == 0
    code = main(["gen", "--seed", "4", "--n", "6", "--k", "2"])
    second = capsys.readouterr().out
    assert first == second
    doc = parse_instance(first)
    assert serialize_instance(doc) == first
    assert doc.meta["seed"] == 4


@pytest.mark.parametrize("mode,solver_args", [
    ("word", ["retrieve-word"]),
    ("decoder", ["retrieve-decoder"]),
    ("coloring", ["retrieve-coloring"]),
])
def test_gen_feasible_instances_solve(mode, solver_args, capsys, tmp_path):
    path = tmp_path / "inst.json"
    code = main(["gen", "--seed", "2", "--n", "6", "--k", "2",
                 "--mode", mode, "-o", str(path)])
    assert code == 0
    code, doc = run(capsys, solver_args + [str(path)])
    assert code == 0 and doc["status"] == "solution"


@pytest.mark.parametrize("mode,solver_args", [
    ("word", ["retrieve-word"]),
    ("decoder", ["retrieve-decoder"]),
    ("coloring", ["retrieve-coloring"]),
])
def test_gen_infeasible_instances_do_not_solve(mode, solver_args, capsys, tmp_path):
    path = tmp_path / "inst.json"
    code = main(["gen", "--seed", "2", "--n", "6", "--k", "2", "--mode", mode,
                 "--feasible", "false", "-o", str(path)])
    assert code == 0
    doc = parse_instance(path.read_text())
    assert doc.meta["feasible"] is False and "oracle" in doc.meta
    code, out = run(capsys, solver_args + [str(path)])
    assert code == 1 and out["status"] == "infeasible"


def test_gen_guards(capsys):
    assert main(["gen", "--seed", "1", "--n", "9", "--k", "2",
                 "--mode", "word", "--feasible", "false"]) == 3
    capsys.readouterr()
    assert main(["gen", "--seed", "1", "--n", "3", "--k", "5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("mode", ["word", "decoder", "coloring"])
def test_gen_infeasible_needs_two_vertices(mode, capsys):
    code = main(["gen", "--n", "1", "--k", "1", "--mode", mode, "--feasible", "false"])
    err = capsys.readouterr().err
    assert code == 2
    assert "n >= 2" in err and "Traceback" not in err


def test_gen_instance_function_validates():
    from lettergraphs import MalformedInstanceError
    with pytest.raises(MalformedInstanceError):
        gen_instance(0, 0, 1, "word", True)
    with pytest.raises(MalformedInstanceError):
        gen_instance(0, 3, 1, "bogus", True)


def canonical(text):
    return json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n"


@pytest.fixture(scope="module")
def golden_instances(tmp_path_factory):
    """gen instances at n=60, k=5 in every mode, one full instance, and k=3."""
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for mode in cli.GEN_MODES:
        paths[mode] = root / f"{mode}.json"
        paths[mode].write_text(serialize_instance(gen_instance(5, 60, 5, mode, True)))
    graph, letters, coloring, word, decoder = cli._gen_parts(random.Random(5), 60, 5)
    paths["full"] = root / "full.json"
    paths["full"].write_text(serialize_instance(
        InstanceDocument(graph, letters, coloring, word, decoder)))
    paths["k3"] = root / "k3.json"
    paths["k3"].write_text(serialize_instance(gen_instance(5, 60, 3, "decoder", True)))
    return paths


@pytest.mark.parametrize("instance", ["word", "decoder", "coloring", "full"])
@pytest.mark.parametrize("command", [
    ["decode"], ["retrieve-word"], ["retrieve-decoder"], ["retrieve-coloring"], ["verify"],
    ["nd"], ["sym-lettericity"], ["lettericity", "--max-k", "2"],
])
def test_output_is_json_dumps_indent_2(command, instance, golden_instances, capsys):
    main([command[0], str(golden_instances[instance]), *command[1:]])
    text = capsys.readouterr().out
    assert text == canonical(text)


def test_gen_and_enumeration_output_is_json_dumps_indent_2(golden_instances, banane_path,
                                                           capsys):
    for path in (golden_instances["k3"], banane_path):
        assert main(["retrieve-decoder", "--all", str(path)]) == 0
        text = capsys.readouterr().out
        assert json.loads(text)["count"] >= 1 and text == canonical(text)
    for path in golden_instances.values():
        assert path.read_text() == canonical(path.read_text())
    assert main(["verify", str(golden_instances["full"])]) == 0


@pytest.fixture
def collector_state():
    """Puts the cyclic collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _failing_handler(doc, args):
    raise RuntimeError("boom")


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("case,expected", [
    ("solution", 0), ("infeasible", 1), ("malformed", 2), ("size guard", 3),
    ("internal", 70), ("bad flag", SystemExit),
])
def test_main_restores_the_collector_state(case, expected, enabled, banane_path, tmp_path,
                                           capsys, monkeypatch, collector_state):
    argv = {
        "solution": ["nd", banane_path],
        "infeasible": ["lettericity", "--max-k", "1", banane_path],
        "malformed": ["nd", str(tmp_path / "missing.json")],
        "size guard": ["gen", "--n", "8", "--k", "2", "--mode", "word", "--feasible", "false"],
        "internal": ["nd", banane_path],
        "bad flag": ["nd", "--no-such-flag", banane_path],
    }[case]
    if case == "internal":
        monkeypatch.setitem(cli._HANDLERS, "nd", _failing_handler)
    if enabled:
        gc.enable()
    else:
        gc.disable()
    if expected is SystemExit:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    else:
        assert main(argv) == expected
    assert gc.isenabled() is enabled
    capsys.readouterr()


def test_main_runs_with_the_collector_paused(banane_path, capsys, monkeypatch,
                                             collector_state):
    seen = []

    def handler(doc, args):
        seen.append(gc.isenabled())
        return {"status": "solution"}, 0

    monkeypatch.setitem(cli._HANDLERS, "nd", handler)
    gc.enable()
    assert main(["nd", banane_path]) == 0
    assert seen == [False] and gc.isenabled()
    capsys.readouterr()


def test_cyclic_garbage_of_a_call_does_not_grow_with_n(tmp_path, capsys, collector_state):
    # What one call leaves for the collector is a constant (the argument
    # parser), so pausing the collector for the call never piles up
    # garbage in proportion to the instance.
    commands = [["decode"], ["retrieve-word"], ["retrieve-decoder"], ["retrieve-coloring"],
                ["verify"], ["nd"], ["sym-lettericity"]]
    garbage = {}
    for n in (20, 300):
        graph, letters, coloring, word, decoder = cli._gen_parts(random.Random(3), n, 6)
        path = tmp_path / f"n{n}.json"
        path.write_text(serialize_instance(
            InstanceDocument(graph, letters, coloring, word, decoder)))
        for command in commands:
            # Paused by the caller too, so nothing collects before gc.collect().
            gc.disable()
            gc.collect()
            assert main([*command, str(path), "-o", str(tmp_path / "out.json")]) == 0
            garbage[command[0], n] = gc.collect()
    for command in commands:
        assert garbage[command[0], 300] <= garbage[command[0], 20] + 20, garbage
