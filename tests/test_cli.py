import io
import json

import pytest

from lettergraphs import cli
from lettergraphs.cli import gen_instance, main
from lettergraphs.documents import parse_instance, serialize_instance
from lettergraphs.word_retrieval import GeneralizedSolution
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


def test_retrieve_coloring(banane_path, capsys):
    code, doc = run(capsys, ["retrieve-coloring", banane_path])
    assert code == 0
    assert sorted(doc["coloring"]) == ["a1", "a2", "b1", "e1", "n1", "n2"]
    assert sorted(doc["isomorphism"].values()) == ["1", "2", "3", "4", "5", "6"]


def test_nd_and_lettericity(banane_path, capsys):
    code, doc = run(capsys, ["nd", banane_path])
    assert code == 0 and doc["neighborhood_diversity"] == 6
    code, doc = run(capsys, ["sym-lettericity", banane_path])
    assert code == 0 and doc["value"] == 6
    code, doc = run(capsys, ["lettericity", "--max-k", "4", banane_path])
    assert code == 0 and doc["value"] <= 4


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


def test_unparseable_instance_exit_2(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"graph": {"vertices": ["\xe9"]}}')
    for path in (deep, latin):
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


def test_internal_verification_failure_exit_70(banane_path, capsys, monkeypatch):
    wrong = GeneralizedSolution(("b1", "a1", "n1", "a2", "n2", "e1"),
                                tuple("baanne"))
    monkeypatch.setattr(cli, "retrieve_word", lambda *args: wrong)
    code = main(["retrieve-word", banane_path])
    err = capsys.readouterr().err
    assert code == 70
    assert "internal error" in err


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


def test_gen_instance_function_validates():
    from lettergraphs import MalformedInstanceError
    with pytest.raises(MalformedInstanceError):
        gen_instance(0, 0, 1, "word", True)
    with pytest.raises(MalformedInstanceError):
        gen_instance(0, 3, 1, "bogus", True)
