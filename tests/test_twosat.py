import pytest
from hypothesis import given, settings, strategies as st

from lettergraphs import MalformedInstanceError, TwoSatFormula, solve_2sat
from instances import satisfiable_truth_table


def formula_of(names, clause_list):
    f = TwoSatFormula(names)
    for clause in clause_list:
        f.add_clause(*clause)
    return f


def check_model(model, clause_list):
    for clause in clause_list:
        assert any(model[var] == polarity for var, polarity in clause)


def test_empty_formula_is_satisfiable():
    assert solve_2sat(TwoSatFormula([])) == {}
    assert solve_2sat(TwoSatFormula(["x"])) == {"x": True} or \
        solve_2sat(TwoSatFormula(["x"])) == {"x": False}


def test_unit_clauses_propagate():
    clauses = [[("x", True)], [("x", False), ("y", True)]]
    model = solve_2sat(formula_of(["x", "y"], clauses))
    assert model == {"x": True, "y": True}


def test_contradiction_is_unsat():
    clauses = [[("x", True)], [("x", False)]]
    assert solve_2sat(formula_of(["x"], clauses)) is None


def test_implication_chain_unsat():
    # x -> y, y -> z, z -> not x, plus x
    clauses = [
        [("x", False), ("y", True)],
        [("y", False), ("z", True)],
        [("z", False), ("x", False)],
        [("x", True)],
    ]
    assert solve_2sat(formula_of(["x", "y", "z"], clauses)) is None


def test_exactly_one_pair():
    clauses = [[("a", True), ("b", True)], [("a", False), ("b", False)]]
    model = solve_2sat(formula_of(["a", "b"], clauses))
    assert model["a"] != model["b"]


def test_tautology_clause_is_harmless():
    clauses = [[("x", True), ("x", False)], [("y", True)]]
    model = solve_2sat(formula_of(["x", "y"], clauses))
    assert model is not None and model["y"] is True


def test_clause_validation():
    f = TwoSatFormula(["x"])
    with pytest.raises(MalformedInstanceError):
        f.add_clause()
    with pytest.raises(MalformedInstanceError):
        f.add_clause(("x", True), ("x", False), ("x", True))
    with pytest.raises(MalformedInstanceError):
        f.add_clause(("zz", True))
    with pytest.raises(MalformedInstanceError):
        f.add_clause(("x", 1))
    with pytest.raises(MalformedInstanceError):
        TwoSatFormula(["x", "x"])


def test_has_clause_validates_like_add_clause():
    f = TwoSatFormula(["x", "y"])
    f.add_clause(("x", True), ("y", False))
    assert f.has_clause(("y", False), ("x", True))
    assert not f.has_clause(("x", True))
    with pytest.raises(MalformedInstanceError):
        f.has_clause(("zz", True))
    with pytest.raises(MalformedInstanceError):
        f.has_clause(("x", 1))
    with pytest.raises(MalformedInstanceError):
        f.has_clause()


def test_clauses_dedup_and_keep_order():
    f = TwoSatFormula(["x", "y"])
    f.add_clause(("y", True), ("x", False))
    f.add_clause(("x", False), ("y", True))
    f.add_clause(("x", True))
    assert len(f.clauses) == 2
    assert f.has_clause(("y", True), ("x", False))
    assert not f.has_clause(("y", False))


@st.composite
def random_formulas(draw):
    n_vars = draw(st.integers(min_value=1, max_value=10))
    names = [f"x{i}" for i in range(n_vars)]
    n_clauses = draw(st.integers(min_value=0, max_value=25))
    clauses = []
    for _ in range(n_clauses):
        size = draw(st.integers(min_value=1, max_value=2))
        lits = []
        for _ in range(size):
            lits.append((names[draw(st.integers(0, n_vars - 1))], draw(st.booleans())))
        clauses.append(lits)
    return names, clauses


@settings(max_examples=200)
@given(random_formulas())
def test_agrees_with_truth_table(case):
    names, clauses = case
    model = solve_2sat(formula_of(names, clauses))
    oracle = satisfiable_truth_table(names, clauses)
    assert (model is None) == (oracle is None)
    if model is not None:
        assert set(model) == set(names)
        check_model(model, clauses)
