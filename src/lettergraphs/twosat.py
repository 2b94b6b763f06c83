"""A small 2-SAT solver over named variables.

Clauses have one or two literals.  Solving builds the usual implication
graph (clause l1 v l2 becomes edges ~l1 -> l2 and ~l2 -> l1), computes
strongly connected components with an iterative Tarjan pass, and reads a
model off the reverse topological order of the components.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional

from .errors import MalformedInstanceError

Literal = tuple[Hashable, bool]


class TwoSatFormula:
    """A conjunction of 1- and 2-literal clauses with deduplication.

    Literals are (variable, polarity) pairs over declared variables.
    Clauses are normalized by variable order and stored first-come.
    """

    def __init__(self, variables: Iterable[Hashable]):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise MalformedInstanceError("duplicate 2-SAT variable")
        self._var_index = {v: i for i, v in enumerate(self.variables)}
        self._clauses: list[tuple[Literal, ...]] = []
        self._seen: set[tuple[Literal, ...]] = set()

    def _clause(self, literals: tuple[Literal, ...]) -> tuple[Literal, ...]:
        """The literals validated, deduplicated and sorted by variable order."""
        if not 1 <= len(literals) <= 2:
            raise MalformedInstanceError("a clause needs one or two literals")
        for var, polarity in literals:
            if var not in self._var_index:
                raise MalformedInstanceError(f"undeclared 2-SAT variable {var!r}")
            if not isinstance(polarity, bool):
                raise MalformedInstanceError("literal polarity must be a bool")
        return tuple(sorted(set(literals), key=lambda lit: (self._var_index[lit[0]], lit[1])))

    def add_clause(self, *literals: Literal) -> None:
        clause = self._clause(literals)
        if clause in self._seen:
            return
        self._seen.add(clause)
        self._clauses.append(clause)

    @property
    def clauses(self) -> tuple[tuple[Literal, ...], ...]:
        return tuple(self._clauses)

    def has_clause(self, *literals: Literal) -> bool:
        return self._clause(literals) in self._seen

    def __repr__(self) -> str:
        return f"TwoSatFormula(variables={len(self.variables)}, clauses={len(self._clauses)})"


def _tarjan_components(n_nodes: int, successors: list[list[int]]) -> list[int]:
    """Component id per node; components are numbered sinks-first."""
    index = [-1] * n_nodes
    low = [0] * n_nodes
    on_stack = [False] * n_nodes
    comp = [-1] * n_nodes
    stack: list[int] = []
    counter = 0
    n_comps = 0
    for root in range(n_nodes):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, child_pos = work.pop()
            if child_pos == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            for k in range(child_pos, len(successors[node])):
                child = successors[node][k]
                if index[child] == -1:
                    work.append((node, k + 1))
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack[child]:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            if low[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    comp[member] = n_comps
                    if member == node:
                        break
                n_comps += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return comp


def solve_2sat(formula: TwoSatFormula) -> Optional[dict[Hashable, bool]]:
    """A satisfying assignment, or None when the formula is unsatisfiable."""
    n_vars = len(formula.variables)
    var_index = {v: i for i, v in enumerate(formula.variables)}

    def node(var: Hashable, polarity: bool) -> int:
        return 2 * var_index[var] + (0 if polarity else 1)

    def negated(lit: Literal) -> Literal:
        return (lit[0], not lit[1])

    successors: list[list[int]] = [[] for _ in range(2 * n_vars)]
    for clause in formula.clauses:
        if len(clause) == 1:
            (lit,) = clause
            successors[node(*negated(lit))].append(node(*lit))
        else:
            l1, l2 = clause
            successors[node(*negated(l1))].append(node(*l2))
            successors[node(*negated(l2))].append(node(*l1))

    comp = _tarjan_components(2 * n_vars, successors)
    assignment: dict[Hashable, bool] = {}
    for var in formula.variables:
        pos, neg = comp[node(var, True)], comp[node(var, False)]
        if pos == neg:
            return None
        # Components are numbered sinks-first, so the smaller id is the one
        # later in implication order; making it true satisfies every edge.
        assignment[var] = pos < neg
    return assignment
