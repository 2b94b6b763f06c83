"""In-memory spans around every public function of the package's layers.

Each public function of a layer module but one per-token validator, and
Graph.__init__, is wrapped for the traced passes only; nothing under src/ is
edited.  A wrapper is installed under every name a lettergraphs module
resolves the function by: verify_decoder, for example, is called through
cli, decoder_retrieval and oracles.  A function that no longer exists is
recorded as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("cli", "documents", "graphs", "letters", "word_retrieval", "decoder_retrieval",
          "twosat", "coloring_retrieval", "diversity", "oracles")
# Called once per vertex or letter token: a span there would cost more than
# the call and blur its caller's self time.
UNWRAPPED = {"graphs.check_token"}


def _observe_verify(counts: Counter, label: str, args, result) -> None:
    counts[f"{label}.passed"] += bool(result)


def _observe_2sat(counts: Counter, label: str, args, result) -> None:
    formula = args[0]
    counts[f"{label}.clauses"] += len(formula.clauses)
    counts[f"{label}.variables"] += len(formula.variables)


OBSERVERS = {
    "decoder_retrieval.verify_decoder": _observe_verify,
    "twosat.solve_2sat": _observe_2sat,
}


class Tracer:
    """Records (label, start, end, parent span, op id) for each wrapped call."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.labels, self.absent = self._targets()

    @staticmethod
    def _targets():
        labels, absent = {}, []
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"lettergraphs.{layer}")
            except ImportError:
                absent.append(layer)
                continue
            for name, obj in vars(module).items():
                label = f"{layer}.{name}"
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                        and not name.startswith("_") and label not in UNWRAPPED:
                    labels[label] = obj
        graph = getattr(sys.modules.get("lettergraphs.graphs"), "Graph", None)
        if graph is None:
            absent.append("graphs.Graph.init")
        else:
            labels["graphs.Graph.init"] = graph.__init__
        return labels, absent

    def _wrap(self, label: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (label, start, time.perf_counter(), parent, self.op)
                stack.pop()
            if observe is not None:
                observe(counts, label, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "lettergraphs" or name.startswith("lettergraphs."))]
        for label, fn in self.labels.items():
            wrapper = self._wrap(label, fn)
            if label == "graphs.Graph.init":
                owner = sys.modules["lettergraphs.graphs"].Graph
                self._patches.append((owner, "__init__", fn))
                owner.__init__ = wrapper
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, name, fn))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, fn = self._patches.pop()
            setattr(owner, name, fn)

    def table(self, first_span: int = 0) -> dict[str, list]:
        """label -> [calls, total seconds, self seconds] over spans[first_span:].

        A span's self time is its duration minus that of its direct children.
        """
        spans = self.spans[first_span:]
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= first_span:
                child[parent - first_span] += end - start
        rows: dict[str, list] = {}
        for i, (label, start, end, _, _) in enumerate(spans):
            row = rows.setdefault(label, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return rows
