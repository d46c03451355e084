"""In-memory spans around calls into treecount's public functions.

The benchmark never edits the program.  It installs wrappers from here at
every name a caller looks up (``formulas.binomial_power_sum`` as well as
``signsum.binomial_power_sum``, the table dispatch dicts in ``cli``, and
``print`` inside ``cli`` for decimal rendering), records one span per call,
and restores the originals afterwards.

A span is ``[name, start, end, parent, op, aggregated, tag]``.  ``start`` and
``end`` come from ``time.perf_counter``, which on Linux reads
CLOCK_MONOTONIC, so spans written by a child process line up with the
parent's.  ``aggregated`` is the time of aggregated calls made directly
inside the span: functions called millions of times per op (``multinomial``)
keep a call count and a total instead of spans.
"""

from __future__ import annotations

import builtins
import importlib
import math
import time

MODULES = ("combinatorics", "signsum", "formulas", "oracles", "verify", "cli")

# Public functions recorded as one span per call.
SPANNED = (
    ("combinatorics", "exact_div"),
    ("signsum", "binomial_power_sum"),
    ("signsum", "multinomial_power_sum"),
    ("signsum", "hypercube_power_sum"),
    ("formulas", "spanning_trees_complete"),
    ("formulas", "spanning_trees_bipartite"),
    ("formulas", "trees_with_degrees_complete"),
    ("formulas", "trees_with_degrees_bipartite"),
    ("formulas", "odd_spanning_trees_complete"),
    ("formulas", "odd_spanning_trees_bipartite"),
    ("formulas", "odd_spanning_trees_complete_by_sum"),
    ("formulas", "odd_spanning_trees_bipartite_by_sum"),
    ("oracles", "count_trees_complete_brute"),
    ("oracles", "count_trees_bipartite_brute"),
    ("oracles", "matrix_tree_count"),
    ("verify", "build_specs"),
    ("verify", "run_verification"),
    ("verify", "render_jsonl"),
    ("verify", "render_text"),
    ("cli", "main"),
)
# Called up to millions of times per op: calls and time only.
AGGREGATED = (("combinatorics", "multinomial"),)

# Which layer group each traced name belongs to, for the share report.
GROUPS = {
    "signsum.binomial_power_sum": "kernels",
    "signsum.hypercube_power_sum": "kernels",
    "combinatorics.exact_div": "kernels",
    "formulas.spanning_trees_complete": "kernels",
    "formulas.spanning_trees_bipartite": "kernels",
    "formulas.trees_with_degrees_complete": "kernels",
    "formulas.trees_with_degrees_bipartite": "kernels",
    "formulas.odd_spanning_trees_complete": "kernels",
    "formulas.odd_spanning_trees_bipartite": "kernels",
    "formulas.odd_spanning_trees_complete_by_sum": "compositions",
    "formulas.odd_spanning_trees_bipartite_by_sum": "compositions",
    "signsum.multinomial_power_sum": "compositions",
    "combinatorics.multinomial": "compositions",
    "cli.render": "render",
    "cli.main": "cli",
    "cli.parse": "cli",
    "cli.import": "startup",
    "cli.interp_start": "startup",
    "bench.op": "bench",
}
GROUP_NAMES = (
    "kernels", "compositions", "render", "oracles", "verify", "cli", "startup", "bench",
)


def group_of(name: str) -> str:
    return GROUPS.get(name) or name.split(".")[0]


class Tracer:
    """Spans, aggregates and counters of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.totals: dict[str, list] = {}  # name -> [calls, seconds]
        self.counts: dict[str, float] = {}
        self.op: int | None = None
        self._stack: list[int] = []
        self._seen: set = set()

    def open(self, name: str, tag: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, 0.0, tag])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def record(self, name: str, start: float, end: float) -> None:
        """A finished span measured by hand, such as an import."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, end, parent, self.op, 0.0, None])

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def first(self, key) -> bool:
        """True the first time `key` is seen in this process."""
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def spanned(self, name, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            tag = before(*args, **kwargs) if before else None
            index = self.open(name, tag)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def aggregated(self, name, fn):
        totals = self.totals.setdefault(name, [0, 0.0])
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                totals[0] += 1
                totals[1] += elapsed
                if stack:
                    spans[stack[-1]][5] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "totals": self.totals, "counts": self.counts}

    def absorb(self, data: dict, parent: int) -> None:
        """Merge a child process's dump, its root spans under span `parent`."""
        offset = len(self.spans)
        for name, start, end, span_parent, _, aggregated, tag in data["spans"]:
            span_parent = parent if span_parent is None else span_parent + offset
            self.spans.append([name, start, end, span_parent, self.op, aggregated, tag])
        for name, (calls, seconds) in data["totals"].items():
            totals = self.totals.setdefault(name, [0, 0.0])
            totals[0] += calls
            totals[1] += seconds
        for name, amount in data["counts"].items():
            self.count(name, amount)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    Aggregated calls made directly inside a span count as covered too.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent, op, aggregated, tag) in enumerate(spans):
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start, child_end = max(child_start, reach), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result.append(end - start - covered - aggregated)
    return result


def _even_compositions_items(total: int, parts: int) -> int:
    if total < 0 or total % 2 or parts < 1:
        return 0
    return math.comb(total // 2 + parts - 1, parts - 1)


def _hooks(tracer: Tracer) -> dict:
    """Counters recorded at a wrapper's entry (`before`) or exit (`after`)."""

    def terms(n, power):
        tracer.count("signsum.binomial_power_sum.terms", n + 1)

    def complete_oracle(n, predicate=None):
        if n >= 2 and tracer.first(("complete", n)):
            tracer.count("oracles.sequences_decoded", n ** (n - 2))
            return "build"
        return "filter"

    def bipartite_oracle(m, n, predicate=None):
        total = m + n
        if tracer.first(("bipartite", total)):
            tracer.count("oracles.sequences_decoded", total ** (total - 2))
            tracer.count("oracles.bipartite_sequences", total ** (total - 2))
            tracer.count(
                "oracles.split_trees",
                sum(a ** (total - a - 1) * (total - a) ** (a - 1) for a in range(1, total)),
            )
            return "build"
        return "filter"

    def cases(report):
        tracer.count("verify.cases", len(report.cases))
        tracer.count("verify.cases_failed", sum(1 for case in report.cases if not case.match))

    return {
        "signsum.binomial_power_sum": (terms, None),
        "oracles.count_trees_complete_brute": (complete_oracle, None),
        "oracles.count_trees_bipartite_brute": (bipartite_oracle, None),
        "verify.run_verification": (None, cases),
    }


def install(tracer: Tracer):
    """Wrap treecount's public functions at every name callers look up.

    Returns a function that puts the originals back.
    """
    package = importlib.import_module("treecount")
    modules = {name: importlib.import_module(f"treecount.{name}") for name in MODULES}
    namespaces = [vars(package)] + [vars(module) for module in modules.values()]
    namespaces += [
        value for space in list(namespaces) for value in space.values()
        if isinstance(value, dict) and value is not space
    ]
    undo = []

    def replace(original, wrapper):
        for space in namespaces:
            for key, value in list(space.items()):
                if value is original:
                    space[key] = wrapper
                    undo.append((space, key, original))

    hooks = _hooks(tracer)
    for module, function in SPANNED:
        name = f"{module}.{function}"
        before, after = hooks.get(name, (None, None))
        original = getattr(modules[module], function)
        replace(original, tracer.spanned(name, original, before, after))
    for module, function in AGGREGATED:
        original = getattr(modules[module], function)
        replace(original, tracer.aggregated(f"{module}.{function}", original))

    even_compositions = modules["combinatorics"].even_compositions

    def counted_compositions(total, parts):
        items = _even_compositions_items(total, parts)
        tracer.count("combinatorics.even_compositions.items", items)
        return even_compositions(total, parts)

    replace(even_compositions, counted_compositions)

    build_parser = modules["cli"].build_parser
    traced_build = tracer.spanned("cli.parse", build_parser)

    def traced_parser():
        parser = traced_build()
        parser.parse_args = tracer.spanned("cli.parse", parser.parse_args)
        return parser

    replace(build_parser, traced_parser)
    cli_space = vars(modules["cli"])
    cli_space["print"] = tracer.spanned("cli.render", builtins.print)

    def restore():
        del cli_space["print"]
        for space, key, original in reversed(undo):
            space[key] = original

    return restore
