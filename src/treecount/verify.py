"""Verification sweeps: every closed-form counter against an independent oracle.

A sweep produces a VerificationReport whose cases compare one formula value
with one oracle value each.  Case ordering is deterministic (lexicographic
in family, then parameters), values are exact ints, and a report renders
either as readable text or as line-delimited JSON records.
"""

from __future__ import annotations

import json
import random
import time
from itertools import product
from typing import Callable, Iterator, NamedTuple, Sequence

from .combinatorics import (
    even_compositions,
    positive_compositions,
)
from .formulas import (
    odd_spanning_trees_bipartite,
    odd_spanning_trees_bipartite_by_sum,
    odd_spanning_trees_complete,
    odd_spanning_trees_complete_by_sum,
    spanning_trees_bipartite,
    spanning_trees_complete,
    trees_with_degrees_bipartite,
    trees_with_degrees_complete,
)
from .oracles import (
    BRUTE_FORCE_LIMIT,
    LabeledGraph,
    all_odd,
    count_trees_bipartite_brute,
    count_trees_complete_brute,
    matrix_tree_count,
)
from .signsum import hypercube_power_sum, multinomial_power_sum

ALL_SCOPES = ("complete", "bipartite", "degrees", "signsum")
DEFAULT_COMPLETE_MAX = 8
DEFAULT_BIPARTITE_MAX = 9
DEFAULT_SEED = 1729


class VerificationCase(NamedTuple):
    """One formula-versus-oracle comparison."""

    family: str
    parameters: dict
    formula_value: int
    oracle_value: int
    oracle_kind: str
    elapsed: float  # milliseconds
    error: str | None = None

    @property
    def match(self) -> bool:
        # match is defined, not stored, so it can never disagree with the values
        return self.error is None and self.formula_value == self.oracle_value

    def to_record(self) -> dict:
        record = {
            "family": self.family,
            "parameters": self.parameters,
            "formula_value": str(self.formula_value),
            "oracle_value": str(self.oracle_value),
            "oracle_kind": self.oracle_kind,
            "match": self.match,
            "elapsed": round(self.elapsed, 3),
        }
        if self.error is not None:
            record["error"] = self.error
        return record


class VerificationReport(NamedTuple):
    cases: list[VerificationCase]

    @property
    def summary(self) -> dict:
        passed = sum(1 for c in self.cases if c.match)
        return {
            "total": len(self.cases),
            "passed": passed,
            "failed": len(self.cases) - passed,
        }

    @property
    def all_match(self) -> bool:
        return all(c.match for c in self.cases)


class _CaseSpec(NamedTuple):
    family: str
    parameters: dict
    oracle_kind: str
    evaluate: Callable[[], tuple[int, int]]  # -> (formula_value, oracle_value)

    def run(self) -> VerificationCase:
        start = time.perf_counter()
        error = None
        try:
            formula_value, oracle_value = self.evaluate()
        except Exception as exc:  # reported per case, not fatal to the sweep
            formula_value, oracle_value = 0, 0
            error = f"{type(exc).__name__}: {exc}"
        elapsed = (time.perf_counter() - start) * 1e3
        return VerificationCase(
            self.family,
            self.parameters,
            formula_value,
            oracle_value,
            self.oracle_kind,
            elapsed,
            error,
        )


# family -> (parameters, formula, {oracle_kind: oracle}).  The parameters
# are the side sizes, which sum to the vertex count; formula and oracles take
# them as keywords.  count, table, oracle and verify all dispatch through this
# table, and its order is the order of the CLI's family choices.  The lambdas
# look every function up when called, so a patched module attribute takes
# effect.
FAMILIES = {
    "complete": (
        ("n",),
        lambda n: spanning_trees_complete(n),
        {
            "pruefer-brute": lambda n: count_trees_complete_brute(n),
            "matrix-tree": lambda n: matrix_tree_count(LabeledGraph.complete(n)),
        },
    ),
    "bipartite": (
        ("m", "n"),
        lambda m, n: spanning_trees_bipartite(m, n),
        {
            "edge-subset-brute": lambda m, n: count_trees_bipartite_brute(m, n),
            "matrix-tree": lambda m, n: matrix_tree_count(
                LabeledGraph.complete_bipartite(m, n)
            ),
        },
    ),
    "odd-complete": (
        ("n",),
        lambda n: odd_spanning_trees_complete(n),
        {
            "pruefer-brute": lambda n: count_trees_complete_brute(n, all_odd),
            "composition-sum": lambda n: odd_spanning_trees_complete_by_sum(n),
        },
    ),
    "odd-bipartite": (
        ("m", "n"),
        lambda m, n: odd_spanning_trees_bipartite(m, n),
        {
            "edge-subset-brute": lambda m, n: count_trees_bipartite_brute(m, n, all_odd),
            "composition-sum": lambda m, n: odd_spanning_trees_bipartite_by_sum(m, n),
        },
    ),
}


def _sizes(count: int, vertices: int) -> list[tuple[int, ...]]:
    """Every tuple of `count` positive sizes whose sum is at most `vertices`."""
    return [
        sizes
        for sizes in product(range(1, vertices + 1), repeat=count)
        if sum(sizes) <= vertices
    ]


def _family_specs(family: str, vertices: int) -> Iterator[_CaseSpec]:
    parameters, formula, oracles = FAMILIES[family]
    for sizes in _sizes(len(parameters), vertices):
        params = dict(zip(parameters, sizes))
        for kind, oracle in oracles.items():
            # composition sums need two vertices
            if kind == "composition-sum" and sum(sizes) < 2:
                continue
            yield _CaseSpec(
                family,
                params,
                kind,
                lambda f=formula, o=oracle, p=params: (f(**p), o(**p)),
            )


def _degrees_specs(complete_max: int, bipartite_max: int) -> Iterator[_CaseSpec]:
    # closure sums: the degree-constrained counts add up to the plain totals
    for n in range(2, min(complete_max, 7) + 1):
        yield _CaseSpec(
            "degrees-complete",
            {"n": n},
            "degree-sum-closure",
            lambda n=n: (
                sum(
                    trees_with_degrees_complete(d)
                    for d in positive_compositions(2 * n - 2, n)
                ),
                spanning_trees_complete(n),
            ),
        )
    for m, n in _sizes(2, bipartite_max):
        yield _CaseSpec(
            "degrees-bipartite",
            {"m": m, "n": n},
            "degree-sum-closure",
            lambda m=m, n=n: (
                sum(
                    trees_with_degrees_bipartite(a, b)
                    for a in positive_compositions(m + n - 1, m)
                    for b in positive_compositions(m + n - 1, n)
                ),
                spanning_trees_bipartite(m, n),
            ),
        )
    # odd-restricted closure against the odd counter
    for n in range(2, 11, 2):
        yield _CaseSpec(
            "degrees-complete",
            {"n": n, "parity": "odd"},
            "degree-sum-closure",
            lambda n=n: (
                sum(
                    trees_with_degrees_complete([k + 1 for k in comp])
                    for comp in even_compositions(n - 2, n)
                ),
                odd_spanning_trees_complete(n),
            ),
        )
    # every individual degree profile against the brute-force filter
    for n in range(2, min(complete_max, 6) + 1):
        for degrees in positive_compositions(2 * n - 2, n):
            yield _CaseSpec(
                "degrees-complete",
                {"n": n, "degrees": list(degrees)},
                "pruefer-brute",
                lambda n=n, degrees=degrees: (
                    trees_with_degrees_complete(degrees),
                    count_trees_complete_brute(n, lambda d: d == degrees),
                ),
            )
    for m, n in _sizes(2, min(bipartite_max, 6)):
        for side_a in positive_compositions(m + n - 1, m):
            for side_b in positive_compositions(m + n - 1, n):
                yield _CaseSpec(
                    "degrees-bipartite",
                    {"m": m, "n": n, "a": list(side_a), "b": list(side_b)},
                    "edge-subset-brute",
                    lambda m=m, n=n, side_a=side_a, side_b=side_b: (
                        trees_with_degrees_bipartite(side_a, side_b),
                        count_trees_bipartite_brute(
                            m, n, lambda a, b: (a, b) == (side_a, side_b)
                        ),
                    ),
                )


def _signsum_specs(seed: int) -> Iterator[_CaseSpec]:
    def spec_for(coeffs: tuple[int, ...], power: int) -> _CaseSpec:
        return _CaseSpec(
            "signsum",
            {"coeffs": list(coeffs), "power": power},
            "multinomial-expansion",
            lambda coeffs=coeffs, power=power: (
                hypercube_power_sum(coeffs, power),
                multinomial_power_sum(coeffs, power),
            ),
        )

    # exhaustive tiny block
    for n in (1, 2):
        for coeffs in product(range(-2, 3), repeat=n):
            for power in range(4):
                yield spec_for(coeffs, power)
    # seeded random block at larger sizes
    rng = random.Random(seed)
    for _ in range(20):
        n = rng.randint(1, 12)
        coeffs = tuple(rng.randint(-3, 3) for _ in range(n))
        power = rng.randint(0, 6)
        yield spec_for(coeffs, power)


def _sort_key(spec: _CaseSpec):
    # each parameter name holds values of one type, so they compare directly
    return (spec.family, sorted(spec.parameters.items()), spec.oracle_kind)


def build_specs(
    scopes: Sequence[str] = ALL_SCOPES,
    complete_max: int = DEFAULT_COMPLETE_MAX,
    bipartite_max: int = DEFAULT_BIPARTITE_MAX,
    seed: int = DEFAULT_SEED,
) -> list[_CaseSpec]:
    if complete_max < 1 or complete_max > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"complete sweep bound must be in 1..{BRUTE_FORCE_LIMIT}, got {complete_max}"
        )
    if bipartite_max < 2 or bipartite_max > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"bipartite sweep bound must be in 2..{BRUTE_FORCE_LIMIT}, got {bipartite_max}"
        )
    if not scopes:
        raise ValueError("no verification scope given")
    unknown = set(scopes) - set(ALL_SCOPES)
    if unknown:
        raise ValueError(f"unknown verification scope(s): {sorted(unknown)}")
    bounds = {"complete": complete_max, "bipartite": bipartite_max}
    specs: list[_CaseSpec] = []
    for family in FAMILIES:
        scope = family.removeprefix("odd-")
        if scope in scopes:
            specs.extend(_family_specs(family, bounds[scope]))
    if "degrees" in scopes:
        specs.extend(_degrees_specs(complete_max, bipartite_max))
    if "signsum" in scopes:
        specs.extend(_signsum_specs(seed))
    specs.sort(key=_sort_key)
    return specs


def run_verification(
    scopes: Sequence[str] = ALL_SCOPES,
    complete_max: int = DEFAULT_COMPLETE_MAX,
    bipartite_max: int = DEFAULT_BIPARTITE_MAX,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """Run the requested sweeps and return the report.

    A case whose formula or oracle raises is recorded as failed, with the
    exception as its `error`, and the sweep goes on.
    """
    specs = build_specs(scopes, complete_max, bipartite_max, seed)
    return VerificationReport([spec.run() for spec in specs])


def _format_parameters(parameters: dict) -> str:
    return " ".join(
        f"{key}={json.dumps(value)}" for key, value in sorted(parameters.items())
    )


def render_text(report: VerificationReport) -> str:
    lines = []
    for case in report.cases:
        status = "ok " if case.match else "FAIL"
        line = (
            f"[{status}] {case.family} {_format_parameters(case.parameters)}"
            f" formula={case.formula_value} oracle={case.oracle_value}"
            f" ({case.oracle_kind}, {case.elapsed:.1f} ms)"
        )
        if case.error is not None:
            line += f" error: {case.error}"
        lines.append(line)
    summary = report.summary
    lines.append(
        f"summary: total={summary['total']} passed={summary['passed']}"
        f" failed={summary['failed']}"
    )
    return "\n".join(lines)


def render_jsonl(report: VerificationReport) -> str:
    return "\n".join(
        json.dumps(case.to_record(), sort_keys=True) for case in report.cases
    )
