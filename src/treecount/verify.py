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
from collections import namedtuple
from itertools import product, starmap
from typing import Iterator, Sequence

from .combinatorics import (
    even_compositions,
    positive_compositions,
)
from .formulas import (
    bipartite_powers,
    complete_powers,
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


# The records are collections.namedtuple subclasses, not typing.NamedTuple classes: under
# postponed annotations, creating a NamedTuple compiles each field's annotation string into
# a ForwardRef, and every CLI start would pay for that.


class VerificationCase(
    namedtuple(
        "VerificationCase",
        "family parameters formula_value oracle_value oracle_kind elapsed error",
        defaults=(None,),
    )
):
    """One formula-versus-oracle comparison.

    family, parameters (a dict) and oracle_kind name the case; formula_value
    and oracle_value are the two ints compared; elapsed is in milliseconds;
    error is the text of the exception the case raised, or None.
    """

    __slots__ = ()

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


class VerificationReport(namedtuple("VerificationReport", "cases")):
    """A sweep's cases, a list of VerificationCase in sweep order."""

    __slots__ = ()

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


class Family(
    namedtuple(
        "Family", "parameters scope odd powers formula oracles columns profile", defaults=(None, None)
    )
):
    """A family of graphs, as count, table, oracle and verify read it.

    parameters are the side sizes, summing to the vertex count; scope is the
    verify scope that sweeps the family; odd says whether it counts odd trees
    only; powers(*sizes) gives the (side, power) pairs whose product of
    side**power is the total.  formula and oracles take the sizes as keywords,
    and look every function up when called: a patched attribute takes effect.
    columns(stop), None for a total, names what the family's table up to stop
    reads of the cosh-power recurrence: (first, power), the arguments of
    signsum.cosh_power_columns, and row(bracket, *sizes), one row's count,
    which reads each c(k, p) as bracket(k, p).
    profile, None for an odd family, is a total's degree profiles:
    (options, formula, kind), the option names of the degree sequences, one
    per side; their closed form, which takes the sequences in side order; and
    the kind of the oracle that counts the trees of one profile, given the
    sizes and a predicate on the per-side degree tuples.
    """

    __slots__ = ()


class _CaseSpec(namedtuple("_CaseSpec", "family parameters oracle_kind evaluate")):
    """A case not yet run: evaluate() returns its (formula_value, oracle_value)."""

    __slots__ = ()

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


# every family, in the order of the CLI's family choices
FAMILIES = {
    "complete": Family(
        ("n",), scope="complete", odd=False, powers=complete_powers,
        formula=lambda n: spanning_trees_complete(n),
        oracles={
            "pruefer-brute": lambda n, predicate=None: count_trees_complete_brute(n, predicate),
            "matrix-tree": lambda n: matrix_tree_count(LabeledGraph.complete(n)),
        },
        profile=(
            ("degrees",), lambda degrees: trees_with_degrees_complete(degrees), "pruefer-brute"
        ),
    ),
    "bipartite": Family(
        ("m", "n"), scope="bipartite", odd=False, powers=bipartite_powers,
        formula=lambda m, n: spanning_trees_bipartite(m, n),
        oracles={
            # the name matches neither the edge-subset search it once was nor the layered
            # tally it is now, and is kept because the pinned verify report carries it
            "edge-subset-brute": lambda m, n, predicate=None: count_trees_bipartite_brute(
                m, n, predicate
            ),
            "matrix-tree": lambda m, n: matrix_tree_count(
                LabeledGraph.complete_bipartite(m, n)
            ),
        },
        profile=(("a", "b"), lambda a, b: trees_with_degrees_bipartite(a, b), "edge-subset-brute"),
    ),
    "odd-complete": Family(
        ("n",), scope="complete", odd=True, powers=complete_powers,
        formula=lambda n: odd_spanning_trees_complete(n),
        oracles={
            "pruefer-brute": lambda n: count_trees_complete_brute(n, all_odd),
            "composition-sum": lambda n: odd_spanning_trees_complete_by_sum(n),
        },
        # the triangle: column n ends at c(n, n - 2)
        columns=lambda stop: (0, None, lambda bracket, n: 0 if n % 2 else bracket(n, n - 2)),
    ),
    "odd-bipartite": Family(
        ("m", "n"), scope="bipartite", odd=True, powers=bipartite_powers,
        formula=lambda m, n: odd_spanning_trees_bipartite(m, n),
        oracles={
            "edge-subset-brute": lambda m, n: count_trees_bipartite_brute(m, n, all_odd),
            "composition-sum": lambda m, n: odd_spanning_trees_bipartite_by_sum(m, n),
        },
        # the grid of odd k <= stop at the even p < stop
        columns=lambda stop: (1, stop - 1, lambda bracket, m, n: (
            bracket(m, n - 1) * bracket(n, m - 1) if m & n & 1 else 0
        )),
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
    record = FAMILIES[family]
    for sizes in _sizes(len(record.parameters), vertices):
        params = dict(zip(record.parameters, sizes))
        for kind, oracle in record.oracles.items():
            # composition sums need two vertices
            if kind == "composition-sum" and sum(sizes) < 2:
                continue
            yield _CaseSpec(
                family,
                params,
                kind,
                lambda f=record.formula, o=oracle, p=params: (f(**p), o(**p)),
            )


def _degrees_specs(complete_max: int, bipartite_max: int) -> Iterator[_CaseSpec]:
    # closure sums: a total's degree-constrained counts add up to the total, over K_n up
    # to 7 vertices and K_{m,n} up to the sweep bound; up to 6 vertices, each profile
    # against the brute-force filter
    bounds = {"complete": min(complete_max, 7), "bipartite": bipartite_max}
    for family, record in FAMILIES.items():
        if record.profile is None:
            continue
        options, formula, kind = record.profile
        oracle = record.oracles[kind]
        for sizes in _sizes(len(record.parameters), bounds[record.scope]):
            vertices = sum(sizes)
            if vertices < 2:
                continue  # K_1's one vertex has the degree 0: no profile of positive degrees
            params = dict(zip(record.parameters, sizes))
            # a side's degrees sum to its ends of the tree's edges: K_{m,n} has one end
            # of each edge on each side, K_n both on its one side
            ends = 2 * (vertices - 1) // len(sizes)
            profiles = lambda sizes=sizes, ends=ends: product(
                *(positive_compositions(ends, size) for size in sizes)
            )
            yield _CaseSpec(
                f"degrees-{family}",
                params,
                "degree-sum-closure",
                lambda p=params, profiles=profiles, f=formula, total=record.formula: (
                    sum(starmap(f, profiles())),
                    total(**p),
                ),
            )
            if vertices > 6:
                continue
            for sides in profiles():
                yield _CaseSpec(
                    f"degrees-{family}",
                    {**params, **dict(zip(options, map(list, sides)))},
                    kind,
                    lambda sizes=sizes, sides=sides, f=formula, o=oracle: (
                        f(*sides),
                        o(*sizes, lambda *degrees: degrees == sides),
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
    for family, record in FAMILIES.items():
        if record.scope in scopes:
            specs.extend(_family_specs(family, bounds[record.scope]))
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
