"""Acceptance suite: every shipped formula against an independent oracle.

One test per criterion; each prints a `[PASS]`/`[FAIL]` line (visible with
``pytest -s``) and asserts exact equality -- every check here is integer
arithmetic, so the tolerance is zero everywhere.

Expected runtimes below are for commodity hardware.  The oracle module
caches one brute-force tally per graph -- all n**(n-2) Prüfer sequences
for K_n, every spanning tree of K_{m,n} reached one side-A vertex at a
time, the largest being the 32,000 trees of K_{4,5} -- and the criteria
share those tallies.
"""

import random
from itertools import product

from treecount.combinatorics import (
    even_compositions,
    multinomial,
    positive_compositions,
)
from treecount.formulas import (
    odd_spanning_trees_bipartite,
    odd_spanning_trees_bipartite_by_sum,
    odd_spanning_trees_complete,
    odd_spanning_trees_complete_by_sum,
    spanning_trees_bipartite,
    spanning_trees_complete,
    trees_with_degrees_bipartite,
    trees_with_degrees_complete,
)
from treecount.oracles import (
    LabeledGraph,
    count_trees_bipartite_brute,
    count_trees_complete_brute,
    matrix_tree_count,
)
from treecount.signsum import hypercube_power_sum, multinomial_power_sum

SEED = 1729


def _all_odd(degrees):
    return all(d % 2 == 1 for d in degrees)


def _enumerated_even_sum(weights, power):
    """Reference: sum power!/prod(k!) * prod(w**k) over every even composition,
    listed one tuple at a time."""
    total = 0
    for composition in even_compositions(power, len(weights)):
        term = multinomial(power, composition)
        for w, k in zip(weights, composition):
            term *= w ** k
        total += term
    return total


def _finish(criterion, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] {criterion}")
    assert not failures, f"{criterion}: first failures: {failures[:5]}"


def test_odd_complete_matches_brute_force():
    """Odd-tree counts on 1..8 vertices equal exhaustive enumeration (<10 s)."""
    frozen = {2: 1, 4: 4, 6: 96, 8: 5888}
    failures = []
    for n in range(1, 9):
        formula = odd_spanning_trees_complete(n)
        oracle = count_trees_complete_brute(n, _all_odd)
        expected = frozen.get(n, 0)  # odd n (and n=1) must come out zero
        if not (formula == oracle == expected):
            failures.append((n, formula, oracle, expected))
    _finish("odd-complete counts vs brute force, n <= 8", failures)


def test_odd_bipartite_matches_brute_force():
    """Odd-tree counts on all side splits with m+n <= 9 equal enumeration (<60 s)."""
    frozen = {(1, 1): 1, (3, 3): 9, (5, 3): 105, (3, 5): 105}
    failures = []
    for m in range(1, 9):
        for n in range(1, 10 - m):
            formula = odd_spanning_trees_bipartite(m, n)
            oracle = count_trees_bipartite_brute(m, n, lambda a, b: _all_odd(a + b))
            if formula != oracle:
                failures.append((m, n, formula, oracle))
            if (m, n) in frozen and formula != frozen[m, n]:
                failures.append((m, n, formula, "frozen", frozen[m, n]))
            if (m % 2 == 0 or n % 2 == 0) and formula != 0:
                failures.append((m, n, formula, "parity", 0))
    _finish("odd-bipartite counts vs brute force, m+n <= 9", failures)


def test_degree_constrained_complete_matches_brute_force():
    """Every degree profile on up to 7 vertices equals the filtered sweep (<30 s)."""
    failures = []
    for n in range(2, 8):
        for degrees in positive_compositions(2 * n - 2, n):
            formula = trees_with_degrees_complete(degrees)
            oracle = count_trees_complete_brute(n, lambda d: d == degrees)
            if formula != oracle:
                failures.append((degrees, formula, oracle))
    _finish("degree-constrained complete counts vs brute force, n <= 7", failures)


def test_degree_constrained_bipartite_matches_brute_force():
    """Every two-sided degree spec with m+n <= 8 equals the filtered sweep (<60 s)."""
    failures = []
    for m in range(1, 8):
        for n in range(1, 9 - m):
            goal = m + n - 1
            for side_a in positive_compositions(goal, m):
                for side_b in positive_compositions(goal, n):
                    formula = trees_with_degrees_bipartite(side_a, side_b)
                    oracle = count_trees_bipartite_brute(
                        m, n, lambda a, b: (a, b) == (side_a, side_b)
                    )
                    if formula != oracle:
                        failures.append((side_a, side_b, formula, oracle))
    _finish("degree-constrained bipartite counts vs brute force, m+n <= 8", failures)


def test_totals_match_both_oracles():
    """Plain totals agree with enumeration and with the Laplacian determinant."""
    failures = []
    for m in range(1, 9):
        for n in range(1, 10 - m):
            formula = spanning_trees_bipartite(m, n)
            oracle = count_trees_bipartite_brute(m, n)
            if formula != oracle:
                failures.append(("enumeration", m, n, formula, oracle))
    for m in range(1, 10):
        for n in range(1, 11 - m):
            formula = spanning_trees_bipartite(m, n)
            determinant = matrix_tree_count(LabeledGraph.complete_bipartite(m, n))
            if formula != determinant:
                failures.append(("matrix-tree", m, n, formula, determinant))
    for n in range(1, 9):
        formula = spanning_trees_complete(n)
        determinant = matrix_tree_count(LabeledGraph.complete(n))
        if formula != determinant:
            failures.append(("matrix-tree-complete", n, formula, determinant))
    _finish("total tree counts vs enumeration and matrix-tree", failures)


def test_sign_identity_exhaustive_and_random():
    """Direct hypercube sums equal their multinomial expansion, and the
    expansion equals its terms listed one composition at a time: exhaustive
    over coefficients in {-2..2} for n <= 5, m <= 6, plus 200 seeded trials
    with n <= 12."""
    failures = []
    rng = random.Random(SEED)
    exhaustive = [
        (coeffs, power)
        for n in range(1, 6)
        for coeffs in product(range(-2, 3), repeat=n)
        for power in range(7)
    ]
    seeded = []
    for _ in range(200):
        n = rng.randint(1, 12)
        coeffs = tuple(rng.randint(-3, 3) for _ in range(n))
        seeded.append((coeffs, rng.randint(0, 6)))
    for coeffs, power in exhaustive + seeded:
        direct = hypercube_power_sum(coeffs, power)
        expanded = multinomial_power_sum(coeffs, power)
        listed = (1 << len(coeffs)) * _enumerated_even_sum(coeffs, power)
        if not direct == expanded == listed:
            failures.append((coeffs, power, direct, expanded, listed))
    _finish("sign-hypercube identity, exhaustive small + 200 seeded trials", failures)


def test_closure_sums_recover_totals():
    """Summing degree-constrained counts over all profiles recovers the totals,
    and over all-odd profiles recovers the odd counts."""
    failures = []
    for n in range(2, 8):
        total = sum(
            trees_with_degrees_complete(d) for d in positive_compositions(2 * n - 2, n)
        )
        if total != spanning_trees_complete(n):
            failures.append(("complete", n, total, spanning_trees_complete(n)))
    for m in range(1, 9):
        for n in range(1, 10 - m):
            goal = m + n - 1
            total = sum(
                trees_with_degrees_bipartite(a, b)
                for a in positive_compositions(goal, m)
                for b in positive_compositions(goal, n)
            )
            if total != spanning_trees_bipartite(m, n):
                failures.append(("bipartite", m, n, total))
    for n in range(2, 11, 2):
        total = sum(
            trees_with_degrees_complete([k + 1 for k in comp])
            for comp in even_compositions(n - 2, n)
        )
        if total != odd_spanning_trees_complete(n):
            failures.append(("odd-restricted", n, total))
    _finish("degree-sum closures recover the closed-form totals", failures)


def test_checked_divisions_are_always_exact():
    """The power-of-two divisions inside the odd counters never leave a
    remainder (n <= 40 complete, m,n <= 20 bipartite)."""
    failures = []
    for n in range(2, 41):
        try:
            odd_spanning_trees_complete(n)
        except ArithmeticError as exc:  # InexactDivisionError included
            failures.append(("complete", n, repr(exc)))
    for m in range(1, 21):
        for n in range(1, 21):
            try:
                odd_spanning_trees_bipartite(m, n)
            except ArithmeticError as exc:
                failures.append(("bipartite", m, n, repr(exc)))
    _finish("checked power-of-two divisions stay exact", failures)


def test_dual_forms_agree():
    """Binomial-form and composition-sum-form counters agree: n <= 200 for
    complete graphs, m,n <= 80 for bipartite ones."""
    failures = []
    for n in range(2, 201):
        closed = odd_spanning_trees_complete(n)
        summed = odd_spanning_trees_complete_by_sum(n)
        if closed != summed:
            failures.append(("complete", n, closed, summed))
    for m in range(1, 81):
        for n in range(1, 81):
            closed = odd_spanning_trees_bipartite(m, n)
            summed = odd_spanning_trees_bipartite_by_sum(m, n)
            if closed != summed:
                failures.append(("bipartite", m, n, closed, summed))
    _finish("binomial and composition-sum forms agree", failures)


def test_composition_sums_match_enumeration():
    """The composition-sum counters equal their sums listed one even
    composition at a time: n <= 14 complete, m,n <= 8 bipartite."""
    failures = []
    for n in range(2, 15):
        summed = odd_spanning_trees_complete_by_sum(n)
        listed = _enumerated_even_sum([1] * n, n - 2)
        if summed != listed:
            failures.append(("complete", n, summed, listed))
    for m in range(1, 9):
        for n in range(1, 9):
            summed = odd_spanning_trees_bipartite_by_sum(m, n)
            listed = _enumerated_even_sum([1] * m, n - 1) * _enumerated_even_sum(
                [1] * n, m - 1
            )
            if summed != listed:
                failures.append(("bipartite", m, n, summed, listed))
    _finish("composition-sum forms vs listed compositions", failures)
