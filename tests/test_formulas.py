"""Tests for the closed-form counters against the brute-force oracles."""

import math
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecount import formulas
from treecount.cli import TERM_FLOOR, _row
from treecount.combinatorics import multinomial, positive_compositions
from treecount.formulas import (
    bipartite_brackets,
    complete_brackets,
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
from treecount.signsum import binomial_power_sum
from treecount.verify import FAMILIES


def all_odd(degrees):
    return all(d % 2 == 1 for d in degrees)


class TestSpanningTreesComplete:
    def test_single_vertex(self):
        assert spanning_trees_complete(1) == 1

    def test_forced_by_formula(self):
        assert spanning_trees_complete(4) == 16

    def test_against_pruefer_oracle(self):
        assert spanning_trees_complete(7) == count_trees_complete_brute(7) == 16807

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            spanning_trees_complete(0)


class TestSpanningTreesBipartite:
    def test_single_edge(self):
        assert spanning_trees_bipartite(1, 1) == 1

    def test_four_cycle_against_matrix_tree(self):
        assert spanning_trees_bipartite(2, 2) == matrix_tree_count(
            LabeledGraph.cycle(4)
        ) == 4

    def test_against_bipartite_edge_subset_oracle(self):
        assert spanning_trees_bipartite(2, 3) == count_trees_bipartite_brute(2, 3) == 12

    @given(st.integers(1, 20), st.integers(1, 20))
    def test_symmetry(self, m, n):
        assert spanning_trees_bipartite(m, n) == spanning_trees_bipartite(n, m)


class TestTreesWithDegreesComplete:
    def test_unique_edge(self):
        assert trees_with_degrees_complete([1, 1]) == 1

    def test_star(self):
        assert trees_with_degrees_complete([3, 1, 1, 1]) == 1

    def test_against_brute_filter(self):
        target = (2, 2, 1, 1)
        assert trees_with_degrees_complete(list(target)) == count_trees_complete_brute(
            4, lambda d: d == target
        ) == 2

    def test_infeasible_sum_is_zero(self):
        assert trees_with_degrees_complete([2, 2, 2, 2]) == 0
        assert trees_with_degrees_complete([1]) == 0

    def test_nonpositive_entry_rejected(self):
        with pytest.raises(ValueError):
            trees_with_degrees_complete([2, 0, 1, 1])

    def test_every_profile_matches_brute_force(self):
        for n in range(2, 6):
            for degrees in positive_compositions(2 * n - 2, n):
                got = trees_with_degrees_complete(degrees)
                want = count_trees_complete_brute(n, lambda d: d == degrees)
                assert got == want, degrees


class TestTreesWithDegreesBipartite:
    def test_star(self):
        assert trees_with_degrees_bipartite([3], [1, 1, 1]) == 1

    def test_against_brute_filter(self):
        spec = ((2, 2), (2, 1, 1))
        got = trees_with_degrees_bipartite(*spec)
        want = count_trees_bipartite_brute(2, 3, lambda a, b: (a, b) == spec)
        assert got == want == 2

    def test_two_by_two_path_profile(self):
        spec = ((2, 1), (2, 1))
        got = trees_with_degrees_bipartite(*spec)
        want = count_trees_bipartite_brute(2, 2, lambda a, b: (a, b) == spec)
        assert got == want == 1

    def test_infeasible_sums_are_zero(self):
        assert trees_with_degrees_bipartite([1, 1], [1, 1]) == 0
        assert trees_with_degrees_bipartite([3, 2], [2, 1, 1]) == 0

    def test_nonpositive_entry_rejected(self):
        with pytest.raises(ValueError):
            trees_with_degrees_bipartite([2, 0], [1, 1])
        with pytest.raises(ValueError):
            trees_with_degrees_bipartite([], [1])


class TestDegreeFormsAgainstMultinomial:
    """The degree forms take their quotient of factorials directly, past their own
    checks; each equals the checked multinomials on every profile of K_n, n <= 9, and of
    K_{m,n}, m + n <= 10: 26,365 profiles."""

    def test_complete_equals_one_multinomial(self):
        for n in range(2, 10):
            for degrees in positive_compositions(2 * n - 2, n):
                reference = multinomial(n - 2, [d - 1 for d in degrees])
                assert trees_with_degrees_complete(degrees) == reference, degrees

    def test_bipartite_equals_two_multinomials(self):
        for m, n in [(m, total - m) for total in range(2, 11) for m in range(1, total)]:
            for side_a, side_b in product(
                positive_compositions(m + n - 1, m), positive_compositions(m + n - 1, n)
            ):
                reference = multinomial(n - 1, [a - 1 for a in side_a]) * multinomial(
                    m - 1, [b - 1 for b in side_b]
                )
                assert trees_with_degrees_bipartite(side_a, side_b) == reference

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: trees_with_degrees_complete([]), "degrees must be nonempty"),
            (
                lambda: trees_with_degrees_complete((2, 0, 1, 1)),
                "degrees entries must be positive, got [2, 0, 1, 1]",
            ),
            (lambda: trees_with_degrees_bipartite([], [1]), "side_a must be nonempty"),
            (lambda: trees_with_degrees_bipartite([1], []), "side_b must be nonempty"),
            (
                lambda: trees_with_degrees_bipartite([2, -1], [1, 1]),
                "side_a entries must be positive, got [2, -1]",
            ),
            (
                lambda: trees_with_degrees_bipartite([1, 1], (0, 3)),
                "side_b entries must be positive, got [0, 3]",
            ),
        ],
    )
    def test_bad_degrees_keep_their_messages(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


class TestOddSpanningTreesComplete:
    def test_single_edge_needs_zero_power_convention(self):
        assert odd_spanning_trees_complete(2) == 1

    def test_against_brute_force(self):
        assert odd_spanning_trees_complete(4) == count_trees_complete_brute(
            4, all_odd
        ) == 4
        assert odd_spanning_trees_complete(6) == count_trees_complete_brute(
            6, all_odd
        ) == 96

    def test_lone_vertex_has_even_degree(self):
        assert odd_spanning_trees_complete(1) == 0

    def test_parity_vanishing(self):
        for n in range(3, 42, 2):
            assert odd_spanning_trees_complete(n) == 0

    def test_checked_division_never_fires(self):
        for n in range(2, 41):
            odd_spanning_trees_complete(n)  # InexactDivisionError would bubble


class TestOddSpanningTreesCompleteBySum:
    def test_examples(self):
        assert odd_spanning_trees_complete_by_sum(2) == 1
        assert odd_spanning_trees_complete_by_sum(4) == 4
        assert odd_spanning_trees_complete_by_sum(6) == 96

    def test_matches_binomial_form(self):
        for n in range(2, 13):
            assert odd_spanning_trees_complete_by_sum(n) == odd_spanning_trees_complete(n)

    def test_requires_two_vertices(self):
        with pytest.raises(ValueError):
            odd_spanning_trees_complete_by_sum(1)


class TestOddSpanningTreesBipartite:
    def test_single_edge(self):
        assert odd_spanning_trees_bipartite(1, 1) == 1

    def test_three_three_against_brute_force(self):
        got = odd_spanning_trees_bipartite(3, 3)
        want = count_trees_bipartite_brute(3, 3, lambda a, b: all_odd(a + b))
        assert got == want == 9

    def test_five_three_against_brute_force(self):
        got = odd_spanning_trees_bipartite(5, 3)
        want = count_trees_bipartite_brute(5, 3, lambda a, b: all_odd(a + b))
        assert got == want == 105

    def test_even_side_forces_zero(self):
        assert odd_spanning_trees_bipartite(2, 5) == 0

    @pytest.mark.parametrize("m, n", [(4348, 4347), (4347, 4348), (4350, 4350)])
    def test_even_side_sums_no_even_power(self, monkeypatch, m, n):
        # an odd power's sum is 0, so the other bracket's full sum would be wasted
        powers = []
        original = formulas.binomial_power_sum

        def recorded(side, power):
            powers.append(power)
            return original(side, power)

        monkeypatch.setattr(formulas, "binomial_power_sum", recorded)
        assert odd_spanning_trees_bipartite(m, n) == 0
        assert [p for p in powers if p % 2 == 0] == []

    @pytest.mark.parametrize("m, n, sums", [(5, 5, 1), (9, 9, 1), (5, 9, 2), (9, 5, 2), (7, 3, 2)])
    def test_equal_sides_sum_their_bracket_once(self, monkeypatch, m, n, sums):
        # K_{m,m}'s two (side, power) pairs are one pair, summed once and squared
        calls = []
        original = formulas.binomial_power_sum

        def recorded(side, power):
            calls.append((side, power))
            return original(side, power)

        monkeypatch.setattr(formulas, "binomial_power_sum", recorded)
        assert odd_spanning_trees_bipartite(m, n) == odd_spanning_trees_bipartite_by_sum(m, n)
        assert len(calls) == sums
        assert set(calls) == {(m, n - 1), (n, m - 1)}

    @given(st.integers(1, 20), st.integers(1, 20))
    def test_symmetry_and_parity(self, m, n):
        assert odd_spanning_trees_bipartite(m, n) == odd_spanning_trees_bipartite(n, m)
        if m % 2 == 0 or n % 2 == 0:
            assert odd_spanning_trees_bipartite(m, n) == 0

    def test_checked_division_never_fires(self):
        for m in range(1, 21):
            for n in range(1, 21):
                odd_spanning_trees_bipartite(m, n)

    def test_star_matches_composition_sum(self):
        # K_{1,n} and K_{m,1}: one side's sum has power 0
        for other in range(1, 61):
            for m, n in ((1, other), (other, 1)):
                assert odd_spanning_trees_bipartite(m, n) == odd_spanning_trees_bipartite_by_sum(
                    m, n
                ), (m, n)

    @pytest.mark.parametrize("m, n", [(1, 20_000_001), (20_000_001, 1)])
    def test_star_builds_nothing_that_grows_with_its_size(self, m, n):
        tracemalloc.start()
        try:
            assert odd_spanning_trees_bipartite(m, n) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # 2**20_000_001 alone would take 2.5 MB


    def test_shared_powers_match_the_unshared_brackets(self):
        # every small odd pair, sharing or not, and near pairs at the huge-count sizes
        pairs = [(m, n) for m in range(1, 62, 2) for n in range(1, 62, 2)]
        for m, n in pairs + [(2001, 2003), (1993, 2009)]:
            assert odd_spanning_trees_bipartite(m, n) == bipartite_brackets(
                formulas._bracket, m, n
            ), (m, n)

    # (9, 11) is the least pair that shares: 4 * 2 <= 8; (401, 501) is at the bound and
    # (401, 503) just past it; K_{m,m} squares its one bracket
    @pytest.mark.parametrize(
        "m, n, shared",
        [(9, 11, True), (11, 9, True), (7, 9, False), (401, 501, True), (501, 401, True),
         (401, 503, False), (9, 9, False)],
    )
    def test_sides_share_while_four_gaps_fit_the_base(self, monkeypatch, m, n, shared):
        bases = []
        original = formulas.shared_powers

        def recorded(base):
            bases.append(base)
            return original(base)

        monkeypatch.setattr(formulas, "shared_powers", recorded)
        assert odd_spanning_trees_bipartite(m, n) == bipartite_brackets(formulas._bracket, m, n)
        assert bases == ([min(m, n) - 1] if shared else [])

    def test_each_count_makes_a_fresh_source(self, monkeypatch):
        sources = []
        original = formulas.shared_powers

        def recorded(base):
            sources.append(original(base))
            return sources[-1]

        monkeypatch.setattr(formulas, "shared_powers", recorded)
        assert odd_spanning_trees_bipartite(2001, 2003) == odd_spanning_trees_bipartite(2001, 2003)
        assert len(sources) == 2
        assert sources[0] is not sources[1]

    def test_both_sums_raise_their_primes_through_one_source(self, monkeypatch):
        # K_{9,11}: c(9, 10) raises the odd primes up to 9 and c(11, 8) those up to 11, each
        # once per sum, all through the source based at 8
        calls = []
        original = formulas.shared_powers

        def recorded(base):
            source = original(base)

            def raise_(q, power):
                calls.append((q, power))
                return source(q, power)

            return raise_

        monkeypatch.setattr(formulas, "shared_powers", recorded)
        odd_spanning_trees_bipartite(9, 11)
        assert sorted(calls) == sorted([(3, 10), (5, 10), (7, 10), (3, 8), (5, 8), (7, 8), (11, 8)])


class TestOddSpanningTreesBipartiteBySum:
    def test_examples(self):
        assert odd_spanning_trees_bipartite_by_sum(1, 1) == 1
        assert odd_spanning_trees_bipartite_by_sum(3, 3) == 9
        assert odd_spanning_trees_bipartite_by_sum(3, 2) == 0

    def test_matches_binomial_form(self):
        for m in range(1, 9):
            for n in range(1, 9):
                assert odd_spanning_trees_bipartite_by_sum(
                    m, n
                ) == odd_spanning_trees_bipartite(m, n)

    def test_sums_only_what_the_count_reads(self, monkeypatch):
        # an even side makes the other side's power odd and the count 0, so neither one-sided
        # sum is made; K_{m,m}'s two sums are one, made once and squared
        calls = []
        original = formulas.even_multinomial_sum

        def recorded(weights, power):
            calls.append((len(weights), power))
            return original(weights, power)

        monkeypatch.setattr(formulas, "even_multinomial_sum", recorded)
        for m in range(1, 13):
            for n in range(1, 13):
                calls.clear()
                both = original([1] * m, n - 1) * original([1] * n, m - 1)
                assert odd_spanning_trees_bipartite_by_sum(m, n) == both, (m, n)
                if m % 2 == 0 or n % 2 == 0:
                    assert calls == [], (m, n)
                elif m == n:
                    assert calls == [(m, m - 1)], (m, n)
                else:
                    assert calls == [(m, n - 1), (n, m - 1)], (m, n)


class TestBracketProducts:
    """complete_brackets and bipartite_brackets: each odd family's one product of brackets."""

    @staticmethod
    def recording(calls):
        """A bracket that records each (k, p, value) it returns, each value distinct and > 1."""

        def bracket(k, p):
            calls.append((k, p, 1000 * k + p + 2))
            return calls[-1][2]

        return bracket

    def test_complete_reads_one_bracket_at_even_n(self):
        for n in range(1, 13):
            calls = []
            value = complete_brackets(self.recording(calls), n)
            if n % 2:
                assert (value, calls) == (0, []), n
            else:
                assert calls == [(n, n - 2, value)], n

    def test_bipartite_reads_what_the_count_needs(self):
        for m, n in product(range(1, 13), repeat=2):
            calls = []
            value = bipartite_brackets(self.recording(calls), m, n)
            read = [(k, p) for k, p, _ in calls]
            if m % 2 == 0 or n % 2 == 0:
                assert (value, calls) == (0, []), (m, n)
            elif m == n:
                assert read == [(m, m - 1)], (m, n)
                assert value == calls[0][2] ** 2, (m, n)
            else:
                assert read == [(m, n - 1), (n, m - 1)], (m, n)
                assert value == calls[0][2] * calls[1][2], (m, n)

    def test_each_odd_record_reads_its_closed_forms_product(self):
        # the table's rows, the closed forms and the composition sums share one product
        assert FAMILIES["odd-complete"].columns(40)[2] is complete_brackets
        assert FAMILIES["odd-bipartite"].columns(40)[2] is bipartite_brackets

    @pytest.mark.parametrize(
        "formula, sizes, message",
        [
            (odd_spanning_trees_complete, (0,), "n must be >= 1, got 0"),
            (odd_spanning_trees_bipartite, (0, 0), "m must be >= 1, got 0"),
            (odd_spanning_trees_bipartite, (2, -1), "n must be >= 1, got -1"),
            (odd_spanning_trees_bipartite_by_sum, (-3, 0), "m must be >= 1, got -3"),
            (odd_spanning_trees_bipartite_by_sum, (3, 0), "n must be >= 1, got 0"),
        ],
    )
    def test_odd_forms_check_sizes_m_first(self, formula, sizes, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            formula(*sizes)


class TestClosureSums:
    def test_degree_sum_recovers_total_complete(self):
        for n in range(2, 7):
            total = sum(
                trees_with_degrees_complete(d)
                for d in positive_compositions(2 * n - 2, n)
            )
            assert total == spanning_trees_complete(n)

    def test_degree_sum_recovers_total_bipartite(self):
        for m in range(1, 5):
            for n in range(1, 5):
                goal = m + n - 1
                total = sum(
                    trees_with_degrees_bipartite(a, b)
                    for a in positive_compositions(goal, m)
                    for b in positive_compositions(goal, n)
                )
                assert total == spanning_trees_bipartite(m, n)

    def test_odd_restricted_sum_recovers_odd_count(self):
        from treecount.combinatorics import even_compositions

        for n in range(2, 9, 2):
            total = sum(
                trees_with_degrees_complete([k + 1 for k in comp])
                for comp in even_compositions(n - 2, n)
            )
            assert total == odd_spanning_trees_complete(n)


class TestFamilyDispatch:
    """The family table that count, table, oracle and verify dispatch through."""

    @staticmethod
    def formula(family):
        return FAMILIES[family].formula

    def test_tree_count(self):
        assert self.formula("complete")(n=4) == 16
        assert self.formula("bipartite")(m=2, n=3) == 12

    def test_odd_tree_count(self):
        assert self.formula("odd-complete")(n=6) == 96
        assert self.formula("odd-bipartite")(m=3, n=3) == 9

    def test_families_in_cli_order_with_their_sizes(self):
        assert [(family, record.parameters) for family, record in FAMILIES.items()] == [
            ("complete", ("n",)),
            ("bipartite", ("m", "n")),
            ("odd-complete", ("n",)),
            ("odd-bipartite", ("m", "n")),
        ]

    def test_powers_describe_every_family(self):
        # the (side, power) pairs price, zero and sweep each family, so they must be its shape:
        # their product of powers is the total, and each odd count averages those powers
        totals = {r.scope: r.formula for r in FAMILIES.values() if r.columns is None}
        for family, record in FAMILIES.items():
            top = 40 if record.scope == "complete" else 15
            for sizes in product(range(1, top + 1), repeat=len(record.parameters)):
                powers = record.powers(*sizes)
                assert math.prod(k**p for k, p in powers) == totals[record.scope](*sizes)
                value = record.formula(*sizes)
                # a zero is priced as the one digit it prints; any other row costs at
                # least the floor of a term, or nothing when it makes no term at all
                digits, work = _row(record, sizes)
                assert (value == 0) == ((digits, work) == (1.0, 1.0)), (family, sizes)
                assert value == 0 or work >= TERM_FLOOR or work == 0.0, (family, sizes)
                if value and record.columns:
                    averaged = math.prod(binomial_power_sum(k, p) >> k for k, p in powers)
                    assert value == averaged, (family, sizes)
