"""Unit and property tests for the exact arithmetic primitives."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecount.combinatorics import (
    InexactDivisionError,
    binomial,
    even_compositions,
    exact_div,
    factorial,
    multinomial,
    positive_compositions,
)


def iterated_product(k):
    """Independent factorial oracle: plain repeated multiplication."""
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def pascal_triangle(rows):
    """Independent binomial oracle: additive Pascal recurrence."""
    triangle = [[1]]
    for _ in range(rows):
        prev = triangle[-1]
        triangle.append(
            [1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1]
        )
    return triangle


def brute_compositions(total, parts):
    """Every tuple of nonnegative ints of given length and sum, by filtering."""
    return [
        c for c in product(range(total + 1), repeat=parts) if sum(c) == total
    ]


class TestFactorial:
    def test_empty_product(self):
        assert factorial(0) == 1

    def test_small(self):
        assert factorial(5) == 120

    def test_large_against_iterated_multiplication(self):
        assert factorial(20) == iterated_product(20) == 2432902008176640000

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            factorial(-1)

    def test_agrees_with_oracle_on_a_range(self):
        for k in range(0, 40):
            assert factorial(k) == iterated_product(k)


def test_factorial_memo_is_thread_safe():
    from concurrent.futures import ThreadPoolExecutor

    arguments = [k % 250 for k in range(2000, 0, -7)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(factorial, arguments))
    assert results == [iterated_product(k) for k in arguments]


class TestBinomial:
    def test_examples(self):
        assert binomial(4, 2) == 6
        assert binomial(6, 0) == 1

    def test_against_pascal_triangle(self):
        triangle = pascal_triangle(12)
        assert binomial(8, 3) == triangle[8][3] == 56
        for n in range(13):
            for k in range(n + 1):
                assert binomial(n, k) == triangle[n][k]

    def test_out_of_range_k_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-2, 0)

    def test_row_sums_are_powers_of_two(self):
        for n in range(31):
            assert sum(binomial(n, k) for k in range(n + 1)) == 2 ** n


class TestMultinomial:
    def test_single_nonzero_part(self):
        assert multinomial(2, [2, 0, 0, 0]) == 1

    def test_forced(self):
        assert multinomial(2, [1, 1]) == 2

    def test_against_factorial_oracle(self):
        expected = iterated_product(4) // (iterated_product(2) * iterated_product(2))
        assert multinomial(4, [2, 2, 0]) == expected == 6

    def test_empty_parts(self):
        assert multinomial(0, []) == 1

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            multinomial(3, [1, 1])

    def test_negative_part_rejected(self):
        with pytest.raises(ValueError):
            multinomial(0, [1, -1])

    @given(st.lists(st.integers(0, 8), min_size=1, max_size=6))
    def test_invariant_under_permutation(self, parts):
        total = sum(parts)
        reference = multinomial(total, parts)
        assert multinomial(total, sorted(parts)) == reference
        assert multinomial(total, sorted(parts, reverse=True)) == reference


class TestExactDiv:
    def test_exact(self):
        assert exact_div(96 * 64, 64) == 96
        assert exact_div(-8, 2) == -4

    def test_inexact_raises(self):
        with pytest.raises(InexactDivisionError):
            exact_div(7, 2)


class TestEvenCompositions:
    def test_forced_enumeration(self):
        assert list(even_compositions(2, 3)) == [(2, 0, 0), (0, 2, 0), (0, 0, 2)]

    def test_odd_total_is_empty(self):
        assert list(even_compositions(3, 2)) == []

    def test_against_brute_filter(self):
        brute = [
            c for c in brute_compositions(4, 2) if all(x % 2 == 0 for x in c)
        ]
        assert sorted(even_compositions(4, 2)) == sorted(brute)
        assert list(even_compositions(4, 2)) == [(4, 0), (2, 2), (0, 4)]

    def test_zero_total(self):
        assert list(even_compositions(0, 4)) == [(0, 0, 0, 0)]

    def test_nonpositive_parts_rejected(self):
        with pytest.raises(ValueError):
            list(even_compositions(2, 0))

    def test_order_is_decreasing_lexicographic(self):
        for total, parts in [(6, 3), (8, 2), (4, 5)]:
            stream = list(even_compositions(total, parts))
            assert stream == sorted(stream, reverse=True)

    def test_counts_match_stars_and_bars(self):
        for half in range(0, 9):
            for parts in range(1, 9):
                produced = list(even_compositions(2 * half, parts))
                assert len(produced) == binomial(half + parts - 1, parts - 1)
                assert len(set(produced)) == len(produced)
                assert all(
                    sum(c) == 2 * half and all(x % 2 == 0 for x in c)
                    for c in produced
                )


class TestPositiveCompositions:
    def test_forced(self):
        assert list(positive_compositions(3, 2)) == [(1, 2), (2, 1)]

    def test_total_below_parts_is_empty(self):
        assert list(positive_compositions(2, 3)) == []

    def test_stars_and_bars_count(self):
        produced = list(positive_compositions(6, 4))
        assert len(produced) == binomial(5, 3) == 10

    def test_order_is_increasing_lexicographic(self):
        for total, parts in [(6, 3), (7, 2), (5, 4)]:
            stream = list(positive_compositions(total, parts))
            assert stream == sorted(stream)

    def test_nonpositive_parts_rejected(self):
        with pytest.raises(ValueError):
            list(positive_compositions(3, 0))

    @settings(max_examples=60)
    @given(st.integers(1, 12), st.integers(1, 12))
    def test_counts_match_stars_and_bars(self, total, parts):
        produced = list(positive_compositions(total, parts))
        assert len(produced) == binomial(total - 1, parts - 1)
        assert all(sum(c) == total and min(c) >= 1 for c in produced)
        assert len(set(produced)) == len(produced)
