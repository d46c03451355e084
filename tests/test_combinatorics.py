"""Unit and property tests for the exact arithmetic primitives."""

import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecount.combinatorics import (
    InexactDivisionError,
    even_compositions,
    exact_div,
    multinomial,
    positive_compositions,
)


def iterated_product(k):
    """Independent factorial oracle: plain repeated multiplication."""
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def brute_compositions(total, parts):
    """Every tuple of nonnegative ints of given length and sum, by filtering."""
    return [
        c for c in product(range(total + 1), repeat=parts) if sum(c) == total
    ]


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
                assert len(produced) == math.comb(half + parts - 1, parts - 1)
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
        assert len(produced) == math.comb(5, 3) == 10

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
        assert len(produced) == math.comb(total - 1, parts - 1)
        assert all(sum(c) == total and min(c) >= 1 for c in produced)
        assert len(set(produced)) == len(produced)
