"""Tests for the sign-hypercube power sums, against naive enumeration."""

import math
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecount import signsum
from treecount.combinatorics import InexactDivisionError
from treecount.signsum import (
    _form_tally,
    binomial_power_sum,
    binomial_power_sum_by,
    cosh_power_columns,
    even_multinomial_sum,
    hypercube_power_sum,
    multinomial_power_sum,
    pairing_bounds,
    product_count,
    shared_powers,
)


def definitional_binomial_sum(n, power):
    """Oracle: sum C(n,k) * (2k - n)**power over the whole range, every binomial from math.comb."""
    return sum(math.comb(n, k) * (2 * k - n) ** power for k in range(n + 1))


def naive_power_sum(coeffs, power):
    """Oracle: literally enumerate all sign vectors with itertools."""
    total = 0
    for signs in product((-1, 1), repeat=len(coeffs)):
        linear = sum(a * y for a, y in zip(coeffs, signs))
        total += linear ** power
    return total


def paired_hypercube_power_sum(coeffs, power):
    """Reference: every left value of the half tallies paired with every right one, at any power."""
    n = len(coeffs)
    tally = signsum._form_tally  # read at each call, so that a patched tally is read
    left, right = tally(coeffs[: n // 2]), tally(coeffs[n // 2 :]).items()
    return sum(
        left_count * sum(count * (left_value + value) ** power for value, count in right)
        for left_value, left_count in left.items()
    )


def per_weight_even_multinomial_sum(weights, power):
    """Reference: power! * [x**power] prod(cosh(w*x)), one convolution per weight.

    The running exponential series is multiplied by each weight's cosh(w*x) in
    turn, a'[2j] = sum over i <= j of C(2j, 2i) * w**(2i) * a[2j-2i], with the
    binomials from math.comb: no tally by square and no power recurrence.
    """
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power}")
    if power % 2:
        return 0
    return per_weight_series(weights, power // 2)[-1]


def per_weight_series(weights, half):
    """The reference's sums for the totals 0, 2, ..., 2 * half, from one series."""
    series = [1] + [0] * half  # series[j] is the sum for the total 2j so far
    for w in weights:
        series = [
            sum(math.comb(2 * j, 2 * i) * w ** (2 * i) * series[j - i] for i in range(j + 1))
            for j in range(half + 1)
        ]
    return series


def seeded_vectors():
    """Seeded coefficient lists of lengths 1..14 with repeats, zeros and negatives."""
    rng = random.Random(25)
    vectors = []
    for n in range(1, 15):
        vectors += [[rng.choice((-3, -2, -1, 0, 1, 2, 3)) for _ in range(n)] for _ in range(3)]
        vectors += [[0] * n, [1] * n, [-2] * n, [rng.randint(-9, 9) for _ in range(n)]]
    return vectors


coeff_vectors = st.lists(st.integers(-3, 3), min_size=1, max_size=8)


class TestHypercubePowerSum:
    def test_two_ones_squared(self):
        # the four sign vectors contribute 4 + 0 + 0 + 4
        assert hypercube_power_sum([1, 1], 2) == 8

    def test_odd_power_cancels(self):
        assert hypercube_power_sum([2], 3) == 0

    def test_mixed_coefficients(self):
        # 9 + 1 + 1 + 9 by direct enumeration
        assert naive_power_sum([1, 2], 2) == 20
        assert hypercube_power_sum([1, 2], 2) == 20

    def test_power_zero_counts_vectors(self):
        assert hypercube_power_sum([3, 1, 4], 0) == 8

    def test_tally_equals_naive_enumeration_exhaustively(self):
        for n in range(1, 4):
            for coeffs in product(range(-2, 3), repeat=n):
                for power in range(5):
                    assert hypercube_power_sum(coeffs, power) == naive_power_sum(
                        coeffs, power
                    )

    @settings(max_examples=150)
    @given(coeff_vectors, st.integers(0, 8))
    def test_tally_equals_naive_enumeration(self, coeffs, power):
        assert hypercube_power_sum(coeffs, power) == naive_power_sum(coeffs, power)

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=40))
    def test_tally_counts_every_sign_vector_at_power_zero(self, coeffs):
        assert hypercube_power_sum(coeffs, 0) == 2 ** len(coeffs)

    @given(coeff_vectors, st.integers(0, 8))
    def test_zero_coefficient_doubles_every_count(self, coeffs, power):
        # its two signs give every other sign vector's form twice
        assert hypercube_power_sum([*coeffs, 0], power) == 2 * hypercube_power_sum(
            coeffs, power
        )

    def test_distinct_subset_sums(self):
        # powers of two give all 2**n sign vectors distinct forms, so every pair is one vector
        for n in range(1, 11):
            coeffs = [2**i for i in range(n)]
            for power in range(4):
                assert hypercube_power_sum(coeffs, power) == naive_power_sum(coeffs, power)

    def test_all_ones_up_to_forty(self):
        # 2**40 sign vectors at n = 40, but each half's tally keeps 21 form values
        for n in range(1, 41):
            assert hypercube_power_sum([1] * n, n) == binomial_power_sum(n, n)

    def test_equals_paired_reference(self):
        # seeded vectors with repeats, zeros and negatives, folded by |form| where the plan
        # folds them
        for coeffs in seeded_vectors():
            for power in range(0, 14):
                assert hypercube_power_sum(coeffs, power) == paired_hypercube_power_sum(
                    coeffs, power
                ), (coeffs, power)

    @pytest.mark.parametrize("folds", [True, False])
    def test_both_paths_on_every_vector(self, monkeypatch, folds):
        # the plan forced either way: the fold loops and the pair path each give every sum
        bounds = signsum.pairing_bounds
        monkeypatch.setattr(signsum, "pairing_bounds", lambda coeffs: (*bounds(coeffs)[:2], folds))
        for coeffs in seeded_vectors():
            for power in range(0, 14):
                assert hypercube_power_sum(coeffs, power) == paired_hypercube_power_sum(
                    coeffs, power
                ), (coeffs, power)

    @pytest.mark.parametrize(
        "coeffs",
        [
            # (the plan's two last-layer bounds, its bound min(pairs, s//2 + 1) on the |forms|):
            # folded when the |form| bound is at most the two last-layer bounds together
            [1, 2, 4, 8, 16, 32, 64, 128],  # (16, 16, 128), 2**8 distinct forms: paired
            [1, 2, 4, 8, 16, 32, 64, 127],  # (16, 16, 128), some forms equal: paired
            [5, 7, 11, 13, 17, 19],  # (8, 8, 37): paired
            [1, 1, 10],  # (2, 4, 7), one above the last layers: paired
            [1, 1, 8],  # (2, 4, 6), equal to the last layers: folded
            [5, 7, 1, 1, 1, 1],  # (8, 4, 9): folded
            [1] * 9 + [2] * 9,  # (10, 19, 14): folded, the right half built with 10 values
            [3],  # (1, 2, 2), the left half empty: folded
            [10**400, 1],  # (2, 2, 4), the pairs bound the |forms|, s does not: folded
            [4] * 6,  # (8, 8, 13): folded, the halves built with 4 values each
        ],
    )
    @pytest.mark.parametrize("power", [0, 1, 2, 7, 30, 31])
    def test_both_sides_of_the_fold_rule(self, coeffs, power):
        assert hypercube_power_sum(coeffs, power) == paired_hypercube_power_sum(coeffs, power)

    def test_distinct_forms_are_not_folded(self):
        # 16 powers of two give 2**16 distinct forms, 2**15 distinct |forms|: a tally of them
        # would take about 2.6 MB, where the two half tallies of 2**8 values take 40 kB
        coeffs = [2**i for i in range(16)]
        tracemalloc.start()
        try:
            assert hypercube_power_sum(coeffs, 2) == 2**16 * sum(a * a for a in coeffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000

    def test_an_odd_power_raises_no_cancelled_form(self):
        # the forms 9 and -9 cancel in the tally, so 9**2291859, about 0.9 MB, is never made
        tracemalloc.start()
        try:
            assert hypercube_power_sum([9], 2_291_859) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000

    def test_an_odd_power_is_computed_not_assumed(self, monkeypatch):
        # with a half tally skewed off its mirror symmetry the counts no longer cancel: the
        # folded sum raises what is left, as the pairing does, and does not return 0 for its
        # parity
        tally = signsum._form_tally

        def skewed(half):
            counts = tally(half)
            if half:
                counts[max(counts)] += 1
            return counts

        monkeypatch.setattr(signsum, "_form_tally", skewed)
        for coeffs in ([3], [1, 2, 3, 4], [4] * 6, [1] * 9):
            for power in (1, 3, 5):
                value = hypercube_power_sum(coeffs, power)
                assert value == paired_hypercube_power_sum(coeffs, power) != 0, (coeffs, power)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hypercube_power_sum([], 2)
        with pytest.raises(ValueError):
            multinomial_power_sum([], 2)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            hypercube_power_sum([1], -1)


class TestPairingBounds:
    """pairing_bounds bounds the tally layers and the pairs hypercube_power_sum makes."""

    @staticmethod
    def check(coeffs):
        layers, pairs, folds = pairing_bounds(coeffs)
        n = len(coeffs)
        halves = coeffs[: n // 2], coeffs[n // 2 :]
        left, right = (_form_tally(half) for half in halves)
        assert pairs >= len(left) * len(right)
        # the layer after k coefficients is the tally of the first k
        made = sum(
            len(_form_tally(half[:k])) for half in halves for k in range(1, len(half) + 1)
        )
        assert layers >= made
        if folds:
            # the memory rule: the |forms| the sum tallies fit the fold's bound, and the bound
            # fits the half tallies of any n coefficients
            bound = min(pairs, sum(map(abs, coeffs)) // 2 + 1)
            forms = {abs(u + v) for u in left for v in right}
            assert len(forms) <= bound <= 2 ** (n // 2) + 2 ** (n - n // 2)
        return layers, pairs

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=30))
    def test_small_coefficients(self, coeffs):
        self.check(coeffs)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_distinct_powers_of_two_meet_both_bounds(self, n):
        # every sign vector has a form of its own, so every bound is met
        layers = 2 ** (n // 2 + 1) - 2 + 2 ** (n - n // 2 + 1) - 2  # 2 + 4 + ... per half
        assert self.check([2**i for i in range(n)]) == (layers, 2**n)

    def test_ones(self):
        # a half of k ones has the k + 1 values -k, -k+2, ..., k, all of k's parity: the
        # bound meets them
        assert self.check([1] * 40) == (2 * sum(range(2, 22)), 21 * 21)


class TestMultinomialPowerSum:
    def test_examples(self):
        assert multinomial_power_sum([1, 1], 2) == 8  # 4 * (1 + 1)
        assert multinomial_power_sum([1, 2], 2) == 20  # 4 * (1 + 4)

    def test_odd_power_is_zero(self):
        assert multinomial_power_sum([3, 5, 7], 1) == 0

    def test_zero_coefficients(self):
        # 0**0 = 1 inside the expansion: only the all-zero composition counts
        assert multinomial_power_sum([0, 0], 0) == 4
        assert multinomial_power_sum([0, 5], 2) == 4 * 25

    @settings(max_examples=150)
    @given(coeff_vectors, st.integers(0, 8))
    def test_equals_direct_enumeration(self, coeffs, power):
        assert multinomial_power_sum(coeffs, power) == hypercube_power_sum(
            coeffs, power
        )

    @settings(max_examples=60)
    @given(
        st.lists(st.integers(-3, 3), min_size=1, max_size=6),
        st.integers(0, 6),
        st.sampled_from([-2, 2, 3]),
    )
    def test_scaling_by_constant(self, coeffs, power, c):
        scaled = [c * a for a in coeffs]
        factor = c ** power
        assert multinomial_power_sum(scaled, power) == factor * multinomial_power_sum(
            coeffs, power
        )
        assert hypercube_power_sum(scaled, power) == factor * hypercube_power_sum(
            coeffs, power
        )

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=12), st.integers(0, 3))
    def test_odd_power_vanishing_both_sides(self, coeffs, half_power):
        power = 2 * half_power + 1
        assert multinomial_power_sum(coeffs, power) == 0
        assert hypercube_power_sum(coeffs, power) == 0

    def test_all_ones_past_hypercube_limit(self):
        for n in range(25, 41):
            for power in range(n + 1):
                assert multinomial_power_sum([1] * n, power) == binomial_power_sum(
                    n, power
                )


class TestEvenMultinomialSum:
    def test_examples(self):
        # power 2: (2,0) and (0,2) give 1 + 1; power 4: 1 + 4!/(2!2!) + 1
        assert even_multinomial_sum([1, 1], 2) == 2
        assert even_multinomial_sum([1, 1], 4) == 8
        # 3**2 and 5**2 from the two single-part compositions
        assert even_multinomial_sum([3, 5], 2) == 34

    def test_every_binomial_of_the_table(self):
        # the sum over even k of C(p, k) * w**k: with w = 2**p above every C(p, k), each
        # binomial of the table's last row is a digit of its own in base w, so a wrong entry
        # changes the value, and the powers p cover every row
        for p in range(0, 301, 2):
            w = 2**p
            assert even_multinomial_sum([1, w], p) == ((1 + w) ** p + (1 - w) ** p) // 2

    def test_empty_product(self):
        assert even_multinomial_sum([], 0) == 1
        assert even_multinomial_sum([], 2) == 0

    def test_equals_per_weight_reference(self):
        # seeded weight lists with repeats, zeros and negatives, the all-zero lists and []
        rng = random.Random(22)
        lists = [[], *([0] * n for n in range(1, 13))]
        for n in range(1, 13):
            lists += [[rng.choice((-3, -2, -1, 0, 1, 2, 3)) for _ in range(n)] for _ in range(3)]
            lists += [[1] * n, [-2] * n, [rng.randint(-9, 9)] * n]
        for weights in lists:
            for power in range(0, 25):
                assert even_multinomial_sum(weights, power) == per_weight_even_multinomial_sum(
                    weights, power
                ), (weights, power)

    def test_one_or_two_weights_equal_the_reference(self):
        # one nonzero weight is its own series, two meet in the last product alone: neither
        # reads more of the binomial table than that product's row
        weights = [[a] for a in range(-4, 5)] + [[a, b] for a in range(-4, 5) for b in range(-4, 5)]
        for pair in weights + [[0, 3, 0], [2, 0, -3, 0]]:
            for power in range(0, 25):
                assert even_multinomial_sum(pair, power) == per_weight_even_multinomial_sum(
                    pair, power
                ), (pair, power)

    @pytest.mark.parametrize("weights, expected", [([1], 1), ([1, 2], (3**2338 + 1) // 2)])
    def test_one_or_two_weights_build_at_most_one_row(self, weights, expected):
        # the whole table of C(2j, 2i) up to 2338 takes about 130 MB; one factor reads none
        # of it, and two the one row of their last product, about 0.2 MB
        tracemalloc.start()
        try:
            value = even_multinomial_sum(weights, 2338)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == expected  # cosh(x) * cosh(2x) = (cosh(3x) + cosh(x)) / 2
        assert peak < 1_000_000

    def test_every_multiplicity_alone_and_with_other_squares(self):
        # multiplicities 1 and 2 are their powers taken once and twice, 3 and up one pass of
        # the power recurrence each: alone, the pass's column is read at its last entry; after
        # a 2, it goes into the last product, which makes one entry; between a 2 and a 3, into
        # a full product.  Every even power up to 40 is checked against one reference series.
        for m in range(1, 65):
            for weights in ([1] * m, [1] * m + [2], [2] + [1] * m + [3]):
                for half, expected in enumerate(per_weight_series(weights, 20)):
                    assert even_multinomial_sum(weights, 2 * half) == expected, (weights, half)

    def test_thirty_equal_weights_take_one_pass(self):
        assert product_count([1] * 30) == 1
        assert product_count([3, -3, 0, 0]) == 1  # one square taken twice: the last product
        assert product_count([1, 2, 2, -2]) == 2  # a pass, and one product with the 1s
        assert product_count([1, 2, 3]) == 2
        assert product_count([0, 0]) == product_count([5]) == product_count([]) == 0

    @given(st.lists(st.integers(-4, 4), max_size=40))
    def test_product_count_counts_the_products_made(self, weights):
        # the convolutions even_multinomial_sum makes, counted as calls of its local product,
        # the last one-entry product among them, and of its local pass of the power recurrence
        made = 0

        def profile(frame, event, arg):
            nonlocal made
            made += event == "call" and frame.f_code.co_name in ("product", "raised")

        sys.setprofile(profile)
        try:
            even_multinomial_sum(weights, 2)
        finally:
            sys.setprofile(None)
        assert product_count(weights) == made

    def test_an_inexact_division_of_the_pass_raises(self, monkeypatch):
        # Miller's recurrence holds at any exponent, but cosh(x)**3.5 has 7/2 at x**2: divided
        # by 1, the pass's first entry leaves 1/2, which it must not floor
        monkeypatch.setattr(signsum, "_squares", lambda weights: {1: Fraction(7, 2)})
        with pytest.raises(InexactDivisionError):
            even_multinomial_sum([1], 2)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            even_multinomial_sum([1], -2)
        with pytest.raises(ValueError):
            even_multinomial_sum([], -1)


class TestBinomialPowerSum:
    def test_matches_all_ones_hypercube(self):
        assert binomial_power_sum(4, 2) == hypercube_power_sum([1] * 4, 2) == 64

    def test_antisymmetry_at_odd_power(self):
        assert binomial_power_sum(3, 1) == 0

    def test_frozen_value_from_direct_walk(self):
        assert binomial_power_sum(6, 4) == naive_power_sum([1] * 6, 4) == 6144

    def test_collapse_consistency_sweep(self):
        for n in range(1, 15):
            ones = [1] * n
            for power in range(9):
                assert binomial_power_sum(n, power) == hypercube_power_sum(
                    ones, power
                )

    def test_matches_definition_at_small_sizes(self):
        for n in range(1, 30):
            for power in range(12):
                assert binomial_power_sum(n, power) == definitional_binomial_sum(n, power)

    # 1024 and 2048 push the weight of the base n down the longest chains of shifts, 10 and
    # 11 pushes by 2; 2187 = 3**7 and 1458 = 2 * 3**6 down the longest by 3 of an odd and an
    # even n; 1875 = 3 * 5**4 by 3 and then four times by 5; the prime 1999 has one push
    @pytest.mark.parametrize("n", [1000, 1024, 1458, 1875, 1999, 2001, 2048, 2187, 3000])
    @pytest.mark.parametrize("offset", [2, 1])
    def test_matches_definition_at_odd_count_powers(self, n, offset):
        power = n - offset
        assert binomial_power_sum(n, power) == definitional_binomial_sum(n, power)

    def test_matches_definition_at_every_size(self):
        # an even n's bases are even and shift their weights onto the odd numbers, an odd
        # n's bases are odd; from n = 9 on, odd composites push by a kept power of a prime
        for n in range(1, 257):
            for power in sorted({n - 2, n - 1, n, *range(2, 13)} - {-1}):
                assert binomial_power_sum(n, power) == definitional_binomial_sum(n, power)

    def test_power_zero_counts_every_sign_vector(self):
        for n in (1, 2, 3, 10, 11, 1000):
            assert binomial_power_sum(n, 0) == 2 ** n

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            binomial_power_sum(0, 2)
        with pytest.raises(ValueError):
            binomial_power_sum(3, -1)

    def test_raising_through_a_shared_source(self):
        # each size at powers from the source's base up, odd and even n
        for n in range(1, 62):
            for base in (0, n // 2, n - 1):
                source = shared_powers(base)
                for power in range(base, base + 5):
                    assert binomial_power_sum_by(n, power, source) == definitional_binomial_sum(
                        n, power
                    ), (n, base, power)

    def test_two_sums_share_one_source(self):
        # K_{m,n}'s sums c(m, n - 1) and c(n, m - 1), in either order, from one source at the
        # lower power
        for m, n in ((9, 11), (11, 9), (201, 221), (1993, 2009)):
            source = shared_powers(min(m, n) - 1)
            for side, power in ((m, n - 1), (n, m - 1)):
                assert binomial_power_sum_by(side, power, source) == binomial_power_sum(side, power)


class TestSharedPowers:
    def test_every_power_from_the_base(self):
        for base in (0, 1, 2, 100):
            source = shared_powers(base)
            for q in (3, 1009):
                for power in range(base, base + 41):
                    assert source(q, power) == q**power, (base, q, power)

    def test_the_base_power_is_kept(self):
        source = shared_powers(100)
        assert source(1009, 116) == 1009**116  # keeps 1009**100 on the way
        kept = source(1009, 100)
        assert kept == 1009**100
        assert source(1009, 100) is kept
        assert shared_powers(100)(1009, 100) is not kept  # a new source keeps its own

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            shared_powers(-1)
        with pytest.raises(ValueError):
            shared_powers(10)(3, 9)


def bracket(k, p):
    """Reference: c(k, p) = binomial_power_sum(k, p) / 2**k; cosh(x)**0 = 1 has c(0, p) = [p == 0]."""
    if k == 0:
        return int(p == 0)
    return binomial_power_sum(k, p) // 2**k


class TestCoshPowerColumns:
    @pytest.mark.parametrize("first", [0, 1])
    def test_every_column_up_to_sixty(self, first):
        columns = cosh_power_columns(first, 60)
        for k in range(first, 61, 2):
            assert next(columns) == [bracket(k, p) for p in range(0, 61, 2)], k

    @pytest.mark.parametrize("first", [0, 1])
    def test_triangle_ends_at_the_complete_graph_count(self, first):
        columns = cosh_power_columns(first)
        for k in range(first, 61, 2):
            assert next(columns) == [bracket(k, p) for p in range(0, k - 1, 2)], k

    @pytest.mark.parametrize("power", [0, 1, 2, 7])
    def test_short_columns(self, power):
        columns = cosh_power_columns(1, power)
        for k in range(1, 21, 2):
            assert next(columns) == [bracket(k, p) for p in range(0, power + 1, 2)], k

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="first must be 0 or 1"):
            next(cosh_power_columns(2))
        with pytest.raises(ValueError, match="power must be >= 0"):
            next(cosh_power_columns(1, -2))
