"""Exact power sums of integer linear forms over the sign hypercube.

Three evaluation strategies for the same family of quantities:

* hypercube_power_sum   -- a count of all 2**n sign vectors by the value
                           of their linear form: each half of the
                           coefficients tallied by layers with equal
                           values merged, then every left value paired
                           with every right one, and the pairs tallied by
                           |form| while that fits the halves' sizes or
                           bounds, each raised once; at an odd power a
                           negative form's count cancels its mirror's,
* multinomial_power_sum -- the expansion into even-exponent multinomial
                           terms (odd exponents cancel pairwise), summed
                           by even_multinomial_sum,
* binomial_power_sum    -- the all-ones special case, with sign vectors
                           grouped by their number of +1 entries; the
                           k and n-k groups mirror each other, so it sums
                           half the range, and each base's weight is
                           pushed down its smallest prime factor, so that
                           only primes are raised to the power and the
                           pushes by 2 are shifts.

All three agree wherever their domains overlap; the test suite pins that
down exhaustively at small sizes.  Coefficients are restricted to integers
so every identity check is bit-exact.  None of the three bounds its own
size: the CLI prices each query before running it, hypercube_power_sum's
through pairing_bounds and multinomial_power_sum's through product_count.

cosh_power_columns gives the all-ones sums for many sizes at once: the
brackets c(k, p) = binomial_power_sum(k, p) / 2**k = p! * [x**p] cosh(x)**k,
column k from column k - 2 by the second derivative of cosh**k, each entry
two products of a small int and a big one.  It must start at k = 0 or 1, so
it pays only for a table of counts: the CLI chooses it by price.

even_multinomial_sum also gives formulas the composition-sum form of the
odd spanning-tree counts.  It sums over the even compositions without
listing them, one cosh series per distinct |weight| raised to its
multiplicity in one pass of Miller's power recurrence, so its cost grows
with power**2 per distinct |weight|, not with the number of compositions.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from .combinatorics import InexactDivisionError

CoefficientVector = Sequence[int]


def _form_tally(coeffs: CoefficientVector) -> dict[int, int]:
    """Map each value of a1*y1 + ... + ak*yk to the number of sign vectors y giving it.

    Built by layers over the coefficients: each coefficient a moves every
    value v to v + a and to v - a, and equal values merge.  Every value of
    k coefficients with s = sum |ai| lies in -s..s and has the parity of s,
    so they give at most min(2**k, s + 1) values.
    """
    layer = {0: 1}
    for a in coeffs:
        extended: dict[int, int] = {}
        for value, count in layer.items():
            extended[value + a] = extended.get(value + a, 0) + count
            extended[value - a] = extended.get(value - a, 0) + count
        layer = extended
    return layer


def hypercube_power_sum(coeffs: CoefficientVector, power: int) -> int:
    """Sum (a1*y1 + ... + an*yn)**power over all sign vectors y in {-1,+1}**n.

    Splits the coefficients into two halves and tallies each half's sign
    vectors by the value of its partial form (_form_tally).  A left value
    u with count c and a right value v with count d stand for c*d whole
    sign vectors of form u + v: at most min(2**n, (sL + 1) * (sR + 1))
    pairs, sL and sR the sums of |ai| over the halves.  That is never more
    than the 2**n vectors, and the tallies hold at most 2**(n//2) +
    2**(n - n//2) values even when every vector has a form of its own.

    The pairs are tallied by |u + v|, each |form| raised once: at an even
    power (-x)**power = x**power, and at an odd one a negative form
    subtracts its count, so mirrored sign vectors cancel in the tally and
    its 0 is computed, not assumed, with no cancelled |form| raised.  Every
    form has the parity of s = sL + sR, so there are at most
    min(pairs, s//2 + 1) |forms|.  The tally is built while that is no
    larger than the two half tallies or their bounds (pairing_bounds), at
    most 2**(n//2) + 2**(n - n//2) values; otherwise, as for distinct powers
    of two, whose 2**n forms all differ, every pair's term is summed.  No
    binomial or multinomial is used, so this stays an independent check of
    the other two.  It has no size bound: pairing_bounds bounds its work.
    """
    n = len(coeffs)
    if n < 1:
        raise ValueError("hypercube_power_sum() needs at least one coefficient")
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power}")
    left, right = _form_tally(coeffs[: n // 2]).items(), _form_tally(coeffs[n // 2 :]).items()
    forms = min(len(left) * len(right), sum(map(abs, coeffs)) // 2 + 1)  # bounds the |forms|
    if forms > len(left) + len(right) and not pairing_bounds(coeffs)[2]:
        return sum(c * sum(d * (u + v) ** power for v, d in right) for u, c in left)
    tally: dict[int, int] = {}
    if power % 2:  # (-x)**power = -x**power: a negative form subtracts its count
        for u, c in left:
            for v, d in right:
                form = u + v
                tally[abs(form)] = tally.get(abs(form), 0) + (c * d if form > 0 else -c * d)
        return sum(count * form**power for form, count in tally.items() if count)
    for u, c in left:
        for v, d in right:
            form = abs(u + v)
            tally[form] = tally.get(form, 0) + c * d
    return sum(count * form**power for form, count in tally.items())


def pairing_bounds(coeffs: CoefficientVector) -> tuple[int, int, bool]:
    """Bounds on the layers and pairs that hypercube_power_sum makes, and whether it folds them.

    Its two halves, split as it splits them, are tallied by layers
    (_form_tally): the layer after k coefficients of a half, with s their
    sum of |ai|, holds at most min(2**k, s + 1) values, as each has the
    parity of s.  The first bound sums that over both halves' layers, the
    second multiplies the two halves' last ones, as every left value is
    paired with every right one.  Those allow at most min(pairs, s//2 + 1)
    |forms|, s now over all |ai|, and the sum folds its pairs by |form| when
    that is no larger than the two last layers together.  2**k is only built
    while it is the smaller, so a list of thousands of coefficients is
    bounded in as many small steps.
    """
    n = len(coeffs)
    layers, pairs, last = 0, 1, 0
    for half in (coeffs[: n // 2], coeffs[n // 2 :]):
        values, s = 1, 0
        for k, a in enumerate(half, 1):
            s += abs(a)
            values = 1 << k if k < (s + 1).bit_length() else s + 1
            layers += values
        pairs *= values
        last += values
    return layers, pairs, min(pairs, sum(map(abs, coeffs)) // 2 + 1) <= last


def even_multinomial_sum(weights: CoefficientVector, power: int) -> int:
    """Sum power!/(k1!...kn!) * w1**k1 * ... * wn**kn over even compositions.

    The compositions (k1, ..., kn) of `power` have every ki even, so an
    odd `power` gives 0; with no weights, only power 0 has a composition
    (the empty one), worth 1.  The sum is power! * [x**power] of
    prod(cosh(wi*x)), each cosh(w*x) the exponential series whose
    coefficients w**k/k! sit at even k only.  In exponential form the
    product of two such series a and b is the convolution
    c[2j] = sum over i <= j of C(2j, 2i) * a[2i] * b[2j-2i], and only the
    even-indexed entries are ever nonzero, so a series is kept as the list
    of its entries at 0, 2, ..., power.  Row j of the binomial table,
    the C(2j, 2i), is built from its own entries by
    C(2j, 2i+2) = C(2j, 2i) * (2j-2i) * (2j-2i-1) / ((2i+1) * (2i+2)), an
    exact division; the convolution itself is exact integer products.

    cosh is even, so the weights are tallied by their squares s, and a
    square of 0, cosh(0) = 1, is skipped.  Each other square is one factor
    [s**i], or two at multiplicity 2; at m >= 3 it is cosh(x)**m scaled by
    s**i, made in one pass by J. C. P. Miller's power recurrence (Knuth,
    TAOCP vol. 2, 4.7): c[0] = 1, k * c[k] = sum over j = 1..k of
    ((m+1)*j - k) * C(2k, 2j) * c[k-j], a division that raises
    InexactDivisionError on a remainder.  The last product of the factors
    makes only the entry at power/2.  A pass or a product costs about
    power**2/8 terms, whatever m is; product_count counts them.
    """
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power}")
    if power % 2:
        return 0
    half = power // 2
    choose = []  # choose[j][i] is C(2j, 2i)
    for top in range(0, power + 1, 2):
        row = [c := 1]
        for k in range(1, top, 2):  # C(top, k + 1) from C(top, k - 1)
            c = c * (top - k + 1) * (top - k) // (k * (k + 1))
            row.append(c)
        choose.append(row)

    def product(a: list[int], b: list[int], rows: list[list[int]] = choose) -> list[int]:
        return [sum(c * x * y for c, x, y in zip(row, a, b[len(row) - 1 :: -1])) for row in rows]

    def raised(times: int) -> list[int]:  # cosh(x)**times, by Miller's recurrence in one pass
        column = [1]
        for k, row in enumerate(choose[1:], 1):
            scales = itertools.count(times + 1 - k, times + 1)  # (times + 1) * j - k, j >= 1
            total = sum(a * c * b for a, c, b in zip(scales, row[1:], column[::-1]))
            entry, rest = divmod(total, k)
            if rest:
                raise InexactDivisionError(f"entry {k} of cosh**{times} leaves {rest} mod {k}")
            column.append(entry)
        return column

    factors = []  # a series per nonzero square, its own powers taken once or twice, or raised
    for square, times in _squares(weights).items():
        if times < 3:
            factors += [[square**i for i in range(half + 1)]] * times
        elif square == 1:
            factors.append(raised(times))
        else:
            factors.append([c * square**i for i, c in enumerate(raised(times))])
    if not factors:
        return 0 if half else 1
    series = factors.pop()
    while len(factors) > 1:
        series = product(series, factors.pop())
    return product(series, factors[0], choose[half:])[0] if factors else series[half]


def _squares(weights: CoefficientVector) -> dict[int, int]:
    """Map each nonzero square w*w of the weights to its multiplicity."""
    multiplicity: dict[int, int] = {}
    for w in weights:
        if w:
            multiplicity[w * w] = multiplicity.get(w * w, 0) + 1
    return multiplicity


def product_count(weights: CoefficientVector) -> int:
    """The full series convolutions even_multinomial_sum(weights, power) makes at an even power.

    A nonzero square of multiplicity 1 or 2 is one or two factors, and one
    of m >= 3 one factor made by a pass of as many terms: 30 equal weights
    take one pass.  Each factor after the first takes one product.  The
    last makes only the entry at power/2, but is counted, and so priced, as
    a full convolution of about power**2/8 terms, as passes and products are.
    """
    squares = _squares(weights).values()
    factors = sum(m if m < 3 else 1 for m in squares)
    return sum(m > 2 for m in squares) + max(factors - 1, 0)


def multinomial_power_sum(coeffs: CoefficientVector, power: int) -> int:
    """Evaluate the hypercube power sum through its multinomial expansion.

    Equals 2**n times the sum, over all even compositions (k1, ..., kn) of
    `power`, of  power!/(k1!...kn!) * a1**k1 * ... * an**kn.  Terms with an
    odd exponent anywhere cancel between mirrored sign vectors, which is
    why only even compositions appear; an odd `power` therefore gives 0.
    The sum is even_multinomial_sum's convolution, whose cost grows with
    power**2 per distinct |ai|, whatever its multiplicity.
    """
    n = len(coeffs)
    if n < 1:
        raise ValueError("multinomial_power_sum() needs at least one coefficient")
    return (1 << n) * even_multinomial_sum(coeffs, power)


def binomial_power_sum(n: int, power: int) -> int:
    """Sum C(n,k) * (2k - n)**power for k = 0..n.

    This is hypercube_power_sum with all-ones coefficients: a sign vector
    with k entries equal to +1 has linear form 2k - n, and there are
    C(n,k) such vectors.  It sums about n/2 terms, where
    hypercube_power_sum pairs about (n/2 + 1)**2 tally values.

    The k and n-k terms have equal binomials and opposite forms, so an odd
    power gives 0 without summing, and an even power gives twice the sum
    over the bases n - 2k > 0 (the middle term of an even n is 0**power =
    0).  Power 0 is 2**n by the binomial theorem.  The binomials C(n,k) of
    those bases come from C(n,k) = C(n,k-1) * (n-k+1) / k, an exact
    division, each made when the walk below reaches its base, so that one
    binomial is held at a time.

    An even n's bases are the even numbers 2v, whose powers are 2**power *
    v**power, so its sum is 2**power times that over the values v = 1 ..
    n/2; an odd n's values are its bases, the odd numbers up to n.  The
    sum is then that of weight[v] * v**power over the values, each weight
    starting as its base's binomial.  A v with smallest prime factor q has
    v**power = q**power * (v/q)**power, so a walk from the largest value
    down to 2 pushes weight[v] * q**power onto weight[v/q], a value it
    reaches later, and the sum ends up as weight[1].  A push by 2, only
    ever an even n's, is a shift, so only odd primes are ever raised to the
    power: those up to n/2 for an even n and those up to n for an odd n.  A
    prime above the square root of the largest value is the smallest factor
    of no composite value, so it is raised once, for its own push; the
    powers of the smaller primes are kept for the composites whose pushes
    multiply by them, a product of a big weight and a short power.  Each
    weight is dropped once pushed.
    """
    if n < 1:
        raise ValueError(f"binomial_power_sum() requires n >= 1, got {n}")
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power}")
    if power % 2:
        return 0
    if power == 0:
        return 1 << n
    odd = n & 1
    top = n if odd else n >> 1  # the largest value
    # While loops, not ranges: at the small n that verify and the tests ask for, building a
    # range costs about as much as a short loop's whole body.
    # factor[v] is the smallest prime factor of an odd v if it is at most sqrt(top), else 0:
    # each odd q <= sqrt(top) marks its odd multiples from q on, the largest q first, so the
    # smallest prime dividing a multiple marks it last.
    factor = [0] * (top + 1)
    q = (math.isqrt(top) - 1) | 1
    while q > 2:
        factor[q :: 2 * q] = [q] * ((top - q) // (2 * q) + 1)
        q -= 2
    # weight[v >> odd] is the weight of the value v: an odd n's values are all odd
    weight = [0] * ((top >> odd) + 1)
    kept: dict[int, int] = {}  # q**power for the primes q <= sqrt(top)
    binomial, k, v = 1, 0, top
    while v > 1:
        # v's weight: the pushes onto it, all made, as every push lands below its source, and
        # its base's binomial C(n, k), made now
        w = weight.pop()
        w = w + binomial if w else binomial
        k += 1
        binomial = binomial * (n - k + 1) // k
        if not v & 1:
            weight[v >> 1] += w << power
        elif q := factor[v]:
            raised = kept.get(q)
            if raised is None:
                raised = kept[q] = q**power
            weight[v // q >> odd] += w * raised
        else:
            weight[1 >> odd] += w * v**power
        v -= 1 + odd
    # the value 1 is the last base; an even n's sum carries the 2**power taken out of its bases
    return (weight[1 >> odd] + binomial) << (1 if odd else power + 1)


def cosh_power_columns(first: int, power: int | None = None) -> Iterator[list[int]]:
    """Yield the columns k = first, first + 2, ... of c(k, p) = p! * [x**p] cosh(x)**k, p even.

    c(k, p) is binomial_power_sum(k, p) / 2**k, the bracket of the odd
    counts: K_n's count is c(n, n - 2) and K_{m,n}'s c(m, n - 1) * c(n, m - 1).
    The second derivative of cosh**k is k**2 * cosh**k - k(k-1) * cosh**(k-2),
    so c(k, p + 2) = k**2 * c(k, p) - k(k-1) * c(k - 2, p) with c(k, 0) = 1:
    column k is built from column k - 2, each entry by two products of a
    small int and a big one, which are linear in its bits.  first is 0 or 1,
    where cosh**0 = 1 and cosh**1 give c(0, p) = 0 and c(1, p) = 1 at every
    even p > 0.

    With a power, the grid, each column holds c(k, 0), c(k, 2), ... up to the
    even p <= power.  Without one, the triangle, column k stops at K_k's count
    c(k, k - 2): an entry at p reads column k - 2 only up to p - 2, so each
    column is one entry longer than the one before, the first empty.  Each
    odd family's record names the one its table reads (verify.Family.columns).
    """
    if first not in (0, 1):
        raise ValueError(f"first must be 0 or 1, got {first}")
    if power is not None and power < 0:
        raise ValueError(f"power must be >= 0, got {power}")
    column = [] if power is None else [1] + [first] * (power // 2)
    k = first
    while True:
        yield column
        k += 2
        square, falling = k * k, k * (k - 1)
        entry, extended = 1, [1]
        for below in column if power is None else column[:-1]:
            entry = square * entry - falling * below
            extended.append(entry)
        column = extended
