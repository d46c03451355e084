"""Closed-form spanning-tree counts for complete and complete bipartite graphs.

Covers the total count, the count with a prescribed degree at every vertex,
and the count of odd spanning trees (spanning trees in which every vertex
has odd degree).  The odd counters come in two independent forms: a
binomial sum derived through the sign-hypercube identity, and the sum of
multinomials over even compositions it collapses from.  The second is
evaluated as an exponential-generating-function coefficient
(signsum.even_multinomial_sum), not by listing the compositions, and it
never goes through the binomial sum.  Equality of the two forms is a
theorem, and the test suite treats it as one.

All counts are exact ints.  Degree sequences are plain sequences of ints,
validated at the operation: entries must be positive, and a sequence whose
sum cannot belong to any tree yields 0 rather than an error, so callers can
sweep composition spaces without tripping on infeasible profiles.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .combinatorics import exact_div, multinomial
from .signsum import binomial_power_sum, even_multinomial_sum

DegreeSequence = Sequence[int]


def _check_size(value: int, name: str) -> None:
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _check_degrees(degrees: DegreeSequence, name: str) -> None:
    if len(degrees) < 1:
        raise ValueError(f"{name} must be nonempty")
    if min(degrees) < 1:
        raise ValueError(f"{name} entries must be positive, got {list(degrees)}")


def complete_powers(n: int) -> list[tuple[int, int]]:
    """K_n's (side, power) pairs: its total is n**(n-2), its odd count a bracket of them."""
    _check_size(n, "n")
    return [(n, n - 2)]


def bipartite_powers(m: int, n: int) -> list[tuple[int, int]]:
    """K_{m,n}'s (side, power) pairs: its total is m**(n-1) * n**(m-1)."""
    _check_size(m, "m")
    _check_size(n, "n")
    return [(m, n - 1), (n, m - 1)]


def spanning_trees_complete(n: int) -> int:
    """Number of labeled spanning trees of the complete graph: n**(n-2).

    n = 1 and n = 2 are special-cased to 1 so the exponent never goes
    negative; both values agree with direct enumeration.
    """
    _check_size(n, "n")
    if n <= 2:
        return 1
    return n ** (n - 2)


def spanning_trees_bipartite(m: int, n: int) -> int:
    """Number of spanning trees of the complete bipartite graph: m**(n-1) * n**(m-1)."""
    _check_size(m, "m")
    _check_size(n, "n")
    return m ** (n - 1) * n ** (m - 1)


def trees_with_degrees_complete(degrees: DegreeSequence) -> int:
    """Spanning trees of the complete graph where vertex i has degree degrees[i].

    Equals (n-2)! / prod((d_i - 1)!) when the degrees sum to 2n-2, and 0
    otherwise (no tree realizes such a profile).  Entries must be positive;
    a single vertex has degree 0 in its one spanning tree, so n = 1 is out
    of this formula's domain and returns 0.
    """
    _check_degrees(degrees, "degrees")
    n = len(degrees)
    if n < 2 or sum(degrees) != 2 * n - 2:
        return 0
    return multinomial(n - 2, [d - 1 for d in degrees])


def trees_with_degrees_bipartite(side_a: DegreeSequence, side_b: DegreeSequence) -> int:
    """Spanning trees of K_{m,n} with prescribed degrees on both sides.

    Equals (m-1)!(n-1)! / (prod((a_i - 1)!) * prod((b_j - 1)!)) when each
    side's degrees sum to m + n - 1, and 0 otherwise.
    """
    _check_degrees(side_a, "side_a")
    _check_degrees(side_b, "side_b")
    m, n = len(side_a), len(side_b)
    total = m + n - 1
    if sum(side_a) != total or sum(side_b) != total:
        return 0
    # (m-1)!(n-1)!/(prod(a_i-1)! prod(b_j-1)!) factored into two multinomials:
    # the shifted a-degrees sum to n-1 and the shifted b-degrees to m-1.
    return multinomial(n - 1, [a - 1 for a in side_a]) * multinomial(
        m - 1, [b - 1 for b in side_b]
    )


def odd_spanning_trees_complete(n: int) -> int:
    """Number of spanning trees of the complete graph with every degree odd.

    Evaluates sum_k C(n,k)(2k-n)**(n-2) / 2**n in exact integers; the
    division is checked and cannot fail for a correct sum.  For odd n the
    power n-2 is odd, the k and n-k terms cancel, and 0 is returned
    without building the sum or 2**n; this covers n = 1, whose lone vertex
    has even degree 0.
    """
    return _odd_count(complete_powers(n), _bracket)


def odd_spanning_trees_complete_by_sum(n: int) -> int:
    """Odd spanning tree count of the complete graph, composition-sum form.

    Sums (n-2)!/(k1!...kn!) over all even compositions of n-2 into n
    parts -- each composition is the profile of degree excesses d_i - 1.
    That is (n-2)! * [x**(n-2)] cosh(x)**n, the Prüfer-code exponential
    generating function, evaluated with n unit weights by
    even_multinomial_sum, which raises cosh's series to the n-th power in
    one pass of Miller's power recurrence, in O(n**2) exact integer steps.
    Independent of the binomial form above; useful as a cross-check and
    benchmark subject.
    """
    if n < 2:
        raise ValueError(f"composition-sum form requires n >= 2, got {n}")
    return even_multinomial_sum([1] * n, n - 2)


def odd_spanning_trees_bipartite(m: int, n: int) -> int:
    """Number of spanning trees of K_{m,n} with every degree odd.

    Evaluates the product of the two one-sided binomial sums divided by
    2**(m+n), exactly, each sum divided by 2**side first.  Whenever m or n
    is even the count is 0, forced by the handshaking parity of the side
    degree sums: the other side's power is odd, its sum is 0, and the
    product is returned as 0 without summing either bracket.
    """
    return _odd_count(bipartite_powers(m, n), _bracket)


def _odd_count(powers: list[tuple[int, int]], bracket: Callable[[int, int], int]) -> int:
    """prod bracket(k, p) over `powers`, a form of k signs to the p averaged: 0 if a p is odd.

    No bracket is made when a power is odd.  A pair that repeats, as
    K_{m,m}'s two do, is summed once and raised to its multiplicity.
    """
    if any(p % 2 for _, p in powers):
        return 0
    return math.prod(bracket(k, p) ** powers.count((k, p)) for k, p in dict.fromkeys(powers))


def _bracket(side: int, power: int) -> int:
    """One side's binomial sum over 2**side, checked exact.

    The sum over a side's sign vectors is 2**side times a sum of
    multinomials over even compositions (see multinomial_power_sum), so
    the division leaves an integer.  At power 0 the sum is 2**side itself,
    and the quotient 1 is returned without building it: K_{1,n} costs
    nothing that grows with n.
    """
    if power == 0:
        return 1
    return exact_div(binomial_power_sum(side, power), 1 << side)


def odd_spanning_trees_bipartite_by_sum(m: int, n: int) -> int:
    """Odd spanning tree count of K_{m,n}, composition-sum form.

    The double sum over even compositions of n-1 (side a excesses) and of
    m-1 (side b excesses) factorizes exactly into two one-sided sums, each
    an even_multinomial_sum with unit weights.  They are taken as the
    binomial form takes its brackets (_odd_count): an odd n-1 or m-1 leaves
    its index set empty, so the count is 0 and neither sum is made, and
    K_{m,m}'s two sums are one, made once and squared.
    """
    return _odd_count(bipartite_powers(m, n), lambda k, p: even_multinomial_sum([1] * k, p))
