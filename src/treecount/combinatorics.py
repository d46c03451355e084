"""Exact integer primitives: factorials, binomials, and composition streams.

Everything here is a pure function returning Python ints, so results are
exact at any magnitude and serialize losslessly via str()/int().
"""

from __future__ import annotations

import math
import threading
from typing import Iterator, Sequence


class InexactDivisionError(ArithmeticError):
    """A division that must be exact left a remainder.

    This always signals a bug in the caller's formula, never bad input:
    the identities we evaluate guarantee divisibility.
    """


class SizeLimitError(ValueError):
    """An enumeration was requested beyond its supported size bound."""


_fact_table = [1]
_fact_lock = threading.Lock()


def factorial(k: int) -> int:
    """Return k! exactly, memoized up to the largest k seen so far.

    The shared table only grows, and only under a lock; lock-free reads
    are safe because existing entries are never mutated.
    """
    if k < 0:
        raise ValueError(f"factorial() requires k >= 0, got {k}")
    if k >= len(_fact_table):
        with _fact_lock:
            while len(_fact_table) <= k:
                _fact_table.append(_fact_table[-1] * len(_fact_table))
    return _fact_table[k]


def binomial(n: int, k: int) -> int:
    """Return C(n, k), with the convention C(n, k) = 0 for k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binomial() requires n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(total: int, parts: Sequence[int]) -> int:
    """Return total! / (parts[0]! * parts[1]! * ... ).

    The parts must be nonnegative and sum to `total`; anything else raises
    ValueError.  Hot path for the composition-sum counters, hence the memo
    table lookups instead of repeated math.factorial calls.
    """
    if parts and min(parts) < 0:
        raise ValueError("multinomial() parts must be nonnegative")
    if sum(parts) != total:
        raise ValueError(
            f"multinomial() parts sum to {sum(parts)}, expected {total}"
        )
    numerator = factorial(total)  # also grows the table past every part
    return numerator // math.prod(map(_fact_table.__getitem__, parts))


def exact_div(value: int, divisor: int) -> int:
    """Divide exactly, raising InexactDivisionError on any remainder."""
    quotient, remainder = divmod(value, divisor)
    if remainder:
        raise InexactDivisionError(f"{value} is not divisible by {divisor}")
    return quotient


def even_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Yield all ordered tuples of `parts` even nonnegative ints summing to total.

    The stream is lazy and deterministic: the leading entry starts as large
    as possible and decreases, i.e. tuples appear in decreasing
    lexicographic order ((4,0), (2,2), (0,4)).  An odd or negative total
    yields nothing.
    """
    if parts < 1:
        raise ValueError(f"even_compositions() requires parts >= 1, got {parts}")
    if total < 0 or total % 2:
        return
    current = [0] * parts
    current[0] = total
    last = parts - 1
    while True:
        yield tuple(current)
        j = last - 1
        while j >= 0 and current[j] == 0:
            j -= 1
        if j < 0:
            return
        # Move 2 from the rightmost mobile entry; everything to its right
        # restarts with the freed mass (tail is all zero except the end).
        tail = current[last]
        current[j] -= 2
        current[j + 1] = tail + 2
        for i in range(j + 2, parts):
            current[i] = 0


def positive_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Yield all ordered tuples of `parts` positive ints summing to total.

    Tuples appear in increasing lexicographic order ((1,2), (2,1)); the
    stream is empty when total < parts.
    """
    if parts < 1:
        raise ValueError(
            f"positive_compositions() requires parts >= 1, got {parts}"
        )
    if total < parts:
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for rest in positive_compositions(total - head, parts - 1):
            yield (head,) + rest
