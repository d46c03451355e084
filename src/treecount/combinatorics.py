"""Exact integer primitives: multinomials, checked division, and composition streams.

Everything here is a pure function returning Python ints, so results are
exact at any magnitude and serialize losslessly via str()/int().
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence


class InexactDivisionError(ArithmeticError):
    """A division that must be exact left a remainder.

    This always signals a bug in the caller's formula, never bad input:
    the identities we evaluate guarantee divisibility.
    """


class SizeLimitError(ValueError):
    """An enumeration was requested beyond its supported size bound."""


def multinomial(total: int, parts: Sequence[int]) -> int:
    """Return total! / (parts[0]! * parts[1]! * ... ).

    The parts must be nonnegative and sum to `total`; anything else raises
    ValueError.  The degree-constrained counters, which check their degrees
    themselves, take the same quotient directly; the tests hold them to it.
    """
    if parts and min(parts) < 0:
        raise ValueError("multinomial() parts must be nonnegative")
    if sum(parts) != total:
        raise ValueError(
            f"multinomial() parts sum to {sum(parts)}, expected {total}"
        )
    return math.factorial(total) // math.prod(map(math.factorial, parts))


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
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -2):
        for rest in even_compositions(total - head, parts - 1):
            yield (head,) + rest


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
