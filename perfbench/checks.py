"""Exactness checks that do not trust the code under test.

Huge counts are checked through residues: the printed decimal text is
reduced modulo two Mersenne primes, and the paper's closed forms are
evaluated modulo the same primes here, with this file's own arithmetic.  A
wrong digit anywhere changes the residue, because 10**k * d is never
divisible by either prime.
"""

from __future__ import annotations

import re
from itertools import product

PRIMES = (2**61 - 1, 2**89 - 1)
_MODULUS = PRIMES[0] * PRIMES[1]  # one pass mod the product gives both residues
_CHUNK = 1000
_STEP = pow(10, _CHUNK, _MODULUS)
_DECIMAL = re.compile(r"0|[1-9][0-9]*")


def residues(value: int) -> tuple[int, ...]:
    return tuple(value % p for p in PRIMES)


def text_residues(text: str) -> tuple[int, ...] | None:
    """Residues of a decimal numeral, or None if `text` is not one."""
    if not _DECIMAL.fullmatch(text):
        return None
    head = len(text) % _CHUNK or _CHUNK
    value = int(text[:head])
    for i in range(head, len(text), _CHUNK):
        value = (value * _STEP + int(text[i:i + _CHUNK])) % _MODULUS
    return residues(value)


def _inverse(value: int) -> int:
    return pow(value, -1, _MODULUS)


def _binomial_power_sum(n: int, power: int) -> int:
    """sum_k C(n,k) (2k-n)**power, modulo the prime product."""
    total, binomial = 0, 1
    for k in range(n + 1):
        total += binomial * pow(2 * k - n, power, _MODULUS)
        binomial = binomial * (n - k) * _inverse(k + 1) % _MODULUS
    return total % _MODULUS


def complete_mod(n: int) -> tuple[int, ...]:
    """Residues of n**(n-2), the spanning trees of K_n."""
    return residues(pow(n, max(n - 2, 0), _MODULUS))


def odd_complete_mod(n: int) -> tuple[int, ...]:
    """Residues of the odd spanning-tree count of K_n (paper, Theorem 1)."""
    if n == 1:
        return residues(0)
    value = _binomial_power_sum(n, n - 2) * _inverse(pow(2, n, _MODULUS))
    return residues(value % _MODULUS)


def odd_bipartite_mod(m: int, n: int) -> tuple[int, ...]:
    """Residues of the odd spanning-tree count of K_{m,n} (paper, Theorem 2)."""
    value = _binomial_power_sum(m, n - 1) * _binomial_power_sum(n, m - 1)
    value = value * _inverse(pow(2, m + n, _MODULUS))
    return residues(value % _MODULUS)


def count_output_ok(stdout: str, expected: tuple[int, ...]) -> bool:
    """One printed count whose residues equal `expected`."""
    lines = stdout.split("\n")
    return len(lines) == 2 and lines[1] == "" and text_residues(lines[0]) == expected


def table_output_ok(stdout: str, expected: dict[int, tuple[int, ...]]) -> bool:
    """A csv table ``n,count`` with one row per key of `expected`, in order."""
    lines = stdout.split("\n")
    if lines[0] != "n,count" or lines[-1] != "" or len(lines) != len(expected) + 2:
        return False
    for line, (n, want) in zip(lines[1:-1], expected.items()):
        label, _, count = line.partition(",")
        if label != str(n) or text_residues(count) != want:
            return False
    return True


def hypercube_sum(coeffs, power: int) -> int:
    """sum over y in {-1,+1}^n of (a.y)**power, by plain enumeration."""
    return sum(
        sum(a * s for a, s in zip(coeffs, signs)) ** power
        for signs in product((-1, 1), repeat=len(coeffs))
    )
