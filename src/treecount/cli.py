"""Command-line front end.

Subcommands: count, verify, table, signsum, oracle.  Exit status is 0 on
success, 1 when a verification or cross-check finds a mismatch, 2 for
invalid usage or parameters, 3 for an internal error (a bug, such as a
division that should have been exact, or a verify case that raised while no
case mismatched), and 141 (128 + SIGPIPE) when the reader closes stdout
early, as `| head` does.  Values go to stdout, one per line, as exact
decimal strings of any length; diagnostics go to stderr.

count, table and oracle take their families, sizes, closed forms and
oracles from verify.FAMILIES, which verify sweeps.  count degrees and the
oracle of a total read the degree options, the closed form and the
brute-force oracle that the total's record names as its profile.

count and oracle read each option their query needs and reject any other
given option as a usage error: no option is silently ignored.  oracle
matrix-tree takes graphs of at most MATRIX_TREE_LIMIT vertices.

count <family> and table print counts of at most MAX_DIGITS digits, and
sum the work of their rows, a count being a one-row table, against
MAX_WORK; _row prices a row.  signsum is held to MAX_DIGITS on
2**n * (sum |a_i|)**power, which bounds the sum, and to MAX_WORK on the
work of the modes it runs.  A value that is 0, an odd count with an odd
power or a sign sum at an odd power, is the one digit "0" under both
bounds.  _work is the one price of both: big-int terms at bits**1.585,
steps by small ints at STEP_WORK per bit, either at least TERM_FLOOR per
multiplication, and the rendering of the value.  Both bounds are checked
before any arithmetic; a query above either is a usage error.
count_text raises a large total straight in decimal arithmetic from its
powers, so no binary int is converted; odd counts, degree counts and signsum
values are still computed as ints and converted by decimal_string, in
subquadratic time.  table prints rows as computed: `| head` stops it at once.

A family whose record names its cosh-power columns, an odd one, reads its
table from signsum.cosh_power_columns when _recurrence_count prices that
below the kernel sums of its rows; table_lines walks the rows either way, and
takes each count from the record's row or from count_text.  A one-row table
at a count frontier, whose columns would still start at k = 0 or 1, takes the
kernel, as every count does.  A column is built when a row first reads it,
so `| head` stops an odd-bipartite table within its first row with an odd m.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import product
from typing import Callable, Iterator, Sequence

from . import oracles, signsum, verify
from .combinatorics import SizeLimitError

# Dense Bareiss elimination is cubic in the vertex count: K_100 takes about 0.25 s.
MATRIX_TREE_LIMIT = 100

# Counts print in full.  K_n at n = 189,483, a million digits raised in decimal
# arithmetic, takes 0.3 s in a fresh process, against 1.0 to 1.3 s converted from
# binary (2-core Xeon, Python 3.11.7); K_n at n = 10**9 would never finish.
MAX_DIGITS = 1_000_000

# The work of a query's counts, summed over its rows as _row prices them: a count is a
# one-row table.  The largest nonzero odd counts admitted, odd-complete n = 5,592 and
# odd-bipartite m = n = 4,347, take about 0.9 and 0.8 s in a fresh process, and the rest
# of odd-bipartite's frontier, odd m = 3..20,001, 0.4 to 1.6 s (2-core Xeon, Python
# 3.11.7).  A million-digit total costs 1.08e11, so totals meet the digit bound first.
# The largest tables admitted are odd-complete 2..971, odd-bipartite 1..250, bipartite
# 1..341 and complete 1..3,690.  The odd two, and odd-complete 2..600, which costs 4.8e10,
# take 0.17, 0.46 and 0.17 s from the cosh-power recurrence, which _recurrence_count prices
# below their kernel sums, and the other two 4.4 and 3.5 s, in a fresh process (2-core
# Xeon, Python 3.11.7).  The
# rendering weight of four kernel terms is a rough midpoint, not a fit: decimal_string
# measured at 3.5 to 13 terms of its count's bits for odd-complete n = 100..4,000 and at
# 0.8 to 8.4 for complete n = 100..20,000 (same machine).  A total of DECIMAL_SPLIT_BITS
# bits or more is raised in decimal arithmetic, with nothing to convert, so the weight
# overstates it; the weight, and with it every frontier above, is kept, as totals meet
# the digit bound first.  The largest sign sums admitted, 20 ones in direct mode at power
# 123,734, the 22 distinct powers of two 1..2**21 in direct mode at power 2, --coeffs 1
# --mode multinomial at power 2,338 and 30 ones in multinomial mode at power 1,132, take
# about 0.35, 0.8, 0.7 and 0.6 s in a fresh process (same machine).
MAX_WORK = 150_000_000_000

# The least work of a big-int term per multiplication that makes it: a term of a few bits
# costs the interpreter's step, not its bits**1.585.  Without it a direct-mode pair of 26
# distinct powers of two at power 0, a 27-bit term, would cost about 186 units, so their
# 2**26 pairs, which take 4.3 s, would be admitted at 1.25e10.  It is set between two
# measurements, not fitted: 2**22 such pairs at power 0, priced 4.2e10 with it, take
# 0.25 s in process, where odd-complete n = 5,592, 1.5e11 in large terms, takes 0.3 s,
# and the table odd-bipartite 1..250, 1.5e11 in mostly small ones, 3 s by the kernel (same
# machine).
# No count or table frontier moves with it.
TERM_FLOOR = 10_000

# The work per bit of a step that makes a big int by products or sums with small ints, as
# an entry of signsum.cosh_power_columns is made: linear in the bits, where a product of two
# big ints costs bits**1.585.  Measured, not set: the triangles of columns up to k = 1,200
# and 2,000 took 59 to 64 units per bit of their entries' bounds, in the time the kernel of
# odd-complete n = 3,000 and 5,592 took per unit of its price, 6 runs paired with it in one
# process (2-core Xeon, Python 3.11.7).  The kernel of an odd side, whose odd primes reach
# up to it and not to its half, takes about twice the time per unit, so against it the
# grid of odd-bipartite measured 24 to 34: a bipartite table takes the recurrence later
# than it could.
STEP_WORK = 60

# From this many bits on, decimal arithmetic pays for its import: decimal_string's divide
# and conquer beats str(int), which wins at 20,000 bits and loses from 40,000, and a total
# raised in decimal is cheaper still.
DECIMAL_SPLIT_BITS = 40_000


def _exact_context():
    """A local decimal context that holds every digit: a rounded digit raises, never prints."""
    import decimal  # here, not at the top: every CLI start would pay for it

    context = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
    context.traps[decimal.Inexact] = context.traps[decimal.Rounded] = True
    return decimal.localcontext(context)


def decimal_string(value: int) -> str:
    """str(value), in subquadratic time for huge values.

    str(int) takes time quadratic in the digit count (before CPython 3.12).
    From DECIMAL_SPLIT_BITS bits on, the binary form is split in two halves,
    recursively, and the halves are joined as hi * 2**half + lo in exact
    decimal arithmetic, whose multiplication is subquadratic.  This is the
    int_to_decimal_string algorithm of CPython 3.12's Lib/_pylong.py.  Odd
    counts, degree counts and sign sums are converted here; a family's total
    is raised in decimal arithmetic from the start (count_text).
    """
    if value.bit_length() < DECIMAL_SPLIT_BITS:
        return str(value)
    import decimal

    @functools.lru_cache(maxsize=None)
    def power(bits: int) -> decimal.Decimal:
        return decimal.Decimal(2) ** bits

    def convert(n: int, bits: int) -> decimal.Decimal:
        if bits < DECIMAL_SPLIT_BITS:
            return decimal.Decimal(n)
        half = bits >> 1
        hi = n >> half
        return convert(hi, bits - half) * power(half) + convert(n - (hi << half), half)

    with _exact_context():
        digits = str(convert(abs(value), value.bit_length()))
    return "-" + digits if value < 0 else digits


def count_text(record: verify.Family, sizes: Sequence[int]) -> str:
    """The decimal text of the family's count at `sizes`, as str(record.formula(*sizes)).

    A total of DECIMAL_SPLIT_BITS bits or more, sum p*log2(k) over its
    powers, is the product of its powers k**p raised in exact decimal
    arithmetic, whose multiplication is subquadratic and leaves nothing to
    convert.  An odd count, and a smaller total, which never imports
    decimal, are computed as ints and rendered by decimal_string.  The sizes
    are checked by record.powers, with the formula's own messages.
    """
    if not record.odd:
        powers = record.powers(*sizes)
        if sum(_times(p, math.log2(k)) for k, p in powers) >= DECIMAL_SPLIT_BITS:
            import decimal

            with _exact_context():
                return str(math.prod(decimal.Decimal(k) ** p for k, p in powers))
    return decimal_string(record.formula(*sizes))


def _times(size: int, factor: float) -> float:
    """size * factor for an int of any length: 0 if either is 0, not NaN; inf past the float range."""
    if not size or not factor:
        return 0.0
    try:
        return size * factor
    except OverflowError:  # the int does not fit a float, above about 1.8e308
        return math.inf


def _work(
    terms: Sequence[tuple[int, float, int]],
    bits: float,
    digits: float,
    steps: Sequence[tuple[int, float, int]] = (),
) -> float:
    """The work of computing a value from `terms` and `steps` and rendering its `bits` bits and `digits` digits.

    Each (count, bits, mults) of `terms` is count big-int terms of at most
    that many bits, each made by mults multiplications, and of `steps` count
    big ints of at most that many bits, each made by mults products or sums
    with small ints.  A term costs bits**1.585 (Karatsuba multiplication), a
    step STEP_WORK per bit, and each at least TERM_FLOOR per multiplication.
    The rendering costs four terms of the value's bits, and its digits.  A
    work past the float range is inf.
    """
    try:
        return (
            sum(_times(count, max(TERM_FLOOR * mults, b**1.585)) for count, b, mults in terms)
            + sum(_times(count, max(TERM_FLOOR * mults, STEP_WORK * b)) for count, b, mults in steps)
            + 4 * bits**1.585
            + digits
        )
    except OverflowError:  # a term past the float range, far above the digit bound
        return math.inf


def _row(record: verify.Family, sizes: Sequence[int]) -> tuple[float, float]:
    """The digits of the row's count at `sizes`, bounded by the family's total, and its work.

    The total is the product of the family's powers k**p.  An odd count with
    an odd power is 0, as formulas returns it without any sum: its row has
    the one digit of "0" and costs its rendering alone.  Any other row has
    its total's digits and is priced by _work: each sum of an odd count, or
    the one product of a total's powers, and the count's decimal rendering.
    A sum (k, p) adds (k + 1) // 2 terms of k + p*log2(k) bits, one per base,
    each one multiplication of a weight: an upper bound on the bits, as
    binomial_power_sum raises only the odd primes among its weights to the
    power and pushes the other weights by shifts and short powers, and a
    pair that repeats, as K_{m,m}'s does, is summed once.  A sum at p = 0 is
    left out, as formulas._bracket returns 1 without summing.  Sizes past the
    float range measure inf, unless a factor of 0 (a star K_{1,n}) cancels
    them.
    """
    powers = record.powers(*sizes)
    if record.odd and any(p % 2 for _, p in powers):
        return 1.0, _work([], 0.0, 1.0)
    digits = sum(_times(p, math.log10(k)) for k, p in powers)
    bits = digits * math.log2(10)
    terms = (
        [((k + 1) // 2, _times(k, 1.0) + _times(p, math.log2(k)), 1) for k, p in powers if p]
        if record.odd
        else [(1, bits, 1)]
    )
    return digits, _work(terms, bits, digits)


def _check_bounds(record: verify.Family, first: Sequence[int], last: Sequence[int]) -> float:
    """Reject a family's counts from sizes `first` to `last` above MAX_DIGITS digits or MAX_WORK.

    The counts are those of every size tuple between the two, one row each, so
    a single count is the one-row table first == last; _row prices each row
    from the family's record, and raises the formula's own ValueError for a
    size it rejects.  Odd and degree-constrained counts never exceed the
    family's total, which grows with every size, and a count 0 by parity,
    which the parity of each size decides, has the one digit of "0": so the
    most digits that _row gives the rows made of each range's last two
    sizes, from logarithms alone, bound every count.  The work sums from the
    first row and stops at the first row that crosses the bound, so a huge
    table is rejected after a few of its rows.  Returns the work of the rows.
    """
    tail = product(*(range(b, max(a, b - 1) - 1, -1) for a, b in zip(first, last)))
    digits = max(_row(record, sizes)[0] for sizes in tail)
    if digits > MAX_DIGITS:
        raise SizeLimitError(
            f"a count of about {digits:.3g} digits is above the bound of {MAX_DIGITS:,}"
        )
    work = 0.0
    for sizes in product(*(range(a, b + 1) for a, b in zip(first, last))):
        work += _row(record, sizes)[1]
        if work > MAX_WORK:
            row = ", ".join(f"{name}={size}" for name, size in zip(record.parameters, sizes))
            raise SizeLimitError(
                f"a query costing about {work:.3g} units of work by its row {row}"
                f" is above the bound of {MAX_WORK:,}"
            )
    return work


def _recurrence_count(
    record: verify.Family, start: int, stop: int, work: float
) -> Callable[[Sequence[int]], str] | None:
    """A table's count of a row from signsum.cosh_power_columns; None if that costs `work` or more.

    `work` is the price of the table's rows, their kernel sums and
    renderings, as _check_bounds sums it; a family without columns, a total,
    never takes the recurrence.  The table reads the columns k = first + 2,
    first + 4, ... <= stop that record.columns names, whatever its first row:
    k/2 - 1 steps each on the triangle, with no power, and power/2 on the
    grid.  A step makes an entry c(k, p) of at most p*log2(k) bits by two
    products, so a column's steps are priced at their mean bits, (steps + 1)
    * log2(k), inf past the float range.  The renderings, made on either path,
    are in `work` only: the choice errs toward the recurrence by at most their
    price.  The sum stops once it reaches `work`, so a table of zeros at huge
    sizes, priced a digit a row, is never priced past a few columns.

    The function returned takes a row's sizes, the rows in table order, and
    gives the text of the record's row(bracket, *sizes), which reads each
    c(k, p) through bracket, which builds a column when a row first reads it.
    On the triangle, with no power, each column replaces the one before it; on
    the grid each column from k = start on is kept from p = start - 1, the
    least power a row reads.
    """
    if record.columns is None:
        return None
    first, power, row = record.columns(stop)
    price = 0.0
    for k in range(first + 2, stop + 1, 2):
        steps = (k if power is None else power + 2) // 2 - 1
        price += _work((), 0, 0, [(steps, _times(steps + 1, math.log2(k)), 2)])
        if price >= work:
            break
    if not price < work:
        return None
    columns, kept, k = signsum.cosh_power_columns(first, power), {}, first - 2
    low = 0 if power is None else start // 2

    def bracket(side: int, p: int) -> int:
        nonlocal k
        while k < side:
            column, k = next(columns), k + 2
            if power is None:
                kept.clear()
            if k >= start:
                kept[k] = column[low:] if low else column
        return kept[side][p // 2 - low]

    read = functools.partial(row, bracket)  # row(bracket, *sizes) builds an argument list a row
    return lambda sizes: decimal_string(read(*sizes))


def _check_signsum_bounds(coeffs: Sequence[int], power: int, mode: str) -> None:
    """Reject a signsum query above MAX_DIGITS digits or MAX_WORK, before any arithmetic.

    Every sign vector's form is at most s = sum |a_i| in size, so the sum is at
    most 2**n * s**power, whose digits bound the output.  At an odd power the
    sum is 0, as mirrored sign vectors cancel: one digit and no bits, which
    both bounds read, so only the work of the modes can refuse it.  Each mode
    that runs is priced by _work, as a count is, with the rendering of its
    value.  A form to the power has at most power*log2(s) bits, one if
    s <= 1.  Direct mode is priced as it runs (signsum.pairing_bounds): per
    layer value of its two half tallies one count of n bits, made by
    additions and so priced as a step, linear in its bits.  An odd power
    that pairing_bounds folds adds one such step per pair of a left and a
    right value and raises no nonzero form, as the counts cancel: exact, as
    the expansion's empty table is.  Otherwise each pair is one power,
    times a count, of n more bits than its form: an upper bound at an even
    power, where pairs of equal |form| may share one.  The expansion returns
    0 at once for an odd power; for an even one it builds a binomial table
    of t = (power/2 + 1)(power/2 + 2)/2 entries of at most power bits, then
    makes signsum.product_count(coeffs) passes and convolutions of t terms,
    each two products of at most a form's bits, the last one-entry product
    priced as a full one.
    Counts past the float range price at inf, not an OverflowError; no terms, 0.
    """
    if power < 0:
        return  # the power sums reject it themselves
    n, total = len(coeffs), sum(abs(a) for a in coeffs)
    digits = 1.0 if power % 2 else n * math.log10(2) + _times(power, math.log10(max(total, 1)))
    if digits > MAX_DIGITS:
        raise SizeLimitError(
            f"a sum of about {digits:.3g} digits is above the bound of {MAX_DIGITS:,}"
        )
    bits = 0.0 if power % 2 else digits * math.log2(10)
    form_bits = 1 + _times(power, math.log2(max(total, 1)))
    work = 0.0
    if mode != "multinomial":
        layers, pairs, folds = signsum.pairing_bounds(coeffs)
        if power % 2 and folds:
            work += _work([], bits, digits, [(layers + pairs, n, 1)])
        else:
            terms = [(pairs, n + form_bits, power.bit_length() + 1)]
            work += _work(terms, bits, digits, [(layers, n, 1)])
    if mode != "direct":
        half = power // 2
        table = 0 if power % 2 else (half + 1) * (half + 2) // 2
        products = table * signsum.product_count(coeffs)
        work += _work([(table, 1 + _times(power, 1.0), 1), (products, form_bits, 2)], bits, digits)
    if work > MAX_WORK:
        raise SizeLimitError(
            f"a query costing about {work:.3g} units of work is above the bound of {MAX_WORK:,}"
        )


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _int_pair(text: str) -> tuple[int, int]:
    values = _int_list(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated integers, got {text!r}")
    return values[0], values[1]


def _edge_list(text: str) -> list[tuple[int, int]]:
    edges = []
    try:
        for chunk in text.split(","):
            u, v = chunk.split("-")
            edges.append((int(u), int(v)))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected edges like 1-2,2-3 got {text!r}"
        )
    return edges


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecount",
        description="Exact spanning-tree counts with brute-force verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="print one exact count")
    count.add_argument(
        "family",
        choices=(*verify.FAMILIES, "degrees"),
    )
    count.add_argument("--n", type=int)
    count.add_argument("--m", type=int)
    count.add_argument("--degrees", type=_int_list, metavar="D1,D2,...")
    count.add_argument("--a", type=_int_list, metavar="A1,A2,...")
    count.add_argument("--b", type=_int_list, metavar="B1,B2,...")

    ver = sub.add_parser("verify", help="sweep formulas against oracles")
    ver.add_argument(
        "--scope",
        default=",".join(verify.ALL_SCOPES),
        help=f"comma-separated subset of {','.join(verify.ALL_SCOPES)}",
    )
    ver.add_argument("--complete-max", type=int, default=verify.DEFAULT_COMPLETE_MAX)
    ver.add_argument("--bipartite-max", type=int, default=verify.DEFAULT_BIPARTITE_MAX)
    ver.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    ver.add_argument("--format", choices=("text", "jsonl"), default="text")

    table = sub.add_parser("table", help="emit a table of counts")
    table.add_argument("--family", choices=tuple(verify.FAMILIES), required=True)
    table.add_argument("--from", dest="start", type=int, required=True)
    table.add_argument("--to", dest="stop", type=int, required=True)
    table.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    ss = sub.add_parser("signsum", help="evaluate sign-hypercube power sums")
    ss.add_argument("--coeffs", type=_int_list, required=True, metavar="A1,A2,...")
    ss.add_argument("--power", type=int, required=True)
    ss.add_argument("--mode", choices=("direct", "multinomial", "both"), default="both")

    oracle = sub.add_parser("oracle", help="run a brute-force oracle directly")
    totals = (family for family, record in verify.FAMILIES.items() if record.profile)
    oracle.add_argument("kind", choices=(*totals, "matrix-tree"))
    oracle.add_argument("--n", type=int)
    oracle.add_argument("--m", type=int)
    oracle.add_argument(
        "--odd", action="store_true", default=None, help="keep only all-odd degree profiles"
    )
    oracle.add_argument("--degrees", type=_int_list, metavar="D1,D2,...")
    oracle.add_argument("--a", type=_int_list, metavar="A1,A2,...")
    oracle.add_argument("--b", type=_int_list, metavar="B1,B2,...")
    oracle.add_argument("--complete", type=int, metavar="N", help="matrix-tree on K_N")
    oracle.add_argument("--bipartite", type=_int_pair, metavar="M,N", help="matrix-tree on K_{M,N}")
    oracle.add_argument("--path", type=int, metavar="N")
    oracle.add_argument("--cycle", type=int, metavar="N")
    oracle.add_argument("--edges", type=_edge_list, metavar="U-V,U-V,...")
    oracle.add_argument("--vertices", type=int)

    return parser


def _read(args, query: str, names: Sequence[str]) -> list:
    """The options `query` reads, each required; any other given (not None) is an error."""
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"missing required option --{name}")
    unread = [
        f"--{name}"
        for name, value in vars(args).items()
        if value is not None and name not in (*names, "command", "family", "kind")
    ]
    if unread:
        raise ValueError(f"{query} does not take {', '.join(unread)}")
    return [getattr(args, name) for name in names]


def _run_count(args) -> int:
    if args.family in verify.FAMILIES:
        record = verify.FAMILIES[args.family]
        sizes = _read(args, f"count {args.family}", record.parameters)
        _check_bounds(record, sizes, sizes)
        print(count_text(record, sizes))
        return 0
    # the first total, in table order, one of whose degree options is given
    for options, formula, _ in (r.profile for r in verify.FAMILIES.values() if r.profile):
        if any(getattr(args, name) is not None for name in options):
            query = " ".join(["count degrees", *(f"--{name}" for name in options)])
            print(decimal_string(formula(*_read(args, query, options))))
            return 0
    raise ValueError(
        "count degrees needs either --degrees (complete) or both --a and --b (bipartite)"
    )


def _run_verify(args) -> int:
    scopes = tuple(s for s in args.scope.split(",") if s)
    report = verify.run_verification(
        scopes=scopes,
        complete_max=args.complete_max,
        bipartite_max=args.bipartite_max,
        seed=args.seed,
    )
    if args.format == "jsonl":
        print(verify.render_jsonl(report))
    else:
        print(verify.render_text(report))
    if report.all_match:
        return 0
    if any(case.formula_value != case.oracle_value for case in report.cases):
        return 1  # a real mismatch outranks a bug
    raised = [case for case in report.cases if case.error is not None]  # every failed case
    first = raised[0]
    print(
        f"internal error: {len(raised)} of {len(report.cases)} verify cases raised,"
        f" the first {first.family} ({first.oracle_kind}): {first.error}",
        file=sys.stderr,
    )
    return 3


def table_lines(family: str, start: int, stop: int, fmt: str) -> Iterator[str]:
    """A family's table over [start, stop] as csv or jsonl lines, computed one by one."""
    if start < 1 or start > stop:
        raise ValueError(f"range must satisfy 1 <= from <= to, got {start}..{stop}")
    record = verify.FAMILIES[family]
    sides = len(record.parameters)
    work = _check_bounds(record, [start] * sides, [stop] * sides)
    count = _recurrence_count(record, start, stop, work) or functools.partial(count_text, record)
    if fmt == "csv":
        yield ",".join((*record.parameters, "count"))
    for sizes in product(range(start, stop + 1), repeat=sides):
        text = count(sizes)
        if fmt == "jsonl":
            yield json.dumps({**dict(zip(record.parameters, sizes)), "count": text}, sort_keys=True)
        else:
            yield ",".join((*map(str, sizes), text))


def _run_table(args) -> int:
    for line in table_lines(args.family, args.start, args.stop, args.format):
        print(line)
    return 0


def _run_signsum(args) -> int:
    coeffs, power = args.coeffs, args.power
    if not coeffs:
        raise ValueError("--coeffs must not be empty")
    _check_signsum_bounds(coeffs, power, args.mode)
    forms = (("direct", signsum.hypercube_power_sum), ("multinomial", signsum.multinomial_power_sum))
    values = [form(coeffs, power) for mode, form in forms if args.mode in (mode, "both")]
    for value in values:
        print(decimal_string(value))
    if len(values) == 1:
        return 0
    match = values[0] == values[1]
    print("match" if match else "mismatch")
    return 0 if match else 1


def _run_oracle(args) -> int:
    if args.kind == "matrix-tree":
        print(oracles.matrix_tree_count(_graph(args)))
        return 0
    record = verify.FAMILIES[args.kind]
    options, _, kind = record.profile
    # at most one filter: --odd, or the degree profile of the graph
    has_profile = any(getattr(args, name) is not None for name in options)
    filter_ = ("odd",) if args.odd else options if has_profile else ()
    query = " ".join(["oracle", args.kind, *(f"--{name}" for name in filter_)])
    sizes = _read(args, query, (*record.parameters, *filter_))[: len(record.parameters)]
    predicate = oracles.all_odd if args.odd else None
    if filter_ == options:
        target = tuple(tuple(getattr(args, name)) for name in options)
        lengths = [len(side) for side in target]
        if lengths != sizes:
            raise ValueError(f"{query} needs {sizes} degrees, one per vertex, got {lengths}")
        predicate = lambda *sides: sides == target
    print(record.oracles[kind](*sizes, predicate))
    return 0


# matrix-tree graph source -> (the options it reads, its vertex count, graph builder)
_GRAPH_SOURCES = {
    "complete": (("complete",), lambda n: n, oracles.LabeledGraph.complete),
    "bipartite": (("bipartite",), sum, lambda s: oracles.LabeledGraph.complete_bipartite(*s)),
    "path": (("path",), lambda n: n, oracles.LabeledGraph.path),
    "cycle": (("cycle",), lambda n: n, oracles.LabeledGraph.cycle),
    "edges": (("edges", "vertices"), lambda _, n: n, lambda e, n: oracles.LabeledGraph(n, e)),
}


def _graph(args) -> oracles.LabeledGraph:
    sources = [source for source in _GRAPH_SOURCES if getattr(args, source) is not None]
    if len(sources) != 1:
        raise ValueError(
            "matrix-tree needs exactly one of --complete, --bipartite, --path,"
            " --cycle, or --edges"
        )
    names, vertex_count, build = _GRAPH_SOURCES[sources[0]]
    values = _read(args, f"oracle matrix-tree --{sources[0]}", names)
    vertices = vertex_count(*values)
    if vertices > MATRIX_TREE_LIMIT:  # checked before any edge is generated
        raise SizeLimitError(f"matrix-tree is bounded at {MATRIX_TREE_LIMIT} vertices, got {vertices}")
    return build(*values)


_HANDLERS = {
    "count": _run_count,
    "verify": _run_verify,
    "table": _run_table,
    "signsum": _run_signsum,
    "oracle": _run_oracle,
}


def main(argv: Sequence[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # Python >= 3.11
        sys.set_int_max_str_digits(0)  # counts print in full, however long
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout early, as `| head` does
        # Send the rest, and the flush at exit, to nowhere instead of failing again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the status of a pipeline writer cut short
    except Exception as exc:  # a bug, never a mismatch (1) or bad usage (2)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
