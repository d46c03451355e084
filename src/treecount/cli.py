"""Command-line front end.

Subcommands: count, verify, table, signsum, oracle.  Exit status is 0 on
success, 1 when a verification or cross-check finds a mismatch, 2 for
invalid usage or parameters, 3 for an internal error (a bug, such as a
division that should have been exact, or a verify case that raised while no
case mismatched), and 141 (128 + SIGPIPE) when the reader closes stdout
early, as `| head` does.  Values go to stdout, one per line, as exact
decimal strings of any length; diagnostics go to stderr.

count and table take their families, sizes and closed forms from
verify.FAMILIES, which verify sweeps; oracle calls the counters directly.

count and oracle read each option their query needs and reject any other
given option as a usage error: no option is silently ignored.  oracle
matrix-tree takes graphs of at most MATRIX_TREE_LIMIT vertices.

count <family> and table print counts of at most MAX_DIGITS digits: the
digits of the family's total (n**(n-2) for K_n, m**(n-1) * n**(m-1) for
K_{m,n}), which bounds every count.  They and, for odd counts, the work of
the binomial sums (MAX_KERNEL_BITS) are checked before any arithmetic; a
query above either is a usage error.  signsum is held to the same two bounds:
the digits of 2**n * (sum |a_i|)**power, which bounds the sum, and the work of
the mode it runs.  decimal_string renders huge counts in subquadratic time.
table prints rows as computed: `| head` stops it at once.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import product
from typing import Iterator, Sequence

from . import formulas, oracles, signsum, verify
from .combinatorics import SizeLimitError

# Dense Bareiss elimination is cubic in the vertex count: K_100 takes about 0.25 s.
MATRIX_TREE_LIMIT = 100

# Counts print in full.  K_n at n = 189,483, a million digits, takes 0.6 s
# (2-core Xeon, Python 3.11); K_n at n = 10**9 would never finish.
MAX_DIGITS = 1_000_000

# binomial_power_sum(n, p) sums (n + 1) // 2 terms of n + p*log2(n) bits (one n-bit term
# at p = 0).  Terms times bits over an odd count's sums stays below this: odd-complete
# n = 5,460 and odd-bipartite m = n = 3,931 take about 2.5 s (2-core Xeon, Python 3.11).
MAX_KERNEL_BITS = 200_000_000

# From this many bits on, decimal_string's divide and conquer beats str(int):
# str wins at 20,000 bits and loses from 40,000.
DECIMAL_SPLIT_BITS = 40_000


def decimal_string(value: int) -> str:
    """str(value), in subquadratic time for huge values.

    str(int) takes time quadratic in the digit count (before CPython 3.12).
    From DECIMAL_SPLIT_BITS bits on, the binary form is split in two halves,
    recursively, and the halves are joined as hi * 2**half + lo in exact
    decimal arithmetic, whose multiplication is subquadratic.  This is the
    int_to_decimal_string algorithm of CPython 3.12's Lib/_pylong.py.
    """
    if value.bit_length() < DECIMAL_SPLIT_BITS:
        return str(value)
    import decimal  # here, not at the top: every CLI start would pay for it

    @functools.lru_cache(maxsize=None)
    def power(bits: int) -> decimal.Decimal:
        return decimal.Decimal(2) ** bits

    def convert(n: int, bits: int) -> decimal.Decimal:
        if bits < DECIMAL_SPLIT_BITS:
            return decimal.Decimal(n)
        half = bits >> 1
        hi = n >> half
        return convert(hi, bits - half) * power(half) + convert(n - (hi << half), half)

    with decimal.localcontext() as context:
        context.prec = decimal.MAX_PREC
        context.Emax = decimal.MAX_EMAX
        context.traps[decimal.Inexact] = True  # a rounded digit would be a bug
        digits = str(convert(abs(value), value.bit_length()))
    return "-" + digits if value < 0 else digits


def _check_bounds(family: str, sizes: Sequence[int]) -> None:
    """Reject a query above MAX_DIGITS digits or, for odd counts, MAX_KERNEL_BITS.

    Odd and degree-constrained counts never exceed the family's total, so its
    digit count, from logarithms alone, bounds every count of the family.  Both
    measures grow with every size, so a table's largest cell bounds the rest.
    """
    if min(sizes) < 1:
        return  # the formula rejects the size itself
    if len(sizes) == 1:  # K_n: n**(n-2); odd: binomial_power_sum(n, n-2)
        (n,) = sizes
        digits = (n - 2) * math.log10(n)
        kernels = [(n, n - 2)]
    else:  # K_{m,n}: m**(n-1) * n**(m-1); odd: the sums (m, n-1) and (n, m-1)
        m, n = sizes
        digits = (n - 1) * math.log10(m) + (m - 1) * math.log10(n)
        kernels = [(m, n - 1), (n, m - 1)]
    if digits > MAX_DIGITS:
        raise SizeLimitError(
            f"a count of about {digits:.3g} digits is above the bound of {MAX_DIGITS:,}"
        )
    work = sum(((k + 1) // 2 if p else 1) * (k + p * math.log2(k)) for k, p in kernels)
    if family.startswith("odd-") and work > MAX_KERNEL_BITS:
        raise SizeLimitError(
            f"an odd count summing about {work:.3g} bits of terms is above"
            f" the bound of {MAX_KERNEL_BITS:,}"
        )


def _check_signsum_bounds(coeffs: Sequence[int], power: int, mode: str) -> None:
    """Reject a signsum query above MAX_DIGITS digits or MAX_KERNEL_BITS of work.

    Every sign vector's form is at most s = sum |a_i| in size, so the sum is at
    most 2**n * s**power, whose digits bound the output.  Work is terms times
    bits, with s**power the largest term.  The direct walk adds 2**n terms to a
    sum of up to n more bits.  The expansion builds a binomial table of
    t = (power/2 + 1)(power/2 + 2)/2 entries, then convolves t products per
    coefficient; an odd power returns 0 at once.
    """
    if power < 0:
        return  # the power sums reject it themselves
    n, total = len(coeffs), sum(abs(a) for a in coeffs)
    digits = n * math.log10(2) + power * math.log10(max(total, 1))
    if digits > MAX_DIGITS:
        raise SizeLimitError(
            f"a sum of about {digits:.3g} digits is above the bound of {MAX_DIGITS:,}"
        )
    term_bits = 1 + power * math.log2(max(total, 2))
    work = 0.0
    if mode != "multinomial" and n <= signsum.HYPERCUBE_LIMIT:  # above it, the walk refuses
        work += 2 ** n * (n + term_bits)
    if mode != "direct" and power % 2 == 0:
        half = power // 2
        work += (n + 1) * (half + 1) * (half + 2) // 2 * term_bits
    if work > MAX_KERNEL_BITS:
        raise SizeLimitError(
            f"a sign sum adding about {work:.3g} bits of terms is above"
            f" the bound of {MAX_KERNEL_BITS:,}"
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
    oracle.add_argument("kind", choices=("complete", "bipartite", "matrix-tree"))
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
        parameters, formula, _ = verify.FAMILIES[args.family]
        sizes = _read(args, f"count {args.family}", parameters)
        _check_bounds(args.family, sizes)
        value = formula(*sizes)
    elif args.degrees is not None:
        degrees = _read(args, "count degrees --degrees", ("degrees",))
        value = formulas.trees_with_degrees_complete(*degrees)
    elif args.a is not None or args.b is not None:
        sides = _read(args, "count degrees --a --b", ("a", "b"))
        value = formulas.trees_with_degrees_bipartite(*sides)
    else:
        raise ValueError(
            "count degrees needs either --degrees (complete) or both --a and --b (bipartite)"
        )
    print(decimal_string(value))
    return 0


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
    parameters, formula, _ = verify.FAMILIES[family]
    _check_bounds(family, [stop] * len(parameters))  # the largest cell bounds every other
    if fmt == "csv":
        yield ",".join((*parameters, "count"))
    for sizes in product(range(start, stop + 1), repeat=len(parameters)):
        count = decimal_string(formula(*sizes))
        if fmt == "jsonl":
            yield json.dumps({**dict(zip(parameters, sizes)), "count": count}, sort_keys=True)
        else:
            yield ",".join((*map(str, sizes), count))


def _run_table(args) -> int:
    for line in table_lines(args.family, args.start, args.stop, args.format):
        print(line)
    return 0


def _run_signsum(args) -> int:
    coeffs, power = args.coeffs, args.power
    if not coeffs:
        raise ValueError("--coeffs must not be empty")
    _check_signsum_bounds(coeffs, power, args.mode)
    if args.mode == "direct":
        print(decimal_string(signsum.hypercube_power_sum(coeffs, power)))
        return 0
    if args.mode == "multinomial":
        print(decimal_string(signsum.multinomial_power_sum(coeffs, power)))
        return 0
    direct = signsum.hypercube_power_sum(coeffs, power)
    expanded = signsum.multinomial_power_sum(coeffs, power)
    print(decimal_string(direct))
    print(decimal_string(expanded))
    if direct == expanded:
        print("match")
        return 0
    print("mismatch")
    return 1


def _run_oracle(args) -> int:
    if args.kind == "matrix-tree":
        print(oracles.matrix_tree_count(_graph(args)))
        return 0
    parameters, _, _ = verify.FAMILIES[args.kind]
    # at most one filter: --odd, or the degree profile of the graph
    complete = args.kind == "complete"
    brute = oracles.count_trees_complete_brute if complete else oracles.count_trees_bipartite_brute
    profile = ("degrees",) if complete else ("a", "b")
    has_profile = any(getattr(args, name) is not None for name in profile)
    filter_ = ("odd",) if args.odd else profile if has_profile else ()
    query = " ".join(["oracle", args.kind, *(f"--{name}" for name in filter_)])
    sizes = _read(args, query, (*parameters, *filter_))[: len(parameters)]
    predicate = oracles.all_odd if args.odd else None
    if filter_ == profile:
        target = tuple(tuple(getattr(args, name)) for name in profile)
        lengths = [len(side) for side in target]
        if lengths != sizes:
            raise ValueError(f"{query} needs {sizes} degrees, one per vertex, got {lengths}")
        predicate = lambda *sides: sides == target
    print(brute(*sizes, predicate))
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
