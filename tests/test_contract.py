"""The CLI's contract over seeded queries, and the admission properties its frontiers rely on.

Every query exits 0 or 2, never 3: an internal error is a bug, and a
mismatch (1) cannot arise from correct formulas.  On 0, stdout holds what
the query documents: ints, a CSV or JSONL table, or a verify report.  On 2,
stdout is empty.  The queries are drawn from build_parser()'s own
subcommands, choices and options, not from a hand list, with the work bound
lowered so that every admitted query stays short.

A row's price never falls as one of its sizes grows by 2.  A sign sum in
both modes is refused whenever either mode alone is, and a sum at an odd
power, 0, is the one digit it prints, which the digit bound never refuses.
A direct sum that folds an odd power raises no form, so its price does not
depend on the power.
"""

import argparse
import contextlib
import io
import json
import random
import re
from itertools import product

import pytest

from treecount import cli, signsum, verify
from treecount.cli import _check_signsum_bounds, _row, build_parser, main

SEED = 20261019
QUERIES = 1200
# the work bound the queries run under: an admitted query takes milliseconds
LOW_WORK = 2e9

# half of the ints drawn are extremes; the other half are sizes for counts, tables and
# sign sums, or the small ones for oracles and verify, whose brute force grows fastest
EXTREMES = [0, 1, 2, -1, -4, 2**53 + 1, 10**400, 10**400 + 1]
SIZES = [3, 4, 5, 7, 10, 31, 60, 120, 971, 2338, 4347, 10**6]
SMALL = [1, 2, 3, 4, 5, 6]
LENGTHS = [0, 1, 1, 2, 2, 3, 4, 5, 8, 20, 1000]


def draw_int(rng, sizes):
    return rng.choice(EXTREMES if rng.random() < 0.5 else sizes)


def subcommands(parser):
    [action] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def draw_value(rng, action, sizes):
    """One value for `action`, as text: a choice, an int, a list, a pair, edges or a scope list."""
    if action.choices is not None:
        return rng.choice(list(action.choices))
    if action.type is int:
        return str(draw_int(rng, sizes))
    if action.type is cli._int_list:
        return ",".join(str(draw_int(rng, sizes)) for _ in range(rng.choice(LENGTHS)))
    if action.type is cli._int_pair:
        return ",".join(str(draw_int(rng, sizes)) for _ in range(rng.choice([1, 2, 2, 2, 3])))
    if action.type is cli._edge_list:
        count = rng.choice(LENGTHS[:8])
        return ",".join(f"{draw_int(rng, sizes)}-{draw_int(rng, sizes)}" for _ in range(count))
    # a comma-separated list of names, such as verify's scopes: a subset of its default's,
    # now and then with a name it does not know
    names = action.default.split(",") + ["unknown"]
    return ",".join(rng.sample(names, rng.randint(0, len(names))))


def draw_argv(rng, parser):
    """One argv: a subcommand, a choice for each positional, and a random set of its options.

    An option that is required, that has a default, or that the positional
    family or oracle kind has as a parameter is given more often than any
    other, so that many queries are admitted; every option may be given.  A
    table's --to repeats its --from half the time: a one-row table.
    """
    name, sub = rng.choice(list(subcommands(parser).items()))
    sizes = SMALL if name in ("oracle", "verify") else SIZES
    argv = [name, *(rng.choice(list(a.choices)) for a in sub._actions if not a.option_strings)]
    kind = argv[1] if len(argv) > 1 else None
    read = verify.FAMILIES[kind].parameters if kind in verify.FAMILIES else ()
    values = {}
    for action in sub._actions:
        if not action.option_strings or isinstance(action, argparse._HelpAction):
            continue
        dest = action.dest
        # a bound with a default, such as verify's, is drawn small more often than left at it
        given = action.required or dest in read or action.default is not None
        wanted = 0.9 if given else 0.1
        if rng.random() >= wanted:
            continue
        if action.nargs == 0:
            values[dest] = None
        elif dest == "stop" and "start" in values and rng.random() < 0.5:
            values[dest] = values["start"]
        else:
            values[dest] = draw_value(rng, action, sizes)
    options = {a.dest: a.option_strings[-1] for a in sub._actions if a.option_strings}
    for dest, value in values.items():
        argv.append(options[dest] if value is None else f"{options[dest]}={value}")
    return argv


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, out.getvalue()


def check_output(argv, out):
    """Assert that the stdout of a query that exited 0 is what it documents."""
    args = cli.build_parser().parse_args(argv)
    lines = out.splitlines()
    assert out.endswith("\n") and lines
    if args.command in ("count", "oracle"):
        [line] = lines
        int(line)
    elif args.command == "signsum":
        values = lines[:-1] if args.mode == "both" else lines
        for line in values:
            int(line)
        assert len(values) == (2 if args.mode == "both" else 1)
        if args.mode == "both":
            assert lines[-1] == "match"
    elif args.command == "table":
        parameters = verify.FAMILIES[args.family].parameters
        rows = (args.stop - args.start + 1) ** len(parameters)
        if args.format == "csv":
            assert lines[0] == ",".join((*parameters, "count"))
            lines = lines[1:]
            for line in lines:
                for field in line.split(","):
                    int(field)
        else:
            for line in lines:
                record = json.loads(line)
                assert sorted(record) == sorted((*parameters, "count"))
                int(record["count"])
        assert len(lines) == rows
    else:  # verify
        if args.format == "jsonl":
            for line in lines:
                assert json.loads(line)["match"] is True
        else:
            assert all(line.startswith("[ok ] ") for line in lines[:-1])
            assert re.fullmatch(r"summary: total=(\d+) passed=\1 failed=0", lines[-1])


def test_every_query_exits_zero_or_two(monkeypatch):
    monkeypatch.setattr(cli, "MAX_WORK", LOW_WORK)
    rng = random.Random(SEED)
    parser = build_parser()
    # one parser for every query: building it takes longer than most queries run
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    codes = []
    for _ in range(QUERIES):
        argv = draw_argv(rng, parser)
        code, out = run(argv)
        assert code in (0, 2), argv
        if code == 0:
            check_output(argv, out)
        else:
            assert out == "", argv
        codes.append(code)
    # the draw must reach past the usage checks, or it shows nothing
    assert codes.count(0) >= QUERIES // 5


@pytest.mark.parametrize("family", list(verify.FAMILIES))
def test_price_never_falls_as_a_size_grows_by_two(family):
    # CI's "next size is refused" checks read each frontier as a single threshold, which
    # holds while the price of a row does not fall within one parity class
    record = verify.FAMILIES[family]
    top = 3000 if len(record.parameters) == 1 else 120
    price = {
        sizes: _row(record, sizes)[1]
        for sizes in product(range(1, top), repeat=len(record.parameters))
    }
    for sizes, work in price.items():
        for i in range(len(sizes)):
            grown = (*sizes[:i], sizes[i] + 2, *sizes[i + 1 :])
            assert price.get(grown, work) >= work, (sizes, grown)


SIGNSUM_SEED = 28
SIGNSUMS = 400
# odd powers past the digit bound for most sums and past the float range, and some even ones
SIGNSUM_POWERS = [0, 1, 2, 3, 7, 668, 2339, 123_735, 1_047_953, 2_291_861, 10_000_001,
                  2**53 + 1, 10**400, 10**400 + 1, 2**1100 + 1]
SIGNSUM_LENGTHS = [1, 1, 2, 3, 4, 5, 8, 20, 100, 1000]


def draw_coeffs(rng):
    """Coefficients in -3..3, or in 0 and +-1 with 0, 1, 2 or all of them nonzero.

    One list in 20 has 60,001 coefficients in 0 and +-1, at most two of them
    nonzero: past direct mode's frontier of zeros, with forms of one or two
    bits at any power.
    """
    if rng.random() < 0.05:
        n, nonzero = 60_001, rng.choice([0, 1, 2])
    else:
        n = rng.choice(SIGNSUM_LENGTHS)
        if rng.random() < 0.5:
            return rng.choices(range(-3, 4), k=n)
        nonzero = min(n, rng.choice([0, 1, 2, n]))
    coeffs = [0] * n
    for i in rng.sample(range(n), nonzero):
        coeffs[i] = rng.choice([-1, 1])
    return coeffs


def refusal(coeffs, power, mode):
    """The message that refuses the sign sum, or None when it is admitted."""
    try:
        _check_signsum_bounds(coeffs, power, mode)
    except ValueError as exc:
        return str(exc)
    return None


def test_sign_sum_admission_agrees_across_modes():
    # both modes run each mode, so they are refused whenever either is; and an odd power's
    # sum is 0, one digit, so no mode refuses it by the digit bound
    rng = random.Random(SIGNSUM_SEED)
    for _ in range(SIGNSUMS):
        coeffs, power = draw_coeffs(rng), rng.choice(SIGNSUM_POWERS)
        query = (
            f"{len(coeffs)} coefficients, sum |a_i| = {sum(map(abs, coeffs))},"
            f" first {coeffs[:8]}, power {power}"
        )
        refused = {mode: refusal(coeffs, power, mode) for mode in ("both", "direct", "multinomial")}
        if refused["both"] is None:
            assert refused["direct"] is refused["multinomial"] is None, (query, refused)
        if power % 2:
            assert not any("digits" in (message or "") for message in refused.values()), (
                query, refused,
            )


def test_a_folded_odd_power_is_admitted_alike_at_every_odd_power():
    # the counts of each |form| cancel, so direct mode builds its tallies and raises nothing:
    # power 1 and a power past the float range cost the same
    rng = random.Random(SIGNSUM_SEED)
    folded = admitted = 0
    for _ in range(SIGNSUMS):
        coeffs = draw_coeffs(rng)
        # the lists of 60,001, refused at every power by their layers alone, take 15 ms each
        if len(coeffs) > 1000 or not signsum.pairing_bounds(coeffs)[2]:
            continue
        query = f"{len(coeffs)} coefficients, sum |a_i| = {sum(map(abs, coeffs))}, {coeffs[:8]}"
        at_one = refusal(coeffs, 1, "direct")
        assert refusal(coeffs, 10**400 + 1, "direct") == at_one, query
        folded += 1
        admitted += at_one is None
    # the draw must fold and admit sums, or it shows nothing
    assert admitted >= folded // 2 >= SIGNSUMS // 4
