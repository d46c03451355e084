"""End-to-end tests of the command-line interface."""

import io
import json
import math
import subprocess
import sys
from itertools import product

import pytest

from treecount import formulas, signsum, verify
from treecount.cli import (
    DECIMAL_SPLIT_BITS,
    MAX_DIGITS,
    decimal_string,
    MAX_WORK,
    _check_bounds,
    _check_signsum_bounds,
    _recurrence_count,
    _row,
    _times,
    _work,
    count_text,
    main,
    table_lines,
)
from treecount.signsum import binomial_power_sum


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(code, out, err):
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


class TestCount:
    def test_odd_complete(self, capsys):
        code, out, _ = run_cli(capsys, "count", "odd-complete", "--n", "6")
        assert (code, out) == (0, "96\n")

    def test_bipartite(self, capsys):
        code, out, _ = run_cli(capsys, "count", "bipartite", "--m", "2", "--n", "3")
        assert (code, out) == (0, "12\n")

    def test_complete(self, capsys):
        code, out, _ = run_cli(capsys, "count", "complete", "--n", "7")
        assert (code, out) == (0, "16807\n")

    def test_odd_bipartite(self, capsys):
        code, out, _ = run_cli(capsys, "count", "odd-bipartite", "--m", "5", "--n", "3")
        assert (code, out) == (0, "105\n")

    def test_degrees_bipartite(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "degrees", "--a", "2,2", "--b", "2,1,1"
        )
        assert (code, out) == (0, "2\n")

    def test_degrees_complete(self, capsys):
        code, out, _ = run_cli(capsys, "count", "degrees", "--degrees", "2,2,1,1")
        assert (code, out) == (0, "2\n")

    @pytest.mark.parametrize(
        "family, argv, value",
        [
            ("complete", ["--degrees", "2,2,1,1"], 2211),
            ("bipartite", ["--a", "2,2", "--b", "2,1,1"], 22211),
        ],
        ids=["complete", "bipartite"],
    )
    def test_degrees_print_the_closed_form_of_the_family_profile(
        self, capsys, monkeypatch, family, argv, value
    ):
        record = verify.FAMILIES[family]
        options, _, kind = record.profile
        digits = lambda *sides: int("".join(str(d) for side in sides for d in side))
        monkeypatch.setitem(verify.FAMILIES, family, record._replace(profile=(options, digits, kind)))
        assert run_cli(capsys, "count", "degrees", *argv) == (0, f"{value}\n", "")

    def test_missing_size_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "count", "complete")
        assert code == 2
        assert out == ""
        assert "--n" in err

    def test_nonpositive_size_is_usage_error(self, capsys):
        # the formulas' own messages, whichever path would render the count
        for argv, message in [
            (("count", "complete", "--n", "0"), "n must be >= 1, got 0"),
            (("count", "complete", "--n", "-5"), "n must be >= 1, got -5"),
            (("count", "bipartite", "--m", "0", "--n", "3"), "m must be >= 1, got 0"),
            (("count", "bipartite", "--m", "3", "--n", "0"), "n must be >= 1, got 0"),
            (("count", "odd-bipartite", "--m", "0", "--n", "0"), "m must be >= 1, got 0"),
            (
                ("table", "--family", "complete", "--from", "0", "--to", "3"),
                "range must satisfy 1 <= from <= to, got 0..3",
            ),
        ]:
            assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n"), argv

    def test_degrees_needs_exactly_one_flavor(self, capsys):
        code, _, err = run_cli(capsys, "count", "degrees")
        assert code == 2
        assert err == (
            "error: count degrees needs either --degrees (complete)"
            " or both --a and --b (bipartite)\n"
        )
        code, _, err = run_cli(
            capsys, "count", "degrees", "--degrees", "1,1", "--a", "1", "--b", "1"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("complete", "--n", "4", "--m", "9"),
            ("odd-complete", "--n", "6", "--degrees", "2,2"),
            ("degrees", "--degrees", "2,2,1,1", "--n", "9"),
            ("degrees", "--a", "2,2", "--b", "2,1,1", "--m", "0"),
        ],
        ids=" ".join,
    )
    def test_option_the_query_does_not_read_is_usage_error(self, capsys, argv):
        assert_usage_error(*run_cli(capsys, "count", *argv))

    @pytest.mark.parametrize(
        "family, name",
        sorted(
            {
                (family, name)
                for family, record in verify.FAMILIES.items()
                for other in verify.FAMILIES.values()
                for name in other.parameters
                if name not in record.parameters
            }
        ),
    )
    def test_size_of_another_family_is_usage_error(self, capsys, family, name):
        sizes = [arg for size in verify.FAMILIES[family].parameters for arg in (f"--{size}", "3")]
        code, out, err = run_cli(capsys, "count", family, *sizes, f"--{name}", "3")
        assert_usage_error(code, out, err)
        assert err == f"error: count {family} does not take --{name}\n"

    def test_huge_value_renders_as_plain_decimal(self, capsys):
        code, out, _ = run_cli(capsys, "count", "complete", "--n", "120")
        assert code == 0
        assert out.strip() == str(120 ** 118)
        assert "e" not in out.lower()


@pytest.fixture
def int_str_limit():
    """Put back the interpreter's int/str digit limit, which main lifts."""
    get = getattr(sys, "get_int_max_str_digits", None)
    limit = get() if get else None
    yield
    if get:
        sys.set_int_max_str_digits(limit)


@pytest.fixture
def unlimited_str(int_str_limit):
    """Lift the digit limit for the reference str() of huge values."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


class TestHugeCounts:
    def test_count_beyond_4300_digits_prints_in_full(self, capsys, int_str_limit):
        code, out, err = run_cli(capsys, "count", "complete", "--n", "2000")
        assert (code, err) == (0, "")
        assert len(out) == 6596 + 1
        assert out == f"{2000 ** 1998}\n"

    def test_table_beyond_4300_digits_prints_in_full(self, capsys, int_str_limit):
        code, out, err = run_cli(
            capsys, "table", "--family", "complete", "--from", "1900", "--to", "1901"
        )
        assert (code, err) == (0, "")
        assert out == f"n,count\n1900,{1900 ** 1898}\n1901,{1901 ** 1899}\n"


    def test_count_at_the_huge_counts_size_matches_str(self, capsys, int_str_limit):
        code, out, err = run_cli(capsys, "count", "complete", "--n", "50000")
        assert (code, err) == (0, "")
        assert out == f"{50000 ** 49998}\n"


# the sizes whose totals come first to DECIMAL_SPLIT_BITS bits, sum p*log2(k) over their powers
COMPLETE_SPLIT = next(n for n in range(3, 10**5) if (n - 2) * math.log2(n) >= DECIMAL_SPLIT_BITS)
SQUARE_SPLIT = next(m for m in range(2, 10**5) if 2 * (m - 1) * math.log2(m) >= DECIMAL_SPLIT_BITS)


@pytest.mark.usefixtures("unlimited_str")
class TestCountText:
    @pytest.mark.parametrize(
        "sizes",
        [
            *((n,) for n in range(1, 41)),
            (COMPLETE_SPLIT - 1,),
            (COMPLETE_SPLIT,),
            (COMPLETE_SPLIT + 1,),
            (50_000,),
        ],
    )
    def test_complete_total_is_its_formula(self, sizes):
        record = verify.FAMILIES["complete"]
        assert count_text(record, sizes) == str(record.formula(*sizes))

    @pytest.mark.parametrize(
        "sizes",
        [
            (1, 1), (1, 2), (2, 1), (1, 70_000), (70_000, 1), (2, 40_000), (40_000, 2),
            (SQUARE_SPLIT - 1, SQUARE_SPLIT - 1),
            (SQUARE_SPLIT - 1, SQUARE_SPLIT),
            (SQUARE_SPLIT, SQUARE_SPLIT),
            (20, 60_000),
        ],
    )
    def test_bipartite_total_is_its_formula(self, sizes):
        record = verify.FAMILIES["bipartite"]
        assert count_text(record, sizes) == str(record.formula(*sizes))

    def test_the_split_sizes_straddle_the_threshold(self):
        assert (COMPLETE_SPLIT - 1) ** (COMPLETE_SPLIT - 3) < 1 << DECIMAL_SPLIT_BITS
        assert COMPLETE_SPLIT ** (COMPLETE_SPLIT - 2) >= 1 << DECIMAL_SPLIT_BITS
        below = SQUARE_SPLIT - 1
        assert below ** (2 * below - 2) < 1 << DECIMAL_SPLIT_BITS
        assert SQUARE_SPLIT ** (2 * SQUARE_SPLIT - 2) >= 1 << DECIMAL_SPLIT_BITS

    def test_million_digit_total_prints_in_full(self, capsys):
        code, out, err = run_cli(capsys, "count", "complete", "--n", "189483")
        assert (code, err) == (0, "")
        digits = out.rstrip("\n")
        assert len(digits) == MAX_DIGITS and digits.isdigit() and digits[0] != "0"
        assert int(digits[-30:]) == pow(189483, 189481, 10**30)

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "complete", "--n", "50000"),  # rounding drops nonzero digits
            ("count", "bipartite", "--m", "10", "--n", "100000"),  # 10**100044: only zeros
        ],
        ids=" ".join,
    )
    def test_a_rounded_digit_is_an_internal_error(self, capsys, monkeypatch, argv):
        import decimal

        monkeypatch.setattr(decimal, "MAX_PREC", 50)  # far too few digits for the count
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("internal error: ")

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            (["count", "complete", "--n", "7"], False),
            (["table", "--family", "bipartite", "--from", "1", "--to", "3"], False),
            (["count", "complete", "--n", "5000"], True),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else str(value),
    )
    def test_only_large_totals_import_decimal(self, argv, loaded):
        script = (
            "import sys; from treecount.cli import main; code = main(sys.argv[1:]);"
            " print(code, 'decimal' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, check=True, timeout=30,
        )
        assert proc.stdout.splitlines()[-1] == f"0 {loaded}"


@pytest.mark.usefixtures("unlimited_str")
class TestDecimalString:
    def test_small_values(self):
        for value in (0, 1, -1, 10, -999, 2 ** 64):
            assert decimal_string(value) == str(value)

    @pytest.mark.parametrize("bits", [DECIMAL_SPLIT_BITS - 1, DECIMAL_SPLIT_BITS, DECIMAL_SPLIT_BITS + 1])
    def test_around_the_split_threshold(self, bits):
        mixed = 3 ** 30000  # digits with no pattern, 47,549 bits
        for value in (1 << (bits - 1), (1 << bits) - 1, mixed >> (mixed.bit_length() - bits)):
            assert value.bit_length() == bits
            assert decimal_string(value) == str(value)
            assert decimal_string(-value) == str(-value)

    def test_huge_power_and_its_negative(self):
        value = 50000 ** 49998
        text = str(value)
        assert decimal_string(value) == text
        assert decimal_string(-value) == "-" + text


class TestDigitBound:
    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "complete", "--n", "1000000000"],
            ["count", "odd-complete", "--n", "1000000000"],
            ["count", "bipartite", "--m", "1000000", "--n", "1000000"],
            ["count", "odd-bipartite", "--m", "1000001", "--n", "1000001"],
            ["table", "--family", "complete", "--from", "1", "--to", "1000000000"],
        ],
        ids=" ".join,
    )
    def test_query_above_the_bound_exits_two_at_once(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "treecount", *argv],
            capture_output=True, text=True, timeout=10,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: a count of about ")
        assert proc.stderr.endswith(f"digits is above the bound of {MAX_DIGITS:,}\n")

    def test_bound_falls_between_two_sizes(self, capsys):
        # 189483**189481 has exactly MAX_DIGITS digits; one more vertex is too many
        code, out, err = run_cli(capsys, "count", "complete", "--n", "189483")
        assert (code, len(out), err) == (0, MAX_DIGITS + 1, "")
        assert_usage_error(*run_cli(capsys, "count", "complete", "--n", "189484"))
        assert_usage_error(
            *run_cli(capsys, "table", "--family", "odd-complete", "--from", "2", "--to", "189484")
        )

    def test_bound_is_the_total_not_the_size(self, capsys):
        # K_{1,n} is a star: one spanning tree however large n is
        assert run_cli(capsys, "count", "bipartite", "--m", "1", "--n", "1000000000") == (0, "1\n", "")
        # its centre has degree n, so the star is odd exactly when n is
        for m, n, count in [(1, 10**9, 0), (10**9, 1, 0), (1, 10**9 + 1, 1)]:
            argv = ["count", "odd-bipartite", "--m", str(m), "--n", str(n)]
            assert run_cli(capsys, *argv) == (0, f"{count}\n", "")


# sizes and powers past the float range (about 1.8e308), named as the queries below write them,
# and sizes inside it whose price, a float raised to 1.585, is past it
HUGE = {"10**400": str(10**400), "10**400+1": str(10**400 + 1), "10**200": str(10**200)}
SIGNSUM_MODES = ("", " --mode direct", " --mode multinomial")


class TestPastTheFloatRange:
    """Such sizes and powers meet their bound: exit 2, never an OverflowError (exit 3)."""

    @pytest.mark.parametrize(
        "query, bound",
        [
            ("count complete --n 10**400", "digits"),
            ("count odd-complete --n 10**400", "digits"),
            ("count bipartite --m 3 --n 10**400", "digits"),
            ("count odd-bipartite --m 3 --n 10**400+1", "digits"),
            ("table --family complete --from 1 --to 10**400", "digits"),
            ("count complete --n 10**200", "digits"),
            ("count odd-complete --n 10**200", "digits"),
            ("table --family bipartite --from 1 --to 10**200", "digits"),
            *((f"signsum --coeffs 1,2 --power 10**400{mode}", "digits") for mode in SIGNSUM_MODES),
            # 2 * 1**power has one digit, so the work bound refuses these: the expansion's
            # binomials are power bits wide
            *(
                (f"signsum --coeffs 1 --power 10**400{mode}", "units of work")
                for mode in ("", " --mode multinomial")
            ),
        ],
    )
    def test_query_exits_two_with_its_bounds_message(self, capsys, query, bound):
        code, out, err = run_cli(capsys, *(HUGE.get(word, word) for word in query.split()))
        assert_usage_error(code, out, err)
        limit = MAX_DIGITS if bound == "digits" else MAX_WORK
        assert err.endswith(f"{bound} is above the bound of {limit:,}\n")

    @pytest.mark.parametrize(
        "query",
        [
            "count bipartite --m 1 --n 10**400",
            "count odd-bipartite --m 1 --n 10**400+1",
            "count odd-bipartite --m 10**400+1 --n 1",
        ],
    )
    def test_star_prints_its_one_tree(self, capsys, query):
        # a star's total is 1 at any size: the zero logarithm of its side 1 cancels the other
        argv = [HUGE.get(word, word) for word in query.split()]
        assert run_cli(capsys, *argv) == (0, "1\n", "")

    @pytest.mark.parametrize("size", [10**400, 2**1100], ids=["10**400", "2**1100"])
    def test_one_row_table_of_a_zero_prints_it(self, capsys, size):
        # the row is 0 by parity, admitted at one digit; its recurrence, whose columns are
        # size/2 steps each, prices at inf, so the table takes the kernel and prints the 0
        argv = ["table", "--family", "odd-bipartite", "--from", str(size), "--to", str(size)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == f"{size},{size},0"

    def test_zero_terms_cost_nothing(self):
        # a count of 0 times an infinite size is 0, never NaN, which no bound would refuse
        assert _times(0, math.inf) == 0.0
        assert _times(10**400, 0.0) == 0.0
        assert _times(10**400, 1.0) == math.inf

    @pytest.mark.parametrize("mode", ["both", "direct"])
    def test_odd_power_is_refused_by_the_direct_mode_it_runs(self, mode):
        # the expansion's empty table at an odd power past the float range costs nothing, so
        # both modes cost what direct mode alone does: 60,001 layers of one count each
        coeffs = [1] + [0] * 60_000
        with pytest.raises(ValueError, match="units of work"):
            _check_signsum_bounds(coeffs, 10**400 + 1, mode)
        _check_signsum_bounds(coeffs, 10**400 + 1, "multinomial")

    @pytest.mark.parametrize("power", ["10**400", "300000000"])
    def test_direct_sum_of_unit_forms_prints_two(self, capsys, power):
        # the empty left tally's one value 0 pairs with the forms 1 and -1 of --coeffs 1: two
        # one-bit terms at any power
        argv = ["signsum", "--coeffs", "1", "--power", HUGE.get(power, power), "--mode", "direct"]
        assert run_cli(capsys, *argv) == (0, "2\n", "")


class TestZeroByParity:
    """An odd count with an odd power is 0, priced at its one digit, above the digit bound too."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["odd-complete", "--n", "189485"],
            ["odd-complete", "--n", str(10**9 + 1)],
            ["odd-bipartite", "--m", "2", "--n", "10000000"],
        ],
        ids=" ".join,
    )
    def test_zero_count_above_the_digit_bound_prints_zero(self, capsys, argv):
        assert run_cli(capsys, "count", *argv) == (0, "0\n", "")

    def test_digit_bound_reads_the_last_row_not_zero(self, capsys):
        # 189484 is above the bound and its count is not 0 by parity; 189485 is
        assert_usage_error(
            *run_cli(capsys, "table", "--family", "odd-complete", "--from", "189484", "--to", "189485")
        )
        record = verify.FAMILIES["odd-bipartite"]
        with pytest.raises(ValueError, match="digits is above the bound"):
            _check_bounds(record, [1, 1], [1000002, 1000002])
        _check_bounds(record, [1000002, 999999], [1000002, 1000002])  # every row 0

    @pytest.mark.parametrize(
        "family, sizes",
        [
            ("odd-complete", (3,)),
            ("odd-complete", (189485,)),
            ("odd-bipartite", (2, 5)),
            ("odd-bipartite", (3, 4)),
            ("odd-bipartite", (2, 10**400)),
        ],
        ids=str,
    )
    def test_zero_row_costs_exactly_one(self, family, sizes):
        # the one digit of "0": no sum, no rendering weight
        assert _row(verify.FAMILIES[family], sizes) == (1.0, 1.0)


def check_table(family, start, stop):
    """table_lines checks its bounds before it yields its first line."""
    next(table_lines(family, start, stop, "csv"))


class TestKernelBound:
    """Single counts under the one work bound: a count is priced as its one-row table."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "odd-complete", "--n", "10000"],
            ["count", "odd-bipartite", "--m", "5001", "--n", "5001"],
            ["table", "--family", "odd-complete", "--from", "2", "--to", "10000"],
        ],
        ids=" ".join,
    )
    def test_query_above_the_bound_exits_two_at_once(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "treecount", *argv],
            capture_output=True, text=True, timeout=10,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: a query costing about ")
        assert proc.stderr.endswith(f"is above the bound of {MAX_WORK:,}\n")

    @pytest.mark.parametrize(
        "family, sizes",
        [
            ("odd-complete", [3008]),
            ("odd-complete", [602]),
            ("odd-bipartite", [2009, 2009]),
            ("odd-bipartite", [1, 10**6]),
            ("complete", [10**5]),
            ("bipartite", [1, 10**9]),
        ],
    )
    def test_admits_the_huge_counts_sizes_and_totals(self, family, sizes):
        _check_bounds(verify.FAMILIES[family], sizes, sizes)

    def test_bound_grows_with_every_size(self):
        # a count whose powers are all even is admitted up to odd-complete n = 5,592 and
        # odd-bipartite m = n = 4,347, and rejected at the next two such sizes; a count with
        # an odd power is 0 without any sum, and admitted on both sides of that frontier
        for n in (5592, 5593, 5595):
            _check_bounds(verify.FAMILIES["odd-complete"], [n], [n])
        for n in (4347, 4348, 4350):
            _check_bounds(verify.FAMILIES["odd-bipartite"], [n, n], [n, n])
        for n in (5594, 5596):
            with pytest.raises(ValueError):
                _check_bounds(verify.FAMILIES["odd-complete"], [n], [n])
        for n in (4349, 4351):
            with pytest.raises(ValueError):
                _check_bounds(verify.FAMILIES["odd-bipartite"], [n, n], [n, n])

    @pytest.mark.parametrize(
        "argv",
        [
            ["odd-complete", "--n", "5595"],
            ["odd-bipartite", "--m", "4350", "--n", "4350"],
            ["odd-bipartite", "--m", "4348", "--n", "4349"],
        ],
        ids=" ".join,
    )
    def test_count_with_an_odd_power_prints_zero(self, capsys, argv):
        assert run_cli(capsys, "count", *argv) == (0, "0\n", "")

    def test_digit_bound_is_checked_first(self, capsys):
        code, out, err = run_cli(capsys, "count", "odd-complete", "--n", "1000000000")
        assert_usage_error(code, out, err)
        assert "digits is above the bound" in err

    @pytest.mark.parametrize(
        "family, frontier",
        [("odd-complete", 5592), ("odd-bipartite", 4347), ("complete", 189483), ("bipartite", 100000)],
    )
    def test_count_exits_two_exactly_when_its_one_row_table_does(
        self, capsys, monkeypatch, family, frontier
    ):
        record = verify.FAMILIES[family]
        # the bound is checked before the formula runs, so a stub formula keeps this fast
        monkeypatch.setitem(verify.FAMILIES, family, record._replace(formula=lambda *sizes: 0))
        codes = set()
        for size in range(frontier - 2, frontier + 3):
            sizes = [arg for name in record.parameters for arg in (f"--{name}", str(size))]
            count = run_cli(capsys, "count", family, *sizes)[0]
            table = run_cli(capsys, "table", "--family", family, "--from", str(size), "--to", str(size))[0]
            assert count == table, size
            codes.add(count)
        assert codes == {0, 2}


class TestTableBound:
    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--family", "odd-complete", "--from", "2", "--to", "5460"],
            ["table", "--family", "bipartite", "--from", "1", "--to", "3000"],
        ],
        ids=" ".join,
    )
    def test_table_above_the_bound_exits_two_at_once(self, argv):
        # each cell passes as a single count; the whole table is too much
        proc = subprocess.run(
            [sys.executable, "-m", "treecount", *argv],
            capture_output=True, text=True, timeout=10,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: a query costing about ")
        assert proc.stderr.endswith(f"is above the bound of {MAX_WORK:,}\n")

    @pytest.mark.parametrize(
        "family, size",
        [("odd-complete", 5460), ("odd-bipartite", 3931), ("complete", 189483), ("bipartite", 100000)],
    )
    def test_admits_every_row_a_count_admits(self, family, size):
        # the largest single counts that terms * bits admitted before counts were priced as tables
        check_table(family, size, size)

    @pytest.mark.parametrize("top", range(598, 603))
    def test_admits_the_huge_counts_table(self, top):
        check_table("odd-complete", 2, top)

    @pytest.mark.parametrize(
        "family, start, top",
        [("odd-complete", 2, 971), ("odd-bipartite", 1, 250), ("complete", 1, 3690), ("bipartite", 1, 341)],
    )
    def test_bound_falls_between_two_tables(self, family, start, top):
        check_table(family, start, top)
        with pytest.raises(ValueError):
            check_table(family, start, top + 1)

    def test_stops_at_the_first_row_over_the_bound(self):
        # 10**10 rows; the first 100,000 cost almost nothing (K_{1,n} has one tree)
        with pytest.raises(ValueError, match="by its row m=2, n="):
            check_table("bipartite", 1, 100000)


def takes_recurrence(family, start, stop):
    """Whether table_lines reads the table from signsum.cosh_power_columns, priced as it prices it."""
    record = verify.FAMILIES[family]
    sides = len(record.parameters)
    work = _check_bounds(record, [start] * sides, [stop] * sides)
    return _recurrence_count(record, start, stop, work) is not None


def per_arity_recurrence_price(record, stop):
    """The recurrence's full price of a table up to `stop`, worked out from the family's arity.

    The reference for _recurrence_count, which reads the columns from the family's record:
    K_n's triangle from column 4, k/2 - 1 steps a column, and K_{m,n}'s grid from column 3,
    (stop - 1) // 2 steps a column.
    """
    one_side = len(record.parameters) == 1
    price = 0.0
    for k in range(4 if one_side else 3, stop + 1, 2):
        steps = k // 2 - 1 if one_side else (stop - 1) // 2
        price += _work((), 0, 0, [(steps, (steps + 1) * math.log2(k), 2)])
    return price


class TestTablePath:
    """An odd table reads the cosh-power recurrence when it costs less than its rows' kernel sums."""

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize(
        "family, start, stop, recurrence",
        [
            ("odd-complete", 2, 120, True),
            ("odd-complete", 57, 60, False),
            ("odd-complete", 100, 100, False),
            ("odd-bipartite", 1, 40, True),
            ("odd-bipartite", 30, 41, True),
            ("odd-bipartite", 57, 60, False),
            ("odd-bipartite", 3, 3, True),
            ("odd-bipartite", 5, 5, False),
        ],
    )
    def test_prints_the_bytes_of_each_rows_count(self, family, start, stop, recurrence, fmt):
        assert takes_recurrence(family, start, stop) == recurrence
        record = verify.FAMILIES[family]
        rows = list(product(range(start, stop + 1), repeat=len(record.parameters)))
        counts = [count_text(record, sizes) for sizes in rows]
        if fmt == "csv":
            expected = [",".join((*record.parameters, "count"))]
            expected += [",".join((*map(str, sizes), count)) for sizes, count in zip(rows, counts)]
        else:
            expected = [
                json.dumps({**dict(zip(record.parameters, sizes)), "count": count}, sort_keys=True)
                for sizes, count in zip(rows, counts)
            ]
        assert list(table_lines(family, start, stop, fmt)) == expected

    @pytest.mark.parametrize(
        "family, start, stop, recurrence",
        [
            # one-row tables at the count frontiers: the recurrence would start at k = 0 or 1
            ("odd-complete", 5592, 5592, False),
            ("odd-bipartite", 4347, 4347, False),
            ("odd-complete", 2, 600, True),  # the huge-counts table
            ("odd-bipartite", 1, 250, True),
            ("complete", 1, 100, False),  # a total has no brackets
        ],
    )
    def test_path_follows_the_price(self, family, start, stop, recurrence):
        assert takes_recurrence(family, start, stop) == recurrence

    @pytest.mark.parametrize("family", ["odd-complete", "odd-bipartite"])
    def test_price_is_the_per_arity_price_to_the_last_bit(self, family):
        # the recurrence is taken below its price and refused at it, so the two prices agree
        # exactly when a work at the price is refused and the next float up is not
        record = verify.FAMILIES[family]
        for stop in (*range(1, 401), 971, 2000, 4347, 5592):
            price = per_arity_recurrence_price(record, stop)
            assert _recurrence_count(record, 1, stop, price) is None, stop
            above = math.nextafter(price, math.inf)
            assert _recurrence_count(record, 1, stop, above) is not None, stop

    @pytest.mark.parametrize("family", ["complete", "bipartite"])
    def test_total_names_no_columns(self, family):
        record = verify.FAMILIES[family]
        assert record.columns is None
        assert _recurrence_count(record, 1, 100, math.inf) is None

    @pytest.mark.parametrize("family, start, stop", [("odd-complete", 2, 120), ("odd-bipartite", 1, 40)])
    def test_recurrence_makes_no_kernel_sum(self, monkeypatch, family, start, stop):
        expected = list(table_lines(family, start, stop, "csv"))

        def kernel(n, power):
            raise AssertionError("binomial_power_sum called")

        monkeypatch.setattr(formulas, "binomial_power_sum", kernel)
        assert list(table_lines(family, start, stop, "csv")) == expected

    def test_bipartite_grid_is_built_as_its_rows_read_it(self, monkeypatch):
        built = []
        columns = signsum.cosh_power_columns

        def counted(first, power=None):
            for column in columns(first, power):
                built.append(len(column))
                yield column

        monkeypatch.setattr(signsum, "cosh_power_columns", counted)
        lines = table_lines("odd-bipartite", 1, 250, "csv")
        assert [next(lines) for _ in range(4)] == ["m,n,count", "1,1,1", "1,2,0", "1,3,1"]
        assert built == [125, 125]  # columns 1 and 3, each at the 125 even powers below 250

    @pytest.mark.parametrize("family, start, stop", [("odd-complete", 2, 120), ("odd-bipartite", 1, 40)])
    def test_table_reads_each_row_once_in_row_order(self, monkeypatch, family, start, stop):
        # the record states one row's count; table_lines alone walks the rows
        record = verify.FAMILIES[family]
        calls = []

        def value(sizes):  # n, or m * 1000 + n: each row's own
            return sum(size * 1000**i for i, size in enumerate(reversed(sizes)))

        def row(bracket, *sizes):
            calls.append(sizes)
            return value(sizes)

        monkeypatch.setitem(
            verify.FAMILIES, family, record._replace(columns=lambda s: (*record.columns(s)[:2], row))
        )
        assert takes_recurrence(family, start, stop)
        lines = list(table_lines(family, start, stop, "csv"))
        rows = list(product(range(start, stop + 1), repeat=len(record.parameters)))
        assert calls == rows
        assert lines[1:] == [",".join((*map(str, sizes), str(value(sizes)))) for sizes in rows]

    @pytest.mark.parametrize("family, top", [("odd-complete", 60), ("odd-bipartite", 25)])
    def test_row_states_the_closed_form(self, family, top):
        record = verify.FAMILIES[family]
        row = record.columns(top)[2]
        for sizes in product(range(1, top + 1), repeat=len(record.parameters)):
            assert row(formulas._bracket, *sizes) == record.formula(*sizes), sizes

    def test_kernel_path_builds_no_column(self, monkeypatch):
        # tables that take the kernel: deciding so prices the columns and builds none
        tables = [
            ("odd-complete", 57, 60), ("odd-bipartite", 57, 60), ("odd-complete", 100, 100),
            ("complete", 1, 30),
        ]
        assert not any(takes_recurrence(*table) for table in tables)
        expected = [list(table_lines(*table, "csv")) for table in tables]

        def columns(first, power=None):
            raise AssertionError("cosh_power_columns called")

        monkeypatch.setattr(signsum, "cosh_power_columns", columns)
        assert [list(table_lines(*table, "csv")) for table in tables] == expected


class TestInternalError:
    def test_inexact_division_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(formulas, "binomial_power_sum", lambda n, power: 1)
        code, out, err = run_cli(capsys, "count", "odd-complete", "--n", "6")
        assert (code, out) == (3, "")
        assert err == "internal error: InexactDivisionError: 1 is not divisible by 64\n"


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--scope",
            "complete",
            "--complete-max",
            "6",
            "--format",
            "text",
        )
        assert code == 0
        assert "summary: total=" in out
        assert "failed=0" in out
        assert '[ok ] odd-complete n=6 formula=96 oracle=96' in out

    def test_jsonl_output_parses(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--scope", "signsum", "--format", "jsonl"
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert all(r["match"] for r in records)

    def test_parity_cases_report_zero_on_both_sides(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--scope",
            "complete",
            "--complete-max",
            "3",
            "--format",
            "jsonl",
        )
        assert code == 0
        odd_cases = [
            json.loads(line)
            for line in out.strip().splitlines()
            if json.loads(line)["family"] == "odd-complete"
            and json.loads(line)["parameters"]["n"] == 3
        ]
        assert odd_cases
        assert all(
            r["formula_value"] == "0" and r["oracle_value"] == "0" for r in odd_cases
        )

    def test_mismatch_exits_nonzero(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "spanning_trees_complete", lambda n: 7)
        code, out, _ = run_cli(
            capsys, "verify", "--scope", "complete", "--complete-max", "3"
        )
        assert code == 1
        assert "[FAIL]" in out

    def test_raising_case_exits_three(self, capsys, monkeypatch):
        def broken(n):
            raise ZeroDivisionError("bug")

        monkeypatch.setattr(verify, "odd_spanning_trees_complete", broken)
        code, out, err = run_cli(
            capsys, "verify", "--scope", "complete", "--complete-max", "3"
        )
        assert code == 3
        assert "[FAIL] odd-complete n=3 formula=0 oracle=0 " in out
        assert out.endswith(" failed=5\n")  # the full report, as on any other exit
        assert err == (
            "internal error: 5 of 11 verify cases raised, the first odd-complete"
            " (pruefer-brute): ZeroDivisionError: bug\n"
        )

    def test_mismatch_outranks_a_raising_case(self, capsys, monkeypatch):
        def broken(n):
            raise ZeroDivisionError("bug")

        monkeypatch.setattr(verify, "odd_spanning_trees_complete", broken)
        monkeypatch.setattr(verify, "spanning_trees_complete", lambda n: 7)
        code, out, err = run_cli(
            capsys, "verify", "--scope", "complete", "--complete-max", "3", "--format", "jsonl"
        )
        assert (code, err) == (1, "")
        records = [json.loads(line) for line in out.splitlines()]
        assert {r["family"] for r in records if "error" in r} == {"odd-complete"}
        assert any(r["formula_value"] != r["oracle_value"] for r in records)

    def test_out_of_range_bound_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--complete-max", "11")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("scope", [",", ""])
    def test_empty_scope_is_usage_error(self, capsys, scope):
        code, out, err = run_cli(capsys, "verify", "--scope", scope)
        assert (code, out) == (2, "")
        assert "error: no verification scope given" in err


class TestTable:
    def test_odd_complete_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table",
            "--family",
            "odd-complete",
            "--from",
            "2",
            "--to",
            "8",
            "--format",
            "csv",
        )
        assert code == 0
        assert out == (
            "n,count\n2,1\n3,0\n4,4\n5,0\n6,96\n7,0\n8,5888\n"
        )

    def test_bipartite_includes_square_cell(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--family", "bipartite", "--from", "1", "--to", "3"
        )
        assert code == 0
        assert out.startswith("m,n,count\n")
        assert "3,3,81" in out.splitlines()

    def test_odd_bipartite_zeros_off_odd_odd(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table",
            "--family",
            "odd-bipartite",
            "--from",
            "1",
            "--to",
            "3",
            "--format",
            "jsonl",
        )
        assert code == 0
        rows = {
            (r["m"], r["n"]): r["count"]
            for r in map(json.loads, out.strip().splitlines())
        }
        assert rows[(1, 1)] == "1"
        assert rows[(3, 3)] == "9"
        assert all(
            count == "0"
            for (m, n), count in rows.items()
            if m % 2 == 0 or n % 2 == 0
        )

    def test_csv_round_trips_byte_identically(self):
        header, *body = table_lines("odd-complete", 2, 9, "csv")
        reparsed = [(int(n), int(count)) for n, count in (line.split(",") for line in body)]
        assert header == "n,count"
        assert reparsed == [(n, formulas.odd_spanning_trees_complete(n)) for n in range(2, 10)]
        assert [f"{n},{count}" for n, count in reparsed] == body

    def test_jsonl_round_trips_byte_identically(self):
        lines = list(table_lines("bipartite", 1, 4, "jsonl"))
        records = [json.loads(line) for line in lines]
        assert [json.dumps(record, sort_keys=True) for record in records] == lines
        assert [(r["m"], r["n"], int(r["count"])) for r in records] == [
            (m, n, formulas.spanning_trees_bipartite(m, n))
            for m in range(1, 5)
            for n in range(1, 5)
        ]

    def test_closed_stdout_stops_a_long_table_at_once(self, monkeypatch, tmp_path):
        # complete 1..3,690 takes seconds whole: each row must be computed only as it
        # prints, so a reader gone after two lines stops the table at its second row
        rows = []
        formula = verify.spanning_trees_complete
        monkeypatch.setattr(
            verify, "spanning_trees_complete", lambda n: rows.append(n) or formula(n)
        )
        with open(tmp_path / "stdout", "w") as sink:

            class ClosedAfterTwoLines(io.StringIO):
                def write(self, text):
                    if self.getvalue().count("\n") == 2:
                        raise BrokenPipeError
                    return super().write(text)

                def fileno(self):  # where main sends the rest once the reader is gone
                    return sink.fileno()

            stdout = ClosedAfterTwoLines()
            monkeypatch.setattr(sys, "stdout", stdout)
            code = main(["table", "--family", "complete", "--from", "1", "--to", "3690"])
        assert code == 141
        assert stdout.getvalue() == "n,count\n1,1\n"
        assert rows == [1, 2]

    def test_malformed_range_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "--family", "complete", "--from", "5", "--to", "2"
        )
        assert code == 2
        assert "error:" in err


class TestSignsum:
    def test_both_mode_match(self, capsys):
        code, out, _ = run_cli(
            capsys, "signsum", "--coeffs", "1,1", "--power", "2", "--mode", "both"
        )
        assert code == 0
        assert out == "8\n8\nmatch\n"

    def test_direct_odd_power(self, capsys):
        code, out, _ = run_cli(
            capsys, "signsum", "--coeffs", "2", "--power", "3", "--mode", "direct"
        )
        assert (code, out) == (0, "0\n")

    def test_multinomial_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "signsum", "--coeffs", "1,2", "--power", "2", "--mode",
            "multinomial",
        )
        assert (code, out) == (0, "20\n")

    def test_multinomial_mode_past_hypercube_limit(self, capsys):
        coeffs = ",".join(["1"] * 30)
        code, out, _ = run_cli(
            capsys, "signsum", "--coeffs", coeffs, "--power", "30", "--mode",
            "multinomial",
        )
        assert (code, out) == (0, f"{binomial_power_sum(30, 30)}\n")

    def test_both_mode_mismatch_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(signsum, "multinomial_power_sum", lambda coeffs, power: 0)
        code, out, _ = run_cli(
            capsys, "signsum", "--coeffs", "1,1", "--power", "2", "--mode", "both"
        )
        assert (code, out) == (1, "8\n0\nmismatch\n")

    def test_empty_coeffs_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "signsum", "--coeffs", "", "--power", "2")
        assert_usage_error(code, out, err)
        assert "--coeffs must not be empty" in err

    def test_huge_value_prints_in_full(self, capsys):
        # 2 * (3**30000 + 1) is above DECIMAL_SPLIT_BITS, so decimal_string splits it
        value = 2 * (3**30000 + 1)
        assert value.bit_length() > DECIMAL_SPLIT_BITS
        code, out, _ = run_cli(
            capsys, "signsum", "--coeffs", "1,2", "--power", "30000", "--mode", "direct"
        )
        assert (code, out) == (0, f"{value}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--coeffs", "9", "--power", "3000000", "--mode", "direct"], "digits"),
            (["--coeffs", "1", "--power", "100000", "--mode", "multinomial"], "units of work"),
            (["--coeffs", "1,2", "--power", "3000000"], "digits"),
            # all 2**24 forms are distinct, so the sum pairs 2**12 values with 2**12
            (["--coeffs", ",".join(str(2**i) for i in range(24)), "--power", "0", "--mode",
              "direct"], "units of work"),
            # 2**26 pairs of distinct forms, about 4 s, each charged the floor of one step
            (["--coeffs", ",".join(str(2**i) for i in range(26)), "--power", "0", "--mode",
              "direct"], "units of work"),
            # 2**22 pairs, about 2.4 s, each a form of about 700 bits raised to the power 32
            (["--coeffs", ",".join(str(2**i) for i in range(22)), "--power", "32", "--mode",
              "direct"], "units of work"),
            # 32 and 64 pairs of forms of about 3.1M bits, which took 7.7 and 8.8 s when
            # priced linearly in their bits
            (["--coeffs", "1,2,4,8,16", "--power", "670526", "--mode", "direct"],
             "units of work"),
            (["--coeffs", "1,2,4,8,16,32", "--power", "522810", "--mode", "direct"],
             "units of work"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else value,
    )
    def test_query_above_the_bound_exits_two_at_once(self, argv, message):
        proc = subprocess.run(
            [sys.executable, "-m", "treecount", "signsum", *argv],
            capture_output=True, text=True, timeout=10,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        bound = MAX_DIGITS if message == "digits" else MAX_WORK
        assert proc.stderr.endswith(f"{message} is above the bound of {bound:,}\n")

    @pytest.mark.parametrize(
        "coeffs, mode, largest",
        [
            # fresh-process times, 2-core Xeon, Python 3.11
            ([1], "multinomial", 2338),  # the binomial table alone, about 0.6 s
            ([1, 2], "both", 1708),  # both modes' work and renderings, about 0.9 s
            ([1] * 30, "multinomial", 1132),  # one pass of the power recurrence, about 0.6 s
            ([1] * 20, "direct", 123_734),  # 11 * 11 pairs, about 0.6 s
            ([9], "direct", 1_047_950),  # the digit bound: 9**power has a million digits
            ([2**i for i in range(22)], "direct", 2),  # 2**22 pairs of distinct forms, 0.7 s
        ],
    )
    def test_bound_falls_between_two_even_powers(self, coeffs, mode, largest):
        _check_signsum_bounds(coeffs, largest, mode)
        with pytest.raises(ValueError, match="above the bound"):
            _check_signsum_bounds(coeffs, largest + 2, mode)

    @pytest.mark.parametrize(
        "coeffs, mode, power, longest",
        [
            # n layers of one value each, a count of up to n bits made by additions, priced
            # linearly in its bits: about 0.11 s in process, 0.26 to 0.38 s in a fresh one
            ("zeros", "direct", 0, 49_976),
            # n - 1 convolutions of 21 terms, each two products at the floor: about 3.2 s
            ("1..n", "multinomial", 10, 351_263),
            # a folded odd power: 855 * 855 pairs and as many layer values, each one addition
            # of up to n bits, and no power: about 1.7 s in process, 1,400 ones about 0.9 s
            pytest.param("ones", "direct", 10**400 + 1, 1_708, id="ones-direct-10**400+1-1708"),
        ],
    )
    def test_bound_falls_between_two_lengths(self, coeffs, mode, power, longest):
        make = {
            "zeros": lambda n: [0] * n,
            "1..n": lambda n: list(range(1, n + 1)),
            "ones": lambda n: [1] * n,
        }[coeffs]
        _check_signsum_bounds(make(longest), power, mode)
        with pytest.raises(ValueError, match="units of work"):
            _check_signsum_bounds(make(longest + 1), power, mode)

    def test_an_odd_power_costs_the_expansion_nothing(self, capsys):
        assert run_cli(
            capsys, "signsum", "--coeffs", "1", "--power", "100001", "--mode", "multinomial"
        ) == (0, "0\n", "")

    def test_an_odd_power_renders_one_digit(self):
        # the value 0 costs no rendering: both modes pass at the digit bound's odd power,
        # where two renderings of a million digits would cost about 1.7e11
        _check_signsum_bounds([9], 1_047_949, "both")
        with pytest.raises(ValueError, match="units of work"):
            _check_signsum_bounds([9], 1_047_950, "both")

    @pytest.mark.parametrize(
        "argv",
        [
            # the expansion returns 0 at once: 2**2 * 2**power has about 3e6 digits
            ["--coeffs", "1,1", "--power", "10000001", "--mode", "multinomial"],
            # 9**power has just over a million digits, but the sum is 0: about 1 s
            ["--coeffs", "9", "--power", "1047953", "--mode", "both"],
        ],
        ids=" ".join,
    )
    def test_odd_power_past_the_digit_bound_prints_zero(self, capsys, argv):
        out = "0\n0\nmatch\n" if argv[-1] == "both" else "0\n"
        assert run_cli(capsys, "signsum", *argv) == (0, out, "")

    @pytest.mark.parametrize(
        "coeffs, mode, largest",
        [
            # 2**22 distinct forms are too many to tally, so each pair is priced as a power
            ([2**i for i in range(22)], "direct", 3),
        ],
    )
    def test_bound_falls_between_two_odd_powers(self, coeffs, mode, largest):
        # the value 0 has one digit, so only the work of the modes bounds an odd power
        _check_signsum_bounds(coeffs, largest, mode)
        with pytest.raises(ValueError, match="units of work"):
            _check_signsum_bounds(coeffs, largest + 2, mode)

    @pytest.mark.parametrize(
        "coeffs, mode",
        [
            ([9], "both"),
            ([1] * 20, "direct"),
            # the built halves of 4 values each would pair, but their bounds of 8 fold
            ([4] * 6, "direct"),
        ],
    )
    def test_a_folded_odd_power_prints_its_zero_past_the_float_range(self, capsys, coeffs, mode):
        # each |form|'s count cancels in the tally, so no form is raised and the price has no
        # power in it: the work bound admits the sum at any odd power
        listed = ",".join(map(str, coeffs))
        argv = ["--coeffs", listed, "--power", HUGE["10**400+1"], "--mode", mode]
        out = "0\n0\nmatch\n" if mode == "both" else "0\n"
        assert run_cli(capsys, "signsum", *argv) == (0, out, "")

    def test_forty_ones_match_in_both_modes(self, capsys):
        # 2**40 sign vectors, but each half's tally keeps 21 form values
        value = binomial_power_sum(40, 40)
        argv = ["--coeffs", ",".join(["1"] * 40), "--power", "40", "--mode", "both"]
        assert run_cli(capsys, "signsum", *argv) == (0, f"{value}\n{value}\nmatch\n", "")

    @pytest.mark.parametrize("n", [2000, 3000])
    @pytest.mark.parametrize(
        "shape, code",
        [
            ("zeros", 0),  # one form value, 0, in every layer
            ("ones", 2),
            ("powers of two", 2),  # 2**n pairs, past the float range
            ("10**400", 2),  # layers of 2**k values, past the float range from n = 3000 on
        ],
    )
    def test_thousands_of_coefficients_meet_the_bound(self, capsys, n, shape, code):
        coeffs = {
            "zeros": [0] * n,
            "ones": [1] * n,
            "powers of two": [2**i for i in range(n)],
            "10**400": [10**400] * n,
        }[shape]
        argv = ["--coeffs", ",".join(map(str, coeffs)), "--power", "0", "--mode", "direct"]
        if code == 0:
            assert run_cli(capsys, "signsum", *argv) == (0, f"{2**n}\n", "")
        else:
            assert_usage_error(*run_cli(capsys, "signsum", *argv))


class TestOracle:
    def test_complete_accept_all(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "complete", "--n", "4")
        assert (code, out) == (0, "16\n")

    def test_complete_odd_filter(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "complete", "--n", "6", "--odd")
        assert (code, out) == (0, "96\n")

    def test_complete_at_the_brute_force_limit(self, capsys):
        # K_9: 9**7 trees, and no odd one, since nine odd degrees cannot sum to 16
        assert run_cli(capsys, "oracle", "complete", "--n", "9") == (0, "4782969\n", "")
        assert run_cli(capsys, "oracle", "complete", "--n", "9", "--odd") == (0, "0\n", "")

    def test_complete_degree_filter(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "complete", "--n", "4", "--degrees", "2,2,1,1"
        )
        assert (code, out) == (0, "2\n")

    def test_bipartite_degree_filter(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "oracle",
            "bipartite",
            "--m", "2", "--n", "3", "--a", "2,2", "--b", "2,1,1",
        )
        assert (code, out) == (0, "2\n")

    @pytest.mark.parametrize(
        "family, argv, profiles, out",
        [
            ("complete", ["--n", "4", "--degrees", "2,2,1,1"],
             [((2, 2, 1, 1),), ((1, 1, 2, 2),)], "(4,) True False\n"),
            ("bipartite", ["--m", "2", "--n", "3", "--a", "2,2", "--b", "2,1,1"],
             [((2, 2), (2, 1, 1)), ((2, 2), (1, 1, 2))], "(2, 3) True False\n"),
        ],
        ids=["complete", "bipartite"],
    )
    def test_degree_filter_counts_through_the_family_profile_oracle(
        self, capsys, monkeypatch, family, argv, profiles, out
    ):
        record = verify.FAMILIES[family]
        options, formula, _ = record.profile
        # the oracle named by the profile, printing its sizes and its predicate's verdicts
        stub = lambda *args: " ".join([str(args[:-1]), *(str(args[-1](*p)) for p in profiles)])
        patched = record._replace(
            oracles={**record.oracles, "stub": stub}, profile=(options, formula, "stub")
        )
        monkeypatch.setitem(verify.FAMILIES, family, patched)
        assert run_cli(capsys, "oracle", family, *argv) == (0, out, "")

    def test_bipartite_accept_all(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "bipartite", "--m", "2", "--n", "3")
        assert (code, out) == (0, "12\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("complete", "--n", "6", "--odd", "--degrees", "2,2,1,1"),
            ("bipartite", "--m", "2", "--n", "3", "--odd", "--a", "2,2", "--b", "2,1,1"),
            ("bipartite", "--m", "2", "--n", "3", "--degrees", "9,9"),
            ("complete", "--n", "4", "--a", "2,2", "--b", "1,1"),
            ("complete", "--n", "4", "--cycle", "5"),
            ("matrix-tree", "--cycle", "4", "--odd"),
            ("matrix-tree", "--cycle", "4", "--vertices", "9"),
            ("bipartite", "--m", "2", "--n", "2", "--bipartite", "3,3"),
        ],
        ids=[
            "odd-with-degrees",
            "odd-with-sides",
            "degrees-on-bipartite",
            "sides-on-complete",
            "source-on-complete",
            "odd-on-matrix-tree",
            "vertices-with-cycle",
            "source-on-bipartite",
        ],
    )
    def test_filter_that_would_be_ignored_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "oracle", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("complete", "--n", "5", "--degrees", "2,2,1,1"),
            ("complete", "--n", "3", "--degrees", "2,1,1,0"),
            ("bipartite", "--m", "2", "--n", "3", "--a", "2,2,1", "--b", "2,1,1"),
            ("bipartite", "--m", "2", "--n", "3", "--a", "2,2", "--b", "2,1"),
        ],
        ids=" ".join,
    )
    def test_profile_of_wrong_length_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "oracle", *argv)
        assert_usage_error(code, out, err)
        assert "one per vertex" in err

    @pytest.mark.parametrize("sides", ["3,-2", "0,3"])
    def test_matrix_tree_bipartite_needs_both_sides(self, capsys, sides):
        code, out, err = run_cli(capsys, "oracle", "matrix-tree", "--bipartite", sides)
        assert_usage_error(code, out, err)
        assert "side sizes must be >= 1" in err

    def test_matrix_tree_cycle(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "matrix-tree", "--cycle", "4")
        assert (code, out) == (0, "4\n")

    def test_matrix_tree_edge_list(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "matrix-tree", "--edges", "1-2,2-3", "--vertices", "3"
        )
        assert (code, out) == (0, "1\n")

    @pytest.mark.parametrize(
        "source",
        [
            ("--complete", "101"),
            ("--bipartite", "50,51"),
            ("--path", "101"),
            ("--cycle", "101"),
            ("--edges", "1-2", "--vertices", "1000000000"),
        ],
        ids=" ".join,
    )
    def test_matrix_tree_above_vertex_bound_is_usage_error(self, capsys, source):
        code, out, err = run_cli(capsys, "oracle", "matrix-tree", *source)
        assert_usage_error(code, out, err)
        assert "matrix-tree is bounded at 100 vertices" in err

    def test_matrix_tree_at_vertex_bound(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "matrix-tree", "--path", "100")
        assert (code, out) == (0, "1\n")

    def test_matrix_tree_needs_one_source(self, capsys):
        code, _, err = run_cli(
            capsys, "oracle", "matrix-tree", "--cycle", "4", "--path", "3"
        )
        assert code == 2

    @pytest.mark.parametrize("family", list(verify.FAMILIES))
    def test_prints_the_family_brute_oracle(self, capsys, family):
        record = verify.FAMILIES[family]
        (brute,) = [o for kind, o in record.oracles.items() if kind.endswith("-brute")]
        odd = ["--odd"] if record.odd else []
        for sizes in product(range(1, 7), repeat=len(record.parameters)):
            if sum(sizes) > 6:
                continue
            options = [
                arg for name, size in zip(record.parameters, sizes) for arg in (f"--{name}", str(size))
            ]
            code, out, err = run_cli(capsys, "oracle", record.scope, *options, *odd)
            assert (code, out, err) == (0, f"{brute(*sizes)}\n", ""), sizes

    def test_oversize_brute_force_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "complete", "--n", "12")
        assert code == 2
        assert "error:" in err


class TestArgparseBehavior:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("count", "degrees", "--degrees", "2,x"),
             "argument --degrees: expected comma-separated integers, got '2,x'"),
            (("oracle", "matrix-tree", "--bipartite", "3"),
             "argument --bipartite: expected two comma-separated integers, got '3'"),
            (("oracle", "matrix-tree", "--edges", "1-2-3", "--vertices", "3"),
             "argument --edges: expected edges like 1-2,2-3 got '1-2-3'"),
        ],
        ids=["int-list", "int-pair", "edge-list"],
    )
    def test_malformed_option_value_exits_two(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")

    def test_closed_stdout_exits_141_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "treecount", "table", "--family", "bipartite",
             "--from", "1", "--to", "100"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"m,n,count\n"
        proc.stdout.close()  # the rest of the table no longer has a reader
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "treecount", "count", "complete", "--n", "5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "125\n"
