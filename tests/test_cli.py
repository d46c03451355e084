"""End-to-end tests of the command-line interface."""

import json
import subprocess
import sys
from itertools import product

import pytest

from treecount import formulas, signsum, verify
from treecount.cli import (
    DECIMAL_SPLIT_BITS,
    MAX_DIGITS,
    decimal_string,
    MAX_KERNEL_BITS,
    _check_bounds,
    _check_signsum_bounds,
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

    def test_missing_size_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "count", "complete")
        assert code == 2
        assert out == ""
        assert "--n" in err

    def test_nonpositive_size_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "count", "complete", "--n", "0")
        assert code == 2
        assert "error:" in err

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
                for family, (parameters, _, _) in verify.FAMILIES.items()
                for other, _, _ in verify.FAMILIES.values()
                for name in other
                if name not in parameters
            }
        ),
    )
    def test_size_of_another_family_is_usage_error(self, capsys, family, name):
        parameters, _, _ = verify.FAMILIES[family]
        sizes = [arg for size in parameters for arg in (f"--{size}", "3")]
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


class TestDecimalString:
    @pytest.fixture(autouse=True)
    def unlimited_str(self, int_str_limit):
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(0)  # the reference str() of huge values

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


class TestKernelBound:
    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "odd-complete", "--n", "10000"],
            ["count", "odd-bipartite", "--m", "1", "--n", "400000001"],
            ["count", "odd-bipartite", "--m", "5000", "--n", "5001"],
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
        assert proc.stderr.startswith("error: an odd count summing about ")
        assert proc.stderr.endswith(f"bits of terms is above the bound of {MAX_KERNEL_BITS:,}\n")

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
        _check_bounds(family, sizes)

    def test_bound_grows_with_every_size(self):
        # odd-complete is admitted up to n = 5,460 and rejected from 5,461, at any parity
        for n in (5459, 5460):
            _check_bounds("odd-complete", [n])
        for n in (5461, 5462):
            with pytest.raises(ValueError):
                _check_bounds("odd-complete", [n])

    def test_digit_bound_is_checked_first(self, capsys):
        code, out, err = run_cli(capsys, "count", "odd-complete", "--n", "1000000000")
        assert_usage_error(code, out, err)
        assert "digits is above the bound" in err


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

    def test_closed_stdout_stops_a_long_table_at_once(self):
        # the whole table would take minutes; its first lines print as they come
        proc = subprocess.Popen(
            [sys.executable, "-m", "treecount", "table", "--family", "bipartite",
             "--from", "1", "--to", "3000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.readline() == b"m,n,count\n"
            assert proc.stdout.readline() == b"1,1,1\n"
            proc.stdout.close()
            assert proc.wait(timeout=10) == 141
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()

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
            (["--coeffs", "1", "--power", "100000", "--mode", "multinomial"], "bits of terms"),
            (["--coeffs", "1,2", "--power", "3000000"], "digits"),
            (["--coeffs", ",".join(["1"] * 23), "--power", "0", "--mode", "direct"],
             "bits of terms"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else value,
    )
    def test_query_above_the_bound_exits_two_at_once(self, argv, message):
        proc = subprocess.run(
            [sys.executable, "-m", "treecount", "signsum", *argv],
            capture_output=True, text=True, timeout=10,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        bound = MAX_DIGITS if message == "digits" else MAX_KERNEL_BITS
        assert proc.stderr.endswith(f"{message} is above the bound of {bound:,}\n")

    @pytest.mark.parametrize(
        "coeffs, mode, largest",
        [
            ([1], "multinomial", 924),  # about 1.4 s (2-core Xeon, Python 3.11)
            ([1, 2], "both", 692),
            ([1] * 30, "multinomial", 216),
            ([1] * 20, "direct", 38),  # 2**20 terms
            ([9], "direct", 1_047_950),  # the digit bound: 9**power has a million digits
        ],
    )
    def test_bound_falls_between_two_even_powers(self, coeffs, mode, largest):
        _check_signsum_bounds(coeffs, largest, mode)
        with pytest.raises(ValueError, match="above the bound"):
            _check_signsum_bounds(coeffs, largest + 2, mode)

    def test_an_odd_power_costs_the_expansion_nothing(self, capsys):
        assert run_cli(
            capsys, "signsum", "--coeffs", "1", "--power", "100001", "--mode", "multinomial"
        ) == (0, "0\n", "")

    def test_direct_mode_size_limit_is_usage_error(self, capsys):
        coeffs = ",".join(["1"] * 25)
        code, _, err = run_cli(
            capsys, "signsum", "--coeffs", coeffs, "--power", "2", "--mode", "direct"
        )
        assert code == 2
        assert "error:" in err


class TestOracle:
    def test_complete_accept_all(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "complete", "--n", "4")
        assert (code, out) == (0, "16\n")

    def test_complete_odd_filter(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "complete", "--n", "6", "--odd")
        assert (code, out) == (0, "96\n")

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
        parameters, _, family_oracles = verify.FAMILIES[family]
        (brute,) = [o for kind, o in family_oracles.items() if kind.endswith("-brute")]
        odd = ["--odd"] if family.startswith("odd-") else []
        for sizes in product(range(1, 7), repeat=len(parameters)):
            if sum(sizes) > 6:
                continue
            options = [arg for name, size in zip(parameters, sizes) for arg in (f"--{name}", str(size))]
            code, out, err = run_cli(
                capsys, "oracle", family.removeprefix("odd-"), *options, *odd
            )
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
