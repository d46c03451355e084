"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import FAILED, WORKLOADS, WRONG, CliOp, _cli_outcome  # noqa: E402

from treecount import cli, formulas, signsum  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _bench(*args):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    code, stdout, stderr = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                  "--trace", trace, "--smoke")
    assert code == 0, stderr
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_no_result_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dual-form", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# A stand-in for treecount.cli: `verify` prints a jsonl report of the smoke
# sweep's 39 cases with one mismatch and exits 1, as the real CLI does on a
# mismatch; every other command raises, as an internal error would.
FAULTY_CLI = """
import json


def main(argv):
    if argv[0] != "verify":
        raise ArithmeticError("inexact division")
    for case in range(39):
        print(json.dumps({"case": case, "match": case != 7}))
    return 1
"""


@pytest.mark.parametrize("workload", ["verify-sweep", "huge-counts"])
def test_a_mismatch_or_an_internal_error_fails_the_run(tmp_path, workload):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    package = tmp_path / "src" / "treecount"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(FAULTY_CLI)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_reference_samples_during_a_window_and_stops():
    reference = run.Reference()
    try:
        time.sleep(0.3)
        begin = time.perf_counter()
        time.sleep(0.3)
        end = time.perf_counter()
    finally:
        reference.stop()
    assert reference.process.returncode == 0
    inside = [start for start, _ in reference.samples if begin <= start <= end]
    assert len(inside) >= 2
    assert 0 < reference.during(begin, end) < 1
    # A window with no sample in it falls back to all of the run's samples.
    assert reference.during(end + 10, end + 11) > 0


def test_exit_codes_and_output_are_judged_together():
    op = CliOp(["count", "complete", "--n", "4"], lambda out: out == "16\n",
               known_failure="Exceeds the limit")
    assert _cli_outcome(0.1, 0, "16\n", "", op).status == "ok"
    assert _cli_outcome(0.1, 0, "17\n", "", op).status == WRONG
    assert _cli_outcome(0.1, 1, "17\n", "", op).status == WRONG
    assert _cli_outcome(0.1, 0, "", "", op).status == WRONG
    baseline = _cli_outcome(0.1, 2, "", "error: Exceeds the limit (4300 digits)", op)
    assert (baseline.status, baseline.known) == (FAILED, True)
    other = _cli_outcome(0.1, 2, "", "error: something else", op)
    assert (other.status, other.known) == (FAILED, False)


def test_modular_check_rejects_a_corrupted_digit():
    sys.set_int_max_str_digits(0)
    text = str(formulas.odd_spanning_trees_complete(300))
    expected = checks.odd_complete_mod(300)
    assert checks.count_output_ok(text + "\n", expected)
    for position in (0, len(text) // 2, len(text) - 1):
        digit = str((int(text[position]) + 1) % 10 or 1)
        corrupted = text[:position] + digit + text[position + 1:]
        assert not checks.count_output_ok(corrupted + "\n", expected)
    assert not checks.count_output_ok(text[:-1] + "\n", expected)
    assert not checks.count_output_ok("0" + text + "\n", expected)


def test_modular_forms_match_the_exact_counts():
    for n in range(1, 30):
        assert checks.text_residues(str(formulas.odd_spanning_trees_complete(n))) == \
            checks.odd_complete_mod(n)
        assert checks.residues(formulas.spanning_trees_complete(n)) == checks.complete_mod(n)
    for m in range(1, 12):
        for n in range(1, 12):
            assert checks.residues(formulas.odd_spanning_trees_bipartite(m, n)) == \
                checks.odd_bipartite_mod(m, n)


def test_table_check_rejects_a_corrupted_row():
    rows = {n: checks.odd_complete_mod(n) for n in range(2, 9)}
    text = "n,count\n" + "".join(
        f"{n},{formulas.odd_spanning_trees_complete(n)}\n" for n in rows)
    assert checks.table_output_ok(text, rows)
    assert not checks.table_output_ok(text.replace("8,", "9,"), rows)
    assert not checks.table_output_ok(text.replace(",96\n", ",97\n"), rows)


def _assert_self_times_consistent(spans):
    own = tracing.self_times(spans)
    assert all(value >= 0 for value in own)
    for index, (name, start, end, parent, *_rest) in enumerate(spans):
        children = [s for s in spans if s[3] == index]
        assert own[index] <= end - start
        assert sum(c[2] - c[1] for c in children) + spans[index][5] <= end - start
    roots = [s for s in spans if s[3] is None]
    aggregated = sum(s[5] for s in spans)
    assert sum(own) + aggregated == pytest.approx(sum(s[2] - s[1] for s in roots))


def test_self_times_of_synthetic_spans():
    spans = [
        ["root", 0.0, 10.0, None, 0, 1.0, None],
        ["a", 1.0, 4.0, 0, 0, 0.0, None],
        ["b", 5.0, 9.0, 0, 0, 0.5, None],
        ["c", 6.0, 7.0, 2, 0, 0.0, None],
    ]
    assert tracing.self_times(spans) == [2.0, 3.0, 2.5, 1.0]
    _assert_self_times_consistent(spans)


def test_traced_calls_nest_and_restore():
    originals = (cli.main, formulas.binomial_power_sum, signsum.binomial_power_sum,
                 cli._COMPLETE_TABLE_FNS["odd-complete"], formulas.multinomial)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert formulas.binomial_power_sum is not originals[1]
        root = tracer.open("bench.op")
        cli.main(["table", "--family", "odd-complete", "--from", "2", "--to", "12"])
        formulas.odd_spanning_trees_complete_by_sum(10)
        tracer.close(root)
    finally:
        restore()
    assert (cli.main, formulas.binomial_power_sum, signsum.binomial_power_sum,
            cli._COMPLETE_TABLE_FNS["odd-complete"], formulas.multinomial) == originals
    assert "print" not in vars(cli)
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "cli.parse", "cli.render", "formulas.odd_spanning_trees_complete",
            "signsum.binomial_power_sum", "combinatorics.exact_div"} <= names
    # C(13, 9): the even compositions of 8 into 10 parts
    assert tracer.totals["combinatorics.multinomial"][0] == 715
    assert tracer.counts["combinatorics.even_compositions.items"] == 715
    assert tracer.counts["signsum.binomial_power_sum.terms"] == sum(n + 1 for n in range(2, 13))
    _assert_self_times_consistent(tracer.spans)
