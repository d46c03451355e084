"""The four benchmark workloads and how one operation of each is run and checked.

Every workload is a fixed list of operations built from the seed; one pass
runs them all, one at a time (a closed loop with one client).  An
operation's latency covers only the call into treecount; its output is
checked afterwards, outside the timed region.  Why each workload exists is
written down in NOTES.md next to this file.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import checks
import child

OK, FAILED, WRONG = "ok", "failed", "wrong"
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")


@dataclass
class Outcome:
    seconds: float
    status: str  # OK, FAILED (non-zero exit or exception) or WRONG (bad output)
    digits: int = 0  # digit characters written to stdout
    detail: str = ""
    peak_kb: int = 0  # peak resident memory of the fresh interpreter, if one ran
    known: bool = False  # FAILED by the documented baseline defect (see NOTES.md)


@dataclass
class CliOp:
    argv: list[str]
    check: Callable[[str], bool]  # stdout -> correct?
    known_failure: str = ""  # stderr text of a documented defect this op runs into


@dataclass
class PairOp:
    """Two functions that must return equal values on the same arguments."""

    module: str
    left: str
    right: str
    args: tuple


def child_env(root: str) -> dict:
    """The environment of a fresh interpreter that imports treecount from `root`/src."""
    paths = [os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def _digits(text: str) -> int:
    return sum(map(str.isdigit, text))


def _cli_outcome(seconds: float, code: int, stdout: str, stderr: str, op: CliOp) -> Outcome:
    """WRONG if the op printed output that fails its check, whatever the exit code."""
    digits = _digits(stdout)
    if (stdout or code == 0) and not op.check(stdout):
        return Outcome(seconds, WRONG, digits, f"wrong output (exit {code}) for {op.argv}")
    if code != 0:
        known = bool(op.known_failure) and op.known_failure in stderr
        return Outcome(seconds, FAILED, digits, f"exit {code}: {stderr.strip()[:200]}", known=known)
    return Outcome(seconds, OK, digits)


class Workload:
    name = ""
    fresh_process = False  # every operation starts a fresh interpreter
    warmup = False  # one untimed pass before measuring

    def __init__(self, root: str, seed: int, smoke: bool) -> None:
        self.root = root
        self.rng = random.Random(f"{self.name}:{seed}")
        self.seed = seed
        self.ops = self.build(smoke)

    def build(self, smoke: bool) -> list:
        raise NotImplementedError

    def run(self, op, tracer=None) -> Outcome:
        raise NotImplementedError


class InProcessCli(Workload):
    """``treecount.cli.main(argv)`` in this process, stdout captured."""

    def run(self, op: CliOp, tracer=None) -> Outcome:
        import treecount.cli as cli

        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            span = tracer.open("bench.op") if tracer else None
            start = time.perf_counter()
            try:
                code = cli.main(op.argv)
            except Exception:  # an internal error ends the op, not the benchmark
                code, stderr = 1, io.StringIO(traceback.format_exc())
            finally:
                seconds = time.perf_counter() - start
                if tracer:
                    tracer.close(span)
        return _cli_outcome(seconds, code, stdout.getvalue(), stderr.getvalue(), op)


class SubprocessCli(Workload):
    """The CLI in a fresh interpreter per operation, run by child.py."""

    fresh_process = True

    def run(self, op: CliOp, tracer=None) -> Outcome:
        span = tracer.open("bench.op") if tracer else None
        start = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, CHILD, "1" if tracer else "0", *op.argv],
                cwd=self.root, env=child_env(self.root),
                capture_output=True, text=True, timeout=150,
            )
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
            return Outcome(time.perf_counter() - start, FAILED, 0, str(exc))
        finally:
            seconds = time.perf_counter() - start
            if tracer:
                tracer.close(span)
        stderr, result = child.split_result(done.stderr)
        outcome = _cli_outcome(seconds, done.returncode, done.stdout, stderr, op)
        if result:
            outcome.peak_kb = result["peak_kb"]
            if tracer:
                tracer.absorb(result["trace"], span)
        return outcome


class HugeCounts(InProcessCli):
    name = "huge-counts"

    def build(self, smoke: bool) -> list[CliOp]:
        step = self.rng.randint
        if smoke:
            odd_n, (m, n), big_n, top = 30, (21, 23), 500, 30
        else:
            odd_n = 3000 + 2 * step(-4, 4)
            m, n = 2001 + 2 * step(-4, 4), 2001 + 2 * step(-4, 4)
            big_n = 50000 + step(-50, 50)
            top = 600 + step(-2, 2)
        odd, bip, big = (
            checks.odd_complete_mod(odd_n),
            checks.odd_bipartite_mod(m, n),
            checks.complete_mod(big_n),
        )
        rows = {k: checks.odd_complete_mod(k) for k in range(2, top + 1)}
        return [
            CliOp(["count", "odd-complete", "--n", str(odd_n)],
                  lambda out: checks.count_output_ok(out, odd)),
            CliOp(["count", "odd-bipartite", "--m", str(m), "--n", str(n)],
                  lambda out: checks.count_output_ok(out, bip)),
            CliOp(["count", "complete", "--n", str(big_n)],
                  lambda out: checks.count_output_ok(out, big)),
            CliOp(["table", "--family", "odd-complete", "--from", "2", "--to", str(top)],
                  lambda out: checks.table_output_ok(out, rows)),
        ]


# Case counts of the sweeps below, from the sweep definitions in verify.py.
DEFAULT_SWEEP_CASES = 636
SMOKE_SWEEP_CASES = 39  # --scope complete,bipartite --complete-max 4 --bipartite-max 4
TINY_SWEEP_CASES = 163  # --scope complete,signsum --complete-max 6


def sweep_ok(stdout: str, cases: int) -> bool:
    """A jsonl verify report of exactly `cases` records, every one a match."""
    try:
        records = [json.loads(line) for line in stdout.splitlines()]
    except json.JSONDecodeError:
        return False
    return len(records) == cases and all(record.get("match") is True for record in records)


class VerifySweep(SubprocessCli):
    name = "verify-sweep"

    def build(self, smoke: bool) -> list[CliOp]:
        argv = ["verify", "--format", "jsonl", "--seed", str(self.seed)]
        if smoke:
            argv += ["--scope", "complete,bipartite", "--complete-max", "4", "--bipartite-max", "4"]
        cases = SMOKE_SWEEP_CASES if smoke else DEFAULT_SWEEP_CASES
        return [CliOp(argv, lambda out: sweep_ok(out, cases))]


class DualForm(Workload):
    name = "dual-form"
    warmup = True

    def build(self, smoke: bool) -> list[PairOp]:
        top_n, top_side, sizes, ones = (10, 4, (3, 4, 5, 6), 6) if smoke else (
            18, 10, (6, 8, 10, 12) * 3, 16)
        ops = [
            PairOp("formulas", "odd_spanning_trees_complete_by_sum",
                   "odd_spanning_trees_complete", (n,))
            for n in range(4, top_n + 1, 2)
        ]
        ops += [
            PairOp("formulas", "odd_spanning_trees_bipartite_by_sum",
                   "odd_spanning_trees_bipartite", (m, n))
            for m in range(1, top_side + 1)
            for n in range(1, top_side + 1)
        ]
        ops += [
            PairOp("signsum", "multinomial_power_sum", "hypercube_power_sum",
                   (tuple(self.rng.randint(-3, 3) for _ in range(size)), 10))
            for size in sizes
        ]
        ops.append(PairOp("signsum", "multinomial_power_sum", "hypercube_power_sum",
                          ((1,) * ones, ones)))
        return ops

    def run(self, op: PairOp, tracer=None) -> Outcome:
        module = importlib.import_module(f"treecount.{op.module}")
        span = tracer.open("bench.op") if tracer else None
        start = time.perf_counter()
        try:
            left = getattr(module, op.left)(*op.args)
            right = getattr(module, op.right)(*op.args)
        except Exception:  # an internal error ends the op, not the benchmark
            return Outcome(time.perf_counter() - start, FAILED, 0, traceback.format_exc())
        finally:
            if tracer:
                tracer.close(span)
        seconds = time.perf_counter() - start
        if left != right:
            return Outcome(seconds, WRONG, 0, f"{op.left} != {op.right} at {op.args}")
        return Outcome(seconds, OK)


class CliQueries(SubprocessCli):
    name = "cli-queries"

    def build(self, smoke: bool) -> list[CliOp]:
        from treecount import oracles

        def odd(degrees):
            return all(d % 2 for d in degrees)

        matrix_tree = oracles.matrix_tree_count
        complete_oracle = oracles.count_trees_complete_brute
        bipartite_oracle = oracles.count_trees_bipartite_brute
        bip_graph = oracles.LabeledGraph.complete_bipartite

        def expect(argv, *values):
            text = "".join(f"{value}\n" for value in values)
            return CliOp(list(argv), lambda out: out == text)

        def signsum(coeffs, power):
            value = checks.hypercube_sum(coeffs, power)
            argv = ["signsum", f"--coeffs={','.join(map(str, coeffs))}",
                    "--power", str(power), "--mode", "both"]
            return expect(argv, value, value, "match")

        # The seed picks parameters, not sizes: every seed does the same work.
        rng = self.rng
        m_count, m_odd, m_oracle = (rng.randint(1, 6) for _ in range(3))
        odd_n = rng.choice((4, 6))
        degrees = [1] * 6
        for _ in range(4):  # a random profile of a tree on 6 vertices
            degrees[rng.randrange(6)] += 1
        profile7 = [1] * 7
        for _ in range(5):
            profile7[rng.randrange(7)] += 1
        n1 = rng.randint(5, 9)
        cycle = rng.randint(4, 9)
        coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(4, 6))]
        bip_rows = [
            json.dumps({"count": str(matrix_tree(bip_graph(m, n))), "m": m, "n": n}, sort_keys=True)
            for m in range(1, 4) for n in range(1, 4)
        ]
        odd_rows = [f"{n},{complete_oracle(n, odd)}" for n in range(2, 9)]
        tiny_sweep = ["verify", "--scope", "complete,signsum", "--complete-max", "6",
                      "--format", "jsonl", "--seed", str(self.seed)]
        ops = [
            # The examples in README.md.
            expect(["count", "complete", "--n", "7"], 7 ** 5),
            expect(["count", "odd-complete", "--n", "6"], complete_oracle(6, odd)),
            expect(["count", "bipartite", "--m", "2", "--n", "3"], matrix_tree(bip_graph(2, 3))),
            expect(["count", "odd-bipartite", "--m", "5", "--n", "3"],
                   bipartite_oracle(5, 3, lambda a, b: odd(a + b))),
            expect(["count", "degrees", "--degrees", "2,2,1,1"],
                   complete_oracle(4, lambda d: d == (2, 2, 1, 1))),
            expect(["count", "degrees", "--a", "2,2", "--b", "2,1,1"],
                   bipartite_oracle(2, 3, lambda a, b: (a, b) == ((2, 2), (2, 1, 1)))),
            CliOp(tiny_sweep, lambda out: sweep_ok(out, TINY_SWEEP_CASES)),
            expect(["table", "--family", "odd-complete", "--from", "2", "--to", "8",
                    "--format", "csv"], "n,count", *odd_rows),
            expect(["table", "--family", "bipartite", "--from", "1", "--to", "3",
                    "--format", "jsonl"], *bip_rows),
            signsum((1, 2), 2),
            expect(["oracle", "complete", "--n", "6", "--odd"], complete_oracle(6, odd)),
            expect(["oracle", "bipartite", "--m", "3", "--n", "3", "--odd"],
                   bipartite_oracle(3, 3, lambda a, b: odd(a + b))),
            expect(["oracle", "matrix-tree", "--edges", "1-2,2-3", "--vertices", "3"], 1),
            # Over 4300 digits: exits 2 under Python's default int_max_str_digits.
            CliOp(["count", "complete", "--n", "2000"], lambda out: out == f"{2000 ** 1998}\n",
                  known_failure="Exceeds the limit"),
            # Seeded small parameters.
            expect(["count", "complete", "--n", str(n1)], n1 ** (n1 - 2)),
            expect(["count", "odd-complete", "--n", str(odd_n)], complete_oracle(odd_n, odd)),
            expect(["count", "bipartite", "--m", str(m_count), "--n", str(7 - m_count)],
                   matrix_tree(bip_graph(m_count, 7 - m_count))),
            expect(["count", "odd-bipartite", "--m", str(m_odd), "--n", str(7 - m_odd)],
                   bipartite_oracle(m_odd, 7 - m_odd, lambda a, b: odd(a + b))),
            expect(["count", "degrees", "--degrees", ",".join(map(str, degrees))],
                   complete_oracle(6, lambda d: d == tuple(degrees))),
            expect(["oracle", "complete", "--n", "7", "--degrees", ",".join(map(str, profile7))],
                   complete_oracle(7, lambda d: d == tuple(profile7))),
            expect(["oracle", "bipartite", "--m", str(m_oracle), "--n", str(7 - m_oracle)],
                   matrix_tree(bip_graph(m_oracle, 7 - m_oracle))),
            expect(["oracle", "matrix-tree", "--cycle", str(cycle)], cycle),
            signsum(coeffs, rng.choice((4, 6))),
        ]
        return ops[:6] + ops[13:15] if smoke else ops


WORKLOADS = {cls.name: cls for cls in (HugeCounts, VerifySweep, DualForm, CliQueries)}
