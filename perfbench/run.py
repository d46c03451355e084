#!/usr/bin/env python3
"""treecount benchmark: one workload per run, checked for exactness.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: huge-counts, verify-sweep, dual-form, cli-queries (see NOTES.md).
With ``--trace 0`` the passes run untraced and the end-to-end metrics are
reported; with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics are reported.  ``--smoke`` runs one pass at tiny sizes.
While the passes run, ``reference.py`` times a fixed reference task in a
process of its own; ``pass_ref`` is a pass's time in units of that task.

Human-readable report lines come first on stdout; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when any output was wrong or any operation
failed other than by the documented baseline defect (NOTES.md), 2 when the
repository's ``src/treecount`` is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from tracing import GROUP_NAMES, Tracer, group_of, install, self_times
from workloads import OK, WORKLOADS, child_env

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

END_TO_END = {"setup_s": "s", "pass_ref": "ref", "peak_rss_mb": "MB"}
# Set-up probes: some before the first pass, then more after every pass, so
# that they sample the host over the whole run, as the passes do.
SETUP_FIRST, SETUP_PER_PASS = 10, 4
FLOOR_REPEATS = 5
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.py")
REFERENCE_PERIOD_S = 0.05  # one run of the reference task (about 3 ms) per period
SETUP_PROBE = (
    "import sys, time; start = time.perf_counter(); import treecount.cli; "
    "print(time.perf_counter() - start, getattr(sys, 'get_int_max_str_digits', lambda: 0)())"
)
# Counts the benchmark works out from call arguments rather than observes.
COMPUTED = (
    "signsum.binomial_power_sum.terms",
    "combinatorics.even_compositions.items",
    "oracles.sequences_decoded",
    "oracles.bipartite_yield",
    "cli.interp_start_s",
)


def probe(args: list[str]) -> tuple[float, str]:
    """Wall time and stdout of a fresh interpreter running `args`."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(ROOT),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return time.perf_counter() - start, done.stdout


def measure_setup(repeats: int) -> tuple[list[float], int]:
    """Import times of treecount.cli in fresh interpreters, and their digit limit."""
    samples, limit = [], 0
    for _ in range(repeats):
        seconds, limit = probe(["-c", SETUP_PROBE])[1].split()
        samples.append(float(seconds))
    return samples, int(limit)


class Reference:
    """The reference task timed in a process of its own while the passes run."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, REFERENCE, str(REFERENCE_PERIOD_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.samples: list = []

    def stop(self) -> None:
        """Ends the process, waits for it and keeps its samples."""
        try:
            output, _ = self.process.communicate(input="", timeout=30)
            self.samples = json.loads(output) if output.strip() else []
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()

    def during(self, begin: float, end: float) -> float:
        """Median time of the task over the runs that started in [begin, end]."""
        inside = [seconds for start, seconds in self.samples if begin <= start <= end]
        return statistics.median(inside or [seconds for _, seconds in self.samples])


def git_state() -> tuple[str | None, bool | None]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT), GIT_OPTIONAL_LOCKS="0")

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)

    try:
        sha = git("rev-parse", "HEAD")
        if sha.returncode:
            return None, None
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return sha.stdout.strip(), bool(status.stdout.strip())


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


@dataclass
class Passes:
    setup: list = field(default_factory=list)  # import times of treecount.cli
    child_limit: int = 0  # int_max_str_digits in a fresh interpreter
    untraced: list = field(default_factory=list)  # pass times: sums of op latencies
    windows: list = field(default_factory=list)  # (begin, end) of each untraced pass
    references: list = field(default_factory=list)  # reference task time in each window
    traced: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # of untraced ops
    outcomes: list = field(default_factory=list)  # every op run, warm-up included
    traced_digits: int = 0


def run_passes(workload, seconds: float, trace: bool, smoke: bool, tracer) -> Passes:
    """Run passes until `seconds` are used; in trace mode every other pass is traced."""
    done = Passes()
    if workload.warmup:
        done.outcomes += [workload.run(op) for op in workload.ops]
    done.setup, done.child_limit = measure_setup(SETUP_FIRST)
    walls = []
    deadline = time.perf_counter() + seconds
    while True:
        tracing = trace and len(walls) % 2 == 1
        began = time.perf_counter()
        restore = install(tracer) if tracing and not workload.fresh_process else None
        try:
            results = []
            for op in workload.ops:
                tracer.op = len(done.outcomes) + len(results)
                results.append(workload.run(op, tracer if tracing else None))
        finally:
            if restore:
                restore()
        ended = time.perf_counter()
        done.setup += measure_setup(SETUP_PER_PASS)[0]
        walls.append(time.perf_counter() - began)
        done.outcomes += results
        pass_s = sum(r.seconds for r in results)
        if tracing:
            done.traced.append(pass_s)
            done.traced_digits += sum(r.digits for r in results)
        else:
            done.untraced.append(pass_s)
            done.windows.append((began, ended))
            done.latencies += [r.seconds for r in results]
        if len(walls) < (2 if trace else 1):
            continue
        # Start another pass only if at least half of a typical pass still fits.
        if smoke or time.perf_counter() + statistics.median(walls) / 2 > deadline:
            return done


def quantile(values: list[float], fraction: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def end_to_end(workload, passes: Passes) -> tuple[dict, dict]:
    """The gated end-to-end metrics and their sample counts."""
    if workload.fresh_process:
        peaks = [outcome.peak_kb for outcome in passes.outcomes if outcome.peak_kb]
    else:
        peaks = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]  # kB on Linux
    values = {
        "setup_s": statistics.median(passes.setup),
        # Each pass in units of the reference task timed during it: the host's
        # slow and fast phases, which last seconds to minutes, largely cancel out.
        "pass_ref": statistics.median(
            pass_s / ref for pass_s, ref in zip(passes.untraced, passes.references)),
        "peak_rss_mb": max(peaks) / 1024,
    }
    samples = {"setup_s": len(passes.setup), "pass_ref": len(passes.untraced),
               "peak_rss_mb": len(peaks)}
    return values, samples


def ungated_lines(passes: Passes) -> list[str]:
    """Wall times reported but not gated (see NOTES.md)."""
    latencies, count = passes.latencies, len(passes.latencies)
    return [
        f"pass_s = {statistics.median(passes.untraced):.6g} s (n={len(passes.untraced)})",
        f"reference_ms = {1e3 * statistics.median(passes.references):.6g} ms "
        f"(n={len(passes.references)}, each the median over one pass)",
        f"op_p50_ms = {1e3 * statistics.median(latencies):.6g} ms (n={count})",
        f"op_p90_ms = {1e3 * quantile(latencies, 0.9):.6g} ms (n={count}, "
        f"{count - math.ceil(0.9 * count)} beyond)",
    ]


def layer_times(tracer, floor: float, fresh_process: bool):
    """Self seconds and calls per traced name, and self seconds per tag."""
    seconds, calls, tags = defaultdict(float), defaultdict(int), defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name, tag = span[0], span[6]
        if name == "bench.op" and fresh_process:
            # A fresh interpreter's start and exit, at most the bare floor.
            start_cost = min(floor, own)
            seconds["cli.interp_start"] += start_cost
            own -= start_cost
        seconds[name] += own
        calls[name] += 1
        if tag:
            tags[tag] += own
    for name, (count, total) in tracer.totals.items():
        seconds[name] += total
        calls[name] += count
    return seconds, calls, tags


def per_layer(tracer, passes: Passes, floor: float, fresh_process: bool):
    """Per-layer metrics, each per traced pass; the per-name table; group shares."""
    seconds, calls, tags = layer_times(tracer, floor, fresh_process)
    traced = len(passes.traced)
    # The operation spans bound everything traced, so layer times add up to this.
    op_spans = [span for span in tracer.spans if span[0] == "bench.op"]
    pass_s = sum(end - start for _, start, end, *_ in op_spans) / traced
    untraced_s = statistics.median(passes.untraced)
    counts = tracer.counts

    def self_s(name):
        return seconds.get(name, 0.0) / traced

    def per_pass(count):
        return counts.get(count, 0) / traced

    groups = defaultdict(float)
    for name, total in seconds.items():
        groups[group_of(name)] += total / traced
    decoded = counts.get("oracles.bipartite_sequences", 0)
    metrics = {
        "signsum.binomial_power_sum.self_s": self_s("signsum.binomial_power_sum"),
        "signsum.binomial_power_sum.calls": calls.get("signsum.binomial_power_sum", 0) / traced,
        "signsum.binomial_power_sum.terms":
            per_pass("signsum.binomial_power_sum.terms"),
        "combinatorics.exact_div.self_s": self_s("combinatorics.exact_div"),
        "formulas.odd_spanning_trees_complete.self_s":
            self_s("formulas.odd_spanning_trees_complete"),
        "formulas.odd_spanning_trees_bipartite.self_s":
            self_s("formulas.odd_spanning_trees_bipartite"),
        "formulas.spanning_trees_complete.self_s": self_s("formulas.spanning_trees_complete"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.render.self_s": self_s("cli.render"),
        "cli.output_digits": passes.traced_digits / traced,
        "formulas.odd_spanning_trees_complete_by_sum.self_s":
            self_s("formulas.odd_spanning_trees_complete_by_sum"),
        "formulas.odd_spanning_trees_bipartite_by_sum.self_s":
            self_s("formulas.odd_spanning_trees_bipartite_by_sum"),
        "combinatorics.multinomial.calls": calls.get("combinatorics.multinomial", 0) / traced,
        "combinatorics.multinomial.self_s": self_s("combinatorics.multinomial"),
        "combinatorics.even_compositions.items":
            per_pass("combinatorics.even_compositions.items"),
        "signsum.multinomial_power_sum.self_s": self_s("signsum.multinomial_power_sum"),
        "signsum.hypercube_power_sum.self_s": self_s("signsum.hypercube_power_sum"),
        "oracles.count_trees_bipartite_brute.self_s":
            self_s("oracles.count_trees_bipartite_brute"),
        "oracles.count_trees_bipartite_brute.calls":
            calls.get("oracles.count_trees_bipartite_brute", 0) / traced,
        "oracles.count_trees_complete_brute.self_s":
            self_s("oracles.count_trees_complete_brute"),
        "oracles.count_trees_complete_brute.calls":
            calls.get("oracles.count_trees_complete_brute", 0) / traced,
        "oracles.tally_build_s": tags.get("build", 0.0) / traced,
        "oracles.tally_filter_s": tags.get("filter", 0.0) / traced,
        "oracles.sequences_decoded": per_pass("oracles.sequences_decoded"),
        "oracles.bipartite_yield":
            counts.get("oracles.split_trees", 0) / decoded if decoded else 0.0,
        "oracles.matrix_tree_count.self_s": self_s("oracles.matrix_tree_count"),
        "verify.build_specs.self_s": self_s("verify.build_specs"),
        "verify.run_verification.self_s": self_s("verify.run_verification"),
        "verify.render_jsonl.self_s": self_s("verify.render_jsonl"),
        "verify.cases": per_pass("verify.cases"),
        "verify.cases_failed": per_pass("verify.cases_failed"),
        "cli.interp_start_s": self_s("cli.interp_start"),
        "cli.import_s": self_s("cli.import"),
        "cli.parse_s": self_s("cli.parse"),
        "bench.self_s": self_s("bench.op"),
        "trace.pass_s": pass_s,
        "trace.untraced_pass_s": untraced_s,
        "trace.overhead_s": pass_s - untraced_s,
    }
    shares = {group: groups[group] / pass_s for group in GROUP_NAMES}
    table = sorted(((total / traced, calls[name] / traced, name)
                    for name, total in seconds.items()), reverse=True)
    return metrics, table, shares


def layer_report(metrics: dict, table: list, shares: dict) -> list[str]:
    """Each layer's self time and share of the traced pass, then the group shares."""
    pass_s = metrics["trace.pass_s"]
    lines = [f"layer self time per traced pass (traced pass_s {pass_s:.4f} s, "
             f"tracing overhead {metrics['trace.overhead_s']:.4f} s)"]
    for total, calls, name in table:
        lines.append(f"  {name:<48} {total:10.4f} s {100 * total / pass_s:6.1f} %"
                     f"  calls/pass {calls:g}")
    lines.append("group shares: " + ", ".join(
        f"{group} {100 * share:.1f} %"
        for group, share in sorted(shares.items(), key=lambda item: -item[1])))
    lines.append(f"dominant layer group: {max(shares, key=shares.get)}")
    lines.append(f"accounted for: {100 * sum(row[0] for row in table) / pass_s:.2f} % of "
                 "the traced pass_s by layer self times plus benchmark overhead")
    return lines


def unit_of(name: str) -> str:
    if name == "oracles.bipartite_yield":
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass at tiny sizes")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "treecount", "__init__.py")):
        print(f"error: no treecount sources under {ROOT}/src", file=sys.stderr)
        return 2
    args = parse_args(argv)
    # One CPU for the benchmark, its children and the reference task, so that
    # the task is timed on the CPU the work runs on: the two CPUs of a shared
    # host can run at different speeds at the same time.
    usable = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(usable)})
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # as any library user printing huge ints must
    floor = statistics.median(probe(["-c", "pass"])[0] for _ in range(FLOOR_REPEATS))
    sha, dirty = git_state()
    tracer = Tracer()
    workload = WORKLOADS[args.workload](ROOT, args.seed, args.smoke)
    reference = Reference()
    try:
        passes = run_passes(workload, args.seconds, bool(args.trace), args.smoke, tracer)
    finally:
        reference.stop()
    passes.references = [reference.during(begin, end) for begin, end in passes.windows]
    outcomes = passes.outcomes

    failed = [o for o in outcomes if o.status != OK]
    correct = all(o.known for o in failed)
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops_per_pass": len(workload.ops), "git_sha": sha, "git_dirty": dirty,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpus_usable": len(usable), "cpu_pinned": min(usable), "cpu_model": cpu_model(),
        "int_max_str_digits": {
            "benchmark": get_limit(),
            "children": passes.child_limit,
        },
        "bare_interpreter_s": floor,
    }
    lines = []
    if args.trace:
        metrics, table, shares = per_layer(tracer, passes, floor, workload.fresh_process)
        meta["samples"] = {"traced_passes": len(passes.traced),
                           "untraced_passes": len(passes.untraced)}
        meta["computed"] = list(COMPUTED)
        lines += layer_report(metrics, table, shares)
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics, samples = end_to_end(workload, passes)
        meta["samples"] = samples
        meta["pass_times_s"] = passes.untraced
        meta["reference_times_s"] = passes.references
        units = END_TO_END
    lines.append("meta " + json.dumps(meta, sort_keys=True))
    for name, value in metrics.items():
        label = " (computed)" if name in COMPUTED else ""
        lines.append(f"{name} = {value:.6g} {units[name]}{label}")
    lines += ungated_lines(passes)
    lines.append(f"failed_frac = {len(failed)}/{len(outcomes)} = "
                 f"{len(failed) / len(outcomes):.4f} ratio")
    for detail, times in Counter(
        f"{o.status}{' (known baseline defect)' if o.known else ''}: {o.detail}" for o in failed
    ).items():
        lines.append(f"{times} x {detail}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
