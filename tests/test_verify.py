"""Tests for the verification sweep engine."""

import ast
import functools
import importlib
import json
from collections import Counter
from pathlib import Path

import pytest

from treecount import verify
from treecount.cli import main


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def strip_elapsed(records):
    return [{k: v for k, v in r.items() if k != "elapsed"} for r in records]


@pytest.fixture(scope="module")
def small_report():
    return verify.run_verification(
        scopes=("complete", "bipartite"), complete_max=5, bipartite_max=6
    )


class TestRunVerification:
    def test_everything_matches(self, small_report):
        assert small_report.all_match
        assert all(c.error is None for c in small_report.cases)

    def test_summary_tallies_equal_case_counts(self, small_report):
        summary = small_report.summary
        assert summary["total"] == len(small_report.cases)
        assert summary["passed"] + summary["failed"] == summary["total"]

    def test_match_is_value_equality(self, small_report):
        for case in small_report.cases:
            assert case.match == (case.formula_value == case.oracle_value)

    def test_case_ordering_is_sorted_and_stable(self, small_report):
        keys = [
            (c.family, sorted(c.parameters.items()), c.oracle_kind)
            for c in small_report.cases
        ]
        assert keys == sorted(keys)

    def test_deterministic_across_runs(self):
        kwargs = dict(scopes=("signsum",), seed=99)
        first = verify.run_verification(**kwargs)
        second = verify.run_verification(**kwargs)
        assert strip_elapsed([c.to_record() for c in first.cases]) == strip_elapsed(
            [c.to_record() for c in second.cases]
        )

    def test_seed_changes_random_block(self):
        first = verify.run_verification(scopes=("signsum",), seed=1)
        second = verify.run_verification(scopes=("signsum",), seed=2)
        params = lambda report: [c.parameters for c in report.cases]
        assert params(first) != params(second)

    def test_bad_scope_rejected(self):
        with pytest.raises(ValueError):
            verify.run_verification(scopes=("nonsense",))

    def test_empty_scope_rejected(self):
        with pytest.raises(ValueError, match="no verification scope"):
            verify.build_specs(scopes=())

    def test_out_of_range_bounds_rejected(self):
        with pytest.raises(ValueError):
            verify.run_verification(scopes=("complete",), complete_max=10)
        with pytest.raises(ValueError):
            verify.run_verification(scopes=("bipartite",), bipartite_max=12)

    def test_mismatch_is_reported_not_raised(self, monkeypatch):
        monkeypatch.setattr(verify, "odd_spanning_trees_complete", lambda n: 12345)
        report = verify.run_verification(scopes=("complete",), complete_max=3)
        assert not report.all_match
        assert report.summary["failed"] > 0

    @pytest.mark.parametrize("family", ["complete", "bipartite"])
    def test_wrong_profile_closed_form_fails_only_its_family(self, capsys, monkeypatch, family):
        record = verify.FAMILIES[family]
        options, formula, kind = record.profile
        wrong = lambda *sides: formula(*sides) + 1
        monkeypatch.setitem(verify.FAMILIES, family, record._replace(profile=(options, wrong, kind)))
        code = main(["verify", "--scope", "degrees", "--format", "jsonl"])
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        # the odd-parity closures of K_n sum the closed form itself, not the record's
        assert [r for r in records if not r["match"]] == [
            r
            for r in records
            if r["family"] == f"degrees-{family}" and "parity" not in r["parameters"]
        ]
        assert code == 1

    def test_raising_formula_fails_only_its_cases(self, monkeypatch):
        kwargs = dict(scopes=("complete", "bipartite"), complete_max=4, bipartite_max=4)
        clean = verify.run_verification(**kwargs)

        def broken(m, n):
            raise RuntimeError("broken formula")

        monkeypatch.setattr(verify, "odd_spanning_trees_bipartite", broken)
        report = verify.run_verification(**kwargs)
        keys = lambda r: [(c.family, c.parameters, c.oracle_kind) for c in r.cases]
        assert keys(report) == keys(clean)
        failed = [c for c in report.cases if not c.match]
        assert failed == [c for c in report.cases if c.family == "odd-bipartite"]
        assert {c.error for c in failed} == {"RuntimeError: broken formula"}


class TestCaseContract:
    """The case lists the benchmark relies on: built, never run."""

    def test_default_case_count(self):
        specs = verify.build_specs()
        # a degree bound that slips names the family it moved, before the total does
        degrees = Counter(
            (spec.family, spec.oracle_kind, spec.parameters.get("parity"))
            for spec in specs
            if spec.family.startswith("degrees-")
        )
        assert degrees == {
            ("degrees-complete", "degree-sum-closure", None): 6,
            ("degrees-complete", "degree-sum-closure", "odd"): 5,
            ("degrees-complete", "pruefer-brute", None): 175,
            ("degrees-bipartite", "degree-sum-closure", None): 36,
            ("degrees-bipartite", "edge-subset-brute", None): 99,
        }
        assert len(specs) == 636

    def test_complete_signsum_case_count(self):
        specs = verify.build_specs(scopes=("complete", "signsum"), complete_max=6)
        assert len(specs) == 163

    def test_brute_force_kind_follows_the_graph_side(self):
        kinds = {}
        for spec in verify.build_specs():
            kinds.setdefault(spec.oracle_kind, set()).add(spec.family)
        assert kinds["pruefer-brute"] == {
            "complete",
            "odd-complete",
            "degrees-complete",
        }
        assert kinds["edge-subset-brute"] == {
            "bipartite",
            "odd-bipartite",
            "degrees-bipartite",
        }

    def test_every_name_the_benchmark_looks_up_resolves(self):
        # read from perfbench's source with ast, never imported: tracing.py patches namespaces
        tracing = ast.parse((PERFBENCH / "tracing.py").read_text())
        workloads = ast.parse((PERFBENCH / "workloads.py").read_text())
        names = set()  # (module, dotted name in it)
        for node in tracing.body:
            if isinstance(node, ast.Assign) and node.targets[0].id in ("SPANNED", "AGGREGATED"):
                names.update(ast.literal_eval(node.value))
        for node in ast.walk(tracing):  # modules["cli"].build_parser
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Subscript):
                if getattr(node.value.value, "id", None) == "modules":
                    names.add((ast.literal_eval(node.value.slice), node.attr))
        aliases = {}  # local name -> treecount module
        for node in ast.walk(workloads):
            if isinstance(node, ast.ImportFrom) and node.module == "treecount":
                aliases.update((alias.asname or alias.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname and alias.name.startswith("treecount."):
                        aliases[alias.asname] = alias.name.split(".", 1)[1]
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "PairOp":
                module, *functions = (ast.literal_eval(arg) for arg in node.args[:3])
                names.update((module, function) for function in functions)
        for node in ast.walk(workloads):  # oracles.LabeledGraph.complete_bipartite
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in aliases:
                names.add((aliases[node.id], ".".join(chain)))
        assert {
            ("signsum", "multinomial_power_sum"),
            ("formulas", "odd_spanning_trees_complete_by_sum"),
            ("combinatorics", "even_compositions"),
            ("cli", "build_parser"),
            ("cli", "main"),
            ("oracles", "matrix_tree_count"),
            ("oracles", "count_trees_complete_brute"),
            ("oracles", "count_trees_bipartite_brute"),
            ("oracles", "LabeledGraph.complete_bipartite"),
        } <= names
        missing = []
        for module, name in sorted(names):
            try:
                functools.reduce(getattr, name.split("."), importlib.import_module(f"treecount.{module}"))
            except (ImportError, AttributeError):
                missing.append(f"{module}.{name}")
        assert missing == []


class TestRendering:
    def test_jsonl_lines_parse_and_carry_schema(self, small_report):
        lines = verify.render_jsonl(small_report).splitlines()
        assert len(lines) == len(small_report.cases)
        for line in lines:
            record = json.loads(line)
            assert set(record) == {
                "family",
                "parameters",
                "formula_value",
                "oracle_value",
                "oracle_kind",
                "match",
                "elapsed",
            }
            assert isinstance(record["formula_value"], str)
            int(record["formula_value"])  # exact decimal string

    def test_text_has_one_line_per_case_plus_summary(self, small_report):
        lines = verify.render_text(small_report).splitlines()
        assert len(lines) == len(small_report.cases) + 1
        assert lines[-1].startswith("summary: total=")
        assert all(line.startswith("[ok ]") for line in lines[:-1])

    def test_raising_case_renders_its_error(self, monkeypatch):
        def broken(n):
            raise RuntimeError("broken formula")

        monkeypatch.setattr(verify, "odd_spanning_trees_complete", broken)
        report = verify.run_verification(scopes=("complete",), complete_max=2)
        records = [json.loads(line) for line in verify.render_jsonl(report).splitlines()]
        failed = [r for r in records if "error" in r]
        assert failed and all(r["family"] == "odd-complete" for r in failed)
        assert {r["error"] for r in failed} == {"RuntimeError: broken formula"}
        assert not any(r["match"] for r in failed)
        lines = [line for line in verify.render_text(report).splitlines() if " error: " in line]
        assert len(lines) == len(failed)
        assert all(
            line.startswith("[FAIL] odd-complete")
            and line.endswith(" error: RuntimeError: broken formula")
            for line in lines
        )

    def test_failed_case_renders_fail_marker(self, monkeypatch):
        monkeypatch.setattr(verify, "spanning_trees_complete", lambda n: -1)
        report = verify.run_verification(scopes=("complete",), complete_max=2)
        text = verify.render_text(report)
        assert "[FAIL]" in text
