"""The package imports nothing outside the standard library at run time, the
oracles import nothing from the closed forms they check, and the CLI loads
only what it runs: importing it loads no sweep, no oracle and no json, nor
does a count, a csv table or a sign sum, and an oracle query loads no sweep."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "treecount").glob("*.py"))


def imported_modules(path):
    """The absolute and the package-relative module names `path` imports."""
    absolute, relative = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            absolute.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            absolute.add(node.module)
        elif isinstance(node, ast.ImportFrom):  # `from .m import x` or `from . import m`
            relative.update([node.module] if node.module else (a.name for a in node.names))
    return absolute, relative


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_absolute_imports_are_stdlib(path):
    modules, _ = imported_modules(path)
    outside = sorted(m for m in modules if m.split(".")[0] not in sys.stdlib_module_names)
    assert outside == [], f"{path.name} imports {outside}"


def test_every_module_is_checked():
    assert {path.name for path in SOURCES} >= {"__init__.py", "cli.py", "oracles.py"}


def test_oracles_import_no_package_module_but_combinatorics():
    # an oracle that read a closed form could not catch that form's bug
    (path,) = [path for path in SOURCES if path.name == "oracles.py"]
    absolute, relative = imported_modules(path)
    assert not [m for m in absolute if m.split(".")[0] == "treecount"]
    assert relative <= {"combinatorics"}


def loaded_by(statement):
    """The modules that `statement` adds to sys.modules in a fresh interpreter."""
    script = (
        f"import sys; bare = set(sys.modules); {statement};"
        " print(*sorted(set(sys.modules) - bare), file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=30
    )
    return set(proc.stderr.split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    added = loaded_by("import treecount.cli")
    assert "treecount.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "dis", "tokenize"}), sorted(added)


# what a query that runs no sweep, no oracle and no JSON output must not load
UNRUN = {"treecount.verify", "treecount.oracles", "json"}


@pytest.mark.parametrize(
    "argv",
    [
        None,  # the import alone
        ["count", "odd-complete", "--n", "8"],
        ["table", "--family", "complete", "--from", "1", "--to", "3"],
        ["signsum", "--coeffs", "1,2", "--power", "2"],
        ["oracle", "complete", "--n", "6", "--odd"],
        ["oracle", "matrix-tree", "--cycle", "5"],
    ],
    ids=lambda argv: "import" if argv is None else " ".join(argv),
)
def test_a_query_loads_only_what_it_runs(argv):
    run = "" if argv is None else f"; assert main({argv!r}) == 0"
    added = loaded_by(f"from treecount.cli import main{run}")
    assert "treecount.families" in added
    if argv and argv[0] == "oracle":
        assert "treecount.oracles" in added
        assert "treecount.verify" not in added
    else:
        assert added.isdisjoint(UNRUN), sorted(added & UNRUN)
