"""The package imports nothing outside the standard library at run time, the
oracles import nothing from the closed forms they check, and the CLI loads
only what it runs."""

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


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    script = (
        "import sys; bare = set(sys.modules); import treecount.cli;"
        " print(*sorted(set(sys.modules) - bare))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=30
    )
    added = set(proc.stdout.split())
    assert "treecount.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "dis", "tokenize"}), sorted(added)
