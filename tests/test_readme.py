"""The CLI examples in README.md parse, and the ones that state a value or an
exit code (a comment starting `exit N`) print that value or exit with it."""

import re
import shlex
from pathlib import Path

import pytest

from treecount.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """(argv, expected first stdout line or None, expected exit code or None)
    for each `treecount` line."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
    examples = []
    for line in "".join(blocks).splitlines():
        command, _, comment = line.partition("#")
        if not command.startswith("treecount "):
            continue
        value = re.match(r"\s*(\d+)\b", comment)
        code = re.match(r"\s*exit (\d+)\b", comment)
        examples.append(
            (shlex.split(command)[1:], value and value.group(1), code and int(code.group(1)))
        )
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 10
    assert sum(value is not None for _, value, _ in EXAMPLES) >= 8
    assert any(code is not None for _, _, code in EXAMPLES)


@pytest.mark.parametrize("argv", [argv for argv, _, _ in EXAMPLES], ids=" ".join)
def test_example_parses(argv):
    build_parser().parse_args(argv)


@pytest.mark.parametrize(
    "argv, value",
    [pytest.param(argv, value, id=" ".join(argv)) for argv, value, _ in EXAMPLES if value],
)
def test_example_prints_its_value(capsys, argv, value):
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == value


@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(argv, code, id=" ".join(argv))
        for argv, _, code in EXAMPLES
        if code is not None
    ],
)
def test_example_exits_with_its_code(capsys, argv, code):
    assert main(argv) == code
    if code != 0:
        assert capsys.readouterr().out == ""
