"""The README's examples, run as written.

Every workspace example parses; every ``$ hybridsets ...`` line prints what
the README shows under it, where a shown line ending in ``...`` is a prefix
of the printed one; and the library example prints the results written in
its comments.
"""

import re
import shlex
from pathlib import Path

import pytest

from hybridsets.cli import main
from hybridsets.workspace import parse_workspace

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def commands():
    """(argument list, shown output lines) for each ``$ hybridsets`` line."""
    for _, body in BLOCKS:
        for chunk in re.split(r"^(?=\$ )", body, flags=re.M):
            if chunk.startswith("$ hybridsets "):
                line, *shown = chunk.splitlines()
                yield pytest.param(shlex.split(line)[2:], shown, id=line[2:])


def test_workspace_examples_parse():
    examples = [body for _, body in BLOCKS if body.startswith("param")]
    assert examples
    for body in examples:
        parse_workspace(body)


@pytest.mark.parametrize("argv, shown", list(commands()))
def test_command_line_examples_print_what_is_shown(argv, shown, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(shown)
    for printed, want in zip(out, shown):
        if want.endswith("..."):
            assert printed.startswith(want[:-3])
        else:
            assert printed == want


def test_library_example_prints_its_commented_results(capsys):
    # a print's result is the comment after it on its line or on the next;
    # "4 = 2 + 2 + ..." is the result 4 and how it is counted
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    lines = code.splitlines()
    expected = []
    for i, line in enumerate(lines):
        if line.startswith("print("):
            comment = line.partition("  # ")[2] or lines[i + 1].removeprefix("# ")
            expected.append(comment.split(" = ")[0])
    exec(code, {})
    assert capsys.readouterr().out.splitlines() == expected
    assert len(expected) == 3
