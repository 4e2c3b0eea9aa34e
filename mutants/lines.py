"""The library statement lines that the Tier-1 suite never runs.

Run from the repository root, outside the Tier-1 command:

    python mutants/lines.py                  # the whole suite; also writes mutants/LINES.txt
    python mutants/lines.py tests/test_x.py  # any pytest arguments

It runs pytest in this process with itself as a plugin.  A ``sys.settrace``
hook returns a local tracer only for frames whose code lies under
``src/hybridsets``, and records each library line that runs.  The hook is
put back before every test, because a test may set a tracer of its own and
clear it (``tests/test_growth.py`` does), and it is set before collection,
so the lines that run at import count too.  Work in a subprocess (the CLI
tests that start ``hybridsets``) is not seen.

A statement is listed when none of its own lines ran: for a simple
statement, every line it spans; for a compound one, its header lines (the
lines before its first nested statement, decorators included, and the
``except``, ``else`` and ``finally`` lines of a ``try``), and a ``try`` also
counts as run when a statement of its body ran.  A string constant
standing as a statement, such as a docstring, and a ``global`` or
``nonlocal`` declaration run no code and are skipped.
Each entry is ``module.py:line`` and the statement's first line of source.

The list is printed, and with no arguments also written to
``mutants/LINES.txt``, headed by the tests that failed under the tracer:
the tracer slows the library several times, so a test with a wall-clock
budget (``test_acceptance.py``'s criteria) can fail here and nowhere else.
This is the line probe of ROADMAP item 12; the mutant list and its runner
are still to come.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "hybridsets"
OUT = Path(__file__).resolve().parent / "LINES.txt"


class LineProbe:
    """The pytest plugin: a line tracer over the library, set before
    collection and put back before each test."""

    def __init__(self):
        self.seen = defaultdict(set)  # file name -> line numbers that ran
        self.failed = []
        prefix, seen = str(LIBRARY), self.seen

        def enter(frame, event, arg):
            filename = frame.f_code.co_filename
            if not filename.startswith(prefix):
                return None
            lines = seen[filename]

            def local(frame, event, arg):
                if event == "line":
                    lines.add(frame.f_lineno)
                return local

            return local

        self.enter = enter

    def pytest_configure(self, config):
        sys.settrace(self.enter)

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        sys.settrace(self.enter)

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.failed.append(report.nodeid)


def _statements(body):
    """The statements of ``body`` that run code."""
    for node in body:
        if isinstance(node, (ast.Global, ast.Nonlocal)) or isinstance(node, ast.Expr) \
                and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue
        yield node


def _nested(node):
    """The statement lists nested in ``node``."""
    for field in ("body", "orelse", "finalbody"):
        yield getattr(node, field, None) or []
    for handler in getattr(node, "handlers", None) or []:
        yield handler.body


def _own_lines(node) -> set:
    """The lines of ``node`` that no nested statement spans."""
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    lines = set(range(first, node.end_lineno + 1))
    for body in _nested(node):
        for child in body:
            lines -= set(range(child.lineno, child.end_lineno + 1))
    return lines


def unrun(seen) -> list:
    """``(path, line, source)`` of every library statement none of whose own
    lines is in ``seen[path]``, in file and line order."""
    found = []
    for path in sorted(LIBRARY.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source, ran = text.splitlines(), seen.get(str(path), set())

        def walk(body) -> bool:
            """Whether a statement of ``body`` ran; each that did not is found."""
            any_ran = False
            for node in _statements(body):
                nested = [walk(inner) for inner in _nested(node)]
                node_ran = bool(_own_lines(node) & ran) or isinstance(node, ast.Try) and nested[0]
                if not node_ran:
                    found.append((path.name, node.lineno, source[node.lineno - 1].strip()))
                any_ran = any_ran or node_ran
            return any_ran

        walk(ast.parse(text).body)
    return sorted(found, key=lambda entry: (entry[0], entry[1]))


def main(argv) -> int:
    probe = LineProbe()
    code = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])], plugins=[probe])
    sys.settrace(None)
    lines = [f"{name}:{line}  {text}" for name, line, text in unrun(probe.seen)]
    text = "".join(line + "\n" for line in [
        f"# Library statements that the Tier-1 suite never runs: {len(lines)}.",
        f"# Made by mutants/lines.py under Python {sys.version.split()[0]}.",
        *(f"# Failed under the tracer: {nodeid}" for nodeid in probe.failed),
        *lines,
    ])
    print(text, end="")
    if not argv:
        OUT.write_text(text, encoding="utf-8")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
