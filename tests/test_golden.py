"""The golden corpus (``tests/golden``): every case prints what
``outputs.txt`` holds for it, byte for byte, and the cases reach every
subcommand and option of the command line.

A change that alters an output regenerates the file with
``python tests/golden/make.py``, so that its diff shows each changed line.
"""

import argparse
import shlex

from golden import make
from hybridsets import cli


def test_every_case_prints_its_golden_output(capsys, monkeypatch):
    monkeypatch.chdir(make.ROOT)
    cases, want = make.read_cases(), make.read_outputs()
    assert list(want) == cases
    got = {case: make.block(case, capsys) for case in cases}
    changed = [case for case in cases if got[case] != want[case]]
    first = f"{len(changed)} changed; golden:\n{want[changed[0]]}now:\n{got[changed[0]]}" if changed else ""
    assert changed == [], first


def _commands(parser, path=()):
    """(subcommand path, its actions but help) for each leaf subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, (*path, name))
            return
    yield path, [a for a in parser._actions if a.dest != "help"]


def test_every_subcommand_option_and_choice_appears_in_a_case():
    argvs = [shlex.split(case) for case in make.read_cases()]
    missing = []
    for path, actions in _commands(cli._build_parser()):
        used = [argv for argv in argvs if tuple(argv[:len(path)]) == path]
        if not used:
            missing.append(" ".join(path))
        for action in filter(lambda a: a.option_strings, actions):
            (flag,) = [s for s in action.option_strings if s.startswith("--")]
            values = {argv[i + 1] for argv in used for i, a in enumerate(argv[:-1]) if a == flag}
            if not any(flag in argv for argv in used):
                missing.append(f"{' '.join(path)} {flag}")
            missing += [f"{' '.join(path)} {flag} {c}" for c in action.choices or () if c not in values]
    assert missing == []


def test_every_parse_case_has_its_golden_outcome():
    from golden import parse

    want, got = parse.read_blocks(), parse.blocks()
    assert len(got) == len(want)
    changed = [(w, g) for w, g in zip(want, got) if w != g]
    first = f"{len(changed)} changed; golden:\n{changed[0][0]}now:\n{changed[0][1]}" if changed else ""
    assert changed == [], first
