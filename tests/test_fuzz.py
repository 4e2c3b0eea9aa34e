"""Fuzz tests of the input surface: bad input ends in a typed error, never
in a hang or a raw traceback.

Two kinds of input are drawn, each from a fixed alphabet of hostile tokens:
a 64-bit edge literal, ``1/0``, a 5000-digit number, 3000 nested
parentheses, a non-ASCII name and a tab.

- Workspace texts: the fixtures and the chain and step workspaces that the
  other tests write, with one or two lines mutated by token deletion,
  duplication, swap and insertion from the alphabet.  ``parse_workspace``
  of a mutated text raises nothing but ``HybridError``, and a command that
  suits the unmutated text runs on it.
- Argument vectors for every subcommand of ``cli._build_parser()``, each
  positional and option value drawn from the alphabet and from names the
  fixtures define.

A command runs in-process under the one-second guard of ``test_cli.py``,
twice.  It exits with 0, 1 or 2 (argparse's ``SystemExit`` included), its
stderr is empty or starts with ``error:`` or ``usage:`` and holds no
``Traceback``, and both runs print the same stdout.

The examples are seeded and derandomized; ``max_examples`` keeps the file
within about 5 s, and the alphabet is not narrowed to do so.
"""

import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from golden.make import chain_text
from hybridsets import HybridError, cli
from hybridsets.workspace import parse_workspace
from test_calculus import steps_text
from test_cli import run_cli_within_a_second
from test_golden import _commands

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

ALPHABET = (
    "9223372036854775808",  # 2^63, one past the largest signed 64-bit value
    "1/0",
    "9" * 5000,  # past Python's int-conversion digit limit
    "(" * 3000 + "1" + ")" * 3000,
    "ψ",
    "\t",
)

# A token is a run of word characters, a run of white space or one other character.
TOKEN = re.compile(r"\w+|\s+|[^\w\s]")

STEPS_VALUATION = "t=4, k1=1, k2=2, k3=2"

# (workspace text, commands that suit it; WS stands for the workspace's path)
SOURCES = [
    ((FIXTURES / "piecewise_demo.ws").read_text(encoding="utf-8"), [
        ["eval", "WS", "FG", "--at", "1/6", "--with", "v1"],
        ["eval", "WS", "F", "--at", "1/2", "--with", "a=1/3, b=2/3", "--format", "json-lines"],
        ["refine", "WS", "P", "Q"],
        ["check", "partition", "WS", "P", "--with", "v3", "--grid", "0,1,5"],
    ]),
    ((FIXTURES / "matrix_demo.ws").read_text(encoding="utf-8"), [
        ["matrix-add", "WS", "M1", "M2", "--table", "--with", "v3"],
        ["matrix-add", "WS", "M2", "M1", "--cell", "2,1", "--with", "v1", "--format", "json-lines"],
        ["refine", "WS", "M1", "M2", "--style", "full-upper-triangle"],
    ]),
    ((FIXTURES / "spline_demo.ws").read_text(encoding="utf-8"), [
        ["spline-merge", "WS", "S", "T", "--at", "1", "--with", "v1"],
    ]),
    ((FIXTURES / "steps_demo.ws").read_text(encoding="utf-8"), [
        ["check", "karr", "WS", "--summand", "sq", "--bounds", "k1,k2,k3", "--with", "v1"],
        ["check", "invert", "WS", "--term", "a1^R1", "--with", "v1", "--grid", "0,20,21"],
        ["check", "linear", "WS", "--op", "sum", "--term", "lin^(Q1 + Q2)", "--grid", "0,10,21"],
        ["eval", "WS", "H1", "--at", "3", "--with", "v1"],
    ]),
    (chain_text([2, 3, 2]), [
        ["refine", "WS", "P1", "P2", "P3"],
        ["check", "partition", "WS", "P2", "--with", "a2_1=1/4, a2_2=1/2", "--grid", "0,1,9"],
    ]),
    (steps_text(3), [
        ["eval", "WS", "H2", "--at", "3", "--with", STEPS_VALUATION],
        ["check", "invert", "WS", "--term", "a1^R1", "--with", STEPS_VALUATION, "--grid", "0,4,9"],
    ]),
]

# Values an argument vector draws besides the alphabet: the fixtures and
# names and values they define, so that a drawn command can get past its
# first lookup.
PATHS = [str(path) for path in sorted(FIXTURES.glob("*.ws"))]
VALUES = (
    *ALPHABET,
    *PATHS,
    "F", "FG", "P", "Q", "M1", "M2", "S", "T", "H1", "R1", "v1", "v3", "sq", "one",
    "a1^R1", "one^P", "lin^(Q1 + Q2)", "join(f1^A1, f2^(U - A1))", "1/6", "-1", "2,1",
    "0,10,11", "k1,k2,k3", "a=1/3, b=2/3", "+", "*", "sum", "",
)

FUZZ = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


def mutated(line: str, rnd) -> str:
    """``line`` after one to three token deletions, duplications, swaps or
    insertions of an alphabet token, drawn by ``rnd``."""
    tokens = TOKEN.findall(line)
    for _ in range(rnd.randint(1, 3)):
        op = rnd.choice(["delete", "duplicate", "swap", "insert"])
        if op == "insert" or not tokens:
            tokens.insert(rnd.randint(0, len(tokens)), rnd.choice(ALPHABET))
            continue
        i = rnd.randrange(len(tokens))
        if op == "delete":
            del tokens[i]
        elif op == "duplicate":
            tokens.insert(i, tokens[i])
        else:
            j = rnd.randrange(len(tokens))
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return "".join(tokens)


@st.composite
def mutated_texts(draw):
    """(mutated text, a command that suits the text it came from).  Every
    choice is uniform: a ``Random`` that Hypothesis seeds makes it, as
    Hypothesis's own draws favour the ends of a range."""
    rnd = draw(st.randoms(use_true_random=False))
    text, commands = rnd.choice(SOURCES)
    lines = text.splitlines()
    for _ in range(rnd.randint(1, 2)):
        i = rnd.randrange(len(lines))
        lines[i] = mutated(lines[i], rnd)
    return "\n".join(lines) + "\n", rnd.choice(commands)


COMMANDS = list(_commands(cli._build_parser()))


@st.composite
def argument_vectors(draw):
    """A subcommand with a value for each positional and for about half of
    its options, every choice uniform; the workspace is most often a fixture."""
    rnd = draw(st.randoms(use_true_random=False))
    path, actions = rnd.choice(COMMANDS)
    argv = list(path)
    for action in actions:
        if action.dest == "workspace" and rnd.random() < 0.75:
            argv.append(rnd.choice(PATHS))
        elif not action.option_strings:
            argv += rnd.choices(VALUES, k=rnd.randint(1, 3) if action.nargs == "+" else 1)
        elif rnd.random() < 0.5:
            argv.append(action.option_strings[-1])
            if action.nargs != 0:  # a store_true flag takes no value
                argv.append(rnd.choice([*(action.choices or ()), *VALUES]))
    return argv


def run_twice(capsys, argv):
    """(exit code, stdout, stderr) of one run of ``argv``, which a second run
    repeats with the same stdout."""
    runs = []
    for _ in range(2):
        try:
            runs.append(run_cli_within_a_second(capsys, *argv))
        except SystemExit as exit_:  # argparse refuses the vector
            runs.append((exit_.code, *capsys.readouterr()))
    assert runs[0][:2] == runs[1][:2], argv
    return runs[0]


def check_outcome(code, err, argv):
    assert code in (0, 1, 2), (code, argv)
    assert err == "" or err.startswith(("error:", "usage:")), (err[:200], argv)
    assert "Traceback" not in err, argv


@pytest.fixture(scope="module")
def workspace_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.ws"


@seed(5)
@settings(FUZZ, max_examples=2000)
@given(mutated_texts())
def test_a_mutated_workspace_is_read_or_refused_with_a_typed_error(case):
    try:
        parse_workspace(case[0])
    except HybridError:
        pass


@seed(5)
@FUZZ
@given(mutated_texts())
def test_a_mutated_workspace_runs_cleanly_through_the_cli(capsys, workspace_path, case):
    text, command = case
    workspace_path.write_text(text, encoding="utf-8")
    argv = [str(workspace_path) if arg == "WS" else arg for arg in command]
    code, _, err = run_twice(capsys, argv)
    check_outcome(code, err, argv)


@seed(5)
@settings(FUZZ, max_examples=400)
@given(argument_vectors())
def test_a_drawn_argument_vector_exits_cleanly(capsys, argv):
    code, _, err = run_twice(capsys, argv)
    check_outcome(code, err, argv)
