"""The parse corpus: what each seeded workspace line declares, or how it fails.

Every case is one line read after ``PRELUDE`` by ``parse_workspace``: a
valid line of every declaration form (``SEEDS``), seeded mutations of each
(token deletion, duplication, swap, replacement and insertion, from
``ALPHABET``), each character that ``str.splitlines`` ends a line at
but a workspace does not, inside a comment and inside a declaration
(``BREAKS``), and partition lines whose pieces repeat, zero or cancel a
name, or do not sum to the universe (``SUMS``).  ``parse.txt`` holds one
block per case: ``$`` and the line as a JSON string, then what the line
declared beyond the prelude, one ``+ <registry> <name>: <value>`` line
each, or ``! <error type>: <error>``.
``tests/test_golden.py`` compares a fresh run with it.  Write it again
with::

    python tests/golden/parse.py

A change that alters an outcome regenerates the file and lists each
changed case in CHANGES.md as intended.
"""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "parse.txt"

if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent.parent / "src")]

from hybridsets import parse_workspace  # noqa: E402

PRELUDE = (
    "param a, b, n, m, h, k\n"
    "region U = interval[0, 1)\n"
    "region A = interval[0, a)\n"
    "region B = interval[a, 1)\n"
    "fn f = 1\n"
    "fn g\n"
)

SEEDS = [
    "param c, d",
    "param c,\td,e",
    "region R = interval[0, a)",
    "region R = interval(-1/2, b]",
    "region R = interval[a,1/3]",
    "region R = rect(1..h, [1..k))",
    "region R = points(0, 1/2, (2, 3))",
    "region R = universe",
    "partition P of U = A, U - A",
    "partition P of U = A, B, U - A - B assumed",
    "partition P of U = 2*A, U - 2*A",
    "partition P of U = -A + U, A",
    "fn e = 2 * x + a",
    "fn e = -3/2",
    "fn e = 0",
    "fn e",
    "expr E = join(f^A, g^(U - A))",
    "expr E = join(f^(U - A), g^A)",
    "expr E = mjoin(*, (f * g)^A, (f^2 * g^-1)^(U - A))",
    "expr E = f^A",
    "matrix M = dims(n, m) split(h, k) blocks(A2, B2, C2, D2)",
    "spline S = knots(a, b)",
    "valuation v: a = 1/3, b = -2",
    "valuation v: a=7, b = 9223372036854775807, a = -1/2",
]

LONG = "5" * 5000
ALPHABET = [
    "1/0", "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "-9223372036854775809", LONG, "٣", "٣/٤", "⋈", "\t", "naïve", "1/2", ",", "-",
]
BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# Partition lines the one-match form builds from their (region, coefficient)
# pairs, or refuses so that the token reader reports the error.
SUMS = [
    "partition P of U = A + A - A, U - A",
    "partition P of U = 0*B + A, U - A",
    "partition P of U = A + B - A, U - B",
    "partition P of U = A - A, U",
    "partition P of U = A, B",
    "partition P of U = A, B assumed",
    "partition P of U = A, C, U - A",
    "partition P of U = A, C, U - A assumed",
    "partition P of U = U",
    "partition P of U = U - A, A",
    "partition P of U = 2*U - A, A - U",
    "partition P of U = U, U - U",
    "partition P of U = U, U",
    "partition P of A = A - B, B",
]
MUTANTS_PER_SEED = 14
RNG_SEED = 41

# A token a mutation moves whole: a number such as -1/2, the range mark
# "..", a name, or any other single character.
_TOKEN = re.compile(r"-?\d+(?:/\d+)?|\.\.|[A-Za-z_][A-Za-z0-9_]*|\S")


def _mutate(rng: random.Random, line: str) -> str:
    # each token keeps the blank before it, so touching tokens stay touching
    spaced, end = [], 0
    for tok in _TOKEN.finditer(line):
        spaced.append(line[end:tok.start()] + tok.group())
        end = tok.end()
    i = rng.randrange(len(spaced))
    op = rng.choice(["delete", "duplicate", "swap", "replace", "insert"])
    if op == "delete":
        del spaced[i]
    elif op == "duplicate":
        spaced.insert(i, spaced[i])
    elif op == "swap" and i + 1 < len(spaced):
        spaced[i], spaced[i + 1] = spaced[i + 1], spaced[i]
    else:
        blank = rng.choice(["", " ", "\t"])
        new = blank + rng.choice(ALPHABET)
        if op == "replace":
            spaced[i] = new
        else:
            spaced.insert(i, new)
    return "".join(spaced)


def cases() -> list:
    rng = random.Random(RNG_SEED)
    out = []
    for seed in SEEDS:
        out.append(seed)
        out.extend(_mutate(rng, seed) for _ in range(MUTANTS_PER_SEED))
    for ch in BREAKS:
        out += [f"param c # x{ch}d", f"param c,{ch}d", f"valuation v: a = 1{ch}"]
    return out + SUMS


def _shown(registry: str, value) -> str:
    if registry == "exprs":
        return f"{value.star.name if value.is_marked else 'join'}: {value.render()}"
    return repr(value)


def outcome(line: str) -> str:
    """What ``line`` declares after the prelude, or the error it raises."""
    before = parse_workspace(PRELUDE)
    try:
        ws = parse_workspace(PRELUDE + line)
    except Exception as e:  # every outcome is recorded, the type included
        return f"! {type(e).__name__}: {e}\n"
    shown = []
    new_params = [p for p in ws.params if p not in before.params]
    if new_params:
        shown.append(f"+ params: {', '.join(new_params)}\n")
    for registry, values in vars(ws).items():
        if registry == "params":
            continue
        old = getattr(before, registry)
        shown += [
            f"+ {registry} {name}: {_shown(registry, value)}\n"
            for name, value in values.items()
            if name not in old or old[name] != value
        ]
    return "".join(shown) or "+ nothing\n"


def _case_line(line: str) -> str:
    return "$ " + json.dumps(line).replace(LONG, "<5000 fives>") + "\n"


def blocks() -> list:
    """The block of each case, in case order."""
    return [_case_line(line) + outcome(line) for line in cases()]


def read_blocks() -> list:
    """The blocks of ``parse.txt``, in case order."""
    return re.split(r"^(?=\$ )", CORPUS.read_text(encoding="utf-8"), flags=re.M)[1:]


if __name__ == "__main__":
    CORPUS.write_text("".join(blocks()), encoding="utf-8")
