"""The golden corpus: what every case in ``cases.txt`` prints.

Each line of ``cases.txt`` is one case: a CLI argument vector in shell
quoting, run by ``cli.main`` in-process from the repository root under the
one-second ``SIGALRM`` guard of ``tests/test_cli.py``, or a library case
``fold binary P`` / ``fold nary P``, which folds the P operands of
``steps_workspace(P)`` (``tests/test_calculus.py``) by binary steps or by
one n-ary ``pointwise_star`` and prints the render, each term's word and
region coefficients in ``items()`` order, and the values at every integer
point around the universe under one valuation with tied thresholds.
``fold points P`` folds them by binary steps and prints one-point
``evaluate`` calls at every half-integer point around the universe, under
three valuation objects in turn, one with tied thresholds, and then the
first object again.  ``fold cancel ROUTE G P`` folds P >= 3 step operands
by binary steps (``cancel_workspace``) in which the atom g, of kind G
(``none``: no g; ``const``, ``opaque``, ``x``: a body that reads x;
``zero``: one that divides by a parameter set to 0; ``unset``: one that
names a parameter with no value), enters by the first operand's words and
leaves by the third's, so it cancels out of every term word of the
result, and prints the render and, at every half-integer point around the
universe, one ``evaluate_many`` pass and one-point ``evaluate`` calls,
errors included.  ROUTE is ``plus`` (under + with atoms that read no
point), ``times`` (under *) or ``xplus`` (under + with steps that read x).
``chain STYLE N1 N2 ...`` refines chain partitions
P1, P2, ... of N1, N2, ... pieces (piece i of Pk is Ak_i - Ak_(i-1), the
last U - Ak_(Nk-1)) under a canonical choice matrix or one of two custom
ones, and prints the new pieces, the rewrite rows, the choice matrix's
render and determinant, and its inverse.  ``custom-unit`` applies +-1 row
operations between disjoint pairs of unit rows and swaps of neighbouring
columns to the ones-top-row matrix; ``custom-wide`` adds multiples such as
10 and -1 of an earlier row, the all-ones one included, to each later row.
``combine STYLE N1 N2 ...`` combines one operand per chain partition, its
term i over piece i, by ``pointwise_star`` under + and then under *, and
prints the render and each term's word and region coefficients in
``items()`` order, or the error.  STYLE is a choice-matrix style of
``chain``, whose refinement the combine is given; ``closed-form``, which
gives the universe atom instead; or ``shared``, which puts every operand
over P1's pieces and gives neither.  Term i of operand k has the word
c_i^((-1)^k * i), c_i being f, g, h for i mod 3 = 0, 1, 2, so that words
of different operands cancel; term 3 of operand 1 has exponent 2^61
instead, so that wide combinations overflow, and term 2 of operand 4 binds
the name f to another atom.

``outputs.txt`` holds one block per case, in case order: ``$ <case>``,
then for a CLI case ``[exit <code>]``, its stdout and, when it wrote any,
``[stderr]`` and its stderr.  ``tests/test_golden.py`` compares a fresh
run with it.  Write it again with::

    python tests/golden/make.py

A change that alters an output regenerates the file and lists each changed
line in CHANGES.md as intended; a failing comparison is not mended by
regenerating without that listing.
"""

from __future__ import annotations

import io
import os
import re
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CASES = HERE / "cases.txt"
OUTPUTS = HERE / "outputs.txt"

if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from hybridsets import (  # noqa: E402
    PLUS,
    TIMES,
    UNDEFINED,
    ChoiceMatrix,
    HybridError,
    HybridExpr,
    HybridTerm,
    Valuation,
    common_strict_refinement,
    constant_atom,
    evaluate,
    evaluate_many,
    parse_workspace,
    pointwise_star,
    word,
)
from test_calculus import step_fold, steps_workspace  # noqa: E402
from test_cli import run_cli_within_a_second  # noqa: E402


def read_cases() -> list:
    """The cases of ``cases.txt`` in order: every line that is not blank or a comment."""
    lines = CASES.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def read_outputs() -> dict:
    """``outputs.txt`` as case -> block, in case order."""
    text = OUTPUTS.read_text(encoding="utf-8")
    blocks = re.split(r"^(?=\$ )", text, flags=re.M)[1:]
    return {b.split("\n", 1)[0][2:]: b for b in blocks}


def block(case: str, capsys) -> str:
    """The block of one case; ``capsys`` reads what the CLI wrote, as
    pytest's fixture of that name does."""
    argv = shlex.split(case)
    if argv[0] == "fold":
        return f"$ {case}\n{_fold(*argv[1:])}"
    if argv[0] == "chain":
        return f"$ {case}\n{_chain(argv[1], [int(a) for a in argv[2:]])}"
    if argv[0] == "combine":
        return f"$ {case}\n{_combine(argv[1], [int(a) for a in argv[2:]])}"
    code, out, err = run_cli_within_a_second(capsys, *argv)
    return f"$ {case}\n[exit {code}]\n{out}" + (f"[stderr]\n{err}" if err else "")


def _fold(how: str, *args: str) -> str:
    if how == "cancel":
        return _cancel(*args)
    p = int(args[0])
    ws = steps_workspace(p)
    if how == "points":
        return _points(step_fold(ws, p), p)
    if how == "binary":
        e = step_fold(ws, p)
    else:
        e = pointwise_star(PLUS, *(ws.exprs[f"H{i}"] for i in range(1, p + 1)),
                           universe=ws.regions["U"])
    lines = [f"render {e.render()}"]
    for i, t in enumerate(e.terms, 1):
        word = ", ".join(f"{a.name} {k}" for a, k in t.word.items())
        region = ", ".join(f"{a.name} {c}" for a, c in t.region.items())
        lines.append(f"term {i}: word {word} | region {region}")
    # thresholds on the even integers, with ties; t two above the top one
    ks = [2 * (5 * i % 7) for i in range(1, p + 1)]
    top = max(ks) + 2
    v = Valuation({"t": top, **{f"k{i}": k for i, k in enumerate(ks, start=1)}})
    lines.append(f"under {v}")
    points = [Fraction(x) for x in range(-1, top + 2)]
    for x, out in zip(points, evaluate_many(e, points, v)):
        lines.append(f"at {x}: {_outcome(out)}")
    return "\n".join(lines) + "\n"


def _points(e, p: int) -> str:
    """One ``evaluate`` call per line under each valuation object in
    turn: thresholds 1..p; even thresholds 0, 2, 2, 4, 4, ..., tied in
    pairs and with the universe's low end; half-integer thresholds in
    falling order; then the first object again.  Each sets t two above its
    top threshold."""
    rows = ([Fraction(i) for i in range(1, p + 1)],
            [Fraction(i // 2 * 2) for i in range(1, p + 1)],
            [Fraction(2 * (p - i) + 1, 2) for i in range(1, p + 1)])
    vs = [Valuation({"t": max(ks) + 2, **{f"k{i}": k for i, k in enumerate(ks, start=1)}})
          for ks in rows]
    lines = []
    for v in (*vs, vs[0]):
        lines.append(f"under {v}")
        top = v.resolve("t")
        for x in (Fraction(j, 2) for j in range(-2, int(2 * top) + 3)):
            lines.append(f"at {x}: {_outcome(evaluate(e, x, v))}")
    return "\n".join(lines) + "\n"


# the body of g per kind; d is a parameter that no valuation sets
CANCEL_BODIES = {"const": " = 5", "opaque": "", "x": " = x", "zero": " = 1/c", "unset": " = d"}


def cancel_workspace(route: str, kind: str, p: int):
    """p step operands H_i = z_i^(U - R_i) ⊛ a_i^R_i over U = [0, t], as
    in ``steps_workspace``, with z_i = 1/(i + 1) and, on the ``xplus``
    route, a_i = x + 2^i/3.  Unless ``kind`` is ``none``, H1's words
    carry g and H3's carry g^-1: the third operand's last word, added to
    every older term, cancels g in each, and P1 and the new pieces are
    born from the dropped last record's word, which holds g."""
    lines = ["param t, c, d, " + ", ".join(f"k{i}" for i in range(1, p + 1)),
             "region U = interval[0, t]"]
    if kind != "none":
        lines.append(f"fn g{CANCEL_BODIES[kind]}")
    for i in range(1, p + 1):
        amp = f"x + {2**i}/3" if route == "xplus" else f"{2**i}/3"
        lines += [f"region R{i} = interval(k{i}, t]", f"fn z{i} = 1/{i + 1}", f"fn a{i} = {amp}"]
        g = {1: "g * ", 3: "g^-1 * "}.get(i, "") if kind != "none" else ""
        lines.append(f"expr H{i} = join(({g}z{i})^(U - R{i}), ({g}a{i})^R{i})")
    return parse_workspace("\n".join(lines) + "\n")


def _cancel(route: str, kind: str, p: str) -> str:
    p = int(p)
    ws = cancel_workspace(route, kind, p)
    star = TIMES if route == "times" else PLUS
    e = ws.exprs["H1"]
    for i in range(2, p + 1):
        e = pointwise_star(star, e, ws.exprs[f"H{i}"], universe=ws.regions["U"])
    ks = [2 * (5 * i % 7) for i in range(1, p + 1)]
    top = max(ks) + 2
    v = Valuation({"t": top, "c": 0, **{f"k{i}": k for i, k in enumerate(ks, start=1)}})
    points = [Fraction(j, 2) for j in range(-2, 2 * top + 3)]
    lines = [f"render {e.render()}", f"under {v}", "many:"]
    try:
        for x, out in zip(points, evaluate_many(e, points, v)):
            lines.append(f"at {x}: {_outcome(out)}")
    except Exception as exc:  # the pass ends at its first raising point
        lines.append(f"raises {type(exc).__name__}: {exc}")
    lines.append("one by one:")
    for x in points:
        try:
            lines.append(f"at {x}: {_outcome(evaluate(e, x, v))}")
        except Exception as exc:
            lines.append(f"at {x}: raises {type(exc).__name__}: {exc}")
    return "\n".join(lines) + "\n"


def chain_text(sizes) -> str:
    """A workspace of chain partitions P1, P2, ... of U = [0, 1): piece i
    of Pk is Ak_i - Ak_(i-1), with Ak_i = [0, ak_i), closed at every
    fourth ak_i; a one-piece partition is U itself."""
    params, regions, partitions = [], [], []
    for k, n in enumerate(sizes, start=1):
        names = [f"A{k}_{i}" for i in range(1, n)]
        for i, name in enumerate(names, start=1):
            params.append(f"a{k}_{i}")
            regions.append(f"region {name} = interval[0, a{k}_{i}{']' if (k + i) % 4 == 0 else ')'}")
        pieces = names[:1] + [f"{b} - {a}" for a, b in zip(names, names[1:])]
        pieces.append(f"U - {names[-1]}" if names else "U")
        partitions.append(f"partition P{k} of U = " + ", ".join(pieces))
    lines = ["param " + ", ".join(params)] if params else []
    return "\n".join(lines + ["region U = interval[0, 1)"] + regions + partitions) + "\n"


def chain_entries(style: str, n: int):
    """The rows of a custom choice matrix of size n (see the module docstring)."""
    m = [[int(i == 0 or i == j) for j in range(n)] for i in range(n)]
    if style == "custom-unit":
        order = sorted(range(1, n), key=lambda i: (7 * i) % n)
        for t, (a, b) in enumerate(zip(order[0::2], order[1::2])):
            m[b] = [x + (-1) ** t * y for x, y in zip(m[b], m[a])]
        swaps = range(0, n - 1, 3)
    else:
        ones = [row[:] for row in m]
        for b in range(1, n):
            a = (b - 1, 0, b // 2)[b % 3]
            c = (10, -1, 3, -12)[b % 4]
            m[b] = [x + c * y for x, y in zip(m[b], ones[a])]
        swaps = range(1, n - 1, 4)
    for j in swaps:
        for row in m:
            row[j], row[j + 1] = row[j + 1], row[j]
    return tuple(map(tuple, m))


def chain_refinement(style: str, sizes):
    """The chain workspace of ``sizes``, its partitions and their
    refinement under the choice-matrix ``style``."""
    ws = parse_workspace(chain_text(sizes))
    parts = [ws.partitions[f"P{k}"] for k in range(1, len(sizes) + 1)]
    if style.startswith("custom-"):
        rows = ["U", *(f"P{k}.{i}" for k, n in enumerate(sizes, start=1) for i in range(1, n))]
        cols = [f"P{j}" for j in range(1, len(rows) + 1)]
        choice = ChoiceMatrix(chain_entries(style, len(rows)), tuple(rows), tuple(cols))
        return ws, parts, common_strict_refinement(parts, choice=choice)
    return ws, parts, common_strict_refinement(parts, style=style)


def _chain(style: str, sizes) -> str:
    ws, parts, r = chain_refinement(style, sizes)
    lines = [f"{label} = {piece.render()}" for label, piece in zip(r.labels, r.pieces)]
    lines.append("rewrites:")
    for part, rows in zip(parts, r.coefficients):
        lines += [f"{part.name}.{lab}: {' '.join(map(str, row))}" for lab, row in zip(part.labels, rows)]
    lines.append(f"choice matrix (det {r.choice.determinant()}):")
    lines += r.choice.render().splitlines()
    lines.append("inverse:")
    lines += [f"{label}: {' '.join(map(str, row))}" for label, row in zip(r.labels, r.choice.inverse())]
    return "\n".join(lines) + "\n"


# the atoms of the combine cases' words, and a second definition of f
COMBINE_ATOMS = [constant_atom(name, i) for i, name in enumerate("fgh", start=1)]
OTHER_F = constant_atom("f", 9)


def _combine(style: str, sizes) -> str:
    if style in ("closed-form", "shared"):
        ws = parse_workspace(chain_text(sizes))
        parts = [ws.partitions[f"P{k}"] for k in range(1, len(sizes) + 1)]
        options = {"universe": ws.regions["U"]} if style == "closed-form" else {}
        if style == "shared":
            parts = [parts[0]] * len(sizes)
    else:
        _, parts, r = chain_refinement(style, sizes)
        options = {"refinement": r}
    operands = []
    for k, part in enumerate(parts, start=1):
        words = [
            word((OTHER_F if (k, i) == (4, 2) else COMBINE_ATOMS[i % 3],
                  (-1) ** k * (2**61 if (k, i) == (1, 3) else i)))
            for i in range(1, len(part.pieces) + 1)
        ]
        operands.append(HybridExpr(None, tuple(map(HybridTerm, words, part.pieces))))
    lines = []
    for star in (PLUS, TIMES):
        lines.append(f"under {star.name}:")
        try:
            e = pointwise_star(star, *operands, **options)
        except HybridError as exc:
            lines.append(f"raises {type(exc).__name__}: {exc}")
            continue
        lines.append(f"render {e.render()}")
        for i, t in enumerate(e.terms, 1):
            w = ", ".join(f"{a.name} {k}" for a, k in t.word.items())
            region = ", ".join(f"{a.name} {c}" for a, c in t.region.items())
            lines.append(f"term {i}: word {w} | region {region}")
    return "\n".join(lines) + "\n"


def _outcome(out) -> str:
    return "undefined" if out is UNDEFINED else f"{out.value} (multiplicity {out.multiplicity})"


class _Capture:
    """What pytest's ``capsys`` gives: the text written since the last read."""

    def __init__(self):
        self.out, self.err = io.StringIO(), io.StringIO()

    def readouterr(self):
        captured = SimpleNamespace(out=self.out.getvalue(), err=self.err.getvalue())
        for stream in (self.out, self.err):
            stream.seek(0)
            stream.truncate()
        return captured


def main() -> None:
    os.chdir(ROOT)
    capsys = _Capture()
    with redirect_stdout(capsys.out), redirect_stderr(capsys.err):
        blocks = [block(case, capsys) for case in read_cases()]
    OUTPUTS.write_text("".join(blocks), encoding="utf-8")
    print(f"wrote {len(blocks)} cases to {OUTPUTS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
