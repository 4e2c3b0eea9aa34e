"""Command-line front end.

Subcommands load a workspace file and either evaluate expressions, compute
refinements, add block matrices, merge splines, or run identity checks.
Output is deterministic text (or json-lines for evaluation tables); exit
status is 0 on success, 1 when a check or evaluation fails, 2 on usage or
parse errors.

One size cap, ``SIZE_CAP``, bounds the work a command does for its input
text: the cells of ``matrix-add --table``, the universe grid cells of
``check partition``, the ``--grid`` count of ``check invert``, ``check
linear`` and ``check partition``, and the span of ``check karr --bounds``
once they are resolved.  A request above it exits 2.

``--at``, ``--with``, ``--grid``, ``--cell`` and ``--bounds`` are read by
the workspace's readers over a ``scalarexpr.Cursor``, under its lexical
rules; text outside them exits 2 as ``bad <argument> '<text>': ...``.  A
negative value may follow its option as the next argument (``--at -7/3``)
or be attached to it (``--at=-7/3``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import List, Optional, Tuple

from .calculus import (
    apply_linear,
    karr_split_check,
    linearity_report,
    star_inverse_identity_check,
    summation,
    summation_bound,
)
from .errors import ContractError, HybridError, ParseError
from .functions import BUILTIN_STARS, FormalValue, UNDEFINED, evaluate_grid
from .functions import evaluate as eval_expr
from .hybridset import render_element
from .matrices import matrix_add
from .matrices import matrix_add_with_refinement  # unused here, but a name the perfbench tracer rebinds in this module
from .refine import STYLE_ONES_TOP, STYLE_UPPER_TRIANGLE, common_strict_refinement
from .regions import (
    FinitePointSet,
    GridRect,
    Interval1D,
    Valuation,
    rational_grid,
    render_combination,
    resolve_param,
)
from .scalarexpr import Cursor
from .splines import spline_eval_region, spline_merge
from .workspace import Workspace, parse_expr_text, parse_term_text, parse_workspace, read_point

DEFAULT_GRID = "-5,5,101"
SIZE_CAP = 4096


class _Usage(Exception):
    """Bad arguments that argparse cannot see (unknown names and the like)."""


def _load(path: str) -> Workspace:
    try:
        # utf-8-sig: a byte-order mark that an editor saved is not line 1's text
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as e:
        raise _Usage(f"cannot read workspace {path!r}: {e}") from None
    return parse_workspace(text)


def _lookup(registry: dict, name: str, kind: str):
    try:
        return registry[name]
    except KeyError:
        raise _Usage(f"unknown {kind} {name!r}") from None


@contextmanager
def _reading(what: str, spec: str):
    """A Cursor over the argument ``spec``, which the block reads to its end
    with the workspace's readers.  A ContractError, a ParseError included,
    becomes the usage error ``bad <what> '<spec>': <error>``."""
    cur = Cursor(spec)
    try:
        yield cur
        cur.finish()
    except ContractError as e:
        raise _Usage(f"bad {what} {spec!r}: {e}") from None


def _valuation(ws: Workspace, spec: Optional[str]) -> Optional[Valuation]:
    if spec is None:
        return None
    if spec in ws.valuations:
        return ws.valuations[spec]
    if Cursor(spec).take_word(spec):  # a bare name, not an inline valuation
        raise _Usage(f"no valuation {spec!r} in the workspace")
    with _reading("valuation", spec) as cur:
        return Valuation.read(cur, ws.params)


def _grid(spec: str):
    with _reading("grid", spec) as cur:
        lo = cur.number()
        cur.expect(",")
        hi = cur.number()
        cur.expect(",")
        count = cur.integer(1)
        if count > SIZE_CAP:
            raise ContractError(f"count {count} is above the cap of {SIZE_CAP} points")
        return rational_grid(lo, hi, count)


def _value_text(v) -> str:
    try:
        return v.render() if isinstance(v, FormalValue) else str(v)
    except ValueError:  # past the interpreter's int-to-text digit limit
        limit = sys.get_int_max_str_digits()
        raise ContractError(f"result too long to print: more than {limit} digits") from None


def _outcome_text(out) -> str:
    if out is UNDEFINED:
        return "undefined"
    text = _value_text(out.value)
    if out.multiplicity != 1:
        text += f" (multiplicity {out.multiplicity})"
    return text


def _outcome_record(label: str, out) -> dict:
    record = {"expr": label, "defined": out is not UNDEFINED}
    if out is not UNDEFINED:
        record["value"] = _value_text(out.value)
        record["multiplicity"] = out.multiplicity
    return record


def _outcome_json(label: str, at, out) -> dict:
    return {"at": render_element(at), **_outcome_record(label, out)}


def _cmd_eval(args) -> int:
    ws = _load(args.workspace)
    if args.expr in ws.exprs:
        e = ws.exprs[args.expr]
    else:
        e = parse_expr_text(ws, args.expr)
    v = _valuation(ws, args.valuation)
    with _reading("point", args.at) as cur:
        p = read_point(cur)
    out = eval_expr(e, p, v)
    if args.format == "json-lines":
        print(json.dumps(_outcome_json(args.expr, p, out), sort_keys=True, ensure_ascii=False))
    else:
        print(_outcome_text(out))
    return 0


def _cmd_refine(args) -> int:
    ws = _load(args.workspace)
    parts = [_lookup(ws.partitions, name, "partition") for name in args.partitions]
    refinement = common_strict_refinement(parts, style=args.style)
    names = ", ".join(p.name for p in parts)
    print(f"refinement of {names}: {refinement.size} pieces")
    for label, piece in zip(refinement.labels, refinement.pieces):
        print(f"  {label} = {piece.render()}")
    print("rewrites:")
    for k, part in enumerate(parts):
        for i, lab in enumerate(part.labels):
            row = refinement.coefficients[k][i]
            print(f"  {part.name}.{lab} = {render_combination(zip(refinement.labels, row))}")
    choice = refinement.choice
    print(f"choice matrix (det {choice.determinant()}):")
    for line in choice.render().splitlines():
        print(f"  {line}")
    return 0


def _cmd_matrix_add(args) -> int:
    ws = _load(args.workspace)
    m1 = _lookup(ws.matrices, args.m1, "matrix")
    m2 = _lookup(ws.matrices, args.m2, "matrix")
    expr = matrix_add(m1, m2)
    v = _valuation(ws, args.valuation)
    if args.format != "json-lines":
        print(expr.render())
    if args.cell:
        with _reading("cell", args.cell) as cur:
            i = cur.integer(1)
            cur.expect(",")
            j = cur.integer(1)
        out = eval_expr(expr, (Fraction(i), Fraction(j)), v)
        if args.format == "json-lines":
            print(json.dumps(_outcome_json(f"{args.m1}+{args.m2}", (i, j), out),
                             sort_keys=True, ensure_ascii=False))
        else:
            print(f"cell ({i}, {j}): {_outcome_text(out)}")
    if args.table:
        rows = resolve_param(m1.rows, v)
        cols = resolve_param(m1.cols, v)
        if rows.denominator != 1 or cols.denominator != 1:
            raise _Usage("matrix dimensions must resolve to integers")
        rows, cols = int(rows), int(cols)
        if rows <= 0 or cols <= 0:  # an empty axis: no cell, and no coordinate built
            return 0
        if rows * cols > SIZE_CAP:
            raise _Usage(f"table too large; cap is {SIZE_CAP} cells")
        coords = [Fraction(k) for k in range(max(rows, cols) + 1)]  # one per value
        outcomes = evaluate_grid(expr, coords[1:rows + 1], coords[1:cols + 1], v)
        json_lines, label = args.format == "json-lines", f"{args.m1}+{args.m2}"
        # Each distinct outcome object is formatted once: as its text, or as
        # its json record after the "at" field, which sorts first.  Each
        # distinct row object's cells are formatted once too, as the line
        # after its "(i, " prefix, and a row is written as one join of them.
        # The entries keep their objects alive, so no id is reused meanwhile.
        # The lines are written in one piece: after the last row, or before
        # the error of the cell that raises, the cells of its row before it
        # included.
        texts, rows_seen, lines = {}, {}, []
        try:
            for i, row in enumerate(outcomes, 1):
                prefix = f'{{"at": "({i}, ' if json_lines else f"({i}, "
                found = rows_seen.get(id(row))
                if found is None:
                    cells = []
                    for j, out in enumerate(row, 1):
                        text = texts.get(id(out))
                        if text is None:
                            text = texts[id(out)] = (
                                out,
                                json.dumps(_outcome_record(label, out), sort_keys=True,
                                           ensure_ascii=False)[1:]
                                if json_lines else _outcome_text(out),
                            )
                        cells.append(f'{j})", {text[1]}' if json_lines else f"{j}): {text[1]}")
                    found = rows_seen[id(row)] = (row, cells)
                if row:
                    lines.append(prefix + ("\n" + prefix).join(found[1]))
        finally:
            if lines:
                print("\n".join(lines))
    return 0


def _cmd_spline_merge(args) -> int:
    ws = _load(args.workspace)
    s = _lookup(ws.splines, args.s, "spline")
    t = _lookup(ws.splines, args.t, "spline")
    expr = spline_merge(s, t)
    print(expr.render())
    if args.at is not None:
        v = _valuation(ws, args.valuation)
        with _reading("point", args.at) as cur:
            x = cur.number()
        desc = spline_eval_region(expr, x, v)
        print(f"at {args.at}: {desc.render()}")
    return 0


def _cmd_check_karr(args) -> int:
    ws = _load(args.workspace)
    f = _lookup(ws.atoms, args.summand, "function")
    v = _valuation(ws, args.valuation)
    with _reading("bounds", args.bounds) as cur:
        lower = _bound(cur)
        cur.expect(",")
        mid = _bound(cur)
        cur.expect(",")
        upper = _bound(cur)
    # resolved in the order karr_split_check resolves them, so errors match
    ends = [summation_bound(b, v) for b in (lower, upper, mid)]
    if max(ends) - min(ends) > SIZE_CAP:
        raise _Usage(f"summation span too large; cap is {SIZE_CAP} terms")
    report = karr_split_check(f, lower, mid, upper, v)
    print(report.render())
    return 0 if report.passed else 1


def _bound(cur: Cursor):
    """A summation bound: an integer or a parameter name."""
    return cur.integer(1) if cur.at_number() else cur.ident("an integer or a parameter name")


def _cmd_check_invert(args) -> int:
    ws = _load(args.workspace)
    t = parse_term_text(ws, args.term)
    star = BUILTIN_STARS.get(args.star)
    if star is None:
        raise _Usage(f"unknown star {args.star!r}")
    v = _valuation(ws, args.valuation)
    report = star_inverse_identity_check(star, t, v, _grid(args.grid))
    print(report.render())
    return 0 if report.passed else 1


def _cmd_check_linear(args) -> int:
    ws = _load(args.workspace)
    if args.op != "sum":
        raise ContractError(f"linear operator {args.op!r} is not declared")
    report = linearity_report(args.op, summation)
    print(report.render())
    if args.term:
        t = parse_term_text(ws, args.term)
        v = _valuation(ws, args.valuation)
        value = apply_linear(t, v, _grid(args.grid))
        print(f"{args.op} over {args.term} = {_value_text(value)}")
    return 0 if report.passed else 1


def _int_span(interval: Interval1D, valuation) -> Tuple[int, int]:
    """The first and last integers of a range, its endpoints resolved in order."""
    lo, hi = resolve_param(interval.lo, valuation), resolve_param(interval.hi, valuation)
    first = math.ceil(lo) if interval.lo_closed else math.floor(lo) + 1
    last = math.floor(hi) if interval.hi_closed else math.ceil(hi) - 1
    return first, last


def _partition_sample(part, valuation, grid_spec: str):
    shape = part.universe.shape
    if isinstance(shape, GridRect):
        r0, r1 = _int_span(shape.rows, valuation)
        c0, c1 = _int_span(shape.cols, valuation)
        if r1 < r0 or c1 < c0:  # an empty axis: no row or column is walked
            return []
        if (r1 - r0 + 1) * (c1 - c0 + 1) > SIZE_CAP:
            raise _Usage(f"universe grid too large; cap is {SIZE_CAP} cells")
        return [
            (Fraction(i), Fraction(j))
            for i in range(r0, r1 + 1)
            for j in range(c0, c1 + 1)
        ]
    if isinstance(shape, Interval1D):
        lo = resolve_param(shape.lo, valuation)
        hi = resolve_param(shape.hi, valuation)
        pts = set(rational_grid(lo, hi, 101))
        for piece in part.pieces:
            for atom in piece.atoms():
                if isinstance(atom.shape, Interval1D):
                    pts.add(resolve_param(atom.shape.lo, valuation))
                    pts.add(resolve_param(atom.shape.hi, valuation))
        return sorted(pts)
    if isinstance(shape, FinitePointSet):
        return list(shape.points)
    return list(_grid(grid_spec))


def _cmd_check_partition(args) -> int:
    ws = _load(args.workspace)
    part = _lookup(ws.partitions, args.partition, "partition")
    v = _valuation(ws, args.valuation)
    sample = _partition_sample(part, v, args.grid)
    violations = part.validate_by_sampling(v, sample)
    status = "OK" if not violations else "FAIL"
    print(f"partition {part.name}: {status} ({len(sample)} points)")
    for text in violations:
        print(f"  {text}")
    return 0 if not violations else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridsets",
        description="piecewise-function calculus over signed-multiplicity regions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression at a point")
    p.add_argument("workspace")
    p.add_argument("expr", help="expression name or inline join(...)/mjoin(...)")
    p.add_argument("--at", required=True, help="point: a rational or (i, j)")
    p.add_argument("--with", dest="valuation", help="valuation name or a=1,b=2")
    p.add_argument("--format", choices=["text", "json-lines"], default="text")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("refine", help="common strict refinement of partitions")
    p.add_argument("workspace")
    p.add_argument("partitions", nargs="+")
    p.add_argument(
        "--style",
        choices=[STYLE_ONES_TOP, STYLE_UPPER_TRIANGLE],
        default=STYLE_ONES_TOP,
    )
    p.set_defaults(handler=_cmd_refine)

    p = sub.add_parser("matrix-add", help="symbolic sum of two block matrices")
    p.add_argument("workspace")
    p.add_argument("m1")
    p.add_argument("m2")
    p.add_argument("--cell", help="evaluate one cell, as i,j")
    p.add_argument("--table", action="store_true", help="evaluate every cell")
    p.add_argument("--with", dest="valuation")
    p.add_argument("--format", choices=["text", "json-lines"], default="text")
    p.set_defaults(handler=_cmd_matrix_add)

    p = sub.add_parser("spline-merge", help="merge two splines over one interval")
    p.add_argument("workspace")
    p.add_argument("s")
    p.add_argument("t")
    p.add_argument("--at", help="evaluate the merge at a point")
    p.add_argument("--with", dest="valuation")
    p.set_defaults(handler=_cmd_spline_merge)

    check = sub.add_parser("check", help="run identity checks")
    check_sub = check.add_subparsers(dest="check_kind", required=True)

    p = check_sub.add_parser("karr", help="signed-sum split and telescoping")
    p.add_argument("workspace")
    p.add_argument("--summand", required=True)
    p.add_argument("--bounds", required=True, help="lower,mid,upper")
    p.add_argument("--with", dest="valuation")
    p.set_defaults(handler=_cmd_check_karr)

    p = check_sub.add_parser("invert", help="star-inverse collapse to the unit")
    p.add_argument("workspace")
    p.add_argument("--term", required=True, help="for example f^P")
    p.add_argument("--star", default="+")
    p.add_argument("--with", dest="valuation")
    p.add_argument("--grid", default=DEFAULT_GRID, help="lo,hi,count sample grid")
    p.set_defaults(handler=_cmd_check_invert)

    p = check_sub.add_parser("linear", help="linearity of a declared operator")
    p.add_argument("workspace")
    p.add_argument("--op", default="sum")
    p.add_argument("--term", help="also apply the operator to this term")
    p.add_argument("--with", dest="valuation")
    p.add_argument("--grid", default=DEFAULT_GRID)
    p.set_defaults(handler=_cmd_check_linear)

    p = check_sub.add_parser("partition", help="pieces sum to the universe")
    p.add_argument("workspace")
    p.add_argument("partition")
    p.add_argument("--with", dest="valuation")
    p.add_argument("--grid", default=DEFAULT_GRID)
    p.set_defaults(handler=_cmd_check_partition)

    return parser


# Options whose value may be a negative number or point, such as -7/3 or -1,2,
# and the characters that may follow its minus sign.
_NUMBER_OPTIONS = ("--at", "--cell", "--grid", "--bounds")
_AFTER_MINUS = frozenset("0123456789(")


def _attach_negative_values(argv: List[str]) -> List[str]:
    """``argv`` with each of ``_NUMBER_OPTIONS`` and a next token that starts
    with '-' and a digit or '(' joined into ``option=token``, which argparse
    would otherwise take for an option; nothing after ``--`` is touched."""
    out = list(argv)
    i = 0
    while i + 1 < len(out) and out[i] != "--":
        option, value = out[i], out[i + 1]
        if option in _NUMBER_OPTIONS and value[:1] == "-" and value[1:2] in _AFTER_MINUS:
            out[i:i + 2] = [f"{option}={value}"]
        i += 1
    return out


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command; it may be called repeatedly in one process.  The
    parser holds no per-call state, so it is built on the first call and
    kept, and every call parses into a fresh namespace."""
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.handler(args)
    except (_Usage, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except HybridError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
