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
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import List, Optional

from .calculus import (
    apply_linear,
    karr_split_check,
    linear_operator,
    linearity_report,
    star_inverse_identity_check,
    summation_bound,
)
from .errors import ContractError, HybridError, ParseError
from .functions import BUILTIN_STARS, FormalValue, UNDEFINED, evaluate_many
from .functions import evaluate as eval_expr
from .hybridset import render_element
from .matrices import matrix_add_with_refinement, matrix_eval_cell
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
from .splines import spline_eval_region, spline_merge_with_refinement
from .workspace import Workspace, parse_expr_text, parse_term_text, parse_workspace

DEFAULT_GRID = "-5,5,101"
SIZE_CAP = 4096


class _Usage(Exception):
    """Bad arguments that argparse cannot see (unknown names and the like)."""


def _load(path: str) -> Workspace:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise _Usage(f"cannot read workspace {path!r}: {e}") from None
    return parse_workspace(text)


def _lookup(registry: dict, name: str, kind: str):
    try:
        return registry[name]
    except KeyError:
        raise _Usage(f"unknown {kind} {name!r}") from None


def _valuation(ws: Workspace, spec: Optional[str]) -> Optional[Valuation]:
    if spec is None:
        return None
    if spec in ws.valuations:
        return ws.valuations[spec]
    try:
        return Valuation.parse(spec)
    except (ContractError, ValueError, ZeroDivisionError) as e:
        raise _Usage(f"bad valuation {spec!r}: {e}") from None


def _point(text: str):
    text = text.strip()
    try:
        if text.startswith("("):
            if not text.endswith(")"):
                raise ValueError("unbalanced parentheses")
            parts = text[1:-1].split(",")
            if len(parts) != 2:
                raise ValueError("a point pair has two coordinates")
            return (Fraction(parts[0]), Fraction(parts[1]))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise _Usage(f"bad point {text!r}: {e}") from None


def _grid(spec: str):
    try:
        lo, hi, count = spec.split(",")
        lo, hi, count = Fraction(lo), Fraction(hi), int(count)
        if count > SIZE_CAP:
            raise ValueError(f"count {count} is above the cap of {SIZE_CAP} points")
        return rational_grid(lo, hi, count, include_hi=True)
    except (ValueError, ZeroDivisionError, ContractError) as e:
        raise _Usage(f"bad grid {spec!r}: {e}") from None


def _outcome_text(out) -> str:
    if out is UNDEFINED:
        return "undefined"
    v = out.value
    text = v.render() if isinstance(v, FormalValue) else str(v)
    if out.multiplicity != 1:
        text += f" (multiplicity {out.multiplicity})"
    return text


def _outcome_json(label: str, at, out) -> dict:
    record = {"expr": label, "at": render_element(at), "defined": out is not UNDEFINED}
    if out is not UNDEFINED:
        v = out.value
        record["value"] = v.render() if isinstance(v, FormalValue) else str(v)
        record["multiplicity"] = out.multiplicity
    return record


def _cmd_eval(args) -> int:
    ws = _load(args.workspace)
    if args.expr in ws.exprs:
        e = ws.exprs[args.expr]
    else:
        e = parse_expr_text(ws, args.expr)
    v = _valuation(ws, args.valuation)
    p = _point(args.at)
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
    expr, _ = matrix_add_with_refinement(m1, m2)
    v = _valuation(ws, args.valuation)
    if args.format != "json-lines":
        print(expr.render())
    if args.cell:
        try:
            i, j = (int(c) for c in args.cell.split(","))
        except ValueError:
            raise _Usage(f"bad cell {args.cell!r}: expected i,j") from None
        out = matrix_eval_cell(expr, i, j, v)
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
        if rows * cols > SIZE_CAP:
            raise _Usage(f"table too large; cap is {SIZE_CAP} cells")
        cells = [(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)]
        coords = [Fraction(k) for k in range(max(rows, cols) + 1)]  # one per value
        points = ((coords[i], coords[j]) for i, j in cells)
        for (i, j), out in zip(cells, evaluate_many(expr, points, v)):
            if args.format == "json-lines":
                print(json.dumps(
                    _outcome_json(f"{args.m1}+{args.m2}", (i, j), out),
                    sort_keys=True, ensure_ascii=False))
            else:
                print(f"({i}, {j}): {_outcome_text(out)}")
    return 0


def _cmd_spline_merge(args) -> int:
    ws = _load(args.workspace)
    s = _lookup(ws.splines, args.s, "spline")
    t = _lookup(ws.splines, args.t, "spline")
    expr, _ = spline_merge_with_refinement(s, t)
    print(expr.render())
    if args.at is not None:
        v = _valuation(ws, args.valuation)
        desc = spline_eval_region(expr, _point(args.at), v)
        print(f"at {args.at}: {desc.render()}")
    return 0


def _cmd_check_karr(args) -> int:
    ws = _load(args.workspace)
    f = _lookup(ws.atoms, args.summand, "function")
    v = _valuation(ws, args.valuation)
    chunks = args.bounds.split(",")
    if len(chunks) != 3:
        raise _Usage(f"bad bounds {args.bounds!r}: expected lower,mid,upper")
    lower, mid, upper = (int(c) if _is_int(c) else c.strip() for c in chunks)
    # resolved in the order karr_split_check resolves them, so errors match
    ends = [summation_bound(b, v) for b in (lower, upper, mid)]
    if max(ends) - min(ends) > SIZE_CAP:
        raise _Usage(f"summation span too large; cap is {SIZE_CAP} terms")
    report = karr_split_check(f, lower, mid, upper, v)
    print(report.render())
    return 0 if report.passed else 1


def _is_int(text: str) -> bool:
    try:
        int(text)
        return True
    except ValueError:
        return False


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
    report = linearity_report(linear_operator(args.op))
    print(report.render())
    if args.term:
        t = parse_term_text(ws, args.term)
        v = _valuation(ws, args.valuation)
        value = apply_linear(args.op, t, v, _grid(args.grid))
        print(f"{args.op} over {args.term} = {value}")
    return 0 if report.passed else 1


def _int_lo(v: Fraction, closed: bool) -> int:
    n = math.ceil(v)
    if not closed and n == v:
        n += 1
    return n


def _int_hi(v: Fraction, closed: bool) -> int:
    n = math.floor(v)
    if not closed and n == v:
        n -= 1
    return n


def _partition_sample(part, valuation, grid_spec: str):
    shape = part.universe.shape
    if isinstance(shape, GridRect):
        r0 = _int_lo(resolve_param(shape.row_lo, valuation), shape.row_lo_closed)
        r1 = _int_hi(resolve_param(shape.row_hi, valuation), shape.row_hi_closed)
        c0 = _int_lo(resolve_param(shape.col_lo, valuation), shape.col_lo_closed)
        c1 = _int_hi(resolve_param(shape.col_hi, valuation), shape.col_hi_closed)
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
        pts = set(rational_grid(lo, hi, 101, include_hi=True))
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


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _Usage as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except HybridError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
