"""Plain-text workspaces: named declarations the CLI operates on.

One declaration per line, ``#`` starts a comment:

    param a, b
    fn f = 2*x + 1
    fn g1                              # opaque
    region P1 = interval[0, a)
    region A1 = rect(1..h1, 1..k1)
    region Q = points(0, 1/2, (2, 3))
    partition P of U = A1, B1 - A1, B2 assumed
    expr E = mjoin(*, (f1 * g1)^A1, f2^(B1 - A1))
    matrix M1 = dims(n, m) split(h1, k1) blocks(A1, B1, C1, D1)
    spline S = knots(a, c, b)
    valuation v1: a = 1/3, b = 2

Every name must be declared before use and is unique within its kind.
Errors carry line and column.  ``render_workspace`` emits canonical text
that parses back to an equal workspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from . import scalarexpr
from .errors import ContractError
from .functions import (
    BUILTIN_STARS,
    FreeWord,
    FunctionAtom,
    HybridExpr,
    HybridTerm,
    StarOp,
    join,
    marked_join,
)
from .hybridset import render_element
from .matrices import SymbolicBlockMatrix, block_matrix_2x2, grid_universe
from .refine import GeneralisedPartition
from .regions import (
    FinitePointSet,
    GridRect,
    Interval1D,
    Param,
    RegionAtom,
    SymbolicHybridSet,
    Universe,
    Valuation,
    render_param,
)
from .scalarexpr import Cursor
from .splines import SymbolicSpline


@dataclass
class Workspace:
    params: Dict[str, None] = field(default_factory=dict)
    regions: Dict[str, RegionAtom] = field(default_factory=dict)
    atoms: Dict[str, FunctionAtom] = field(default_factory=dict)
    partitions: Dict[str, GeneralisedPartition] = field(default_factory=dict)
    exprs: Dict[str, HybridExpr] = field(default_factory=dict)
    matrices: Dict[str, SymbolicBlockMatrix] = field(default_factory=dict)
    splines: Dict[str, SymbolicSpline] = field(default_factory=dict)
    valuations: Dict[str, Valuation] = field(default_factory=dict)
    decls: List[Tuple[str, str]] = field(default_factory=list)

    def __eq__(self, other):
        if not isinstance(other, Workspace):
            return NotImplemented
        # declaration order is presentation, not meaning
        return (
            set(self.params) == set(other.params)
            and self.regions == other.regions
            and self.atoms == other.atoms
            and self.partitions == other.partitions
            and self.exprs == other.exprs
            and self.matrices == other.matrices
            and self.splines == other.splines
            and self.valuations == other.valuations
        )


_REGISTRIES = {
    "param": "params",
    "atom": "atoms",
    "region": "regions",
    "partition": "partitions",
    "expr": "exprs",
    "matrix": "matrices",
    "spline": "splines",
    "valuation": "valuations",
}


def _register(ws: Workspace, kind: str, name: str, value, cur: Cursor, pos: int):
    registry = getattr(ws, _REGISTRIES[kind])
    if name in registry:
        cur.error(f"duplicate {kind} name {name!r}", pos)
    registry[name] = value
    ws.decls.append((kind, name))


def _param(ws: Workspace, cur: Cursor) -> Param:
    if cur.at_number():
        return cur.number()
    pos = cur.pos
    name = cur.ident("a number or parameter name")
    if name not in ws.params:
        cur.error(f"unresolved name {name!r}", pos)
    return name


def _lookup(cur: Cursor, registry: dict, what: str):
    pos = cur.pos
    name = cur.ident(what)
    if name not in registry:
        cur.error(f"unresolved name {name!r}", pos)
    return registry[name]


def _decl_param(ws: Workspace, cur: Cursor):
    while True:
        pos = cur.pos
        name = cur.ident()
        _register(ws, "param", name, None, cur, pos)
        if not cur.take(","):
            break


def _decl_fn(ws: Workspace, cur: Cursor):
    pos = cur.pos
    name = cur.ident()
    body = None
    if cur.take("="):
        start = cur.pos
        body = scalarexpr.read_scalar(cur)
        for ref in scalarexpr.body_names(body):
            if ref != "x" and ref not in ws.params:
                cur.error(f"unresolved name {ref!r} in body", start)
    _register(ws, "atom", name, FunctionAtom(name, body), cur, pos)
    ws.decls[-1] = ("fn", name)


def _parse_bounds(ws: Workspace, cur: Cursor, sep: str):
    """``lo<sep>hi`` between brackets: ``[``/``]`` closed, ``(``/``)`` open.

    An interval (sep ``,``) needs the brackets; a range (sep ``..``) may go
    without them and is then closed at both ends.
    """
    opener = cur.take_any("[(")
    if opener is None and sep == ",":
        cur.error("expected '[' or '('")
    lo = _param(ws, cur)
    cur.expect(sep)
    hi = _param(ws, cur)
    if opener is None:
        return lo, hi, True, True
    closer = cur.take_any("])")
    if closer is None:
        cur.error("expected ']' or ')'")
    return lo, hi, opener == "[", closer == "]"


def read_point(cur: Cursor):
    """A number or a pair ``(a, b)`` of numbers, read from ``cur``."""
    if cur.take("("):
        a = cur.number()
        cur.expect(",")
        b = cur.number()
        cur.expect(")")
        return (a, b)
    return cur.number()


def _parse_shape(ws: Workspace, cur: Cursor):
    pos = cur.pos
    kind = cur.ident("a shape")
    if kind == "universe":
        return Universe()
    if kind == "interval":
        return Interval1D(*_parse_bounds(ws, cur, ","))
    if kind == "rect":
        cur.expect("(")
        r_lo, r_hi, r_lc, r_hc = _parse_bounds(ws, cur, "..")
        cur.expect(",")
        c_lo, c_hi, c_lc, c_hc = _parse_bounds(ws, cur, "..")
        cur.expect(")")
        return GridRect(r_lo, r_hi, c_lo, c_hi, r_lc, r_hc, c_lc, c_hc)
    if kind == "points":
        cur.expect("(")
        pts = cur.comma_list(read_point)
        cur.expect(")")
        return FinitePointSet(tuple(pts))
    cur.error(f"unknown shape {kind!r}", pos)


def _decl_region(ws: Workspace, cur: Cursor):
    pos = cur.pos
    name = cur.ident()
    cur.expect("=")
    shape = _parse_shape(ws, cur)
    _register(ws, "region", name, RegionAtom(name, shape), cur, pos)


def _parse_combo(ws: Workspace, cur: Cursor) -> SymbolicHybridSet:
    terms = []
    sign = -1 if cur.take("-") else 1
    while True:
        coeff = sign
        if cur.at_number():
            coeff = cur.integer(sign)
            cur.expect("*")
        terms.append((_lookup(cur, ws.regions, "a region name"), coeff))
        if cur.take("+"):
            sign = 1
        elif cur.take("-"):
            sign = -1
        else:
            return SymbolicHybridSet(terms)


def _decl_partition(ws: Workspace, cur: Cursor):
    pos = cur.pos
    name = cur.ident()
    cur.expect_word("of")
    universe = _lookup(cur, ws.regions, "a region name")
    cur.expect("=")
    body_pos = cur.pos
    pieces = cur.comma_list(lambda c: _parse_combo(ws, c))
    assumed = cur.take_word("assumed")
    try:
        part = GeneralisedPartition(name, universe, tuple(pieces), assumed=assumed)
    except ContractError as e:
        cur.error(str(e), body_pos)
    _register(ws, "partition", name, part, cur, pos)


def _parse_word(ws: Workspace, cur: Cursor) -> FreeWord:
    if not cur.take("("):
        return FreeWord.from_atom(_lookup(cur, ws.atoms, "a function name"))
    entries = []
    while True:
        a = _lookup(cur, ws.atoms, "a function name")
        k = cur.integer(1) if cur.take("^") else 1
        entries.append((a, k))
        if not cur.take("*"):
            break
    cur.expect(")")
    return FreeWord(entries)


def _parse_term(ws: Workspace, cur: Cursor) -> HybridTerm:
    pos = cur.pos
    w = _parse_word(ws, cur)
    cur.expect("^")
    if cur.take("("):
        region = _parse_combo(ws, cur)
        cur.expect(")")
    else:
        region = SymbolicHybridSet.from_atom(_lookup(cur, ws.regions, "a region name"))
    try:
        return HybridTerm(w, region)
    except ContractError as e:
        cur.error(str(e), pos)


def _parse_star(cur: Cursor) -> StarOp:
    pos = cur.pos
    token = cur.take_any("+*⋈")
    if token is not None:
        return BUILTIN_STARS[token]
    if cur.take_word("merge"):
        return BUILTIN_STARS["merge"]
    cur.error("expected a star operation (+, *, merge)", pos)


def _parse_expr_body(ws: Workspace, cur: Cursor) -> HybridExpr:
    if cur.take_word("join"):
        cur.expect("(")
        if cur.take(")"):
            return HybridExpr(None, ())
        terms = cur.comma_list(lambda c: _parse_term(ws, c))
        cur.expect(")")
        return join(*terms)
    if cur.take_word("mjoin"):
        cur.expect("(")
        star = _parse_star(cur)
        cur.expect(",")
        terms = cur.comma_list(lambda c: _parse_term(ws, c))
        cur.expect(")")
        return marked_join(star, terms)
    return join(_parse_term(ws, cur))


def _decl_expr(ws: Workspace, cur: Cursor):
    pos = cur.pos
    name = cur.ident()
    cur.expect("=")
    e = _parse_expr_body(ws, cur)
    _register(ws, "expr", name, e, cur, pos)


def _decl_matrix(ws: Workspace, cur: Cursor):
    pos = cur.pos
    name = cur.ident()
    cur.expect("=")
    cur.expect_word("dims")
    cur.expect("(")
    rows = _param(ws, cur)
    cur.expect(",")
    cols = _param(ws, cur)
    cur.expect(")")
    cur.expect_word("split")
    cur.expect("(")
    row_split = _param(ws, cur)
    cur.expect(",")
    col_split = _param(ws, cur)
    cur.expect(")")
    cur.expect_word("blocks")
    cur.expect("(")
    names = []
    for i in range(4):
        npos = cur.pos
        block = cur.ident("a block name")
        if block in ws.regions or block in ws.atoms or block in names:
            cur.error(f"duplicate region name {block!r}", npos)
        names.append(block)
        if i < 3:
            cur.expect(",")
    cur.expect(")")
    mat = block_matrix_2x2(name, rows, cols, row_split, col_split, names)
    if name in ws.partitions:
        cur.error(f"duplicate partition name {name!r}", pos)
    _register(ws, "matrix", name, mat, cur, pos)
    for blk in mat.blocks:
        ws.regions[blk.name] = blk.region
        ws.atoms[blk.name] = blk.symbol
    # the block partition under the matrix name, for the refine subcommand
    ws.partitions[name] = mat.partition(grid_universe(rows, cols))


def _decl_spline(ws: Workspace, cur: Cursor):
    pos = cur.pos
    name = cur.ident()
    cur.expect("=")
    cur.expect_word("knots")
    cur.expect("(")
    knots = cur.comma_list(lambda c: _param(ws, c))
    cur.expect(")")
    try:
        sp = SymbolicSpline.build(name, knots)
    except ContractError as e:
        cur.error(str(e), pos)
    _register(ws, "spline", name, sp, cur, pos)


def _decl_valuation(ws: Workspace, cur: Cursor):
    pos = cur.pos
    name = cur.ident()
    cur.expect(":")
    _register(ws, "valuation", name, Valuation.read(cur, ws.params), cur, pos)


_HANDLERS = {
    "param": _decl_param,
    "fn": _decl_fn,
    "region": _decl_region,
    "partition": _decl_partition,
    "expr": _decl_expr,
    "matrix": _decl_matrix,
    "spline": _decl_spline,
    "valuation": _decl_valuation,
}


def parse_workspace(text: str) -> Workspace:
    ws = Workspace()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        cur = Cursor(line, line_no)
        start = cur.pos
        keyword = cur.ident("a declaration keyword")
        handler = _HANDLERS.get(keyword)
        if handler is None:
            cur.error(f"unknown declaration {keyword!r}", start)
        handler(ws, cur)
        cur.finish()
    return ws


def parse_expr_text(ws: Workspace, text: str) -> HybridExpr:
    """An expression body alone, as it appears in command-line arguments."""
    return Cursor(text).read_all(lambda cur: _parse_expr_body(ws, cur))


def parse_term_text(ws: Workspace, text: str) -> HybridTerm:
    return Cursor(text).read_all(lambda cur: _parse_term(ws, cur))


# --- canonical rendering -------------------------------------------------


def _render_range(lo, hi, lo_closed, hi_closed) -> str:
    body = f"{render_param(lo)}..{render_param(hi)}"
    if lo_closed and hi_closed:
        return body
    return ("[" if lo_closed else "(") + body + ("]" if hi_closed else ")")


def render_shape(shape) -> str:
    if isinstance(shape, Universe):
        return "universe"
    if isinstance(shape, Interval1D):
        return (
            "interval"
            + ("[" if shape.lo_closed else "(")
            + f"{render_param(shape.lo)}, {render_param(shape.hi)}"
            + ("]" if shape.hi_closed else ")")
        )
    if isinstance(shape, GridRect):
        rows = _render_range(
            shape.row_lo, shape.row_hi, shape.row_lo_closed, shape.row_hi_closed
        )
        cols = _render_range(
            shape.col_lo, shape.col_hi, shape.col_lo_closed, shape.col_hi_closed
        )
        return f"rect({rows}, {cols})"
    if isinstance(shape, FinitePointSet):
        return "points(" + ", ".join(render_element(p) for p in shape.points) + ")"
    raise TypeError(f"not a shape: {shape!r}")


def _render_combo(s: SymbolicHybridSet) -> str:
    items = s.items()
    if len(items) == 1 and items[0][1] == 1:
        return items[0][0].name
    return f"({s.render()})"


def _render_word(w: FreeWord) -> str:
    items = w.items()
    if len(items) == 1 and items[0][1] == 1:
        return items[0][0].name
    parts = [a.name if k == 1 else f"{a.name}^{k}" for a, k in items]
    return "(" + " * ".join(parts) + ")"


def render_term(t: HybridTerm) -> str:
    return f"{_render_word(t.word)}^{_render_combo(t.region)}"


def render_expr_body(e: HybridExpr) -> str:
    inner = ", ".join(render_term(t) for t in e.terms)
    if e.star is None:
        return f"join({inner})"
    return f"mjoin({e.star.name}, {inner})"


def render_workspace(ws: Workspace) -> str:
    lines = []
    for kind, name in ws.decls:
        if kind == "param":
            lines.append(f"param {name}")
        elif kind == "fn":
            a = ws.atoms[name]
            if a.body is None:
                lines.append(f"fn {name}")
            else:
                lines.append(f"fn {name} = {scalarexpr.render_scalar(a.body)}")
        elif kind == "region":
            lines.append(f"region {name} = {render_shape(ws.regions[name].shape)}")
        elif kind == "partition":
            p = ws.partitions[name]
            pieces = ", ".join(piece.render() for piece in p.pieces)
            suffix = " assumed" if p.assumed else ""
            lines.append(f"partition {name} of {p.universe.name} = {pieces}{suffix}")
        elif kind == "expr":
            lines.append(f"expr {name} = {render_expr_body(ws.exprs[name])}")
        elif kind == "matrix":
            m = ws.matrices[name]
            top_left = m.blocks[0].region.shape
            dims = f"dims({render_param(m.rows)}, {render_param(m.cols)})"
            split = (
                f"split({render_param(top_left.row_hi)}, "
                f"{render_param(top_left.col_hi)})"
            )
            blocks = "blocks(" + ", ".join(b.name for b in m.blocks) + ")"
            lines.append(f"matrix {name} = {dims} {split} {blocks}")
        elif kind == "spline":
            sp = ws.splines[name]
            knots = ", ".join(render_param(k) for k in sp.knots)
            lines.append(f"spline {name} = knots({knots})")
        elif kind == "valuation":
            v = ws.valuations[name]
            pairs = ", ".join(f"{k} = {val}" for k, val in v.items())
            lines.append(f"valuation {name}: {pairs}")
    return "\n".join(lines) + ("\n" if lines else "")
