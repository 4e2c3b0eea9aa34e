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

Lines end at ``\n``, ``\r\n`` or ``\r`` only.  Every name must be declared
before use and is unique within its kind.  Errors carry line and column.
The format is read, not written: what the CLI prints of an expression
comes from ``HybridExpr.render``.

The hot forms (``param``, ``region ... = interval...``, ``partition``,
``valuation``, literal and opaque ``fn`` lines, ``expr ... = join(...)``
of single-atom words) are read by one match each (``Cursor.take_form``).
Each ``_*_form`` builder stores nothing unless every check of the token
reader after it passes, so that reader reports every error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict

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
from .matrices import SymbolicBlockMatrix, block_matrix_2x2
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


def _register(registry: dict, kind: str, name: str, value, cur: Cursor, pos: int):
    if name in registry:
        cur.error(f"duplicate {kind} name {name!r}", pos)
    registry[name] = value


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


def _param_form(ws: Workspace, names: list) -> bool:
    params = ws.params
    if len(set(names)) < len(names) or not params.keys().isdisjoint(names):
        return False
    params.update(dict.fromkeys(names))
    return True


def _decl_param(ws: Workspace, cur: Cursor):
    if cur.take_form(scalarexpr.PARAM_FORM, _param_form, ws):
        return
    params = ws.params
    while True:
        pos = cur.pos
        name = cur.ident()
        if name in params:
            cur.error(f"duplicate param name {name!r}", pos)
        params[name] = None
        if not cur.take(","):
            break


def _fn_form(ws: Workspace, name: str, body) -> bool:
    if name in ws.atoms:
        return False
    ws.atoms[name] = FunctionAtom(name, body)
    return True


def _decl_fn(ws: Workspace, cur: Cursor):
    if cur.take_form(scalarexpr.FN_FORM, _fn_form, ws):
        return
    pos = cur.pos
    name = cur.ident()
    body = start = None
    if cur.take("="):
        start = cur.pos
        body = scalarexpr.read_scalar(cur)
    fn = FunctionAtom(name, body)
    for ref in fn.names:
        if ref != "x" and ref not in ws.params:
            cur.error(f"unresolved name {ref!r} in body", start)
    _register(ws.atoms, "atom", name, fn, cur, pos)


def _parse_bounds(ws: Workspace, cur: Cursor, sep: str) -> Interval1D:
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
        return Interval1D(lo, hi)
    closer = cur.take_any("])")
    if closer is None:
        cur.error("expected ']' or ')'")
    return Interval1D(lo, hi, opener == "[", closer == "]")


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
        return _parse_bounds(ws, cur, ",")
    if kind == "rect":
        cur.expect("(")
        rows = _parse_bounds(ws, cur, "..")
        cur.expect(",")
        cols = _parse_bounds(ws, cur, "..")
        cur.expect(")")
        return GridRect(rows, cols)
    if kind == "points":
        cur.expect("(")
        pts = cur.comma_list(read_point)
        cur.expect(")")
        return FinitePointSet(tuple(pts))
    cur.error(f"unknown shape {kind!r}", pos)


def _region_form(ws: Workspace, name: str, lo_closed: bool, lo: Param, hi: Param,
                 hi_closed: bool) -> bool:
    params = ws.params
    if (name in ws.regions or type(lo) is str and lo not in params
            or type(hi) is str and hi not in params):
        return False
    ws.regions[name] = RegionAtom(name, Interval1D(lo, hi, lo_closed, hi_closed))
    return True


def _decl_region(ws: Workspace, cur: Cursor):
    if cur.take_form(scalarexpr.REGION_FORM, _region_form, ws):
        return
    pos = cur.pos
    name = cur.ident()
    cur.expect("=")
    shape = _parse_shape(ws, cur)
    _register(ws.regions, "region", name, RegionAtom(name, shape), cur, pos)


def _parse_combo(ws: Workspace, cur: Cursor) -> SymbolicHybridSet:
    terms = []
    sign = -1 if cur.take("-") else 1
    while True:
        coeff = sign
        if cur.at_number():
            coeff = cur.integer(sign)
            cur.expect("*")
        terms.append((_lookup(cur, ws.regions, "a region name").name, coeff))
        op = cur.take_any("+-")
        if op is None:
            return _combo(ws.regions, terms)
        sign = 1 if op == "+" else -1


def _combo(regions: dict, terms: list) -> SymbolicHybridSet:
    """The combination of (region name, coefficient) ``terms``; an unknown name
    raises KeyError.  Distinct names with nonzero coefficients are already what
    ``merge`` returns, so only a repeat or a zero goes through it."""
    coeffs = dict(terms)
    if len(coeffs) < len(terms) or 0 in coeffs.values():
        return SymbolicHybridSet._from_checked((([(r, k, regions[r]) for r, k in terms], 1),))
    return SymbolicHybridSet._of(coeffs, dict(zip(coeffs, map(regions.__getitem__, coeffs))))


def _partition_form(ws: Workspace, name: str, universe: str, pieces: list,
                    assumed: bool) -> bool:
    """A partition whose pairs sum to ``universe`` alone, checked once here."""
    regions = ws.regions
    if name in ws.partitions:
        return False
    if not assumed:
        total: dict = {}
        for r, k in chain.from_iterable(pieces):
            total[r] = total.get(r, 0) + k
        if total.pop(universe, 0) != 1 or any(total.values()):
            return False
    combos = tuple(_combo(regions, terms) for terms in pieces)
    ws.partitions[name] = GeneralisedPartition._from_checked(name, regions[universe], combos, assumed)
    return True


def _decl_partition(ws: Workspace, cur: Cursor):
    if cur.take_form(scalarexpr.PARTITION_FORM, _partition_form, ws):
        return
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
    _register(ws.partitions, "partition", name, part, cur, pos)


def _parse_word(ws: Workspace, cur: Cursor) -> FreeWord:
    if not cur.take("("):
        return FreeWord.from_atom(_lookup(cur, ws.atoms, "a function name"))
    entries = []
    while True:
        a = _lookup(cur, ws.atoms, "a function name")
        k = cur.integer(1) if cur.take("^") else 1
        entries.append((a.name, k, a))
        if not cur.take("*"):
            break
    cur.expect(")")
    return FreeWord._from_checked(((entries, 1),))


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


def _join_form(ws: Workspace, name: str, items: list) -> bool:
    atoms, regions = ws.atoms, ws.regions
    if name in ws.exprs:
        return False
    terms = [
        HybridTerm(
            FreeWord.from_atom(atoms[f]),
            _combo(regions, combo) if combo else SymbolicHybridSet.from_atom(regions[r]),
        )
        for f, r, combo in items
    ]
    ws.exprs[name] = join(*terms)
    return True


def _decl_expr(ws: Workspace, cur: Cursor):
    if cur.take_form(scalarexpr.JOIN_FORM, _join_form, ws):
        return
    pos = cur.pos
    name = cur.ident()
    cur.expect("=")
    e = _parse_expr_body(ws, cur)
    _register(ws.exprs, "expr", name, e, cur, pos)


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
    _register(ws.matrices, "matrix", name, mat, cur, pos)
    for blk in mat.blocks:
        ws.regions[blk.name] = blk.region
        ws.atoms[blk.name] = blk.symbol
    # the block partition under the matrix name, for the refine subcommand
    ws.partitions[name] = mat.partition()


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
    _register(ws.splines, "spline", name, sp, cur, pos)


def _valuation_form(ws: Workspace, name: str, pairs: list) -> bool:
    params = ws.params
    if name in ws.valuations or any(p not in params for p, _ in pairs):
        return False
    ws.valuations[name] = Valuation(dict(pairs))
    return True


def _decl_valuation(ws: Workspace, cur: Cursor):
    if cur.take_form(scalarexpr.VALUATION_FORM, _valuation_form, ws):
        return
    pos = cur.pos
    name = cur.ident()
    cur.expect(":")
    _register(ws.valuations, "valuation", name, Valuation.read(cur, ws.params), cur, pos)


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
    # str.splitlines would also end a line at \v, \f, \x1c-\x1e, U+0085,
    # U+2028 and U+2029
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(lines, start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).rstrip(" \t")
        if not line:
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

