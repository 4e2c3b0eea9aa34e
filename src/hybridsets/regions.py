"""Symbolic regions with parametric endpoints and their integer combinations.

A region atom names a shape (interval, grid rectangle, finite point set or
the whole universe) whose endpoints may be symbolic parameters.  Regions in
expressions are ``SymbolicHybridSet``s: formal integer combinations of
atoms.  Membership is decided only once a valuation assigns a rational to
every parameter; the multiplicity of a point under a combination is the
coefficient-weighted sum of atom indicators.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

from .errors import ContractError, ValuationError
from .hybridset import HybridSet, checked_add, checked_int, checked_mul
from .scalarexpr import Cursor

# An endpoint: either an exact rational or the name of a parameter.
Param = Union[Fraction, str]

Point = Union[Fraction, Tuple[Fraction, ...]]


class Valuation:
    """Assignment of exact rationals to parameter names."""

    def __init__(self, values: Optional[Mapping[str, Fraction]] = None):
        self._values = {
            k: as_fraction(v, f"the value of {k!r}") for k, v in (values or {}).items()
        }

    def resolve(self, name: str) -> Fraction:
        try:
            return self._values[name]
        except KeyError:
            raise ValuationError(f"parameter {name!r} has no value") from None

    def items(self):
        return sorted(self._values.items())

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __eq__(self, other):
        if not isinstance(other, Valuation):
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(frozenset(self._values.items()))

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.items())
        return f"Valuation({inner})"

    @classmethod
    def parse(cls, text: str) -> "Valuation":
        """Read ``a = 1/3, b = 2``, with names and numbers as in a workspace."""
        return Cursor(text).read_all(cls.read)

    @classmethod
    def read(cls, cur: Cursor, declared: Optional[Mapping] = None) -> "Valuation":
        """``name = number, ...`` pairs read from ``cur``; a later pair for a
        name wins.  With ``declared``, every name must be one of its keys."""

        def pair(c: Cursor):
            pos = c.pos
            name = c.ident("a parameter name")
            if declared is not None and name not in declared:
                c.error(f"unresolved name {name!r}", pos)
            c.expect("=")
            return name, c.number()

        return cls(dict(cur.comma_list(pair)))


def as_fraction(value, what: str) -> Fraction:
    """``value``, an int or a Fraction, as a Fraction.  Text, floats and the
    rest are a ContractError: only ``scalarexpr.Cursor`` reads number text."""
    if not isinstance(value, (int, Fraction)):
        raise ContractError(f"{what} must be an int or a Fraction, got {value!r}")
    return Fraction(value)


def resolve_param(p: Param, valuation: Optional[Valuation]) -> Fraction:
    if isinstance(p, str):
        if valuation is None:
            raise ValuationError(f"parameter {p!r} has no value")
        return valuation.resolve(p)
    return Fraction(p)


def render_param(p: Param) -> str:
    return p if isinstance(p, str) else str(Fraction(p))


@dataclass(frozen=True)
class Universe:
    """Shape containing every point."""


@dataclass(frozen=True)
class Interval1D:
    """One-dimensional interval with independently open or closed ends."""

    lo: Param
    hi: Param
    lo_closed: bool = True
    hi_closed: bool = True


@dataclass(frozen=True)
class GridRect:
    """Axis-aligned rectangle of integer grid points (row, column).

    Bounds are inclusive unless the matching ``*_closed`` flag is cleared;
    an open bound excludes the endpoint, which is how rectangles such as
    rows h+1..n are written without compound endpoint arithmetic.
    """

    row_lo: Param
    row_hi: Param
    col_lo: Param
    col_hi: Param
    row_lo_closed: bool = True
    row_hi_closed: bool = True
    col_lo_closed: bool = True
    col_hi_closed: bool = True


@dataclass(frozen=True)
class FinitePointSet:
    points: Tuple[Point, ...]


Shape = Union[Universe, Interval1D, GridRect, FinitePointSet]


def _as_scalar(p: Point) -> Optional[Fraction]:
    if type(p) is Fraction:
        return p
    if isinstance(p, tuple):
        return as_fraction(p[0], "a point coordinate") if len(p) == 1 else None
    return as_fraction(p, "a point")


def _within(lo, hi, lo_closed, hi_closed, x) -> bool:
    if lo_closed:
        if x < lo:
            return False
    elif x <= lo:
        return False
    if hi_closed:
        if x > hi:
            return False
    elif x >= hi:
        return False
    return True


def _contains(shape: Shape, point: Point, resolve) -> bool:
    """Whether the shape contains the point; ``resolve`` maps an endpoint to
    its value and is asked only for the endpoints the point needs, in order."""
    if isinstance(shape, Universe):
        return True
    if isinstance(shape, Interval1D):
        x = _as_scalar(point)
        if x is None:
            return False
        lo = resolve(shape.lo)
        hi = resolve(shape.hi)
        return _within(lo, hi, shape.lo_closed, shape.hi_closed, x)
    if isinstance(shape, GridRect):
        if not (isinstance(point, tuple) and len(point) == 2):
            return False
        i = as_fraction(point[0], "a point coordinate")
        j = as_fraction(point[1], "a point coordinate")
        if i.denominator != 1 or j.denominator != 1:
            return False
        row_lo = resolve(shape.row_lo)
        row_hi = resolve(shape.row_hi)
        col_lo = resolve(shape.col_lo)
        col_hi = resolve(shape.col_hi)
        return _within(row_lo, row_hi, shape.row_lo_closed, shape.row_hi_closed, i) and (
            _within(col_lo, col_hi, shape.col_lo_closed, shape.col_hi_closed, j)
        )
    if isinstance(shape, FinitePointSet):
        return any(_points_equal(point, q) for q in shape.points)
    raise TypeError(f"not a shape: {shape!r}")


def _points_equal(a: Point, b: Point) -> bool:
    sa, sb = _as_scalar(a), _as_scalar(b)
    if sa is not None or sb is not None:
        return sa == sb
    return (
        isinstance(a, tuple)
        and isinstance(b, tuple)
        and len(a) == len(b)
        and all(_points_equal(x, y) for x, y in zip(a, b))
    )


@dataclass(frozen=True)
class RegionAtom:
    """A named shape.  The name is the identity used by combinations."""

    name: str
    shape: Shape

    def indicator(self, point: Point, valuation: Optional[Valuation] = None) -> int:
        """1 if the instantiated shape contains the point, else 0."""
        return int(_contains(self.shape, point, lambda p: resolve_param(p, valuation)))


def render_combination(pairs: Iterable[Tuple[str, int]]) -> str:
    """Render ordered (name, coefficient) pairs as a signed sum, such as
    ``A + 2*B - C``; zero coefficients are skipped and an empty sum is 0."""
    parts = []
    for name, coeff in pairs:
        if coeff == 0:
            continue
        mag = abs(coeff)
        body = name if mag == 1 else f"{mag}*{name}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


class SymbolicHybridSet:
    """Formal integer combination of region atoms, the symbolic face of a hybrid set."""

    __slots__ = ("_coeffs", "_atoms")

    def __init__(self, entries: Iterable[Tuple[RegionAtom, int]] = ()):
        coeffs: Dict[str, int] = {}
        atoms: Dict[str, RegionAtom] = {}
        for atom, coeff in entries:
            if not isinstance(atom, RegionAtom):
                raise TypeError(f"expected RegionAtom, got {atom!r}")
            if isinstance(coeff, bool) or not isinstance(coeff, int):
                raise TypeError(f"coefficient must be an int, got {coeff!r}")
            known = atoms.get(atom.name)
            if known is not None and known is not atom and known != atom:
                raise ContractError(f"region name {atom.name!r} bound to two shapes")
            atoms[atom.name] = atom
            coeffs[atom.name] = checked_add(coeffs.get(atom.name, 0), coeff)
        self._coeffs = {n: c for n, c in coeffs.items() if c != 0}
        self._atoms = {n: atoms[n] for n in self._coeffs}

    @classmethod
    def zero(cls) -> "SymbolicHybridSet":
        return cls()

    @classmethod
    def from_atom(cls, atom: RegionAtom, coeff: int = 1) -> "SymbolicHybridSet":
        return cls([(atom, coeff)])

    @classmethod
    def combine(cls, terms: Iterable[Tuple["SymbolicHybridSet", int]]) -> "SymbolicHybridSet":
        """The sum of ``coeff * s`` over (s, coeff) pairs, merged in one pass."""
        return cls(
            (s._atoms[name], checked_mul(k, c))
            for s, k in terms
            for name, c in s._coeffs.items()
        )

    def coefficient(self, name: str) -> int:
        return self._coeffs.get(name, 0)

    def atom(self, name: str) -> RegionAtom:
        return self._atoms[name]

    def items(self):
        """(atom, coefficient) pairs sorted by atom name."""
        return [(self._atoms[n], c) for n, c in sorted(self._coeffs.items())]

    def atoms(self):
        return [self._atoms[n] for n in sorted(self._atoms)]

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __add__(self, other: "SymbolicHybridSet") -> "SymbolicHybridSet":
        if not isinstance(other, SymbolicHybridSet):
            return NotImplemented
        return SymbolicHybridSet.combine(((self, 1), (other, 1)))

    def __sub__(self, other: "SymbolicHybridSet") -> "SymbolicHybridSet":
        if not isinstance(other, SymbolicHybridSet):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "SymbolicHybridSet":
        return self.scale(-1)

    def scale(self, n: int) -> "SymbolicHybridSet":
        return SymbolicHybridSet.combine(((self, n),))

    def __mul__(self, n: int) -> "SymbolicHybridSet":
        return self.scale(n)

    __rmul__ = __mul__

    def multiplicity(self, point: Point, valuation: Optional[Valuation] = None) -> int:
        """Coefficient-weighted sum of the atom indicators at the point."""
        total = 0
        for name, coeff in self._coeffs.items():
            total = checked_add(
                total, checked_mul(coeff, self._atoms[name].indicator(point, valuation))
            )
        return total

    def __eq__(self, other):
        if not isinstance(other, SymbolicHybridSet):
            return NotImplemented
        return self._coeffs == other._coeffs and self._atoms == other._atoms

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def render(self) -> str:
        """Positive coefficients first, then negative ones, each by name."""
        return render_combination(
            sorted(self._coeffs.items(), key=lambda kv: (kv[1] < 0, kv[0]))
        )

    __str__ = render

    def __repr__(self):
        return f"SymbolicHybridSet({self.render()})"


class _Unfinished:
    """The indicator vector of a point whose test of shape ``index`` raised
    ``error``: only the bits below ``index`` are known."""

    __slots__ = ("bits", "index", "error")

    def __init__(self, bits: int, index: int, error: Exception):
        self.bits, self.index, self.error = bits, index, error


class _Layout:
    """The valuation-free half of an ``IndicatorTable``: the distinct atom
    shapes of a sequence of combinations, numbered in the order the
    combinations first use them (combination, then coefficient in insertion
    order), each combination's (shape number, coefficient) uses, and the
    shapes sorted by kind."""

    __slots__ = ("uses", "shapes", "universe", "intervals", "rows", "cols", "pointwise")

    def __init__(self, regions: Iterable[SymbolicHybridSet]):
        index: Dict[int, int] = {}
        shapes = []
        self.uses = []
        for r in regions:
            uses = []
            for name, coeff in r._coeffs.items():
                shape = r._atoms[name].shape
                k = index.get(id(shape))
                if k is None:
                    k = index[id(shape)] = len(shapes)
                    shapes.append(shape)
                uses.append((k, coeff))
            self.uses.append(uses)
        self.shapes = shapes
        kinds = {Universe: [], Interval1D: [], GridRect: []}
        self.pointwise = []  # finite point sets and anything else: tested per point
        for k, shape in enumerate(shapes):
            kinds.get(type(shape), self.pointwise).append((k, shape))
        self.universe = sum(1 << k for k, _ in kinds[Universe])
        # (bit, lo, hi, lo_closed, hi_closed) per interval, grid row range
        # and grid column range
        self.intervals = [(k, s.lo, s.hi, s.lo_closed, s.hi_closed) for k, s in kinds[Interval1D]]
        self.rows = [
            (k, s.row_lo, s.row_hi, s.row_lo_closed, s.row_hi_closed) for k, s in kinds[GridRect]
        ]
        self.cols = [
            (k, s.col_lo, s.col_hi, s.col_lo_closed, s.col_hi_closed) for k, s in kinds[GridRect]
        ]

    def multiplicities(self, key) -> Iterator[int]:
        """Each combination's multiplicity at a point with indicator vector
        ``key``, one at a time, summed and checked as
        ``SymbolicHybridSet.multiplicity`` sums and checks it."""
        if isinstance(key, _Unfinished):
            bits, stop, error = key.bits, key.index, key.error
        else:
            bits, stop, error = key, -1, None
        for uses in self.uses:
            total = 0
            for k, coeff in uses:
                if k == stop:
                    raise error
                total = checked_add(total, checked_mul(coeff, bits >> k & 1))
            yield total


class IndicatorTable:
    """Atom indicators of a ``_Layout``'s shapes under one valuation, shared
    across points and across passes.

    ``keys(points)`` gives each point's indicator vector: an int whose bit
    k is the indicator of shape k.  Each endpoint is resolved once per
    table, when a point first needs it.  Scalar points are placed among the
    sorted distinct interval endpoints by ``bisect``: the points in one gap,
    or on one endpoint, share a cell, each interval holds a run of cells,
    and each cell's interval bits are found once per table, so a table
    keeps at most 2E + 1 cells for E endpoints however many points it sees.
    Grid-rectangle tests are kept per row and per column value for one pass
    only.  Nothing about an error is kept beyond its pass: a point whose
    test raises gets a key that raises the same error from
    ``_Layout.multiplicities`` where ``SymbolicHybridSet.multiplicity``
    would.
    """

    def __init__(self, layout: _Layout, valuation: Optional[Valuation]):
        self.layout = layout
        self._valuation = valuation
        self._params: Dict[Param, Fraction] = {}  # endpoint -> value, once resolved
        self._ends: Optional[list] = None  # sorted distinct interval endpoint values
        self._spans: list = []  # (bit, first cell, last cell) per interval
        self._cells: Dict[int, int] = {}  # cell -> interval bits

    def keys(self, points: Iterable[Point]) -> Iterator[Tuple[Point, object]]:
        """(point, indicator vector) for each point in order, in one pass."""
        params, valuation = self._params, self._valuation
        failed: Dict[Param, Exception] = {}  # raised again wherever needed in this pass
        by_row: Dict[object, int] = {}
        by_col: Dict[object, int] = {}

        def resolve(p: Param) -> Fraction:
            value = params.get(p)
            if value is None:
                error = failed.get(p)
                if error is not None:
                    raise error
                try:
                    value = params[p] = resolve_param(p, valuation)
                except Exception as e:
                    failed[p] = e
                    raise
            return value

        for point in points:
            try:
                key = self._bits(point, resolve, by_row, by_col)
            except Exception:
                # Whatever the shortcut met, the reference order decides
                # which shape raises first, and whether any does.
                key = self._bits_in_order(point, resolve)
            yield point, key

    def _bits(self, point: Point, resolve, by_row: dict, by_col: dict) -> int:
        layout = self.layout
        bits = layout.universe
        if layout.intervals and not (isinstance(point, tuple) and len(point) != 1):
            bits |= self._interval_bits(_as_scalar(point), resolve)
        if layout.rows and isinstance(point, tuple) and len(point) == 2:
            bits |= _grid_bits(by_row, layout.rows, point[0], resolve) & _grid_bits(
                by_col, layout.cols, point[1], resolve
            )
        for k, shape in layout.pointwise:
            if _contains(shape, point, resolve):
                bits |= 1 << k
        return bits

    def _interval_bits(self, x: Fraction, resolve) -> int:
        ends = self._ends
        if ends is None:
            ends = self._sort_ends(resolve)
        i = bisect_left(ends, x)
        cell = 2 * i + 1 if i < len(ends) and ends[i] == x else 2 * i
        bits = self._cells.get(cell)
        if bits is None:
            bits = 0
            for k, first, last in self._spans:
                if first <= cell <= last:
                    bits |= 1 << k
            self._cells[cell] = bits
        return bits

    def _sort_ends(self, resolve) -> list:
        """Sort the distinct interval endpoints.  Cell 2i is the gap below
        endpoint i and cell 2i + 1 the endpoint itself, so each interval
        holds a run of cells, kept as (bit, first cell, last cell)."""
        intervals = self.layout.intervals
        values = [(resolve(lo), resolve(hi)) for _, lo, hi, _, _ in intervals]
        ends = sorted({v for pair in values for v in pair})
        rank = {v: i for i, v in enumerate(ends)}
        self._spans = [
            (k, 2 * rank[lo] + (1 if lo_closed else 2), 2 * rank[hi] + (1 if hi_closed else 0))
            for (k, _, _, lo_closed, hi_closed), (lo, hi) in zip(intervals, values)
        ]
        self._ends = ends
        return ends

    def _bits_in_order(self, point: Point, resolve):
        """The indicator vector computed shape by shape, in the reference
        order, up to the first shape whose test raises."""
        bits = 0
        for k, shape in enumerate(self.layout.shapes):
            try:
                if _contains(shape, point, resolve):
                    bits |= 1 << k
            except Exception as e:
                return _Unfinished(bits, k, e)
        return bits


def _range_bits(ranges, x: Fraction, resolve) -> int:
    bits = 0
    for k, lo, hi, lo_closed, hi_closed in ranges:
        if _within(resolve(lo), resolve(hi), lo_closed, hi_closed, x):
            bits |= 1 << k
    return bits


def _grid_bits(cache: dict, ranges, value, resolve) -> int:
    """The grid rectangles whose row (or column) range holds the coordinate
    ``value``; none when it is not an integer."""
    found = cache.get(value)
    if found is None:
        v = as_fraction(value, "a point coordinate")
        found = cache[value] = _range_bits(ranges, v, resolve) if v.denominator == 1 else 0
    return found


def multiplicities_many(
    regions: Sequence[SymbolicHybridSet],
    points: Iterable[Point],
    valuation: Optional[Valuation] = None,
) -> Iterator[Tuple[Point, Tuple[int, ...]]]:
    """(point, multiplicities of the regions there) for each point in order,
    equal to ``r.multiplicity(point, valuation)`` for each region r, raised
    errors included.  The sums are made once per distinct indicator vector."""
    layout = _Layout(regions)
    sums: dict = {}
    for p, key in IndicatorTable(layout, valuation).keys(points):
        found = sums.get(key)
        if found is None:
            found = sums[key] = tuple(layout.multiplicities(key))
        yield p, found


def instantiate(
    s: SymbolicHybridSet,
    valuation: Optional[Valuation],
    sample: Iterable[Point],
    universe_tag: str = "U",
) -> HybridSet:
    """Concrete hybrid set of a symbolic combination over sampled points."""
    entries = [(p, m) for p, (m,) in multiplicities_many((s,), sample, valuation) if m]
    return HybridSet(entries, universe_tag)


def rational_grid(lo, hi, count: int, include_hi: bool = False) -> Tuple[Fraction, ...]:
    """Evenly spaced exact rationals in [lo, hi) or [lo, hi]."""
    lo, hi = as_fraction(lo, "a grid end"), as_fraction(hi, "a grid end")
    if count < 1:
        raise ContractError("grid needs at least one point")
    if include_hi:
        if count == 1:
            return (lo,)
        step = (hi - lo) / (count - 1)
        return tuple(lo + step * k for k in range(count))
    step = (hi - lo) / count
    return tuple(lo + step * k for k in range(count))


def grid_cells(rows: int, cols: int) -> Tuple[Tuple[Fraction, Fraction], ...]:
    """All integer cells (i, j) with 1 <= i <= rows, 1 <= j <= cols."""
    return tuple(
        (Fraction(i), Fraction(j))
        for i in range(1, rows + 1)
        for j in range(1, cols + 1)
    )


__all__ = [
    "Param",
    "Point",
    "Valuation",
    "as_fraction",
    "resolve_param",
    "render_param",
    "Universe",
    "Interval1D",
    "GridRect",
    "FinitePointSet",
    "Shape",
    "RegionAtom",
    "SymbolicHybridSet",
    "IndicatorTable",
    "multiplicities_many",
    "instantiate",
    "rational_grid",
    "grid_cells",
    "checked_int",
]
