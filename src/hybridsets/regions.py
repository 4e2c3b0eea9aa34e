"""Symbolic regions with parametric endpoints and their integer combinations.

A region atom names a shape (interval, grid rectangle, finite point set or
the whole universe) whose endpoints may be symbolic parameters.  Regions in
expressions are ``SymbolicHybridSet``s: formal integer combinations of
atoms.  Membership is decided only once a valuation assigns a rational to
every parameter; the multiplicity of a point under a combination is the
coefficient-weighted sum of atom indicators.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import xor
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

from .errors import ContractError, ValuationError
from .hybridset import FreeCombination, checked_int, print_order
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
    if type(value) is Fraction:
        return value
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
    """Axis-aligned rectangle of integer grid points (row, column): a row
    range and a column range, each an ``Interval1D``.  An open end excludes
    its endpoint, which is how rectangles such as rows h+1..n are written
    without compound endpoint arithmetic."""

    rows: Interval1D
    cols: Interval1D


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


def _ends(interval: Interval1D, resolve) -> Tuple[Fraction, Fraction]:
    """The interval's two endpoints, resolved lo first."""
    return resolve(interval.lo), resolve(interval.hi)


def _within(interval: Interval1D, ends: Tuple[Fraction, Fraction], x) -> bool:
    """Whether ``x`` lies in the interval, whose resolved ``ends`` are given."""
    lo, hi = ends
    if (x < lo) if interval.lo_closed else (x <= lo):
        return False
    return not ((x > hi) if interval.hi_closed else (x >= hi))


def _contains(shape: Shape, point: Point, resolve) -> bool:
    """Whether the shape contains the point; ``resolve`` maps an endpoint to
    its value.  For a point of the shape's kind every endpoint is resolved
    before any range is tested: an interval's lo, then its hi, and a
    rectangle's row ends, then its column ends."""
    if isinstance(shape, Universe):
        return True
    if isinstance(shape, Interval1D):
        x = _as_scalar(point)
        if x is None:
            return False
        return _within(shape, _ends(shape, resolve), x)
    if isinstance(shape, GridRect):
        if not (isinstance(point, tuple) and len(point) == 2):
            return False
        i = as_fraction(point[0], "a point coordinate")
        j = as_fraction(point[1], "a point coordinate")
        if i.denominator != 1 or j.denominator != 1:
            return False
        rows, cols = _ends(shape.rows, resolve), _ends(shape.cols, resolve)
        return _within(shape.rows, rows, i) and _within(shape.cols, cols, j)
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


class SymbolicHybridSet(FreeCombination):
    """Formal integer combination of region atoms, the symbolic face of a
    hybrid set.  ``items`` lists its coefficients by name, and ``render``
    and ``multiplicity`` read them in ``print_order``, whatever order built
    the region."""

    __slots__ = ()
    ATOM = RegionAtom
    CLASH = "region name {!r} bound to two shapes"

    def items(self):
        """(atom, coefficient) pairs sorted by atom name."""
        return [(self._atoms[n], c) for n, c in sorted(self._coeffs.items())]

    def atoms(self):
        return [self._atoms[n] for n in sorted(self._atoms)]

    __mul__ = __rmul__ = FreeCombination.scale

    def multiplicity(self, point: Point, valuation: Optional[Valuation] = None) -> int:
        """Coefficient-weighted sum of the atom indicators at the point, read
        in print order: an error names the first unset parameter it meets."""
        total = 0
        for name, coeff in print_order(self._coeffs):
            if self._atoms[name].indicator(point, valuation):
                total += coeff
        return checked_int(total)

    def render(self) -> str:
        """The signed sum in print order."""
        return render_combination(print_order(self._coeffs))


class _Layout:
    """The valuation-free half of an ``IndicatorTable``: the distinct atom
    shapes of a sequence of combinations, numbered in the order the
    combinations first use them (combination, then coefficient in insertion
    order), each combination's (shape number, coefficient) uses, and the
    shapes sorted by kind.  Each axis a ``_Line`` places points on gets
    (shape number, ``Interval1D``) pairs: the intervals themselves, and
    the row and the column range of each grid rectangle."""

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
        self.intervals = kinds[Interval1D]
        self.rows = [(k, s.rows) for k, s in kinds[GridRect]]
        self.cols = [(k, s.cols) for k, s in kinds[GridRect]]

    def multiplicities(self, key: int) -> Iterator[int]:
        """Each combination's multiplicity at a point with the indicator
        vector ``key``, an int, one at a time, summed and checked as
        ``SymbolicHybridSet.multiplicity`` sums and checks it."""
        for uses in self.uses:
            total = 0
            for k, coeff in uses:
                if key >> k & 1:
                    total += coeff
            yield checked_int(total)


class IndicatorTable:
    """Atom indicators of a ``_Layout``'s shapes under one valuation, shared
    across points and across passes.

    ``keys(points)`` gives each point's indicator vector: an int whose bit
    k is the indicator of shape k.  Each parameter endpoint is resolved
    once per table, when a point first needs it; a number endpoint is
    taken as it is, with no cache lookup.  Three ``_Line``s, kept for the
    life of the table, place a point among the resolved endpoints: one
    for the intervals, one for the grid rectangles' row ranges and one for
    their column ranges.  The points in one gap, or on one endpoint, of a
    line share a cell; a line makes the bits of all its 2E + 1 cells, for
    its E endpoints, when it sorts them, however many points it sees.
    ``_bits(point)`` places one point, raising what its placement raises.
    ``grid_keys(rows, cols)`` keys a grid of points row by row, from one
    placement per row and per column value, with one AND per cell of
    each row class.
    A point whose placement raises gets the key None: the fast placement
    cannot key it, so the caller takes its multiplicities from
    ``SymbolicHybridSet.multiplicity``, which raises, or does not, as a
    point-by-point loop does.  Nothing about an error is kept.
    """

    def __init__(self, layout: _Layout, valuation: Optional[Valuation]):
        self.layout = layout
        self._valuation = valuation
        self._params: Dict[str, Fraction] = {}  # parameter name -> value, once resolved
        self._intervals = _Line(layout.intervals)
        self._rows, self._cols = _Line(layout.rows), _Line(layout.cols)

    def _resolve(self, p: Param) -> Fraction:
        """The endpoint's value: a number at once, a parameter resolved the
        first time it is asked for."""
        if not isinstance(p, str):
            return p if type(p) is Fraction else Fraction(p)
        value = self._params.get(p)
        if value is None:
            value = self._params[p] = resolve_param(p, self._valuation)
        return value

    def keys(self, points: Iterable[Point]) -> Iterator[Tuple[Point, Optional[int]]]:
        """(point, indicator vector, or None) for each point in order, in
        one pass."""
        for point in points:
            try:
                key = self._bits(point)
            except Exception:
                key = None
            yield point, key

    def grid_keys(self, rows: Iterable, cols: Sequence) -> Iterator[Tuple[object, tuple]]:
        """(r, keys) for each r in ``rows``, in order, where keys holds the
        indicator vector, or None, of each cell (r, c), c in ``cols``, as
        ``keys`` gives it.  Each row value and each column value is placed
        once: a cell's vector is the universe bits joined with the AND of
        its row's and its column's grid-range bits, or None when the
        placement of either raises.  The rows of one row class, which have
        the same row bits, share one keys tuple, made once.  Intervals hold
        no 2-D point; point-set shapes take ``keys``, row by row."""
        layout = self.layout
        if layout.pointwise:
            for r in rows:
                yield r, tuple([key for _, key in self.keys([(r, c) for c in cols])])
            return

        def place(line: _Line, value) -> Optional[int]:
            try:
                return line.grid_bits(value, self._resolve)
            except Exception:
                return None

        universe, col_bits, classes = layout.universe, None, {}
        for r in rows:
            row = place(self._rows, r)
            if col_bits is None:
                col_bits = [place(self._cols, c) for c in cols]
            keys = classes.get(row)
            if keys is None:
                keys = classes[row] = tuple([
                    None if row is None or col is None else universe | (row & col)
                    for col in col_bits
                ])
            yield r, keys

    def _bits(self, point: Point) -> int:
        """The point's indicator vector by shape kind."""
        layout, resolve = self.layout, self._resolve
        bits = layout.universe
        scalar = type(point) is Fraction  # tested first: no grid range holds it
        if layout.intervals and (scalar or not (isinstance(point, tuple) and len(point) != 1)):
            bits |= self._intervals.bits(point if scalar else _as_scalar(point), resolve)
        if layout.rows and not scalar and isinstance(point, tuple) and len(point) == 2:
            row = self._rows.grid_bits(point[0], resolve)
            bits |= row & self._cols.grid_bits(point[1], resolve)
        for k, shape in layout.pointwise:
            if _contains(shape, point, resolve):
                bits |= 1 << k
        return bits


class _Line:
    """Which of one axis's ranges, (bit, ``Interval1D``) pairs, hold a
    coordinate.  At the first placement the endpoints are resolved,
    scaled to integers by the lcm L of their denominators, and sorted.
    Cell 2i is the gap below endpoint i and cell 2i + 1 the endpoint
    itself, so each range holds a run of cells, and a rational p/q is
    placed in its cell by one ``divmod(p * L, q)`` and an integer
    ``bisect``.  The sort makes every cell's bits: a range toggles its bit
    at its first cell and after its last, unless it is empty (first >
    last), and a prefix XOR sums the toggles.  A placement then indexes."""

    __slots__ = ("ranges", "ends", "scale", "cells")

    def __init__(self, ranges: list):
        self.ranges = ranges
        self.ends: Optional[list] = None  # sorted distinct endpoints, scaled
        self.scale = 1  # the lcm of the endpoints' denominators, once sorted
        self.cells: list = []  # per cell, the bits of the ranges holding it, once sorted

    def bits(self, x: Fraction, resolve) -> int:
        """The bits of the ranges that hold ``x``."""
        ends = self.ends
        if ends is None:
            ends = self._sort(resolve)
        # x * scale lies on the integer n, or strictly between n and n + 1
        p, q = x.as_integer_ratio()
        n, rest = divmod(p * self.scale, q)
        if rest:
            cell = 2 * bisect_right(ends, n)
        else:
            i = bisect_left(ends, n)
            cell = 2 * i + 1 if i < len(ends) and ends[i] == n else 2 * i
        return self.cells[cell]

    def grid_bits(self, value, resolve) -> int:
        """``bits`` of a grid coordinate; none, with no endpoint resolved,
        when it is not an integer."""
        v = as_fraction(value, "a point coordinate")
        return self.bits(v, resolve) if v.denominator == 1 else 0

    def _sort(self, resolve) -> list:
        """Resolve, lo then hi per range, and scale the endpoints in flat passes."""
        values = [resolve(p).as_integer_ratio() for _, s in self.ranges for p in (s.lo, s.hi)]
        scale = math.lcm(*(q for _, q in values))
        values = [p * (scale // q) for p, q in values]
        ends = sorted(set(values))
        rank = dict(zip(ends, range(len(ends))))
        toggles = [0] * (2 * len(ends) + 1)  # a last cell is at most 2E - 1
        for (k, s), lo, hi in zip(self.ranges, values[0::2], values[1::2]):
            first = 2 * rank[lo] + (1 if s.lo_closed else 2)
            last = 2 * rank[hi] + (1 if s.hi_closed else 0)
            if first <= last:
                toggles[first] ^= 1 << k
                toggles[last + 1] ^= 1 << k
        self.cells = list(accumulate(toggles, xor))
        self.scale = scale
        self.ends = ends
        return ends


def multiplicities_many(
    regions: Sequence[SymbolicHybridSet],
    points: Iterable[Point],
    valuation: Optional[Valuation] = None,
) -> Iterator[Tuple[Point, Tuple[int, ...]]]:
    """(point, multiplicities of the regions there) for each point in order,
    equal to ``r.multiplicity(point, valuation)`` for each region r, raised
    errors included.  The sums are made once per distinct indicator vector;
    a point ``IndicatorTable.keys`` cannot key is summed by the reference
    itself, and nothing is kept for it."""
    layout = _Layout(regions)
    sums: dict = {}
    for p, key in IndicatorTable(layout, valuation).keys(points):
        if key is None:
            yield p, tuple(r.multiplicity(p, valuation) for r in regions)
            continue
        found = sums.get(key)
        if found is None:
            found = sums[key] = tuple(layout.multiplicities(key))
        yield p, found


def rational_grid(lo, hi, count: int) -> Tuple[Fraction, ...]:
    """``count`` evenly spaced exact rationals in [lo, hi], both ends
    included; one point is lo alone."""
    lo, hi = as_fraction(lo, "a grid end"), as_fraction(hi, "a grid end")
    if count < 1:
        raise ContractError("grid needs at least one point")
    if count == 1:
        return (lo,)
    step = (hi - lo) / (count - 1)
    return tuple(lo + step * k for k in range(count))
