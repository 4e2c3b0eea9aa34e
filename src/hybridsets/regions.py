"""Symbolic regions with parametric endpoints and their integer combinations.

A region atom names a shape (interval, grid rectangle, finite point set or
the whole universe) whose endpoints may be symbolic parameters.  Regions in
expressions are ``SymbolicHybridSet``s: formal integer combinations of
atoms.  Membership is decided only once a valuation assigns a rational to
every parameter; the multiplicity of a point under a combination is the
coefficient-weighted sum of atom indicators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

from .errors import ContractError, ValuationError
from .hybridset import HybridSet, checked_add, checked_int, checked_mul

# An endpoint: either an exact rational or the name of a parameter.
Param = Union[Fraction, str]

Point = Union[Fraction, Tuple[Fraction, ...]]


class Valuation:
    """Assignment of exact rationals to parameter names."""

    def __init__(self, values: Optional[Mapping[str, Fraction]] = None):
        self._values = {k: Fraction(v) for k, v in (values or {}).items()}

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
        """Read ``a=1/3, b=2`` style assignments."""
        values = {}
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            name, eq, value = chunk.partition("=")
            if not eq:
                raise ContractError(f"expected name=value, got {chunk!r}")
            values[name.strip()] = Fraction(value.strip())
        return cls(values)


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
    if isinstance(p, tuple):
        if len(p) == 1:
            return Fraction(p[0])
        return None
    return Fraction(p)


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


def shape_indicator(shape: Shape, point: Point, valuation: Optional[Valuation]) -> int:
    """1 if the instantiated shape contains the point, else 0."""
    return int(_contains(shape, point, lambda p: resolve_param(p, valuation)))


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
        i, j = Fraction(point[0]), Fraction(point[1])
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
        return shape_indicator(self.shape, point, valuation)


def indicator(atom: RegionAtom, point: Point, valuation: Optional[Valuation] = None) -> int:
    return atom.indicator(point, valuation)


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


def multiplicity(s: SymbolicHybridSet, point: Point, valuation: Optional[Valuation] = None) -> int:
    return s.multiplicity(point, valuation)


class _Unfinished:
    """The indicator vector of a point whose test of shape ``index`` raised
    ``error``: only the bits below ``index`` are known."""

    __slots__ = ("bits", "index", "error")

    def __init__(self, bits: int, index: int, error: Exception):
        self.bits, self.index, self.error = bits, index, error


class IndicatorTable:
    """Atom indicators of a sequence of combinations under one valuation,
    shared across the combinations and across points.

    The distinct atom shapes are numbered in the order the combinations
    first use them (combination, then coefficient in insertion order), and
    ``key(point)`` is the point's indicator vector: an int whose bit k is
    the indicator of shape k.  Each endpoint is resolved at most once per
    table, when a point first needs it; interval tests are kept per scalar
    point, and grid-rectangle tests per row and per column value.  A point
    whose test raises gets a key that raises the same error from
    ``multiplicities`` where ``SymbolicHybridSet.multiplicity`` would.
    """

    def __init__(self, regions: Iterable[SymbolicHybridSet], valuation: Optional[Valuation]):
        self._valuation = valuation
        self._params: Dict[Param, object] = {}  # endpoint -> value or the error it raised
        index: Dict[int, int] = {}
        shapes = []
        self._regions = []
        for r in regions:
            uses = []
            for name, coeff in r._coeffs.items():
                shape = r._atoms[name].shape
                k = index.get(id(shape))
                if k is None:
                    k = index[id(shape)] = len(shapes)
                    shapes.append(shape)
                uses.append((k, coeff))
            self._regions.append(uses)
        self._shapes = shapes
        kinds = {Universe: [], Interval1D: [], GridRect: []}
        self._pointwise = []  # finite point sets and anything else: tested per point
        for k, shape in enumerate(shapes):
            kinds.get(type(shape), self._pointwise).append((k, shape))
        self._universe = sum(1 << k for k, _ in kinds[Universe])
        # (bit, lo, hi, lo_closed, hi_closed) per interval, grid row range
        # and grid column range
        self._intervals = [(k, s.lo, s.hi, s.lo_closed, s.hi_closed) for k, s in kinds[Interval1D]]
        self._rows = [
            (k, s.row_lo, s.row_hi, s.row_lo_closed, s.row_hi_closed) for k, s in kinds[GridRect]
        ]
        self._cols = [
            (k, s.col_lo, s.col_hi, s.col_lo_closed, s.col_hi_closed) for k, s in kinds[GridRect]
        ]
        self._by_x: Dict[Point, int] = {}
        self._by_row: Dict[object, int] = {}
        self._by_col: Dict[object, int] = {}

    def _resolve(self, p: Param) -> Fraction:
        value = self._params.get(p, _UNRESOLVED)
        if value is _UNRESOLVED:
            try:
                value = resolve_param(p, self._valuation)
            except Exception as e:  # kept, and raised again wherever p is needed
                value = e
            self._params[p] = value
        if isinstance(value, Exception):
            raise value
        return value

    def key(self, point: Point):
        """The point's indicator vector."""
        try:
            return self._bits(point)
        except Exception:
            # Whatever the shortcut met, the reference order decides which
            # shape raises first, and whether any does.
            return self._bits_in_order(point)

    def _bits(self, point: Point) -> int:
        bits = self._universe
        if self._intervals and not (isinstance(point, tuple) and len(point) != 1):
            found = self._by_x.get(point)
            if found is None:
                found = self._by_x[point] = self._range_bits(self._intervals, _as_scalar(point))
            bits |= found
        if self._rows and isinstance(point, tuple) and len(point) == 2:
            bits |= self._grid_bits(self._by_row, self._rows, point[0]) & self._grid_bits(
                self._by_col, self._cols, point[1]
            )
        for k, shape in self._pointwise:
            if _contains(shape, point, self._resolve):
                bits |= 1 << k
        return bits

    def _range_bits(self, ranges, x: Fraction) -> int:
        bits = 0
        for k, lo, hi, lo_closed, hi_closed in ranges:
            if _within(self._resolve(lo), self._resolve(hi), lo_closed, hi_closed, x):
                bits |= 1 << k
        return bits

    def _grid_bits(self, cache: dict, ranges, value) -> int:
        """The grid rectangles whose row (or column) range holds the
        coordinate ``value``; none when it is not an integer."""
        found = cache.get(value)
        if found is None:
            v = Fraction(value)
            found = cache[value] = self._range_bits(ranges, v) if v.denominator == 1 else 0
        return found

    def _bits_in_order(self, point: Point):
        """The indicator vector computed shape by shape, in the reference
        order, up to the first shape whose test raises."""
        bits = 0
        for k, shape in enumerate(self._shapes):
            try:
                if _contains(shape, point, self._resolve):
                    bits |= 1 << k
            except Exception as e:
                return _Unfinished(bits, k, e)
        return bits

    def multiplicities(self, key) -> Iterator[int]:
        """Each combination's multiplicity at a point with indicator vector
        ``key``, one at a time, summed and checked as
        ``SymbolicHybridSet.multiplicity`` sums and checks it."""
        if isinstance(key, _Unfinished):
            bits, stop, error = key.bits, key.index, key.error
        else:
            bits, stop, error = key, -1, None
        for uses in self._regions:
            total = 0
            for k, coeff in uses:
                if k == stop:
                    raise error
                total = checked_add(total, checked_mul(coeff, bits >> k & 1))
            yield total


_UNRESOLVED = object()


def multiplicities_many(
    regions: Sequence[SymbolicHybridSet],
    points: Iterable[Point],
    valuation: Optional[Valuation] = None,
) -> Iterator[Tuple[Point, Tuple[int, ...]]]:
    """(point, multiplicities of the regions there) for each point in order,
    equal to ``r.multiplicity(point, valuation)`` for each region r, raised
    errors included.  The sums are made once per distinct indicator vector."""
    table = IndicatorTable(regions, valuation)
    sums: dict = {}
    for p in points:
        key = table.key(p)
        found = sums.get(key)
        if found is None:
            found = sums[key] = tuple(table.multiplicities(key))
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
    lo, hi = Fraction(lo), Fraction(hi)
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
    "resolve_param",
    "render_param",
    "Universe",
    "Interval1D",
    "GridRect",
    "FinitePointSet",
    "Shape",
    "shape_indicator",
    "RegionAtom",
    "indicator",
    "SymbolicHybridSet",
    "multiplicity",
    "IndicatorTable",
    "multiplicities_many",
    "instantiate",
    "rational_grid",
    "grid_cells",
    "checked_int",
]
