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
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

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
    if isinstance(shape, Universe):
        return 1
    if isinstance(shape, Interval1D):
        x = _as_scalar(point)
        if x is None:
            return 0
        lo = resolve_param(shape.lo, valuation)
        hi = resolve_param(shape.hi, valuation)
        return int(_within(lo, hi, shape.lo_closed, shape.hi_closed, x))
    if isinstance(shape, GridRect):
        if not (isinstance(point, tuple) and len(point) == 2):
            return 0
        i, j = Fraction(point[0]), Fraction(point[1])
        if i.denominator != 1 or j.denominator != 1:
            return 0
        row_lo = resolve_param(shape.row_lo, valuation)
        row_hi = resolve_param(shape.row_hi, valuation)
        col_lo = resolve_param(shape.col_lo, valuation)
        col_hi = resolve_param(shape.col_hi, valuation)
        ok = _within(row_lo, row_hi, shape.row_lo_closed, shape.row_hi_closed, i)
        return int(ok and _within(col_lo, col_hi, shape.col_lo_closed, shape.col_hi_closed, j))
    if isinstance(shape, FinitePointSet):
        return int(any(_points_equal(point, q) for q in shape.points))
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


def instantiate(
    s: SymbolicHybridSet,
    valuation: Optional[Valuation],
    sample: Iterable[Point],
    universe_tag: str = "U",
) -> HybridSet:
    """Concrete hybrid set of a symbolic combination over sampled points."""
    entries = []
    for p in sample:
        m = s.multiplicity(p, valuation)
        if m:
            entries.append((p, m))
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
    "instantiate",
    "rational_grid",
    "grid_cells",
    "checked_int",
]
