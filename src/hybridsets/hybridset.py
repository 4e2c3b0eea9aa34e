"""Hybrid sets: finite maps from elements to signed integer multiplicities.

A hybrid set generalises a multiset by allowing negative multiplicities.
Over a fixed universe the hybrid sets form a module over the integers:
``oplus`` adds multiplicities pointwise, ``ominus`` subtracts them, and
integers act by scaling.  ``otimes`` multiplies multiplicities pointwise
and doubles as a disjointness test (disjoint iff the product is empty).

Elements may be rationals, opaque string tokens, or tuples of elements
(tuples cover both symbolic points and graph pairs ``(x, value)``).
Multiplicities are kept inside the signed 64-bit range; leaving it raises
``MultiplicityOverflowError`` rather than silently relying on bignums.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Tuple, Union

from .errors import (
    MultiplicityOverflowError,
    NotReducibleError,
    UniverseMismatchError,
)
from .scalarexpr import ELEMENT_TOKEN, INT64_MAX, INT64_MIN, MAX_NESTING, Cursor

Element = Union[Fraction, int, str, Tuple["Element", ...]]


def checked_int(n: int) -> int:
    """Return ``n`` unchanged if it fits in a signed 64-bit word."""
    if not INT64_MIN <= n <= INT64_MAX:
        raise MultiplicityOverflowError(f"multiplicity {n} leaves the 64-bit range")
    return n


def checked_add(a: int, b: int) -> int:
    return checked_int(a + b)


def checked_mul(a: int, b: int) -> int:
    return checked_int(a * b)


def element_sort_key(el):
    """Total order over mixed element kinds, used only for deterministic output."""
    if isinstance(el, bool):
        return (0, Fraction(int(el)))
    if isinstance(el, (int, Fraction)):
        return (0, Fraction(el))
    if isinstance(el, str):
        return (1, el)
    if isinstance(el, tuple):
        return (2, tuple(element_sort_key(c) for c in el))
    return (3, repr(el))


def render_element(el) -> str:
    if isinstance(el, tuple):
        return "(" + ", ".join(render_element(c) for c in el) + ")"
    if isinstance(el, (int, Fraction)):
        return str(Fraction(el))
    return str(el)


def _read_element(cur: Cursor, depth: int = 0):
    """A number, a token or a parenthesised tuple of elements, read from
    ``cur``; tuples nest at most ``MAX_NESTING`` deep."""
    start = cur.pos
    if cur.take("("):
        if depth == MAX_NESTING:
            cur.error(f"tuple elements nest more than {MAX_NESTING} deep", start)
        if cur.take(")"):
            return ()
        parts = cur.comma_list(lambda c: _read_element(c, depth + 1))
        cur.expect(")")
        return tuple(parts)
    if cur.at_number():
        return cur.number()
    token = cur.scan(ELEMENT_TOKEN)
    if token is None:
        cur.error("expected an element")
    return token


def _read_entry(cur: Cursor):
    """``element^multiplicity``, the multiplicity 1 when it is left out."""
    return _read_element(cur), cur.integer(1) if cur.take("^") else 1


class HybridSet:
    """An immutable finite-support map element -> nonzero integer multiplicity."""

    __slots__ = ("_entries", "universe_tag")

    def __init__(self, entries=(), universe_tag: str = "U"):
        merged: dict = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for el, mult in items:
            if isinstance(mult, bool) or not isinstance(mult, int):
                raise TypeError(f"multiplicity must be an int, got {mult!r}")
            checked_int(mult)
            merged[el] = checked_add(merged.get(el, 0), mult)
        self._entries = {el: m for el, m in merged.items() if m != 0}
        self.universe_tag = universe_tag

    @classmethod
    def empty(cls, universe_tag: str = "U") -> "HybridSet":
        return cls((), universe_tag)

    @classmethod
    def from_elements(cls, elements: Iterable, universe_tag: str = "U") -> "HybridSet":
        return cls(((el, 1) for el in elements), universe_tag)

    def multiplicity(self, el) -> int:
        return self._entries.get(el, 0)

    def __contains__(self, el) -> bool:
        return el in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def items(self):
        return sorted(self._entries.items(), key=lambda kv: element_sort_key(kv[0]))

    def support(self) -> frozenset:
        return frozenset(self._entries)

    def _require_same_universe(self, other: "HybridSet") -> None:
        if self.universe_tag != other.universe_tag:
            raise UniverseMismatchError(
                f"universe {self.universe_tag!r} does not match {other.universe_tag!r}"
            )

    def oplus(self, other: "HybridSet") -> "HybridSet":
        """Pointwise sum of multiplicities."""
        self._require_same_universe(other)
        out = dict(self._entries)
        for el, m in other._entries.items():
            out[el] = checked_add(out.get(el, 0), m)
        return HybridSet(out, self.universe_tag)

    def ominus(self, other: "HybridSet") -> "HybridSet":
        """Pointwise difference of multiplicities."""
        self._require_same_universe(other)
        out = dict(self._entries)
        for el, m in other._entries.items():
            out[el] = checked_add(out.get(el, 0), -m)
        return HybridSet(out, self.universe_tag)

    def otimes(self, other: "HybridSet") -> "HybridSet":
        """Pointwise product; empty exactly when the operands are disjoint."""
        self._require_same_universe(other)
        out = {}
        for el, m in self._entries.items():
            n = other._entries.get(el, 0)
            if n:
                out[el] = checked_mul(m, n)
        return HybridSet(out, self.universe_tag)

    def scale(self, n: int) -> "HybridSet":
        if isinstance(n, bool) or not isinstance(n, int):
            raise TypeError(f"scalar must be an int, got {n!r}")
        return HybridSet(
            {el: checked_mul(n, m) for el, m in self._entries.items()},
            self.universe_tag,
        )

    def is_disjoint(self, other: "HybridSet") -> bool:
        return not self.otimes(other)

    def is_reducible(self) -> bool:
        return all(m == 1 for m in self._entries.values())

    def reduce(self) -> frozenset:
        """The underlying classical set, if every multiplicity is exactly 1."""
        for el, m in self._entries.items():
            if m != 1:
                raise NotReducibleError(
                    f"element {render_element(el)} has multiplicity {m}, not 1"
                )
        return frozenset(self._entries)

    # operators
    __add__ = oplus
    __sub__ = ominus

    def __mul__(self, n: int) -> "HybridSet":
        return self.scale(n)

    __rmul__ = __mul__

    def __neg__(self) -> "HybridSet":
        return self.scale(-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HybridSet):
            return NotImplemented
        return (
            self.universe_tag == other.universe_tag
            and self._entries == other._entries
        )

    def __hash__(self) -> int:
        return hash((self.universe_tag, frozenset(self._entries.items())))

    def render(self) -> str:
        if not self._entries:
            return "{}"
        body = ", ".join(f"{render_element(el)}^{m}" for el, m in self.items())
        return "{" + body + "}"

    __str__ = render

    def __repr__(self) -> str:
        return f"HybridSet({self.render()}, universe_tag={self.universe_tag!r})"

    @classmethod
    def parse(cls, text: str, universe_tag: str = "U") -> "HybridSet":
        """Read ``{elem^mult, ...}``.  Accepts unsorted, unnormalised input;
        numbers and spacing follow the workspace's lexical rules."""
        cur = Cursor(text)
        cur.expect("{")
        entries = []
        if not cur.take("}"):
            entries = cur.comma_list(_read_entry)
            cur.expect("}")
        cur.finish()
        return cls(entries, universe_tag)


# Module-level spellings of the operations, for callers who prefer functions.

def oplus(a: HybridSet, b: HybridSet) -> HybridSet:
    return a.oplus(b)


def ominus(a: HybridSet, b: HybridSet) -> HybridSet:
    return a.ominus(b)


def otimes(a: HybridSet, b: HybridSet) -> HybridSet:
    return a.otimes(b)


def scalar(n: int, h: HybridSet) -> HybridSet:
    return h.scale(n)


def support(h: HybridSet) -> frozenset:
    return h.support()


def reduce_set(h: HybridSet) -> frozenset:
    return h.reduce()
