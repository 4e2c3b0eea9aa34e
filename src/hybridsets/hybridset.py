"""Hybrid sets: finite maps from elements to signed integer multiplicities.

A hybrid set generalises a multiset by allowing negative multiplicities.
Over a fixed universe the hybrid sets form a module over the integers:
``oplus`` adds multiplicities pointwise, ``ominus`` subtracts them, and
integers act by scaling.  ``otimes`` multiplies multiplicities pointwise
and doubles as a disjointness test (disjoint iff the product is empty).

Elements may be rationals, opaque string tokens, or tuples of elements
(tuples cover both symbolic points and graph pairs ``(x, value)``).
Multiplicities are kept inside the signed 64-bit range by one rule: a sum
is taken in Python ints, whatever the order of its pairs, and each value it
stores or returns is checked once, by ``checked_int``.  A sum that fits
never raises; one that does not raises ``MultiplicityOverflowError``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Dict, Iterable, Mapping, Tuple, Union

from .errors import (
    ContractError,
    MultiplicityOverflowError,
    UniverseMismatchError,
)
from .scalarexpr import INT64_MAX, INT64_MIN

Element = Union[Fraction, int, str, Tuple["Element", ...]]


def checked_int(n: int) -> int:
    """Return ``n`` unchanged if it fits in a signed 64-bit word."""
    if not INT64_MIN <= n <= INT64_MAX:
        raise MultiplicityOverflowError(f"multiplicity {n} leaves the 64-bit range")
    return n


def require_int(value, what: str) -> int:
    """``value`` if it is an int and not a bool, else a TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, got {value!r}")
    return value


def bind(atoms: dict, name: str, atom, clash: str):
    """The atom bound to ``name`` in ``atoms``, which binds ``atom`` if none
    is; an unequal one (identity is compared first) is a ContractError."""
    known = atoms.setdefault(name, atom)
    if known is not atom and known != atom:
        raise ContractError(clash.format(name))
    return known


def merge(groups, clash: str, drop_early: bool, seed=None) -> Tuple[Dict[str, int], dict]:
    """(coefficients, atoms) of the sum of ``seed`` and of ``n * entries``
    over ``(entries, n)`` groups of (name, coefficient, atom) triples, keyed
    by name in order of first appearance.  Every name goes through ``bind``;
    the atoms list exactly the coefficients' names, in their order.  With
    ``drop_early`` a zero sum leaves at once, so a name that returns is
    last; otherwise zeros go at the end and every name keeps its place.

    A ``seed`` combination is taken by copying its two dicts: it holds no
    zero and its atoms are bound, so the copy is what merging it into empty
    dicts would give, order included.  The work in Python is then one step
    per entry of the groups alone.  So one merge of unit groups g1 .. gk
    seeded by w gives, order included, the combination that a chain of k
    merges gives, each seeded by the one before and merging the next group,
    when every name is bound to one atom throughout and no partial sum
    leaves the 64-bit range.

    Sums are taken in Python ints, so a partial sum may leave the 64-bit
    range and come back; when one left it, each kept coefficient is then
    checked by ``checked_int``."""
    if seed is None:
        coeffs: Dict[str, int] = {}
        atoms: dict = {}
    else:
        coeffs, atoms = dict(seed._coeffs), dict(seed._atoms)
    get, known = coeffs.get, atoms.setdefault
    moved = wide = False
    for entries, n in groups:
        for name, c, atom in entries:
            if known(name, atom) is not atom:
                bind(atoms, name, atom, clash)
            total = get(name, 0) + (c if n == 1 else n * c)
            if not INT64_MIN <= total <= INT64_MAX:
                wide = True
            if total or not drop_early:
                coeffs[name] = total
            else:
                coeffs.pop(name, None)
                moved = True
    if wide:
        for c in coeffs.values():
            checked_int(c)
    if not drop_early and 0 in coeffs.values():
        coeffs = {name: c for name, c in coeffs.items() if c}
        moved = True
    if moved:
        atoms = {name: atoms[name] for name in coeffs}
    return coeffs, atoms


class FreeCombination:
    """An integer combination of named atoms: an element of the free abelian
    group over them, keyed by atom name.

    ``_coeffs`` maps each name to its nonzero coefficient and ``_atoms`` each
    name to its atom, in the same order.  A subclass gives the atom class
    (``ATOM``), the message for one name bound to two unequal atoms
    (``CLASH``), and when a zero is dropped (``DROP_EARLY``, see ``merge``).
    """

    __slots__ = ("_coeffs", "_atoms")
    DROP_EARLY = False

    def __init__(self, entries: Iterable[Tuple[object, int]] = ()):
        """The sum of (atom, coefficient) pairs, each one checked."""
        groups = ((self._checked(entries), 1),)
        self._coeffs, self._atoms = merge(groups, self.CLASH, self.DROP_EARLY)

    def _checked(self, entries):
        atom_type = self.ATOM
        for atom, coeff in entries:
            if not isinstance(atom, atom_type):
                raise TypeError(f"expected {atom_type.__name__}, got {atom!r}")
            if type(coeff) is not int:
                require_int(coeff, "coefficient")
            if not INT64_MIN <= coeff <= INT64_MAX:
                checked_int(coeff)
            yield atom.name, coeff, atom

    @classmethod
    def _from_checked(cls, groups, seed=None):
        """``merge`` of ``seed`` and ``(entries, n)`` groups whose atoms and
        integers are known to have the right types; names and sums are
        still checked."""
        self = object.__new__(cls)
        self._coeffs, self._atoms = merge(groups, cls.CLASH, cls.DROP_EARLY, seed)
        return self

    @classmethod
    def from_atom(cls, atom, coeff: int = 1):
        return cls(((atom, coeff),))

    @classmethod
    def combine(cls, terms: Iterable[Tuple["FreeCombination", int]]):
        """The sum of ``n * c`` over (c, n) pairs, merged in one pass.

        A leading pair whose scalar is the int 1 seeds the merge: its
        combination is copied, not merged, so a sum costs Python work only
        for the entries of the later pairs."""
        terms = iter(terms)
        for c, n in terms:  # the leading pair only
            if type(n) is int and n == 1 and isinstance(c, cls):
                return cls._from_checked(cls._groups(terms), c)
            return cls._from_checked(cls._groups(chain(((c, n),), terms)))
        return cls._from_checked(())

    @classmethod
    def _groups(cls, terms):
        for c, n in terms:
            if not isinstance(c, cls):
                raise TypeError(f"expected {cls.__name__}, got {c!r}")
            n = n if type(n) is int else require_int(n, "scalar")
            coeffs = c._coeffs
            yield zip(coeffs, coeffs.values(), c._atoms.values()), n

    def coefficient(self, name: str) -> int:
        return self._coeffs.get(name, 0)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def scale(self, n: int):
        return self.combine(((self, n),))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.combine(((self, 1), (other, 1)))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.combine(((self, 1), (other, -1)))

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._coeffs == other._coeffs and self._atoms == other._atoms

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"{type(self).__name__}({self.render()})"


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


class HybridSet:
    """An immutable finite-support map element -> nonzero integer multiplicity:
    the free abelian group over them, summed by ``merge``, each its own name, no atom."""

    __slots__ = ("_entries", "universe_tag")

    def __init__(self, entries=(), universe_tag: str = "U"):
        items = entries.items() if isinstance(entries, Mapping) else entries
        self._entries = self._sum(
            (el, checked_int(require_int(m, "multiplicity"))) for el, m in items
        )
        self.universe_tag = universe_tag

    @classmethod
    def _of(cls, entries: dict, universe_tag: str) -> "HybridSet":
        """A set of entries already checked and summed: nonzero, 64-bit, one per element."""
        self = object.__new__(cls)
        self._entries, self.universe_tag = entries, universe_tag
        return self

    @staticmethod
    def _sum(pairs, n: int = 1) -> dict:
        return merge(((((el, m, None) for el, m in pairs), n),), "element {!r}", False)[0]

    @classmethod
    def empty(cls, universe_tag: str = "U") -> "HybridSet":
        return cls((), universe_tag)

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

    def _require_peer(self, other: "HybridSet") -> None:
        """A ContractError unless ``other`` is a HybridSet, and a
        UniverseMismatchError unless it has this set's universe."""
        if not isinstance(other, HybridSet):
            raise ContractError(f"the operand must be a HybridSet, got {type(other).__name__}")
        if self.universe_tag != other.universe_tag:
            raise UniverseMismatchError(
                f"universe {self.universe_tag!r} does not match {other.universe_tag!r}"
            )

    def oplus(self, other: "HybridSet") -> "HybridSet":
        """Pointwise sum of multiplicities."""
        self._require_peer(other)
        return self._of(self._sum(chain(self._entries.items(), other._entries.items())),
                        self.universe_tag)

    def ominus(self, other: "HybridSet") -> "HybridSet":
        """Pointwise difference of multiplicities."""
        self._require_peer(other)
        negated = ((el, -m) for el, m in other._entries.items())
        return self._of(self._sum(chain(self._entries.items(), negated)), self.universe_tag)

    def otimes(self, other: "HybridSet") -> "HybridSet":
        """Pointwise product; empty exactly when the operands are disjoint."""
        self._require_peer(other)
        theirs = other._entries
        products = ((el, m * theirs[el]) for el, m in self._entries.items() if el in theirs)
        return self._of(self._sum(products), self.universe_tag)

    def scale(self, n: int) -> "HybridSet":
        require_int(n, "scalar")
        return self._of(self._sum(self._entries.items(), n), self.universe_tag)

    def is_disjoint(self, other: "HybridSet") -> bool:
        """No common element: acceptance criterion 2's condition for the
        join of two graphs of everywhere-distinct functions to be one."""
        return not self.otimes(other)

    # operators
    def __add__(self, other):
        return self.oplus(other) if isinstance(other, HybridSet) else NotImplemented

    def __sub__(self, other):
        return self.ominus(other) if isinstance(other, HybridSet) else NotImplemented

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
