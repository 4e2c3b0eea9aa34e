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


def bind(atoms: dict, name: str, atom, clashes: list):
    """The atom bound to ``name`` in ``atoms``, which binds ``atom`` if none
    is; an unequal one (identity is compared first) adds ``name`` to ``clashes``."""
    known = atoms.setdefault(name, atom)
    if known is not atom and known != atom:
        clashes.append(name)
    return known


def bind_all(known: dict, combinations) -> Tuple[dict, list]:
    """(atoms, clashes): a clone of ``known``, name -> atom, with each new
    name of ``combinations`` bound to its first atom, and the names that
    ``bind`` finds bound to another atom.  One subset test per combination
    finds them at C speed; ``bind`` runs only when one fails."""
    names: dict = {}
    for c in reversed(combinations):  # the first combination to bind a name keeps it
        names.update(c._atoms)
    atoms = {**known, **names}
    for name in names.keys() & known.keys():
        atoms[name] = known[name]
    clashes: list = []
    for c in combinations:
        if not c._atoms.items() <= atoms.items():
            for name, a in c._atoms.items():
                bind(atoms, name, a, clashes)
    return atoms, clashes


def no_clash(clashes: list, clash: str) -> None:
    """A ContractError naming the least of ``clashes``, whatever order met them."""
    if clashes:
        raise ContractError(clash.format(min(clashes)))


def merge(groups, clash: str, seed=None) -> Tuple[Dict[str, int], dict]:
    """(coefficients, atoms) of the sum of ``seed`` and of ``n * entries``
    over ``(entries, n)`` groups of (name, coefficient, atom) triples, keyed
    by name.  Every name goes through ``bind``, and a zero sum leaves at
    once; the atoms list exactly the coefficients' names, in their order.
    Clashes are raised by ``no_clash`` once every entry is read.
    No output reads that order: a combination is printed and read in
    ``print_order``.

    A ``seed`` combination is taken by copying its two dicts: it holds no
    zero and its atoms are bound, so the copy is what merging it into empty
    dicts would give.  The work in Python is then one step per entry of the
    groups alone.  So one merge of unit groups g1 .. gk seeded by w gives
    the combination that a chain of k merges gives, each seeded by the one
    before and merging the next group, when every name is bound to one atom
    throughout and no partial sum leaves the 64-bit range.

    Sums are taken in Python ints, so a partial sum may leave the 64-bit
    range and come back; when one left it, the least and then the greatest
    kept coefficient are checked by ``checked_int``, so which value an
    overflow names does not depend on the order of the groups."""
    if seed is None:
        coeffs: Dict[str, int] = {}
        atoms: dict = {}
    else:
        coeffs, atoms = dict(seed._coeffs), dict(seed._atoms)
    get, known = coeffs.get, atoms.setdefault
    moved = wide = False
    clashes: list = []
    for entries, n in groups:
        for name, c, atom in entries:
            if known(name, atom) is not atom:
                bind(atoms, name, atom, clashes)
            total = get(name, 0) + (c if n == 1 else n * c)
            if not INT64_MIN <= total <= INT64_MAX:
                wide = True
            if total:
                coeffs[name] = total
            else:
                coeffs.pop(name, None)
                moved = True
    no_clash(clashes, clash)
    if wide and coeffs:
        checked_int(min(coeffs.values()))
        checked_int(max(coeffs.values()))
    if moved:
        atoms = {name: atoms[name] for name in coeffs}
    return coeffs, atoms


def print_order(coeffs: Mapping[str, int]) -> list:
    """(name, coefficient) pairs of ``coeffs``: positive coefficients first,
    then negative ones, each by name.  A combination's atoms have no order
    of their own, so every combination, and every value made from one, is
    printed and read in this order, whatever order built it."""
    return sorted(coeffs.items(), key=lambda kv: (kv[1] < 0, kv[0]))


class FreeCombination:
    """An integer combination of named atoms: an element of the free abelian
    group over them, keyed by atom name.

    ``_coeffs`` maps each name to its nonzero coefficient and ``_atoms`` each
    name to its atom, in one storage order that no output reads: a
    combination prints in ``print_order``.  A subclass gives the atom class
    (``ATOM``) and the message for one name bound to two unequal atoms
    (``CLASH``).
    """

    __slots__ = ("_coeffs", "_atoms")

    def __init__(self, entries: Iterable[Tuple[object, int]] = ()):
        """The sum of (atom, coefficient) pairs, each one checked."""
        groups = ((self._checked(entries), 1),)
        self._coeffs, self._atoms = merge(groups, self.CLASH)

    @classmethod
    def _checked(cls, entries):
        atom_type = cls.ATOM
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
        return cls._of(*merge(groups, cls.CLASH, seed))

    @classmethod
    def _of(cls, coeffs: dict, atoms: dict):
        """The combination of ``coeffs`` and ``atoms`` as ``merge`` returns them."""
        self = object.__new__(cls)
        self._coeffs, self._atoms = coeffs, atoms
        return self

    @classmethod
    def from_atom(cls, atom, coeff: int = 1):
        """``coeff * atom``, checked as ``__init__`` checks it, with no merge."""
        (name, coeff, atom), = cls._checked(((atom, coeff),))
        return cls._of({name: coeff} if coeff else {}, {name: atom} if coeff else {})

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
        return merge(((((el, m, None) for el, m in pairs), n),), "element {!r}")[0]

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
