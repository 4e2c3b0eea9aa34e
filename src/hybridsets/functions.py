"""Hybrid function expressions: terms, joins, marked joins, and evaluation.

A term pairs a value word (a formal product of function atoms with integer
exponents) with a symbolic region.  An expression is a list of terms under
either the plain join (which merges graphs and may stop being a function)
or a marked join carrying an associative-commutative operation that always
yields a function again.

Evaluation at a point works in the free abelian group over the atoms: the
exponent vector of the whole expression is the multiplicity-weighted sum of
the term words.  Cancellation there is what lets one symbolic expression be
correct for every ordering of the symbolic breakpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple, Union

from . import scalarexpr
from .errors import (
    ContractError,
    NonEvaluableError,
    NotReducibleError,
    OpacityError,
)
from .hybridset import HybridSet, checked_add, checked_mul
from .regions import IndicatorTable, Point, SymbolicHybridSet, Valuation, _Layout, as_fraction


@dataclass(frozen=True)
class FunctionAtom:
    """A named scalar function.  ``body`` is an exact expression in x and
    parameters; atoms without a body (and without a python fallback) are
    opaque and evaluate formally only."""

    name: str
    body: Optional[scalarexpr.BodyExpr] = None
    func: Optional[Callable[..., Fraction]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def is_opaque(self) -> bool:
        return self.body is None and self.func is None

    def value(self, point: Point, valuation: Optional[Valuation] = None) -> Fraction:
        if self.body is not None:
            return scalarexpr.eval_scalar(self.body, point, valuation)
        if self.func is not None:
            return as_fraction(self.func(point, valuation), f"the value of {self.name!r}")
        raise OpacityError(f"atom {self.name!r} has no body to evaluate")


def atom(name: str, body: Optional[str] = None) -> FunctionAtom:
    """Convenience constructor; ``body`` is parsed when given."""
    parsed = scalarexpr.parse_scalar(body) if body is not None else None
    return FunctionAtom(name, parsed)


def constant_atom(name: str, value) -> FunctionAtom:
    return FunctionAtom(name, scalarexpr.Num(as_fraction(value, f"the value of {name!r}")))


class FreeWord:
    """Element of the free abelian group over function atoms.

    Exponents are kept in insertion order for readable output; equality
    ignores order.  A zero exponent is dropped as soon as it appears, so an
    atom that cancels and then comes back is listed last.
    """

    __slots__ = ("_exps", "_atoms")

    def __init__(self, entries: Iterable[Tuple[FunctionAtom, int]] = ()):
        exps: Dict[str, int] = {}
        atoms: Dict[str, FunctionAtom] = {}
        for a, k in entries:
            if not isinstance(a, FunctionAtom):
                raise TypeError(f"expected FunctionAtom, got {a!r}")
            known = atoms.get(a.name)
            if known is not None and known != a:
                raise ContractError(f"atom name {a.name!r} bound to two definitions")
            atoms[a.name] = a
            total = checked_add(exps.get(a.name, 0), k)
            if total:
                exps[a.name] = total
            else:
                exps.pop(a.name, None)
        self._exps = exps
        self._atoms = {n: atoms[n] for n in exps}

    @classmethod
    def from_atom(cls, a: FunctionAtom, exp: int = 1) -> "FreeWord":
        return cls([(a, exp)])

    @property
    def is_empty(self) -> bool:
        return not self._exps

    def exponent(self, name: str) -> int:
        return self._exps.get(name, 0)

    def atom(self, name: str) -> FunctionAtom:
        return self._atoms[name]

    def items(self):
        """(atom, exponent) pairs in first-appearance order."""
        return [(self._atoms[n], k) for n, k in self._exps.items()]

    def atoms(self):
        return list(self._atoms.values())

    def mul(self, other: "FreeWord") -> "FreeWord":
        return FreeWord(list(self.items()) + list(other.items()))

    def pow(self, k: int) -> "FreeWord":
        return FreeWord([(a, checked_mul(k, e)) for a, e in self.items()])

    def __eq__(self, other):
        if not isinstance(other, FreeWord):
            return NotImplemented
        return self._exps == other._exps and self._atoms == other._atoms

    def __hash__(self):
        return hash(frozenset(self._exps.items()))

    def render(self, joiner: str = " * ") -> str:
        if not self._exps:
            return "1"
        parts = []
        for name, k in self._exps.items():
            parts.append(name if k == 1 else f"{name}^{k}")
        return joiner.join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"FreeWord({self.render()})"


def word(*atoms_and_exps) -> FreeWord:
    """Build a word from atoms or (atom, exponent) pairs."""
    entries = []
    for item in atoms_and_exps:
        if isinstance(item, FunctionAtom):
            entries.append((item, 1))
        else:
            entries.append(item)
    return FreeWord(entries)


@dataclass(frozen=True)
class StarOp:
    """An associative-commutative pointwise operation for marked joins."""

    name: str
    apply: Optional[Callable[[Fraction, Fraction], Fraction]] = field(
        default=None, compare=False
    )
    unit: Optional[Fraction] = None
    invert: Optional[Callable[[Fraction], Fraction]] = field(
        default=None, compare=False
    )
    is_ac: bool = True

    @property
    def has_inverse(self) -> bool:
        return self.invert is not None


PLUS = StarOp("+", apply=lambda a, b: a + b, unit=Fraction(0), invert=lambda v: -v)
TIMES = StarOp("*", apply=lambda a, b: a * b, unit=Fraction(1))
MERGE = StarOp("⋈")  # purely formal: no scalar action, no unit, no inverse

BUILTIN_STARS = {"+": PLUS, "*": TIMES, MERGE.name: MERGE, "merge": MERGE}


@dataclass(frozen=True)
class HybridTerm:
    """A value word paired with the symbolic region carrying it."""

    word: FreeWord
    region: SymbolicHybridSet

    def __post_init__(self):
        if self.word.is_empty:
            raise ContractError("term value word must be non-empty")

    def render(self, joiner: str = " * ") -> str:
        w = self.word.render(joiner)
        if len(self.word.items()) > 1 or any(k != 1 for _, k in self.word.items()):
            w = f"({w})"
        return f"{w}^{{{self.region.render()}}}"

    def __str__(self):
        return self.render()


def term(value, region: SymbolicHybridSet) -> HybridTerm:
    """Make a term from an atom or a word."""
    if isinstance(value, FunctionAtom):
        value = FreeWord.from_atom(value)
    return HybridTerm(value, region)


@dataclass(frozen=True)
class HybridExpr:
    """A join (star is None) or marked join (star set) of hybrid terms."""

    star: Optional[StarOp]
    terms: Tuple[HybridTerm, ...]

    @property
    def is_marked(self) -> bool:
        return self.star is not None

    @cached_property
    def _plan(self) -> "_Plan":
        return _Plan(self)

    def render(self) -> str:
        if not self.terms:
            return "(empty)"
        if self.star is None:
            sep, joiner = " ⊛ ", " * "
        else:
            sep, joiner = f" ⊛{self.star.name} ", f" {self.star.name} "
        return sep.join(t.render(joiner) for t in self.terms)

    def __str__(self):
        return self.render()


def join(*parts) -> HybridExpr:
    """Plain join.  Terms with identical value words merge by region sum."""
    terms = []
    for part in parts:
        if isinstance(part, HybridExpr):
            if part.is_marked:
                raise ContractError("cannot splice a marked join into a plain join")
            terms.extend(part.terms)
        elif isinstance(part, HybridTerm):
            terms.append(part)
        else:
            raise TypeError(f"join expects terms or expressions, got {part!r}")
    return reduce_formally(HybridExpr(None, tuple(terms)))


def marked_join(star: StarOp, terms: Iterable[HybridTerm]) -> HybridExpr:
    """Marked join.  Keeps terms as given; no premature merging."""
    if not star.is_ac:
        raise ContractError(
            f"marked join needs an associative-commutative star, {star.name!r} is not"
        )
    terms = tuple(terms)
    for t in terms:
        if not isinstance(t, HybridTerm):
            raise TypeError(f"marked join expects terms, got {t!r}")
    return HybridExpr(star, terms)


def reduce_formally(e: HybridExpr) -> HybridExpr:
    """Merge terms with equal value words by region sum, dropping empty regions."""
    merged: Dict[FreeWord, SymbolicHybridSet] = {}
    order = []
    for t in e.terms:
        if t.word in merged:
            merged[t.word] = merged[t.word] + t.region
        else:
            merged[t.word] = t.region
            order.append(t.word)
    terms = tuple(HybridTerm(w, merged[w]) for w in order if not merged[w].is_zero)
    return HybridExpr(e.star, terms)


class _Undefined:
    """The bottom outcome: the point lies outside the effective domain."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "undefined"

    def __bool__(self):
        return False


UNDEFINED = _Undefined()


@dataclass(frozen=True)
class FormalValue:
    """A star-combination of atoms that stays symbolic (opaque atoms)."""

    combination: FreeWord
    star: Optional[StarOp]

    def render(self) -> str:
        joiner = f" {self.star.name} " if self.star is not None else " * "
        return self.combination.render(joiner)

    def __str__(self):
        return self.render()


@dataclass(frozen=True)
class Defined:
    value: Union[Fraction, FormalValue]
    multiplicity: int = 1


EvalOutcome = Union[Defined, _Undefined]


def _accumulate(words, multiplicities: Iterable[int]):
    """Net region multiplicity and combined exponent vector, from the terms'
    words as (name, exponent, atom) tuples and their region multiplicities,
    which are drawn one term at a time."""
    net = 0
    exps: Dict[str, int] = {}
    atoms: Dict[str, FunctionAtom] = {}
    for word, m in zip(words, multiplicities):
        net = checked_add(net, m)
        if m == 0:
            continue
        for name, k, a in word:
            exps[name] = checked_add(exps.get(name, 0), checked_mul(m, k))
            atoms.setdefault(name, a)
    surviving = {n: k for n, k in exps.items() if k != 0}
    return net, surviving, atoms


def _eval_plain(star, accumulated, point, valuation) -> EvalOutcome:
    _, surviving, atoms = accumulated
    if not surviving:
        return UNDEFINED
    if len(surviving) == 1:
        (name, k), = surviving.items()
        if k == 1:
            a = atoms[name]
            if a.is_opaque:
                return Defined(FormalValue(FreeWord.from_atom(a), None), 1)
            return Defined(a.value(point, valuation), 1)
        raise NonEvaluableError(
            f"graph point carries multiplicity {k} for {name!r}, not 1"
        )
    # Several distinct atoms survive: group by scalar value (compatibility).
    by_value: Dict[Fraction, int] = {}
    for name, k in surviving.items():
        a = atoms[name]
        if a.is_opaque:
            raise OpacityError(
                f"atom {name!r} is opaque; cannot check value compatibility"
            )
        v = a.value(point, valuation)
        by_value[v] = by_value.get(v, 0) + k
    by_value = {v: k for v, k in by_value.items() if k != 0}
    if not by_value:
        return UNDEFINED
    if len(by_value) == 1:
        (value, k), = by_value.items()
        if k == 1:
            return Defined(value, 1)
    detail = ", ".join(f"{v} (x{k})" for v, k in sorted(by_value.items()))
    raise NonEvaluableError(f"hybrid relation at point: values {detail}")


def _star_power(star: StarOp, v, k: int):
    """v combined with itself k >= 1 times under an AC star, by repeated
    squaring: O(log k) applications, whatever the size of k."""
    if k == 1:
        return v
    half = _star_power(star, star.apply(v, v), k >> 1)
    return star.apply(half, v) if k & 1 else half


def _eval_marked(star, accumulated, point, valuation) -> EvalOutcome:
    net, surviving, atoms = accumulated
    if net == 0:
        return UNDEFINED
    if not surviving:
        if star.unit is None:
            raise NonEvaluableError(
                f"empty combination and star {star.name!r} has no unit"
            )
        return Defined(star.unit, net)
    flat = all(k == 1 for k in surviving.values())
    if not flat and not star.has_inverse:
        residue = ", ".join(f"{n}^{k}" for n, k in surviving.items())
        raise NonEvaluableError(
            f"residual exponents {residue} and star {star.name!r} has no inverse"
        )
    if star.apply is not None and all(not atoms[n].is_opaque for n in surviving):
        acc = None
        for name, k in surviving.items():
            v = atoms[name].value(point, valuation)
            if k < 0:
                v, k = star.invert(v), -k
            v = _star_power(star, v, k)
            acc = v if acc is None else star.apply(acc, v)
        return Defined(acc, net)
    combo = FreeWord([(atoms[n], k) for n, k in surviving.items()])
    return Defined(FormalValue(combo, star), net)


def _reads_point(a: FunctionAtom) -> bool:
    """Whether the atom's value can depend on the point: a python function
    may read it, a body reads it when it names x."""
    if a.body is not None:
        return "x" in scalarexpr.body_names(a.body)
    return a.func is not None


class _Plan:
    """What evaluating an expression needs whatever the valuation: the
    region layout and each term's word as (name, exponent, atom) tuples.

    ``slot`` holds the state of the last valuation used: its
    ``IndicatorTable`` and, per indicator vector, the accumulated sums and
    the outcome once one is known to hold for every point with that vector.
    """

    __slots__ = ("layout", "words", "slot")

    def __init__(self, e: "HybridExpr"):
        self.layout = _Layout([t.region for t in e.terms])
        self.words = tuple(tuple((a.name, k, a) for a, k in t.word.items()) for t in e.terms)
        self.slot = None

    def state(self, valuation: Optional[Valuation]):
        """(table, kept sums) of ``valuation``: the slot's when it holds this
        very object, else a new state that takes the slot."""
        slot = self.slot
        if slot is None or slot[0] is not valuation:
            slot = self.slot = (valuation, IndicatorTable(self.layout, valuation), {})
        return slot[1], slot[2]


def evaluate_many(
    e: HybridExpr, points: Iterable[Point], valuation: Optional[Valuation] = None
) -> Iterator[EvalOutcome]:
    """``evaluate(e, p, valuation)`` for each point p in order, raised errors
    included, computed in one pass.

    The expression keeps a plan (region layout and flat words), made once,
    and the state of the last valuation object it was evaluated under, so
    that calls under that same object, one-point ``evaluate`` included,
    share it.  The state holds the resolved endpoints, the interval tests
    per cell between sorted endpoints (see ``IndicatorTable``), and per
    distinct vector of atom indicators the term multiplicities and exponent
    sums, and the outcome when no surviving atom reads the point.  All of
    it is bounded by the expression, not by the points seen, and nothing
    about an error is kept.  A pass keeps the state it started with, and
    reads points one at a time, so the outcomes before a raising point come
    out first.
    """
    plan = e._plan
    table, kept = plan.state(valuation)
    finish = _eval_plain if e.star is None else _eval_marked
    words, multiplicities = plan.words, plan.layout.multiplicities
    for point, key in table.keys(points):
        found = kept.get(key)
        if found is None:
            # An unfinished key raises here, so it is never kept.
            accumulated = _accumulate(words, multiplicities(key))
            _, surviving, atoms = accumulated
            fixed = not any(_reads_point(atoms[n]) for n in surviving)
            found = kept[key] = (accumulated, fixed, None)
        accumulated, fixed, outcome = found
        if outcome is None:
            outcome = finish(e.star, accumulated, point, valuation)
            if fixed:
                kept[key] = (accumulated, fixed, outcome)
        yield outcome


def evaluate(e: HybridExpr, point: Point, valuation: Optional[Valuation] = None) -> EvalOutcome:
    """Evaluate an expression at a point under a valuation.

    Returns UNDEFINED when the point falls outside the effective domain;
    raises NonEvaluableError when the residue is not a function value.
    """
    return next(evaluate_many(e, (point,), valuation))


def is_reducible(e: HybridExpr, valuation, sample: Iterable[Point]) -> bool:
    """True when every sampled point carries net multiplicity 0 or 1
    with compatible values, i.e. the expression reads back as a function."""
    try:
        return all(
            out is UNDEFINED or out.multiplicity == 1
            for out in evaluate_many(e, sample, valuation)
        )
    except (NonEvaluableError, OpacityError):
        return False


def hybrid_graph(values, region: HybridSet, universe_tag: Optional[str] = None) -> HybridSet:
    """The graph of a function weighted by a concrete hybrid set.

    ``values`` is either a mapping point -> value whose keys are the domain
    of definition, or a callable taken to be total on the region support.
    """
    if isinstance(values, dict):
        domain = sorted(values.keys(), key=_graph_key)
        lookup = values.__getitem__
    elif callable(values):
        domain = sorted(region.support(), key=_graph_key)
        lookup = values
    else:
        raise TypeError(f"values must be a dict or callable, got {values!r}")
    tag = universe_tag if universe_tag is not None else region.universe_tag + "*S"
    entries = []
    for x in domain:
        m = region.multiplicity(x)
        if m:
            entries.append(((x, lookup(x)), m))
    return HybridSet(entries, tag)


def _graph_key(x):
    from .hybridset import element_sort_key

    return element_sort_key(x)


def graph_function(h: HybridSet) -> dict:
    """Read a graph hybrid set back as a function, point -> value."""
    out = {}
    for (pair, m) in h.items():
        if not (isinstance(pair, tuple) and len(pair) == 2):
            raise NotReducibleError(f"element {pair!r} is not a graph pair")
        if m != 1:
            raise NotReducibleError(f"graph pair {pair!r} has multiplicity {m}")
        x, v = pair
        if x in out:
            raise NotReducibleError(f"two values at point {x!r}")
        out[x] = v
    return out
