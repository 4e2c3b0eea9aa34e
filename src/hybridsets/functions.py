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

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple, Union

from . import scalarexpr
from .errors import (
    ContractError,
    HybridError,
    NonEvaluableError,
    NotReducibleError,
    OpacityError,
)
from .hybridset import FreeCombination, HybridSet, bind, checked_int, element_sort_key, merge
from .regions import IndicatorTable, Point, SymbolicHybridSet, Valuation, _Layout, as_fraction


@dataclass(frozen=True)
class FunctionAtom:
    """A named scalar function.  ``body`` is an exact expression in x and
    parameters; an atom without a body is opaque and evaluates formally only."""

    name: str
    body: Optional[scalarexpr.BodyExpr] = None

    @property
    def is_opaque(self) -> bool:
        return self.body is None

    @cached_property
    def reads_point(self) -> bool:
        """Whether the value can depend on the point: the body names x.
        The body is walked once."""
        return self.body is not None and "x" in scalarexpr.body_names(self.body)

    def value(self, point: Point, valuation: Optional[Valuation] = None) -> Fraction:
        if self.body is None:
            raise OpacityError(f"atom {self.name!r} has no body to evaluate")
        return scalarexpr.eval_scalar(self.body, point, valuation)


def atom(name: str, body: Optional[str] = None) -> FunctionAtom:
    """Convenience constructor; ``body`` is parsed when given."""
    parsed = scalarexpr.parse_scalar(body) if body is not None else None
    return FunctionAtom(name, parsed)


def constant_atom(name: str, value) -> FunctionAtom:
    return FunctionAtom(name, scalarexpr.Num(as_fraction(value, f"the value of {name!r}")))


class FreeWord(FreeCombination):
    """Element of the free abelian group over function atoms.

    Exponents are kept in insertion order for readable output; equality
    ignores order.  A zero exponent is dropped as soon as it appears, so an
    atom that cancels and then comes back is listed last.
    """

    __slots__ = ()
    ATOM = FunctionAtom
    CLASH = "atom name {!r} bound to two definitions"
    DROP_EARLY = True

    is_empty = FreeCombination.is_zero

    def items(self):
        """(atom, exponent) pairs in first-appearance order."""
        return list(zip(self._atoms.values(), self._coeffs.values()))

    def mul(self, other: "FreeWord") -> "FreeWord":
        return self.combine(((self, 1), (other, 1)))

    def render(self, joiner: str = " * ") -> str:
        if not self._coeffs:
            return "1"
        return joiner.join([name if k == 1 else f"{name}^{k}" for name, k in self._coeffs.items()])


def word(*atoms_and_exps) -> FreeWord:
    """Build a word from atoms or (atom, exponent) pairs."""
    return FreeWord((a, 1) if isinstance(a, FunctionAtom) else a for a in atoms_and_exps)


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


class _BuiltOnFirstRead:
    """The ``terms`` field of ``HybridExpr``.  An expression made by
    ``HybridExpr.deferred`` holds no terms until the first read, which
    builds them by ``_source.terms()`` and stores them as the field's
    value; every other expression stores them when it is made, so this is
    never called for it.  Read on the class, it raises AttributeError, so
    the dataclass gives the field no default."""

    def __get__(self, e, owner=None):
        if e is None:
            raise AttributeError("terms")
        terms = e.__dict__["terms"] = e._source.terms()
        return terms


@dataclass(frozen=True)
class HybridExpr:
    """A join (star is None) or marked join (star set) of hybrid terms."""

    star: Optional[StarOp]
    terms: Tuple[HybridTerm, ...] = _BuiltOnFirstRead()
    _source = None  # not a field: what a deferred expression builds its terms from

    @classmethod
    def deferred(cls, star: StarOp, source) -> "HybridExpr":
        """The marked join whose terms ``source.terms()`` builds, once, on
        first read; ``source`` is kept as ``_source``.  Equality, hash and
        repr read the terms, so they equal those of ``marked_join(star,
        source.terms())``."""
        e = object.__new__(cls)
        e.__dict__.update(star=star, _source=source)
        return e

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
    """(net region multiplicity, surviving exponents, atoms): the terms'
    words, as (name, exponent, atom) tuples, merged with their region
    multiplicities as scalars and zeros dropped at the end.  The
    multiplicities are drawn one term at a time, between the words' merges;
    the surviving exponents, then the net, are checked once all are read."""
    net = 0

    def scaled():
        nonlocal net
        for word, m in zip(words, multiplicities):
            net += m
            if m:
                yield word, m

    surviving, atoms = merge(scaled(), FreeWord.CLASH, False)
    return checked_int(net), surviving, atoms


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
    def values():
        for name, k in surviving.items():
            a = atoms[name]
            if a.is_opaque:
                raise OpacityError(
                    f"atom {name!r} is opaque; cannot check value compatibility"
                )
            yield a.value(point, valuation), k

    by_value = HybridSet._sum(values())
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


class _Plan:
    """What evaluating an expression needs whatever the valuation: the
    region layout and each term's word as (name, exponent, atom) tuples,
    with one atom object per name across the expression; a name bound to
    two definitions in different terms is a ContractError here, once.

    ``additive`` holds when the star is ``PLUS``, every atom has a body
    that does not name x, and the plan is within the static bound: the sum
    over terms of (sum of |region coefficients|) times (sum of |word
    exponents|) is at most ``INT64_MAX``, so every multiplicity and net
    fits in 64 bits.  The bound is summed only when the first two hold.
    The net and the value at a vector are then linear in the shape
    indicators, a sum of one weight per set shape, so a state whose atoms
    all evaluate keeps them in an ``_AdditiveSweep``.  Every other state
    accumulates the exponents of each new indicator vector from scratch,
    by ``_accumulate``, which raises what it raises.

    ``slot`` holds the state of the last valuation used: its
    ``IndicatorTable``, per indicator vector the accumulated sums (or, on
    the additive path, None) and the outcome once one is known to hold for
    every point with that vector, and the ``_AdditiveSweep``, or None.
    """

    __slots__ = ("layout", "words", "atoms", "additive", "slot")

    def __init__(self, e: "HybridExpr"):
        self.layout = _Layout([t.region for t in e.terms])
        self.atoms = atoms = {}
        self.words = tuple(
            tuple((a.name, k, bind(atoms, a.name, a, FreeWord.CLASH)) for a, k in t.word.items())
            for t in e.terms
        )
        self.slot = None
        self.additive = (
            e.star is PLUS
            and not any(a.is_opaque or a.reads_point for a in atoms.values())
            and sum(
                sum(map(abs, t.region._coeffs.values())) * sum(map(abs, t.word._coeffs.values()))
                for t in e.terms
            ) <= scalarexpr.INT64_MAX
        )

    def _slot(self, valuation: Optional[Valuation]):
        """The slot when it holds this very valuation object, else a new
        state that takes the slot."""
        slot = self.slot
        if slot is None or slot[0] is not valuation:
            table = IndicatorTable(self.layout, valuation)
            slot = self.slot = (valuation, table, {}, self._sweep(valuation))
        return slot

    def _sweep(self, valuation: Optional[Valuation]):
        """The ``_AdditiveSweep`` of a new state, when the plan is additive
        and every atom evaluates under ``valuation``, else None."""
        if not self.additive:
            return None
        try:
            values = {name: a.value(None, valuation) for name, a in self.atoms.items()}
        except HybridError:
            return None  # raised again where the atom survives, by the finish
        return _AdditiveSweep(self, values)


def _entry(accumulated):
    """The kept entry of an accumulation: the sums, whether no survivor
    reads the point, and no outcome yet."""
    _, surviving, atoms = accumulated
    return accumulated, not any(atoms[n].reads_point for n in surviving), None


class _AdditiveSweep:
    """The state of an additive plan under a valuation where every atom
    has a value, linear in the shape indicators.  Shape k has a net,
    ``nets[k]``, the sum of the coefficients c of its uses (k, c), and a
    weight, ``weights[k]``, the sum of c times the value of the using
    term's word, held as an integer over the common denominator ``scale``
    of the atom values.  The net and the value at a vector are the sums of
    the nets and of the weights of its set shapes; the state keeps them,
    ``net`` and ``total``, at the last vector found, ``key``.

    ``find(key)`` moves the state to ``key`` and returns its kept entry
    with its outcome: ``UNDEFINED`` where the net multiplicity is 0, else
    ``Defined(total / scale, net)``, which is what ``_eval_marked`` folds
    from the surviving exponents.  Each shape whose bit changed adds its
    net and weight, or takes them away, whatever the terms and words."""

    __slots__ = ("key", "nets", "weights", "net", "scale", "total")

    def __init__(self, plan: _Plan, values: Dict[str, Fraction]):
        self.key = self.net = self.total = 0  # no shape is set at the empty vector
        self.scale = scale = math.lcm(*(v.denominator for v in values.values()))
        whole = {name: v.numerator * (scale // v.denominator) for name, v in values.items()}
        self.nets = nets = [0] * len(plan.layout.shapes)
        self.weights = weights = [0] * len(plan.layout.shapes)
        for w, uses in zip(plan.words, plan.layout.uses):
            value = sum(k * whole[name] for name, k, _ in w)
            for k, c in uses:
                nets[k] += c
                weights[k] += c * value

    def find(self, key: int):
        nets, weights = self.nets, self.weights
        changed, net, total = key ^ self.key, self.net, self.total
        while changed:
            low = changed & -changed
            changed ^= low
            k = low.bit_length() - 1
            if key & low:
                net += nets[k]
                total += weights[k]
            else:
                net -= nets[k]
                total -= weights[k]
        self.key, self.net, self.total = key, net, total
        return None, True, Defined(Fraction(total, self.scale), net) if net else UNDEFINED


def evaluate_many(
    e: HybridExpr, points: Iterable[Point], valuation: Optional[Valuation] = None
) -> Iterator[EvalOutcome]:
    """``evaluate(e, p, valuation)`` for each point p in order, raised errors
    included, computed in one pass.

    The expression keeps a plan (region layout and flat words), made once,
    and the state of the last valuation object it was evaluated under, so
    that calls under that same object, one-point ``evaluate`` included,
    share it.  The state holds the resolved endpoints, the range tests per
    cell between sorted endpoints scaled to integers on each of its three
    lines: intervals, grid rows and grid columns (see ``IndicatorTable``),
    and per distinct vector of atom indicators its entry, and the outcome
    when no surviving atom reads the point.  Such a point-independent
    outcome is one object per indicator vector: every point with that
    vector gets the same object while the state lasts.
    An outcome comes by one of three routes.  Under ``PLUS``
    with atoms that read no point and all evaluate under the valuation,
    the state keeps the value itself (an ``_AdditiveSweep``): the atoms
    are evaluated once per state, into one net and one weight per shape,
    and a new vector adds or takes away the net and the weight of each
    shape whose bit changed.  Any other state accumulates the vector's
    exponents from scratch (``_accumulate``) and keeps them, which merges
    the words of the terms active at it.  For an n-ary step combine of N
    operands that is about N^2 / 2 word entries per vector, so a pass that
    meets all of its vectors merges O(N^3).  Atoms that read x take this route:
    at 201 sorted points it took about 22 ms at N = 20 and 430 ms at
    N = 160, on a shared 2-vCPU x86-64 host with Python 3.11.
    A point the fast placement cannot key, because its placement raised,
    is evaluated by the reference itself, ``SymbolicHybridSet.multiplicity``
    term by term, and leaves nothing in the state.
    All of it is bounded by the expression, not by the points seen, and
    nothing about an error is kept, within a pass or across passes.  A
    pass keeps the state it started with, and reads points one at a time,
    so the outcomes before a raising point come out first.
    """
    slot = e._plan._slot(valuation)
    yield from _outcomes(e, slot, slot[1].keys(points))


def evaluate_grid(
    e: HybridExpr, rows: Iterable, cols: Iterable, valuation: Optional[Valuation] = None
) -> Iterator[Tuple[EvalOutcome, ...]]:
    """``evaluate_many`` over the points (r, c), r in ``rows`` and c in
    ``cols``, cut into rows: one tuple per row value, the outcomes of its
    cells in column order.  When a cell raises, its row's tuple holds the
    cells before it, and the next ``next()`` raises.

    It shares ``evaluate_many``'s state and outcomes, and its loop, but
    finds the cells' indicator vectors by row and column classes
    (``IndicatorTable.grid_keys``): each row value and each column value
    is placed once on the state's row or column line, whose cells, like
    the interval line's, last as long as the state, and the rows of one
    row class share one tuple of vectors.  The first row of a class runs
    through the loop cell by cell; when every vector in it is keyed and
    its kept entry holds an outcome, which then holds for every point with
    that vector, the later rows of the class share that row's tuple, so a
    caller can format it once per tuple, and a point-independent outcome
    once per object.  Other rows run through the loop cell by cell, in
    order.  A pass reads and fills the one state it started with.
    """
    cols = tuple(cols)  # read once, whatever iterable it is
    slot = e._plan._slot(valuation)
    kept = slot[2]
    shared: Dict[int, tuple] = {}  # id(vectors) -> (vectors, the row they share or None)
    for r, keys in slot[1].grid_keys(rows, cols):
        found = shared.get(id(keys))
        if found is not None and found[1] is not None:
            yield found[1]
            continue
        row = []
        try:
            row.extend(_outcomes(e, slot, zip([(r, c) for c in cols], keys)))
        except Exception:
            yield tuple(row)
            raise
        row = tuple(row)
        if found is None:
            fixed = all(key is not None and kept[key][2] is not None for key in keys)
            shared[id(keys)] = (keys, row if fixed else None)
        yield row


def _outcomes(e: HybridExpr, slot, pairs) -> Iterator[EvalOutcome]:
    """The outcome of each (point, indicator vector) pair in ``pairs``,
    keyed by the ``IndicatorTable`` of ``slot``, the state of one
    valuation, which the pass reads and fills whatever takes the plan's
    slot meanwhile.  The entry of a new vector is found by the state's
    ``_AdditiveSweep``, or, when it has none, accumulated from the
    vector's multiplicities by ``_accumulate``, and kept.  A point with
    the key None, which the fast placement could not key, takes each
    term's multiplicity from ``SymbolicHybridSet.multiplicity`` in term
    order, so it raises, or does not, as a point-by-point loop does;
    nothing is kept for it.
    The one-point ``evaluate`` runs through here, so the setup is kept to
    what a kept outcome needs: the arity is fixed (unpacking arguments
    costs measurably more), and the words and the finish are looked up
    only when an outcome must be computed."""
    valuation, _, kept, sweep = slot
    for point, key in pairs:
        found = kept.get(key)
        if found is None:
            plan = e._plan
            if key is None:  # the reference decides the point, and nothing is kept
                ms = (t.region.multiplicity(point, valuation) for t in e.terms)
                found = _entry(_accumulate(plan.words, ms))
            elif sweep is not None:
                found = kept[key] = sweep.find(key)
            else:
                ms = plan.layout.multiplicities(key)
                found = kept[key] = _entry(_accumulate(plan.words, ms))
        accumulated, fixed, outcome = found
        if outcome is None:
            finish = _eval_plain if e.star is None else _eval_marked
            outcome = finish(e.star, accumulated, point, valuation)
            if fixed and key is not None:
                kept[key] = (accumulated, fixed, outcome)
        yield outcome


def evaluate(e: HybridExpr, point: Point, valuation: Optional[Valuation] = None) -> EvalOutcome:
    """Evaluate an expression at a point under a valuation.

    Returns UNDEFINED when the point falls outside the effective domain;
    raises NonEvaluableError when the residue is not a function value.
    """
    slot = e._plan._slot(valuation)
    return next(_outcomes(e, slot, slot[1].keys((point,))))


def hybrid_graph(values, region: HybridSet) -> HybridSet:
    """The graph of a function weighted by a concrete hybrid set: the set
    of (x, f(x)) pairs that acceptance criterion 2's join laws on graphs
    are stated over.

    ``values`` is either a mapping point -> value whose keys are the domain
    of definition, or a callable taken to be total on the region support.
    """
    if isinstance(values, dict):
        domain = sorted(values.keys(), key=element_sort_key)
        lookup = values.__getitem__
    elif callable(values):
        domain = sorted(region.support(), key=element_sort_key)
        lookup = values
    else:
        raise TypeError(f"values must be a dict or callable, got {values!r}")
    entries = []
    for x in domain:
        m = region.multiplicity(x)
        if m:
            entries.append(((x, lookup(x)), m))
    return HybridSet(entries, region.universe_tag + "*S")


def graph_function(h: HybridSet) -> dict:
    """Read a graph hybrid set back as a function, point -> value, or raise
    where it is a relation: acceptance criterion 2 reads joins back so."""
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
