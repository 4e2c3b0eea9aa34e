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
from itertools import accumulate, repeat
from operator import mul
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple, Union

from . import scalarexpr
from .errors import (
    ContractError,
    HybridError,
    NonEvaluableError,
    NotReducibleError,
    OpacityError,
)
from .hybridset import (
    FreeCombination,
    HybridSet,
    bind_all,
    checked_int,
    element_sort_key,
    merge,
    no_clash,
    print_order,
)
from .regions import IndicatorTable, Point, SymbolicHybridSet, Valuation, _Layout, as_fraction


@dataclass(frozen=True)
class FunctionAtom:
    """A named scalar function.  ``body`` is an exact expression in x and
    parameters; an atom without a body is opaque and evaluates formally only."""

    name: str
    body: Optional[scalarexpr.BodyExpr] = None

    def __post_init__(self):
        """Walk the body once for ``names``, the names it reads, x included,
        in reading order, and ``reads_point``; neither is a field."""
        names = () if self.body is None else tuple(dict.fromkeys(scalarexpr.body_names(self.body)))
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "reads_point", "x" in names)

    @property
    def is_opaque(self) -> bool:
        return self.body is None

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

    A word lists, prints and is evaluated in ``print_order``: positive
    exponents first, then negative ones, each by atom name, whatever order
    of merges built it.  A zero exponent is dropped as soon as it appears.
    """

    __slots__ = ()
    ATOM = FunctionAtom
    CLASH = "atom name {!r} bound to two definitions"

    is_empty = FreeCombination.is_zero

    def items(self):
        """(atom, exponent) pairs in print order."""
        return [(self._atoms[name], k) for name, k in print_order(self._coeffs)]

    def mul(self, other: "FreeWord") -> "FreeWord":
        return self.combine(((self, 1), (other, 1)))

    def render(self, joiner: str = " * ") -> str:
        if not self._coeffs:
            return "1"
        return joiner.join([name if k == 1 else f"{name}^{k}" for name, k in print_order(self._coeffs)])


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
        if list(self.word._coeffs.values()) != [1]:  # not one atom to the power 1
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
    _source = None  # not a field: what a deferred expression builds its terms from

    @classmethod
    def deferred(cls, star: StarOp, source) -> "HybridExpr":
        """The marked join whose terms ``source.terms()`` builds; ``source``
        is kept as ``_source``.  The expression holds no terms until their
        first read, which ``__getattr__`` answers and stores.  Equality,
        hash and repr read the terms, so they equal those of
        ``marked_join(star, source.terms())``.  The source gives its
        ``records``, ``links`` and ``added`` too, which ``_Plan`` reads in
        place of the terms, so no evaluation builds them."""
        e = object.__new__(cls)
        e.__dict__.update(star=star, _source=source)
        return e

    def __getattr__(self, name):
        """A deferred expression's terms, built and stored on first read;
        any other name that the normal lookup misses is an AttributeError."""
        if name != "terms" or self._source is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        terms = self.__dict__["terms"] = self._source.terms()
        return terms

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
    """Merge terms with equal value words by region sum, dropping empty regions.
    Each word is hashed twice, for one lookup and one store, and a term
    whose word meets no other is kept as it is."""
    merged: Dict[FreeWord, HybridTerm] = {}
    for t in e.terms:
        first = merged.get(t.word)
        merged[t.word] = t if first is None else HybridTerm(first.word, first.region + t.region)
    return HybridExpr(e.star, tuple(t for t in merged.values() if not t.region.is_zero))


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


def _entries(w: FreeWord):
    """The word's (name, exponent, None) entries: a plan has bound its atoms."""
    coeffs = w._coeffs
    return zip(coeffs, coeffs.values(), repeat(None))


def _accumulate(plan: "_Plan", multiplicities: Iterable[int]):
    """(net region multiplicity, surviving exponents, the plan's atoms): the
    terms' words weighted by their region multiplicities, which are drawn
    first, in term order, and merged from the plan's records.  Term j's
    word is ``links[:b_j]``, its own word and ``added[b_j:]``, so
    ``added[i]`` is weighted by the terms born at steps b <= i and
    ``links[i]`` by the others.  The plan bound every name; the surviving
    exponents (see ``merge``), then the net, are checked once all are read."""
    ms = list(multiplicities)
    by_step = [0] * (len(plan.added) + 1)
    groups = []
    for (w, b, _), m in zip(plan.records, ms):
        if m:
            by_step[b] += m
            groups.append((_entries(w), m))
    *before, net = accumulate(by_step)  # [i]: the terms born at steps b <= i
    groups += [(_entries(a), n) for a, n in zip(plan.added, before) if n]
    groups += [(_entries(w), net - n) for w, n in zip(plan.links, before) if net - n]
    surviving, _ = merge(groups, FreeWord.CLASH)
    return checked_int(net), surviving, plan.atoms


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
        for name, k in print_order(surviving):
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
    if not star.has_inverse and any(k != 1 for k in surviving.values()):
        residue = ", ".join(f"{n}^{k}" for n, k in print_order(surviving))
        raise NonEvaluableError(
            f"residual exponents {residue} and star {star.name!r} has no inverse"
        )
    if star.apply is not None and all(not atoms[n].is_opaque for n in surviving):
        acc = None
        for name, k in print_order(surviving):
            v = atoms[name].value(point, valuation)
            if k < 0:
                v, k = star.invert(v), -k
            v = _star_power(star, v, k)
            acc = v if acc is None else star.apply(acc, v)
        return Defined(acc, net)
    combo = FreeWord([(atoms[n], k) for n, k in surviving.items()])
    return Defined(FormalValue(combo, star), net)


def _size(c: FreeCombination) -> int:
    """The sum of the combination's absolute coefficients."""
    return sum(map(abs, c._coeffs.values()))


def _value(w: FreeWord, whole: Dict[str, int]) -> int:
    coeffs = w._coeffs
    return sum(map(mul, coeffs.values(), map(whole.__getitem__, coeffs)))


def _sums(plan: "_Plan", measure: Callable[[FreeWord], int]) -> list:
    """Per record, the sum of ``measure`` over ``links[:b]``, its own word
    and ``added[b:]``, b its birth step: the parts of its term's word."""
    before = [*accumulate(map(measure, plan.links), initial=0)]  # [b] sums links[:b]
    after = [*accumulate(map(measure, reversed(plan.added)), initial=0)][::-1]  # [b] sums added[b:]
    return [before[b] + measure(w) + after[b] for w, b, _ in plan.records]


class _Plan:
    """What evaluating an expression needs whatever the valuation, read
    from per-term records (own word, birth step b, region), the word being
    ``links[:b]``, the own word and ``added[b:]``: a closed form's compact
    form gives its ``records``, ``links`` and ``added``, any other
    expression one record (word, 0, region) per term and nothing else.
    ``layout`` numbers the records' regions; ``atoms`` binds each name of
    a word to its first atom, and a name bound to two definitions is a
    ContractError here, once, naming the least such name.  A name that
    cancels out of every term word changes only the route a state takes.
    Every route reads the records, and none writes a term word out.

    ``additive`` holds when the star is ``PLUS``, every atom has a body
    that does not name x, and the plan is within the static bound: the sum
    over records of (sum of |region coefficients|) times the sizes of its
    term word's parts (``_sums``), which bounds the sum of |word
    exponents|, is at most ``INT64_MAX``, so every multiplicity and net
    fits in 64 bits.  The net and the value at a vector are then linear in
    the shape indicators, a sum of one weight per set shape, so a state
    whose atoms all evaluate keeps them in an ``_AdditiveSweep``.  When no
    atom names a parameter either, the plan makes that sweep once,
    ``shared`` (False when an atom raises), and each state moves its own
    position over it; else ``shared`` is None and each state makes its own.
    Every other state accumulates the exponents of each new indicator
    vector from scratch, by ``_accumulate``, which merges each record's
    own word and each other word once, and raises what it raises.

    ``slot`` holds the state of the last valuation used: its
    ``IndicatorTable``, per indicator vector the accumulated sums (or, on
    the additive path, None) and the outcome once one is known to hold for
    every point with that vector, and the ``_AdditiveSweep``, or None.
    """

    __slots__ = ("layout", "records", "links", "added", "atoms", "additive", "shared", "slot")

    def __init__(self, e: "HybridExpr"):
        source = e._source
        if source is not None:
            records, links, added = source.records, source.links, source.added
        else:
            records, links, added = [(t.word, 0, t.region) for t in e.terms], (), ()
        self.layout = _Layout([region for _, _, region in records])
        atoms, clashes = bind_all({}, [*(w for w, _, _ in records), *links, *added])
        no_clash(clashes, FreeWord.CLASH)
        self.records, self.links, self.added, self.atoms = records, links, added, atoms
        self.slot = self.shared = None
        self.additive = e.star is PLUS and not any(
            a.is_opaque or a.reads_point for a in atoms.values())
        if self.additive:
            self.additive = sum(map(mul, (_size(region) for _, _, region in records),
                                    _sums(self, _size))) <= scalarexpr.INT64_MAX
        if self.additive and not any(a.names for a in atoms.values()):
            self.shared = self._sweep(None) or False

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
        and every atom evaluates under ``valuation``, else None: a new
        position over the ``shared`` sweep when the plan has one."""
        shared = self.shared
        if shared is not None:
            return shared.start() if shared else None
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
    of the atom values, and taken from the plan's records by ``_sums``.
    The net and the value at a vector are the sums of the nets and of the
    weights of its set shapes; the state keeps them, ``net`` and
    ``total``, at the last vector found, ``key``; ``start()`` is a new
    position, at the empty vector, over the same three.

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
        for value, uses in zip(_sums(plan, lambda w: _value(w, whole)), plan.layout.uses):
            for k, c in uses:
                nets[k] += c
                weights[k] += c * value

    def start(self) -> "_AdditiveSweep":
        position = object.__new__(_AdditiveSweep)
        position.nets, position.weights, position.scale = self.nets, self.weights, self.scale
        position.key = position.net = position.total = 0
        return position

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

    The expression keeps a plan (region layout, atoms and per-term
    records, see ``_Plan``), made once, and the state of the last valuation
    object it was evaluated under, so that calls under that same object,
    one-point ``evaluate`` included, share it.  The state holds the
    resolved endpoints, the bits of every cell between sorted endpoints
    scaled to integers, made by the sort, on each of its three lines:
    intervals, grid rows and grid columns (see ``IndicatorTable``), and per
    distinct vector of atom indicators its entry, and the outcome when no
    surviving atom reads the point.  Such a point-independent outcome is
    one object per indicator vector: every point with that vector gets the
    same object while the state lasts.  An outcome comes by one of three
    routes.  Under ``PLUS`` with atoms that read no point and all evaluate
    under the valuation, the state keeps the value itself (an
    ``_AdditiveSweep``): the atoms are evaluated into one net and one
    weight per shape, once per plan when no atom names a parameter and
    else once per state, and a new vector adds or takes away the net and
    the weight of each shape whose bit changed.  Any other state
    accumulates the vector's exponents from scratch (``_accumulate``) and
    keeps them: it merges the own words of the records active at the
    vector, and each link and added word once, scaled by the terms born
    after its step or at or before it: O(N) entries for a closed form of
    N operands, folded or n-ary, and never a written-out term word.
    Atoms that read x take this route.
    A point the fast placement cannot key, because its placement raised,
    is evaluated by the reference itself, ``SymbolicHybridSet.multiplicity``
    record by record, and leaves nothing in the state.
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
    record's multiplicity from ``SymbolicHybridSet.multiplicity`` in term
    order (the records' regions are the terms'), so it raises, or does
    not, as a point-by-point loop does; nothing is kept for it.
    The one-point ``evaluate`` runs through here, so the setup is kept to
    what a kept outcome needs: the arity is fixed (unpacking arguments
    costs measurably more), and the plan and the finish are looked up
    only when an outcome must be computed."""
    valuation, _, kept, sweep = slot
    for point, key in pairs:
        found = kept.get(key)
        if found is None:
            plan = e._plan
            if key is None:  # the reference decides the point, and nothing is kept
                ms = (region.multiplicity(point, valuation) for _, _, region in plan.records)
                found = _entry(_accumulate(plan, ms))
            elif sweep is not None:
                found = kept[key] = sweep.find(key)
            else:
                ms = plan.layout.multiplicities(key)
                found = kept[key] = _entry(_accumulate(plan, ms))
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

    It shares ``evaluate_many``'s state.  ``IndicatorTable._bits`` places
    the point, and an outcome the state keeps for its vector is returned at
    once; any other point, or one whose placement raises (key None, as
    ``keys`` gives it), runs through ``_outcomes``, the one outcome loop.
    """
    plan = e._plan
    slot = plan.slot
    if slot is None or slot[0] is not valuation:
        slot = plan._slot(valuation)
    try:
        key = slot[1]._bits(point)
    except Exception:
        key = None
    found = slot[2].get(key)
    if found is not None and found[2] is not None:
        return found[2]
    return next(_outcomes(e, slot, ((point, key),)))


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
