"""Piecewise arithmetic over refinements, signed summation, linear operators.

``pointwise_star`` is the reason the whole layering exists: combining
piecewise functions produces one term per refinement piece, so repeated
combination grows linearly in the number of pieces instead of doubling the
case analysis at every step.  The build grows the same way: a step of a
binary fold extends the compact form of the running result, at O(size of
the new operand) in Python, and the result's terms are built once, when
they are first read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, compress
from typing import Callable, Iterable, List, NamedTuple, Optional

from .errors import ContractError, MultiplicityOverflowError, RefinementError
from .functions import (
    FreeWord,
    FunctionAtom,
    HybridExpr,
    HybridTerm,
    StarOp,
    UNDEFINED,
    evaluate,  # unused here, but a name the perfbench tracer rebinds in this module
    evaluate_many,
    marked_join,
)
from .regions import Point, RegionAtom, SymbolicHybridSet, Valuation, multiplicities_many, resolve_param
from .refine import Refinement
from .refine import common_strict_refinement  # unused here, but a name the perfbench tracer rebinds in this module
from .scalarexpr import INT64_MAX


def _as_terms(operand) -> tuple:
    if isinstance(operand, HybridExpr):
        return operand.terms
    if isinstance(operand, HybridTerm):
        return (operand,)
    raise TypeError(f"expected an expression or term, got {operand!r}")


def pointwise_star(
    star: StarOp,
    *operands,
    refinement: Optional[Refinement] = None,
    universe: Optional[RegionAtom] = None,
) -> HybridExpr:
    """Combine piecewise operands with an AC star over one common refinement.

    Operand k must be a join of terms whose regions are exactly the pieces
    of partition k of the refinement, in that partition's piece order: term
    i is read as piece i.  A term whose region is not its piece, a term
    count that is not the piece count, and a partition count that is not
    the operand count are a ``RefinementError``.  When no refinement is
    given and all operands share their region list, piece i of that shared
    partition takes term i of every operand; otherwise the terms come off
    the closed form of the canonical minimal refinement, which needs the
    universe atom: P1 is the universe less every kept piece (all but each
    operand's last), with the operands' last words, and P(j+1) is kept piece
    j, its word in place of its operand's last.

    The result is a marked join with one term per piece: the term word
    multiplies every operand word raised to its rewrite coefficient for
    that piece, merged in operand order, and a leading word with
    coefficient 1 seeds its piece's merge (``FreeCombination.combine``).
    A closed-form result keeps a compact form (``_Compact``).  A binary
    step whose first operand has one, over the same universe atom, extends
    it: it builds P1's word and region and the new operand's kept pieces,
    and leaves every older term's record as it is, so the step costs
    O(size of the new operand) in Python, however many terms run.  The
    terms are built once, on first read, one merge each.  A step that the
    compact form cannot certify to build the same words and raise nothing
    runs the eager loop, which raises what it raises.
    """
    if not star.is_ac:
        raise ContractError(f"star {star.name!r} is not declared AC")
    if not operands:
        raise ContractError("pointwise_star needs at least one operand")
    source = operands[0]._source if isinstance(operands[0], HybridExpr) else None
    if source is not None and refinement is None and len(operands) == 2:
        form = source.extend(universe, operands[1])
        if form is not None:
            return HybridExpr.deferred(star, form)
    operand_terms = [_as_terms(op) for op in operands]
    regions = [tuple(t.region for t in terms) for terms in operand_terms]

    closed_form = False
    if refinement is None and all(r == regions[0] for r in regions):
        if not regions[0]:
            raise ContractError("a partition needs at least one piece")
        pieces, labels = regions[0], range(1, len(regions[0]) + 1)
        groups = [[(t.word, 1) for t in column] for column in zip(*operand_terms)]
    elif refinement is None:
        if universe is None:
            raise ContractError("pointwise_star needs a universe atom to build the canonical refinement")
        if not all(regions):
            raise ContractError("a partition needs at least one piece")
        closed_form = True
        lasts = [(terms[-1].word, 1) for terms in operand_terms]
        kept = [(k, t) for k, terms in enumerate(operand_terms) for t in terms[:-1]]
        pieces = [SymbolicHybridSet.from_atom(universe), *(t.region for _, t in kept)]
        pieces[0] = SymbolicHybridSet.combine([(pieces[0], 1), *((r, -1) for r in pieces[1:])])
        labels = map("P{}".format, range(1, len(pieces) + 1))
        groups = [lasts, *([*lasts[:k], (t.word, 1), *lasts[k + 1:]] for k, t in kept)]
    else:
        count = len(refinement.partitions)
        if count != len(operands):
            raise RefinementError(
                f"{len(operands)} operands but the refinement has {count} partitions"
            )
        # groups[j]: the (word, coefficient) pairs of new piece j, in operand
        # order, read off each rewrite row's nonzero entries in one pass
        pieces, labels = refinement.pieces, refinement.labels
        columns = range(refinement.size)
        groups = [[] for _ in columns]
        for k, (terms, partition, rows) in enumerate(
            zip(operand_terms, refinement.partitions, refinement.coefficients), start=1
        ):
            if len(terms) != len(partition.pieces):
                raise RefinementError(
                    f"operand {k} has {len(terms)} terms but the partition has "
                    f"{len(partition.pieces)} pieces"
                )
            for i, (t, piece, row) in enumerate(zip(terms, partition.pieces, rows), start=1):
                if t.region != piece:
                    raise RefinementError(
                        f"operand {k}: term {i} has region {t.region.render()!r}, "
                        f"but piece {i} of the partition is {piece.render()!r}"
                    )
                for j in compress(columns, row):
                    groups[j].append((t.word, row[j]))

    out_terms = []
    for piece, label, group in zip(pieces, labels, groups):
        w = FreeWord.combine(group)
        if w.is_empty:
            raise ContractError(f"value word for refinement piece {label} cancelled away")
        out_terms.append(HybridTerm(w, piece))
    if closed_form:
        return HybridExpr.deferred(star, _Compact(universe, tuple(out_terms)))
    return marked_join(star, out_terms)


def _size(w: FreeWord) -> int:
    """The sum of the word's absolute exponents."""
    return sum(map(abs, w._coeffs.values()))


def _named(known: dict, combinations) -> Optional[dict]:
    """A copy of ``known``, name -> atom, with the atoms of ``combinations``
    added, or None where one of them binds a name to another atom."""
    atoms = dict(known)
    for c in combinations:
        for name, a in c._atoms.items():
            bound = atoms.setdefault(name, a)
            if bound is not a and bound != a:
                return None
    return atoms


class _State(NamedTuple):
    """What the next step of a compact form reads.

    Term t's word is ``total - offset_t``: ``total`` sums the words added
    since the base, and the offset is the word's part that was there
    before them, so a step's new total cancels exactly the older words
    whose offset it equals, which ``offsets`` holds, and a term that takes
    another's place takes its offset.  ``last`` is the last term's (word,
    region, offset); it is born at the form's own step, so its word is its
    birth word.  ``atoms`` and ``regions`` bind every name that a word or
    a region of the fold has used; ``ranks`` orders the region names by
    first appearance in the universe and the regions of every term but the
    last, the order in which the eager merge of P1 meets them.  ``bound``
    sums the absolute exponents of every word that entered the fold, and
    bounds every partial sum of every word merge the form makes or defers.
    ``count`` is the number of terms."""

    count: int
    last: tuple
    total: FreeWord
    offsets: frozenset
    atoms: dict
    regions: dict
    ranks: dict
    bound: int


class _Compact:
    """The compact form of a closed-form result of ``pointwise_star``.

    It holds the universe atom, the terms of the eager result it starts
    from (``base``, step 0) and, per later binary step s, ``steps[s - 1]``:
    the new operand's last word, which the step adds to every older term,
    and the (birth word, region) records of P1 and of the new operand's
    kept pieces.  A record born at step b has, at step s, its birth word
    merged with the words added at steps b + 1 .. s, in order: one merge
    seeded by the birth word, which builds the word that the eager loop
    builds by a chain of seeded merges (``hybridset.merge``).  The terms
    at step s are P1 of steps s, s - 1, .., 1, the base's terms but its
    last, each earlier step's kept pieces but its last, and step s's kept
    pieces: a step drops the last term, whose region P1 takes over.
    """

    __slots__ = ("universe", "base", "steps", "state")

    def __init__(self, universe: RegionAtom, base: tuple, steps: tuple = (), state=None):
        self.universe, self.base, self.steps, self.state = universe, base, steps, state

    def terms(self) -> tuple:
        """The terms, one merge each."""
        steps = self.steps
        if not steps:
            return self.base
        added = [a for a, _, _ in steps]
        # the entries of the added words in step order; those of steps b + 1
        # on start at starts[b]
        entries = [e for group, _ in FreeWord._groups((a, 1) for a in added) for e in group]
        starts = [0, *accumulate(len(a._coeffs) for a in added)]
        records = [(p1, b) for b, (_, p1, _) in enumerate(steps, start=1)][::-1]
        records += [((t.word, t.region), 0) for t in self.base[:-1]]
        for b, (_, _, kept) in enumerate(steps, start=1):
            records += [(r, b) for r in (kept if b == len(steps) else kept[:-1])]
        return tuple(
            HybridTerm(FreeWord._from_checked(((entries[starts[b]:], 1),), w), region)
            for (w, region), b in records
        )

    def _base_state(self) -> Optional[_State]:
        """A base's state, or None where its words bind a name to two atoms
        or their bound is above ``INT64_MAX``."""
        base, u = self.base, self.universe
        words = [t.word for t in base]
        bound = sum(map(_size, words))
        atoms = _named({}, words)
        regions = _named({u.name: u}, (t.region for t in base))
        if bound > INT64_MAX or atoms is None or regions is None:
            return None
        ranks = {u.name: (0, 0)}
        for t in base[:-1]:
            for name in t.region._coeffs:
                ranks.setdefault(name, (0, len(ranks)))
        offsets = [FreeWord.combine(((w, -1),)) for w in words]
        last = (base[-1].word, base[-1].region, offsets[-1])
        return _State(len(base), last, FreeWord(), frozenset(offsets), atoms, regions, ranks, bound)

    def extend(self, universe: Optional[RegionAtom], operand) -> Optional["_Compact"]:
        """The compact form of the binary step that combines this form's
        result with ``operand`` over ``universe``, or None where the step
        runs the eager loop: another universe atom; an operand that is not
        an expression of at least two terms, or has as many terms as this
        result, so that the two may share their region list; a name bound
        to another atom than the fold's; a ``bound`` above ``INT64_MAX``;
        an older word or P1's cancelled, which ``offsets`` shows; a new
        word cancelled; or P1's region merge raising."""
        if universe is not self.universe or not isinstance(operand, HybridExpr):
            return None
        state = self.state or self._base_state()
        if state is None:
            return None
        terms = operand.terms
        if len(terms) < 2 or len(terms) == state.count:
            return None
        added, kept = terms[-1].word, terms[:-1]
        words = [t.word for t in kept]
        bound = state.bound + sum(map(_size, (added, *words)))
        atoms = _named(state.atoms, (added, *words))
        regions = _named(state.regions, (t.region for t in kept))
        if bound > INT64_MAX or atoms is None or regions is None:
            return None
        total = FreeWord.combine(((state.total, 1), (added, 1)))
        if total in state.offsets:
            return None
        last, last_region, offset = state.last
        born = [FreeWord.combine(((last, 1), (w, 1))) for w in words]
        if any(w.is_empty for w in born):
            return None
        # P1 is the last term's region less the kept pieces: the universe
        # less every other term's region, as the pieces sum to the universe
        try:
            p1 = SymbolicHybridSet.combine([(last_region, 1), *((t.region, -1) for t in kept)])
        except MultiplicityOverflowError:
            return None  # the eager merge raises too, naming its own first coefficient
        ranks = state.ranks
        fresh = {}  # names new to the ranks, after them by first appearance
        for t in kept:
            for name in t.region._coeffs:
                if name not in ranks:
                    fresh.setdefault(name, (1, len(fresh)))
        order = sorted(p1._coeffs, key=lambda name: ranks.get(name) or fresh[name])
        if order != list(p1._coeffs):
            p1 = SymbolicHybridSet._from_checked(
                ((((name, p1._coeffs[name], p1._atoms[name]) for name in order), 1),)
            )
        step = len(self.steps) + 1
        ranks = dict(ranks)
        for i, name in enumerate((universe.name, *order)):
            ranks[name] = (-step, i)
        for t in kept[:-1]:
            for name in t.region._coeffs:
                ranks.setdefault(name, (0, len(ranks)))
        offsets = [FreeWord.combine(((offset, 1), (added, 1), (w, -1))) for w in words]
        records = tuple(zip(born, (t.region for t in kept)))
        state = _State(state.count + len(kept), (*records[-1], offsets[-1]), total,
                       state.offsets.union(offsets), atoms, regions, ranks, bound)
        p1_record = (FreeWord.combine(((last, 1), (added, 1))), p1)
        return _Compact(universe, self.base, (*self.steps, (added, p1_record, records)), state)


@dataclass
class CheckReport:
    """Outcome of a sampled identity check."""

    name: str
    checked: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def record(self, message: str) -> None:
        self.violations.append(message)

    def render(self) -> str:
        status = "OK" if self.passed else "FAIL"
        lines = [f"{self.name}: {status} ({self.checked} checks)"]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)

    def __str__(self):
        return self.render()


def star_inverse_identity_check(
    star: StarOp,
    f: HybridTerm,
    valuation: Optional[Valuation],
    sample: Iterable[Point],
) -> CheckReport:
    """Check that f combined with its star-inverse collapses to the unit
    with the region's own multiplicity, and vanishes off the region.

    The combination is the marked join ``(f * ~f^-1)^R``, where ``~f`` is f
    under another name, so the free group keeps it apart from f and the
    evaluation applies ``star.invert`` to its value, through its negative
    exponent."""
    if not star.has_inverse or star.unit is None or star.apply is None:
        raise ContractError(f"star {star.name!r} has no declared inverse and unit")
    items = f.word.items()
    if len(items) != 1 or items[0][1] != 1:
        raise ContractError("inverse check expects a single-atom term")
    base = items[0][0]
    mirrored = FunctionAtom(f"~{base.name}", base.body)
    expr = marked_join(
        star, [HybridTerm(f.word.mul(FreeWord.from_atom(mirrored, -1)), f.region)]
    )
    report = CheckReport(f"inverse identity for {base.name!r} under {star.name!r}")
    sample = list(sample)
    outcomes = evaluate_many(expr, sample, valuation)
    for p, (m,) in multiplicities_many((f.region,), sample, valuation):
        report.checked += 1
        out = next(outcomes)
        if m == 0:
            if out is not UNDEFINED:
                report.record(f"at {p}: expected undefined, got {out}")
        else:
            if out is UNDEFINED:
                report.record(f"at {p}: expected unit with multiplicity {m}")
            elif out.value != star.unit or out.multiplicity != m:
                report.record(
                    f"at {p}: expected {star.unit} with multiplicity {m}, "
                    f"got {out.value} with multiplicity {out.multiplicity}"
                )
    return report


def summation_bound(value, valuation) -> int:
    """A summation bound, resolved through the valuation; it must be an integer."""
    resolved = resolve_param(value if isinstance(value, str) else Fraction(value), valuation)
    if resolved.denominator != 1:
        raise ContractError(f"summation bound {resolved} is not an integer")
    return int(resolved)


def karr_sum(
    f: FunctionAtom, lower, upper, valuation: Optional[Valuation] = None
) -> Fraction:
    """Sum of f(i) over lower <= i < upper, as in Karr's "Summation in finite
    terms" (JACM 1981): a bound may be a parameter, and swapping the bounds
    negates the sum."""
    lo = summation_bound(lower, valuation)
    hi = summation_bound(upper, valuation)
    sign = 1
    if lo > hi:
        lo, hi, sign = hi, lo, -1
    total = Fraction(0)
    for i in range(lo, hi):
        total += f.value(Fraction(i), valuation)
    return sign * total


def karr_split_check(
    f: FunctionAtom,
    lower: int,
    mid: int,
    upper: int,
    valuation: Optional[Valuation] = None,
) -> CheckReport:
    """Verify the split and telescoping identities for arbitrary bound order.

    With m and u the resolved mid and upper bounds, the telescoping sum of
    f(i + 1) - f(i) over m <= i < u is taken as two sums of f itself,
    ``karr_sum(f, m + 1, u + 1) - karr_sum(f, m, u)``, and must equal
    f(u) - f(m)."""
    report = CheckReport(f"signed-sum identities for {f.name!r}")

    whole = karr_sum(f, lower, upper, valuation)
    left = karr_sum(f, lower, mid, valuation)
    right = karr_sum(f, mid, upper, valuation)
    report.checked += 1
    if whole != left + right:
        report.record(
            f"split ({lower},{mid},{upper}): {whole} != {left} + {right}"
        )

    m = summation_bound(mid, valuation)
    u = summation_bound(upper, valuation)
    tele = karr_sum(f, m + 1, u + 1, valuation) - karr_sum(f, m, u, valuation)
    direct = f.value(Fraction(u), valuation) - f.value(Fraction(m), valuation)
    report.checked += 1
    if tele != direct:
        report.record(f"telescoping ({mid},{upper}): {tele} != {direct}")
    return report


def summation(values: Iterable[Fraction]) -> Fraction:
    """The one linear operator: the sum of the sampled values."""
    return sum(values, Fraction(0))


def linearity_report(name: str, combine: Callable[[List[Fraction]], Fraction]) -> CheckReport:
    """Probe the additivity and scaling of ``combine``, reported under
    ``name``, on seeded random value vectors."""
    rng = random.Random(20240915)
    report = CheckReport(f"linearity of {name!r}")
    for _ in range(5):
        n = rng.randint(1, 8)
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        c = Fraction(rng.randint(-5, 5))
        report.checked += 2
        if combine([x + y for x, y in zip(a, b)]) != combine(a) + combine(b):
            report.record(f"additivity fails on vectors of length {n}")
        if combine([c * x for x in a]) != c * combine(a):
            report.record(f"scaling by {c} fails on a vector of length {n}")
    return report


def apply_linear(
    f: HybridTerm,
    valuation: Optional[Valuation],
    sample: Iterable[Point],
) -> Fraction:
    """Apply ``summation`` to a region-weighted function: the operand at x
    is multiplicity(region, x) * f(x), and 0 where the multiplicity is 0,
    without reading f(x) there."""
    items = f.word.items()
    if len(items) != 1 or items[0][1] != 1:
        raise ContractError("apply_linear expects a single-atom term")
    base = items[0][0]
    return summation(
        Fraction(m) * base.value(p, valuation) if m else Fraction(0)
        for p, (m,) in multiplicities_many((f.region,), sample, valuation)
    )
