"""Piecewise arithmetic over refinements, signed summation, linear operators.

``pointwise_star`` is the reason the whole layering exists: combining
piecewise functions produces one term per refinement piece, so repeated
combination grows linearly in the number of pieces instead of doubling the
case analysis at every step.  The build grows the same way: a combine,
one step of a binary fold or one n-ary call, extends the compact form of
its first operand, one record per term, at O(size of the new operands) in
Python, and the result's terms are built once, when first read.
Evaluating the result reads the records, not the terms, so it never
builds them either.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, islice, repeat
from typing import Callable, Iterable, List, Optional

from .errors import ContractError, MultiplicityOverflowError, RefinementError
from .functions import (
    FreeWord,
    FunctionAtom,
    HybridExpr,
    HybridTerm,
    StarOp,
    UNDEFINED,
    _size,
    evaluate,  # unused here, but a name the perfbench tracer rebinds in this module
    evaluate_many,
    marked_join,
)
from .hybridset import bind_all
from .regions import Point, RegionAtom, SymbolicHybridSet, Valuation, multiplicities_many, resolve_param
from .refine import Refinement, rewrite_columns
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

    The result is a marked join with one term per piece.  A closed form
    is a compact form (``_Compact``) that ``_Compact.extend`` builds from
    the first operand's, or from the zero-step form of its terms, at
    O(size of the other operands) in Python; its terms are built on first
    read, and evaluation does not read them.  Any other combine, and a
    closed form that the compact form cannot certify, runs the group
    builder, which raises what it raises: it takes the kept rows of a
    choice matrix as runs, the refinement's or unit rows, and term j's
    word merges, in operand order, every operand word by its rewrite
    coefficient at j, read off the runs by ``refine.rewrite_columns``, so
    no dense rewrite row is written out.  A leading word with coefficient
    1 seeds the merge (``FreeCombination.combine``).
    """
    if not star.is_ac:
        raise ContractError(f"star {star.name!r} is not declared AC")
    if not operands:
        raise ContractError("pointwise_star needs at least one operand")
    source = operands[0]._source if isinstance(operands[0], HybridExpr) and refinement is None else None
    form = source and source.extend(universe, operands[1:])
    if form is not None:
        return HybridExpr.deferred(star, form)
    operand_terms = [_as_terms(op) for op in operands]
    regions = [tuple(t.region for t in terms) for terms in operand_terms]

    shared = refinement is None and all(r == regions[0] for r in regions)
    if shared:
        if not regions[0]:
            raise ContractError("a partition needs at least one piece")
        pieces, labels = regions[0], range(1, len(regions[0]) + 1)
        rows = (((i, i + 1, 1),) for _ in operands for i in range(len(pieces) - 1))
    elif refinement is None:
        if universe is None:
            raise ContractError("pointwise_star needs a universe atom to build the canonical refinement")
        if not all(regions):
            raise ContractError("a partition needs at least one piece")
        form = _Compact(universe, operand_terms[0]).extend(universe, operands[1:])
        if form is not None:
            return HybridExpr.deferred(star, form)
        pieces = [SymbolicHybridSet.from_atom(universe), *(t.region for ts in operand_terms for t in ts[:-1])]
        pieces[0] = SymbolicHybridSet.combine([(pieces[0], 1), *((r, -1) for r in pieces[1:])])
        labels = map("P{}".format, range(1, len(pieces) + 1))
        rows = (((j, j + 1, 1),) for j in range(1, len(pieces)))
    else:
        count = len(refinement.partitions)
        if count != len(operands):
            raise RefinementError(f"{len(operands)} operands but the refinement has {count} partitions")
        for k, (given, partition) in enumerate(zip(regions, refinement.partitions), start=1):
            if len(given) != len(partition.pieces):
                raise RefinementError(f"operand {k} has {len(given)} terms but the partition has "
                                      f"{len(partition.pieces)} pieces")
            for i, (region, piece) in enumerate(zip(given, partition.pieces), start=1):
                if region != piece:
                    raise RefinementError(f"operand {k}: term {i} has region {region.render()!r}, "
                                          f"but piece {i} of the partition is {piece.render()!r}")
        pieces, labels, rows = refinement.pieces, refinement.labels, iter(refinement.choice.runs[1:])

    # reached[j][k]: operand k's (word, coefficient) pairs at piece j where one
    # of its kept rows reaches j; elsewhere its last word's, sliced off ``lasts``
    lasts = [(terms[-1].word, 1) for terms in operand_terms]
    reached = [{} for _ in pieces]
    for k, terms in enumerate(operand_terms):
        for j, (pairs, c) in rewrite_columns(islice(rows, len(terms) - 1)).items():
            own = [(terms[i].word, v) for i, v in pairs]
            reached[j][k] = own + [(terms[-1].word, c)] if c else own
    out_terms = []
    for piece, label, column in zip(pieces, labels, reached):
        group, at = [], 0
        for k, pairs in column.items():
            group += lasts[at:k] + pairs
            at = k + 1
        w = FreeWord.combine(group + lasts[at:])
        if w.is_empty:
            raise ContractError(f"value word for refinement piece {label} cancelled away")
        out_terms.append(HybridTerm(w, piece))
    return marked_join(star, out_terms)


class _Compact:
    """The compact form of a closed-form result of ``pointwise_star``.

    ``records`` holds, per term in term order, the word its operand brought
    (its own word), its birth step and its region.  Step s adds an operand:
    ``added[s - 1]`` is its last word, which every older term takes, and
    ``links[s - 1]`` the word that the terms born from step s on hold for
    the older side: the own word of the last term before it, which P1
    takes over, or, within one ``extend``, the operand before's last word.
    So a term born at step b has the word ``links[:b]`` plus its own word
    plus ``added[b:]``, built on first read by one merge seeded by the sum
    of ``links[:b]``, the word the group builder merges for its piece.
    ``functions._Plan`` evaluates the form from these three, not its terms.

    A term's key is its word less the added total at its birth, so a word
    cancels just when its key is ``negated``, the negated added total,
    which one lookup in ``keys`` shows; ``key`` is the last term's.
    ``atoms`` and ``regions`` bind every name of a certified word or
    region, and ``bound`` sums the absolute exponents of every certified
    word, which bounds every partial sum of every word merge the form makes
    or defers.  ``entered`` holds the words and kept regions that are not
    certified yet, which P1's region is cut from too: none after a step.
    """

    __slots__ = ("universe", "records", "links", "added", "keys", "key", "negated",
                 "atoms", "regions", "bound", "entered")

    def __init__(self, universe: RegionAtom, terms: tuple):
        """The zero-step form of one operand's terms.  Its last record has
        the universe as region, which P1 is cut from and takes over."""
        words, shapes = [t.word for t in terms], [t.region for t in terms[:-1]]
        self.universe, self.links, self.added, self.bound, self.atoms = universe, (), (), 0, {}
        self.records = [*zip(words, repeat(0), [*shapes, SymbolicHybridSet.from_atom(universe)])]
        self.keys, self.key, self.negated = frozenset(words), words[-1], FreeWord._of({}, {})
        self.regions, self.entered = {universe.name: universe}, (words, shapes)

    def terms(self) -> tuple:
        """The terms, one merge each."""
        # the entries of the added words in step order; those of steps b + 1
        # on start at starts[b]; leads[b] sums links[:b]
        entries = [e for group, _ in FreeWord._groups((a, 1) for a in self.added) for e in group]
        starts = [0, *accumulate(len(a._coeffs) for a in self.added)]
        leads = [None, *accumulate(self.links, FreeWord.mul)]
        own = FreeWord._groups((w, 1) for w, _, _ in self.records)
        return tuple(
            HybridTerm(FreeWord._from_checked((group, (entries[starts[b]:], 1)), leads[b]), region)
            for group, (_, b, region) in zip(own, self.records)
        )

    def extend(self, universe: Optional[RegionAtom], operands: tuple) -> Optional["_Compact"]:
        """The compact form of the combine of this form's result with
        ``operands`` over ``universe``, operand i taking step s + i after
        the s steps taken, or None where the group builder runs: another
        universe atom; an operand that is not an expression of at least two
        terms; operands that all share this result's region list; a name
        bound to two atoms; a ``bound`` above ``INT64_MAX``; a word
        cancelled, older, P1's or new, which ``keys`` shows; or P1's region
        merge raising."""
        records, step, key = self.records, len(self.added), self.key
        (words, shapes), adds, born, shared = map(list, self.entered), [], [], True
        for b, op in enumerate(operands, step + 1):
            terms = op.terms if isinstance(op, HybridExpr) else ()
            if len(terms) < 2:
                return None
            shared = shared and len(terms) == len(records) and [
                t.region for t in terms] == [r for _, _, r in records]
            adds.append(terms[-1].word)
            words.append(adds[-1])
            for t in terms[:-1]:
                born.append((t.word, b, t.region))
                words.append(t.word)
                shapes.append(t.region)
        bound = self.bound + sum(map(_size, words))
        (atoms, clashes), (regions, more) = bind_all(self.atoms, words), bind_all(self.regions, shapes)
        if shared or universe is not self.universe or bound > INT64_MAX or clashes or more:
            return None
        # a kept piece's key is the last key plus its word less its operand's last word
        fresh = [FreeWord.combine(((key, 1), (w, 1), (adds[b - step - 1], -1))) for w, b, _ in born]
        keys, negated = self.keys.union(fresh), FreeWord.combine([(self.negated, 1), *zip(adds, repeat(-1))])
        if negated in keys:
            return None
        # P1 takes the last region less every kept piece that entered: U less all the others
        last, _, last_region = records[-1]
        try:
            p1 = SymbolicHybridSet.combine([(last_region, 1), *((r, -1) for r in shapes)])
        except MultiplicityOverflowError:
            return None  # the group builder's merge raises too, naming its own first coefficient
        form = object.__new__(_Compact)
        form.universe, form.bound, form.atoms, form.regions, form.entered = universe, bound, atoms, regions, ((), ())
        form.records = [(adds[0], step + 1, p1), *records[:-1], *born]
        form.links, form.added = (*self.links, last, *adds[:-1]), (*self.added, *adds)
        form.keys, form.key, form.negated = keys, fresh[-1], negated
        return form


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
