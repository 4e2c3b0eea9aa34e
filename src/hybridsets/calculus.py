"""Piecewise arithmetic over refinements, signed summation, linear operators.

``pointwise_star`` is the reason the whole layering exists: combining
piecewise functions produces one term per refinement piece, so repeated
combination grows linearly in the number of pieces instead of doubling the
case analysis at every step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from typing import Callable, Iterable, List, Optional

from .errors import ContractError, RefinementError
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
from .regions import Point, RegionAtom, Valuation, multiplicities_many, resolve_param
from .refine import GeneralisedPartition, Refinement, common_strict_refinement


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
    partition takes term i of every operand; otherwise the canonical
    minimal refinement of all the operands' partitions is built, which
    needs the universe atom.  For r partitions of n_1..n_r pieces it has
    (sum n_i) + 1 - r pieces.

    The result is a marked join with one term per piece: the term word
    multiplies every operand word raised to its rewrite coefficient for
    that piece, merged in operand order.  Each rewrite row is read once, and
    a leading word with coefficient 1 seeds its piece's merge
    (``FreeCombination.combine``).  So step N of a binary fold copies the
    N + 1 running words, in C, and merges only the new operand's entries
    into them: O(N) steps in Python, against O(N^2) entries copied.

    The canonical refinement's choice matrix and rewrite rows depend only on
    the operands' piece counts, so ``common_strict_refinement`` memoizes
    them by shape (up to 32 shapes of O(n^2) small ints each); the pieces
    and the words are still built per call.  A fold step of N pieces thus
    pays for its N + 1 words and one region merge, once a process has
    refined that shape before; a single combine gains nothing.
    """
    if not star.is_ac:
        raise ContractError(f"star {star.name!r} is not declared AC")
    if not operands:
        raise ContractError("pointwise_star needs at least one operand")
    operand_terms = [_as_terms(op) for op in operands]
    regions = [tuple(t.region for t in terms) for terms in operand_terms]

    if refinement is None and all(r == regions[0] for r in regions):
        if not regions[0]:
            raise ContractError("a partition needs at least one piece")
        pieces, labels = regions[0], range(1, len(regions[0]) + 1)
        groups = [[(t.word, 1) for t in column] for column in zip(*operand_terms)]
    else:
        if refinement is None:
            if universe is None:
                raise ContractError(
                    "pointwise_star needs a universe atom to build the canonical refinement"
                )
            refinement = common_strict_refinement([
                GeneralisedPartition(f"operand {k}", universe, r, assumed=True)
                for k, r in enumerate(regions, start=1)
            ])
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
    return marked_join(star, out_terms)


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
