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
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

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
from .hybridset import checked_mul
from .regions import (
    Point, RegionAtom, SymbolicHybridSet, Universe, Valuation, multiplicities_many, resolve_param
)
from .refine import GeneralisedPartition, Refinement, common_strict_refinement


def _as_terms(operand) -> tuple:
    if isinstance(operand, HybridExpr):
        return operand.terms
    if isinstance(operand, HybridTerm):
        return (operand,)
    raise TypeError(f"expected an expression or term, got {operand!r}")


def _match_terms(terms, pieces, who: str) -> List[int]:
    """Assign each term the index of its partition piece, bijectively:
    equal pieces are handed out in order, one per term."""
    if len(terms) != len(pieces):
        raise RefinementError(
            f"{who} has {len(terms)} terms but the partition has {len(pieces)} pieces"
        )
    free: Dict[SymbolicHybridSet, List[int]] = {}
    for j in reversed(range(len(pieces))):
        free.setdefault(pieces[j], []).append(j)
    assignment = []
    for t in terms:
        slots = free.get(t.region)
        if not slots:
            raise RefinementError(
                f"{who}: term region {t.region.render()!r} is not a partition piece"
            )
        assignment.append(slots.pop())
    return assignment


def pointwise_star(
    star: StarOp,
    *operands,
    refinement: Optional[Refinement] = None,
    universe: Optional[RegionAtom] = None,
) -> HybridExpr:
    """Combine piecewise operands with an AC star over one common refinement.

    Operand k must be a join of terms whose regions are exactly the pieces
    of partition k of the refinement, or of its only partition when it has
    one; any other partition count is a ``RefinementError``.  When no
    refinement is given and all operands share their region list, the
    shared partition refines itself; otherwise the canonical minimal
    refinement of all the operands' partitions is built, which needs the
    universe atom.  For r partitions of n_1..n_r pieces it has
    (sum n_i) + 1 - r pieces.

    The result is a marked join with one term per refinement piece: the term
    word multiplies every operand word raised to its rewrite coefficient for
    that piece, merged in operand order.
    """
    if not star.is_ac:
        raise ContractError(f"star {star.name!r} is not declared AC")
    if not operands:
        raise ContractError("pointwise_star needs at least one operand")
    operand_terms = [_as_terms(op) for op in operands]

    if refinement is None:
        regions = [tuple(t.region for t in terms) for terms in operand_terms]
        if all(r == regions[0] for r in regions):
            universe = universe or RegionAtom("U", Universe())
            shared = GeneralisedPartition("shared", universe, regions[0], assumed=True)
            refinement = Refinement.trivial(shared)
        elif universe is None:
            raise ContractError(
                "pointwise_star needs a universe atom to build the canonical refinement"
            )
        else:
            refinement = common_strict_refinement([
                GeneralisedPartition(f"operand {k}", universe, r, assumed=True)
                for k, r in enumerate(regions, start=1)
            ])

    count = len(refinement.partitions)
    if count not in (1, len(operands)):
        raise RefinementError(
            f"{len(operands)} operands but the refinement has {count} partitions"
        )
    rows = []  # (term, its rewrite row over the new pieces)
    for k, terms in enumerate(operand_terms):
        p = k if count > 1 else 0
        assignment = _match_terms(terms, refinement.partitions[p].pieces, f"operand {k + 1}")
        rows.extend((t, refinement.coefficients[p][i]) for t, i in zip(terms, assignment))

    out_terms = []
    for j, piece in enumerate(refinement.pieces):
        w = FreeWord(
            (a, checked_mul(row[j], e)) for t, row in rows if row[j] for a, e in t.word.items()
        )
        if w.is_empty:
            raise ContractError(
                f"value word for refinement piece {refinement.labels[j]} cancelled away"
            )
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
    with the region's own multiplicity, and vanishes off the region."""
    if not star.has_inverse or star.unit is None or star.apply is None:
        raise ContractError(f"star {star.name!r} has no declared inverse and unit")
    items = f.word.items()
    if len(items) != 1 or items[0][1] != 1:
        raise ContractError("inverse check expects a single-atom term")
    base = items[0][0]
    mirrored = FunctionAtom(
        f"~{base.name}", func=lambda p, v: star.invert(base.value(p, v))
    )
    expr = marked_join(
        star, [HybridTerm(f.word.mul(FreeWord.from_atom(mirrored)), f.region)]
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


@dataclass(frozen=True)
class KarrSum:
    """A half-open signed sum over integers: bounds may be parameters."""

    lower: Union[int, str, Fraction]
    upper: Union[int, str, Fraction]
    summand: FunctionAtom


def summation_bound(value, valuation) -> int:
    """A summation bound, resolved through the valuation; it must be an integer."""
    resolved = resolve_param(value if isinstance(value, str) else Fraction(value), valuation)
    if resolved.denominator != 1:
        raise ContractError(f"summation bound {resolved} is not an integer")
    return int(resolved)


def karr_sum(s: KarrSum, valuation: Optional[Valuation] = None) -> Fraction:
    """Sum over lower <= i < upper, with the reversed-bounds convention
    that swapping the bounds negates the sum."""
    lo = summation_bound(s.lower, valuation)
    hi = summation_bound(s.upper, valuation)
    sign = 1
    if lo > hi:
        lo, hi, sign = hi, lo, -1
    total = Fraction(0)
    for i in range(lo, hi):
        total += s.summand.value(Fraction(i), valuation)
    return sign * total


def karr_split_check(
    f: FunctionAtom,
    lower: int,
    mid: int,
    upper: int,
    valuation: Optional[Valuation] = None,
) -> CheckReport:
    """Verify the split and telescoping identities for arbitrary bound order."""
    report = CheckReport(f"signed-sum identities for {f.name!r}")

    whole = karr_sum(KarrSum(lower, upper, f), valuation)
    left = karr_sum(KarrSum(lower, mid, f), valuation)
    right = karr_sum(KarrSum(mid, upper, f), valuation)
    report.checked += 1
    if whole != left + right:
        report.record(
            f"split ({lower},{mid},{upper}): {whole} != {left} + {right}"
        )

    step = FunctionAtom(
        f"{f.name}'", func=lambda x, v: f.value(x + 1, v) - f.value(x, v)
    )
    tele = karr_sum(KarrSum(mid, upper, step), valuation)
    direct = f.value(Fraction(summation_bound(upper, valuation)), valuation) - f.value(
        Fraction(summation_bound(mid, valuation)), valuation
    )
    report.checked += 1
    if tele != direct:
        report.record(f"telescoping ({mid},{upper}): {tele} != {direct}")
    return report


@dataclass(frozen=True)
class LinearOperatorSpec:
    """A declared linear operator acting on sampled values."""

    name: str
    combine: Callable[[Sequence[Fraction]], Fraction] = field(compare=False)


def linearity_report(spec: LinearOperatorSpec) -> CheckReport:
    """Probe additivity and scaling on seeded random value vectors."""
    rng = random.Random(20240915)
    report = CheckReport(f"linearity of {spec.name!r}")
    for _ in range(5):
        n = rng.randint(1, 8)
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        c = Fraction(rng.randint(-5, 5))
        report.checked += 2
        if spec.combine([x + y for x, y in zip(a, b)]) != spec.combine(a) + spec.combine(b):
            report.record(f"additivity fails on vectors of length {n}")
        if spec.combine([c * x for x in a]) != c * spec.combine(a):
            report.record(f"scaling by {c} fails on a vector of length {n}")
    return report


_OPERATORS: dict = {}


def register_linear_operator(spec: LinearOperatorSpec) -> LinearOperatorSpec:
    report = linearity_report(spec)
    if not report.passed:
        raise ContractError(
            f"operator {spec.name!r} failed the linearity self-test: "
            + "; ".join(report.violations)
        )
    _OPERATORS[spec.name] = spec
    return spec


def linear_operator(name: str) -> LinearOperatorSpec:
    try:
        return _OPERATORS[name]
    except KeyError:
        raise ContractError(f"linear operator {name!r} is not declared") from None


SUMMATION = register_linear_operator(
    LinearOperatorSpec("sum", lambda values: sum(values, Fraction(0)))
)


def apply_linear(
    op: Union[LinearOperatorSpec, str],
    f: HybridTerm,
    valuation: Optional[Valuation],
    sample: Iterable[Point],
) -> Fraction:
    """Apply a declared linear operator to a region-weighted function:
    the operand at x is multiplicity(region, x) * f(x)."""
    if isinstance(op, str):
        op = linear_operator(op)
    elif op.name not in _OPERATORS:
        raise ContractError(f"linear operator {op.name!r} is not declared")
    items = f.word.items()
    if len(items) != 1 or items[0][1] != 1:
        raise ContractError("apply_linear expects a single-atom term")
    base = items[0][0]
    values = [
        Fraction(m) * base.value(p, valuation)
        for p, (m,) in multiplicities_many((f.region,), sample, valuation)
    ]
    return op.combine(values)
