"""Merging symbolic splines whose knots cannot be ordered in advance.

Each spline is a chain of opaque segments between consecutive knots.  The
merge of two splines is expressed over the minimal common refinement of
their knot partitions; at any concrete point the free-group cancellation
leaves exactly one merged segment pair, whose interval is the intersection
of the two segments' knot intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Optional, Tuple, Union

from .calculus import pointwise_star
from .errors import ContractError
from .functions import (
    FormalValue,
    FreeWord,
    FunctionAtom,
    HybridExpr,
    MERGE,
    UNDEFINED,
    evaluate,
    join,
    term,
)
from .refine import Refinement, GeneralisedPartition, common_strict_refinement
from .regions import (
    Interval1D,
    Param,
    RegionAtom,
    SymbolicHybridSet,
    Valuation,
    as_fraction,
    render_param,
    resolve_param,
)


@dataclass(frozen=True)
class SegmentAtom(FunctionAtom):
    """Opaque spline segment; its identity is the pair of knots it spans."""

    lo: Optional[Param] = None
    hi: Optional[Param] = None

    def knot_interval(self, valuation: Optional[Valuation]) -> Tuple[Fraction, Fraction]:
        return resolve_param(self.lo, valuation), resolve_param(self.hi, valuation)


@dataclass(frozen=True)
class SegmentMerge:
    """A pairwise merge: the result spans the intersection of the operands.
    Either operand may itself be a merge, so ``reduce`` merges many."""

    left: Union[SegmentAtom, "SegmentMerge"]
    right: Union[SegmentAtom, "SegmentMerge"]

    def knot_interval(self, valuation: Optional[Valuation]) -> Tuple[Fraction, Fraction]:
        l_lo, l_hi = self.left.knot_interval(valuation)
        r_lo, r_hi = self.right.knot_interval(valuation)
        return max(l_lo, r_lo), min(l_hi, r_hi)

    def is_empty(self, valuation: Optional[Valuation]) -> bool:
        lo, hi = self.knot_interval(valuation)
        return lo > hi


@dataclass(frozen=True)
class SymbolicSpline:
    name: str
    knots: Tuple[Param, ...]
    segments: Tuple[SegmentAtom, ...]
    piece_regions: Tuple[RegionAtom, ...]

    @classmethod
    def build(cls, name: str, knots) -> "SymbolicSpline":
        knots = tuple(knots)
        if len(knots) < 2:
            raise ContractError("a spline needs at least two knots")
        segments = []
        pieces = []
        for i in range(len(knots) - 1):
            lo, hi = knots[i], knots[i + 1]
            segments.append(
                SegmentAtom(
                    f"{name}[{render_param(lo)},{render_param(hi)}]", lo=lo, hi=hi
                )
            )
            pieces.append(RegionAtom(f"{name}.P{i + 1}", Interval1D(lo, hi)))
        return cls(name, knots, tuple(segments), tuple(pieces))

    def universe_atom(self) -> RegionAtom:
        lo, hi = self.knots[0], self.knots[-1]
        return RegionAtom(
            f"U[{render_param(lo)},{render_param(hi)}]", Interval1D(lo, hi)
        )

    def partition(self) -> GeneralisedPartition:
        # Closed pieces double-count interior knots, so the partition is
        # declared assumed; interior cancellation keeps evaluation right.
        return GeneralisedPartition(
            self.name,
            self.universe_atom(),
            tuple(SymbolicHybridSet.from_atom(r) for r in self.piece_regions),
            labels=tuple(f"P{i + 1}" for i in range(len(self.piece_regions))),
            assumed=True,
        )

    def expr(self) -> HybridExpr:
        return join(
            *(
                term(seg, SymbolicHybridSet.from_atom(region))
                for seg, region in zip(self.segments, self.piece_regions)
            )
        )


def spline_merge(s: SymbolicSpline, t: SymbolicSpline) -> HybridExpr:
    expr, _ = spline_merge_with_refinement(s, t)
    return expr


def spline_merge_with_refinement(
    s: SymbolicSpline, t: SymbolicSpline
) -> Tuple[HybridExpr, Refinement]:
    """Merge two splines over one interval: one term per refinement piece,
    with the kept pieces of each spline first and the leftover region last."""
    if s.universe_atom() != t.universe_atom():
        raise ContractError(
            f"splines {s.name!r} and {t.name!r} span different intervals"
        )
    refinement = common_strict_refinement([s.partition(), t.partition()])
    # canonical order puts the leftover piece first; present it last
    order = list(range(1, refinement.size)) + [0]
    refinement = refinement.reordered(order)
    expr = pointwise_star(MERGE, s.expr(), t.expr(), refinement=refinement)
    return expr, refinement


@dataclass(frozen=True)
class SplineRegionValue:
    """What survives at one point of a merge expression."""

    defined: bool
    segments: Optional[FreeWord] = None
    interval: Optional[Tuple[Fraction, Fraction]] = None
    multiplicity: int = 0
    residual: bool = False  # non-segment atoms or exponents other than 1
    empty: bool = False  # surviving interval has lo > hi
    degenerate: bool = False  # interval collapsed to a single knot

    def render(self) -> str:
        if not self.defined:
            return "undefined"
        text = FormalValue(self.segments, MERGE).render()
        if self.interval is not None:
            text += f" on [{self.interval[0]}, {self.interval[1]}]"
        notes = [
            note
            for flag, note in [
                (self.residual, "residual"),
                (self.empty, "empty-intersection"),
                (self.degenerate, "degenerate"),
            ]
            if flag
        ]
        if notes:
            text += " (" + ", ".join(notes) + ")"
        if self.multiplicity != 1:
            text += f" [multiplicity {self.multiplicity}]"
        return text

    def __str__(self):
        return self.render()


def spline_eval_region(
    e: HybridExpr, x, valuation: Optional[Valuation]
) -> SplineRegionValue:
    """Evaluate a merge at a point: the surviving segment atoms and the
    intersection of their knot intervals.  An empty intersection that
    survives reduction is flagged, never silently dropped."""
    out = evaluate(e, as_fraction(x, "a spline point"), valuation)
    if out is UNDEFINED:
        return SplineRegionValue(defined=False)
    value = out.value
    if not isinstance(value, FormalValue):
        raise ContractError(f"merge evaluation produced a scalar {value!r}")
    items = value.combination.items()
    segments = [a for a, k in items if isinstance(a, SegmentAtom) and k == 1]
    interval = reduce(SegmentMerge, segments).knot_interval(valuation) if segments else None
    return SplineRegionValue(
        defined=True,
        segments=value.combination,
        interval=interval,
        multiplicity=out.multiplicity,
        residual=len(segments) < len(items),
        empty=interval is not None and interval[0] > interval[1],
        degenerate=interval is not None and interval[0] == interval[1],
    )
