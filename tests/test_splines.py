"""Spline merging with symbolically ordered knots."""

from fractions import Fraction

import pytest

from hybridsets import (
    ContractError,
    Interval1D,
    MERGE,
    NonEvaluableError,
    PLUS,
    SegmentAtom,
    SegmentMerge,
    SymbolicHybridSet,
    SymbolicSpline,
    Valuation,
    atom,
    marked_join,
    spline_eval_region,
    spline_merge,
    spline_merge_with_refinement,
    term,
    word,
)

F = Fraction

S = SymbolicSpline.build("S", ("a", "c", "b"))
T = SymbolicSpline.build("T", ("a", "d", "b"))

V_CD = Valuation.parse("a=0, c=1, d=2, b=3")  # S splits first
V_DC = Valuation.parse("a=0, d=1, c=2, b=3")  # T splits first


class TestSplineConstruction:
    def test_segments_and_pieces_are_named_by_their_knots(self):
        assert [s.name for s in S.segments] == ["S[a,c]", "S[c,b]"]
        assert [r.name for r in S.piece_regions] == ["S.P1", "S.P2"]
        assert S.piece_regions[0].shape == Interval1D("a", "c")
        assert S.universe_atom().name == "U[a,b]"

    def test_segment_knot_intervals_resolve(self):
        lo, hi = S.segments[0].knot_interval(V_CD)
        assert (lo, hi) == (0, 1)
        merged = SegmentMerge(S.segments[0], T.segments[1])
        assert merged.knot_interval(V_CD) == (2, 1)
        assert merged.is_empty(V_CD)
        assert not merged.is_empty(V_DC)

    def test_two_knots_minimum(self):
        with pytest.raises(ContractError):
            SymbolicSpline.build("S", ("a",))

    def test_closed_pieces_double_count_interior_knots(self):
        # the partition only holds away from the knots; the merge expression
        # compensates through the leftover piece, so this stays assumed
        part = S.partition()
        interior = [F(1, 2), F(3, 2), F(5, 2)]
        assert part.validate_by_sampling(V_CD, interior) == []
        at_knot = part.validate_by_sampling(V_CD, [F(1)])
        assert at_knot == ["at 1: pieces sum to 2, universe gives 1"]


class TestMergeStructure:
    def test_one_term_per_refinement_piece_kept_pieces_first(self):
        e, refinement = spline_merge_with_refinement(S, T)
        assert refinement.size == 3
        assert e.render() == (
            "(S[a,c] ⋈ T[d,b])^{S.P1}"
            " ⊛⋈ (S[c,b] ⋈ T[a,d])^{T.P1}"
            " ⊛⋈ (S[c,b] ⋈ T[d,b])^{U[a,b] - S.P1 - T.P1}"
        )

    def test_rewrites_follow_the_reordering(self):
        _, refinement = spline_merge_with_refinement(S, T)
        # S.P2 = T.P1 + leftover, T.P2 = S.P1 + leftover
        assert refinement.coefficients[0] == ((1, 0, 0), (0, 1, 1))
        assert refinement.coefficients[1] == ((0, 1, 0), (1, 0, 1))

    def test_mismatched_spans_are_rejected(self):
        w = SymbolicSpline.build("W", ("a", "c", "e"))
        with pytest.raises(ContractError):
            spline_merge(S, w)


class TestMergeEvaluation:
    @pytest.mark.parametrize(
        "x, expect",
        [
            (F(1, 2), "S[a,c] ⋈ T[a,d] on [0, 1]"),
            (F(3, 2), "S[c,b] ⋈ T[a,d] on [1, 2]"),
            (F(5, 2), "S[c,b] ⋈ T[d,b] on [2, 3]"),
        ],
    )
    def test_three_intervals_when_s_splits_first(self, x, expect):
        e = spline_merge(S, T)
        desc = spline_eval_region(e, x, V_CD)
        assert desc.render() == expect
        assert desc.multiplicity == 1
        assert not (desc.residual or desc.empty or desc.degenerate)

    @pytest.mark.parametrize(
        "x, expect",
        [
            (F(1, 2), "S[a,c] ⋈ T[a,d] on [0, 1]"),
            (F(3, 2), "S[a,c] ⋈ T[d,b] on [1, 2]"),
            (F(5, 2), "S[c,b] ⋈ T[d,b] on [2, 3]"),
        ],
    )
    def test_mirrored_ordering_flips_the_middle_pair(self, x, expect):
        e = spline_merge(S, T)
        desc = spline_eval_region(e, x, V_DC)
        assert desc.render() == expect
        assert not (desc.residual or desc.empty or desc.degenerate)

    def test_knots_resolve_to_the_left_segment(self):
        e = spline_merge(S, T)
        assert spline_eval_region(e, 1, V_CD).render() == "S[a,c] ⋈ T[a,d] on [0, 1]"
        assert spline_eval_region(e, 2, V_CD).render() == "S[c,b] ⋈ T[a,d] on [1, 2]"

    def test_endpoints_belong_to_the_outer_pieces(self):
        e = spline_merge(S, T)
        assert spline_eval_region(e, 0, V_CD).render() == "S[a,c] ⋈ T[a,d] on [0, 1]"
        assert spline_eval_region(e, 3, V_CD).render() == "S[c,b] ⋈ T[d,b] on [2, 3]"

    def test_outside_the_span_is_undefined(self):
        e = spline_merge(S, T)
        assert not spline_eval_region(e, -1, V_CD).defined
        assert spline_eval_region(e, 4, V_CD).render() == "undefined"

    def test_coincident_interior_knots_collapse_cleanly(self):
        e = spline_merge(S, T)
        same = Valuation.parse("a=0, c=1, d=1, b=3")
        assert spline_eval_region(e, F(1, 2), same).render() == "S[a,c] ⋈ T[a,d] on [0, 1]"
        assert spline_eval_region(e, 2, same).render() == "S[c,b] ⋈ T[d,b] on [1, 3]"

    def test_identically_knotted_splines_merge_segmentwise(self):
        s2 = SymbolicSpline.build("S2", ("a", "c", "b"))
        e = spline_merge(S, s2)
        assert spline_eval_region(e, F(1, 2), V_CD).render() == "S[a,c] ⋈ S2[a,c] on [0, 1]"
        assert spline_eval_region(e, F(2), V_CD).render() == "S[c,b] ⋈ S2[c,b] on [1, 3]"

    def test_literal_self_merge_squares_a_segment(self):
        # S merged with itself leaves S[c,b]^2 on the leftover piece, and the
        # formal merge operation has no inverse to reduce it with
        e = spline_merge(S, S)
        assert "(S[c,b]^2)" in e.render()
        with pytest.raises(NonEvaluableError):
            spline_eval_region(e, F(1, 2), V_CD)


class TestRegionValueFlags:
    whole = SymbolicHybridSet.from_atom(S.universe_atom())

    def test_surviving_empty_intersection_is_flagged(self):
        e = marked_join(MERGE, [term(word(S.segments[0], T.segments[1]), self.whole)])
        desc = spline_eval_region(e, F(1, 2), V_CD)
        assert desc.empty
        assert desc.render() == "S[a,c] ⋈ T[d,b] on [2, 1] (empty-intersection)"

    def test_single_point_intersection_is_degenerate(self):
        v = Valuation.parse("a=0, c=1, d=1, b=3")
        e = marked_join(MERGE, [term(word(S.segments[0], T.segments[1]), self.whole)])
        desc = spline_eval_region(e, F(1, 2), v)
        assert desc.degenerate and not desc.empty
        assert desc.render() == "S[a,c] ⋈ T[d,b] on [1, 1] (degenerate)"

    def test_non_segment_atoms_are_residual(self):
        stray = atom("q")
        e = marked_join(MERGE, [term(word(S.segments[0], stray), self.whole)])
        desc = spline_eval_region(e, F(1, 2), V_CD)
        assert desc.residual
        assert desc.interval == (F(0), F(1))
        assert "residual" in desc.render()

    def test_multiplicity_is_reported_when_not_one(self):
        e = marked_join(
            MERGE,
            [
                term(word(S.segments[0]), self.whole),
                term(word(T.segments[0]), self.whole),
            ],
        )
        desc = spline_eval_region(e, F(1, 2), V_CD)
        assert desc.multiplicity == 2
        assert desc.render().endswith("[multiplicity 2]")

    def test_scalar_results_are_a_contract_violation(self):
        bodied = atom("p", "x")
        e = marked_join(PLUS, [term(bodied, self.whole)])
        with pytest.raises(ContractError):
            spline_eval_region(e, F(1, 2), V_CD)
