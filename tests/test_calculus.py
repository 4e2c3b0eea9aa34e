"""Pointwise arithmetic over refinements, signed sums, linear operators."""

import operator
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hybridsets import (
    ChoiceMatrix,
    CheckReport,
    ContractError,
    Defined,
    FunctionAtom,
    GeneralisedPartition,
    GridRect,
    Interval1D,
    KarrSum,
    STYLE_ONES_TOP,
    MERGE,
    PLUS,
    RefinementError,
    RegionAtom,
    STYLE_UPPER_TRIANGLE,
    StarOp,
    SymbolicHybridSet,
    TIMES,
    UNDEFINED,
    Valuation,
    ValuationError,
    apply_linear,
    atom,
    common_strict_refinement,
    constant_atom,
    evaluate,
    is_strict,
    join,
    karr_split_check,
    karr_sum,
    linear_operator,
    linearity_report,
    marked_join,
    pointwise_star,
    rational_grid,
    register_linear_operator,
    star_inverse_identity_check,
    term,
    verify_rewrite,
    word,
)
from hybridsets import regions
from hybridsets.calculus import LinearOperatorSpec
from hybridsets.regions import resolve_param

F = Fraction

U_ATOM = RegionAtom("U", Interval1D(F(0), F(1), hi_closed=False))
U = SymbolicHybridSet.from_atom(U_ATOM)
A1 = SymbolicHybridSet.from_atom(
    RegionAtom("A1", Interval1D(F(0), "a", hi_closed=False))
)
B1 = SymbolicHybridSet.from_atom(
    RegionAtom("B1", Interval1D(F(0), "b", hi_closed=False))
)

f1 = constant_atom("f1", 2)
f2 = constant_atom("f2", 0)
g1 = constant_atom("g1", 5)
g2 = constant_atom("g2", 7)

F_EXPR = join(term(f1, A1), term(f2, U - A1))
G_EXPR = join(term(g1, B1), term(g2, U - B1))

PRODUCT_MATRIX = ChoiceMatrix(
    ((1, 1, 1), (1, 0, 0), (1, 1, 0)),
    ("U", "F.1", "G.1"),
    ("P1", "P2", "P3"),
)


def product_refinement():
    p = GeneralisedPartition("F", U_ATOM, (A1, U - A1))
    q = GeneralisedPartition("G", U_ATOM, (B1, U - B1))
    return common_strict_refinement([p, q], choice=PRODUCT_MATRIX)


def classical_product(x, a, b):
    if not 0 <= x < 1:
        return None
    fv = F(2) if x < a else F(0)
    gv = F(5) if x < b else F(7)
    return fv * gv


ORDERINGS = [
    {"a": F(1, 3), "b": F(2, 3)},   # a < b
    {"a": F(2, 3), "b": F(1, 3)},   # a > b
    {"a": F(1, 2), "b": F(1, 2)},   # a = b
    {"a": F(3, 2), "b": F(1, 2)},   # a beyond the interval
    {"a": F(1, 4), "b": F(5, 4)},   # b beyond the interval
]


class TestPointwiseStar:
    def test_product_of_two_step_functions_has_one_term_per_piece(self):
        e = pointwise_star(TIMES, F_EXPR, G_EXPR, refinement=product_refinement())
        assert e.star is TIMES
        assert len(e.terms) == 3
        assert [t.word for t in e.terms] == [
            word(f1, g1),
            word(f2, g1),
            word(f2, g2),
        ]
        assert [t.region for t in e.terms] == [A1, B1 - A1, U - B1]
        assert e.render() == (
            "(f1 * g1)^{A1} ⊛* (f2 * g1)^{B1 - A1} ⊛* (f2 * g2)^{U - B1}"
        )

    def test_term_values_instantiate_to_ten_zero_zero(self):
        e = pointwise_star(TIMES, F_EXPR, G_EXPR, refinement=product_refinement())
        values = [
            [a.value(F(0)) for a, _ in t.word.items()] for t in e.terms
        ]
        assert values == [[2, 5], [0, 5], [0, 7]]

    @pytest.mark.parametrize("params", ORDERINGS)
    def test_product_evaluates_classically_for_every_ordering(self, params):
        e = pointwise_star(TIMES, F_EXPR, G_EXPR, refinement=product_refinement())
        v = Valuation(params)
        for x in rational_grid(F(-1, 4), F(5, 4), 40):
            expect = classical_product(x, params["a"], params["b"])
            got = evaluate(e, x, v)
            if expect is None:
                assert got is UNDEFINED
            else:
                assert got == Defined(expect)

    def test_canonical_refinement_is_built_when_none_is_given(self):
        e = pointwise_star(TIMES, F_EXPR, G_EXPR, universe=U_ATOM)
        assert len(e.terms) == 3
        assert [t.region for t in e.terms] == [U - A1 - B1, A1, B1]
        v = Valuation(ORDERINGS[0])
        for x in rational_grid(0, 1, 30):
            expect = classical_product(x, v.resolve("a"), v.resolve("b"))
            assert evaluate(e, x, v) == Defined(expect)

    def test_shared_partition_combines_piece_by_piece(self):
        h1 = constant_atom("h1", 3)
        h2 = constant_atom("h2", 4)
        other = join(term(h1, A1), term(h2, U - A1))
        e = pointwise_star(PLUS, F_EXPR, other)
        assert len(e.terms) == 2
        assert [t.word for t in e.terms] == [word(f1, h1), word(f2, h2)]
        v = Valuation({"a": F(1, 2)})
        assert evaluate(e, F(1, 4), v) == Defined(F(5))
        assert evaluate(e, F(3, 4), v) == Defined(F(4))

    def test_duplicate_regions_each_take_one_piece(self):
        h1, h2, h3 = (constant_atom(f"h{i}", i) for i in range(1, 4))
        left = join(term(f1, A1), term(f2, A1), term(g1, U - A1 - A1))
        right = join(term(h1, A1), term(h2, A1), term(h3, U - A1 - A1))
        e = pointwise_star(PLUS, left, right)
        assert [t.word for t in e.terms] == [word(f1, h1), word(f2, h2), word(g1, h3)]
        assert [t.region for t in e.terms] == [A1, A1, U - A1 - A1]

    def test_three_operands_over_a_shared_partition(self):
        h1 = constant_atom("h1", 3)
        h2 = constant_atom("h2", 4)
        other = join(term(h1, A1), term(h2, U - A1))
        e = pointwise_star(PLUS, F_EXPR, other, F_EXPR)
        assert [t.word for t in e.terms] == [word((f1, 2), h1), word((f2, 2), h2)]
        assert [t.region for t in e.terms] == [A1, U - A1]
        v = Valuation({"a": F(1, 2)})
        assert evaluate(e, F(1, 4), v) == Defined(F(7))
        assert evaluate(e, F(3, 4), v) == Defined(F(4))

    def test_operand_count_must_match_the_refinement(self):
        p = GeneralisedPartition("F", U_ATOM, (A1, U - A1))
        q = GeneralisedPartition("G", U_ATOM, (B1, U - B1))
        three = common_strict_refinement([p, q, p])
        with pytest.raises(RefinementError):
            pointwise_star(TIMES, F_EXPR, G_EXPR, refinement=three)
        with pytest.raises(ContractError):
            pointwise_star(TIMES)

    def test_an_atom_that_cancels_and_returns_is_listed_last(self):
        # In piece A2 - B1 the x of left piece 1 cancels against the
        # inverted left piece 3 and comes back with right piece 3.
        def below(name, param):
            return SymbolicHybridSet.from_atom(
                RegionAtom(name, Interval1D(F(0), param, hi_closed=False))
            )

        a2, b2 = below("A2", "c"), below("B2", "d")
        x, y, z, w = (constant_atom(n, i) for i, n in enumerate("xyzw", start=1))
        left = join(term(x, A1), term(y, a2), term(word(x, w), U - A1 - a2))
        right = join(term(z, B1), term(w, b2), term(word(x, z), U - B1 - b2))
        parts = [
            GeneralisedPartition(name, U_ATOM, tuple(t.region for t in op.terms), assumed=True)
            for name, op in (("L", left), ("R", right))
        ]
        refinement = common_strict_refinement(parts, style=STYLE_UPPER_TRIANGLE)
        e = pointwise_star(PLUS, left, right, refinement=refinement)
        assert e.render() == (
            "(x^2 + w + z)^{U - A1} ⊛+ (x^2 + z)^{A1 - A2} "
            "⊛+ (y + w^-1 + x + z)^{A2 - B1} ⊛+ (y + w^-1 + z)^{B1 - B2} "
            "⊛+ (y + x^-1)^{B2}"
        )

    def test_needs_a_universe_to_refine_mismatched_partitions(self):
        with pytest.raises(ContractError):
            pointwise_star(TIMES, F_EXPR, G_EXPR)

    def test_rejects_non_ac_stars(self):
        lopsided = StarOp("-", apply=lambda a, b: a - b, is_ac=False)
        with pytest.raises(ContractError):
            pointwise_star(lopsided, F_EXPR, F_EXPR)

    def test_terms_must_match_partition_pieces(self):
        stray = join(term(f1, A1), term(f2, U - B1))
        with pytest.raises(RefinementError):
            pointwise_star(TIMES, stray, G_EXPR, refinement=product_refinement())
        short = join(term(f1, A1))
        with pytest.raises(RefinementError):
            pointwise_star(TIMES, short, G_EXPR, refinement=product_refinement())


class TestInverseIdentity:
    grid = rational_grid(F(-1, 2), F(3, 2), 41, include_hi=True)

    def test_additive_inverse_collapses_to_zero(self):
        f = atom("f", "2*x + 1")
        a = SymbolicHybridSet.from_atom(
            RegionAtom("A", Interval1D(F(0), F(1), hi_closed=False))
        )
        report = star_inverse_identity_check(PLUS, term(f, a), None, self.grid)
        assert report.passed
        assert report.checked == len(self.grid)
        assert report.render() == "inverse identity for 'f' under '+': OK (41 checks)"

    def test_multiplicity_two_region_doubles_the_unit(self):
        f = atom("f", "x")
        q1 = SymbolicHybridSet.from_atom(RegionAtom("Q1", Interval1D(F(0), F(4))))
        q2 = SymbolicHybridSet.from_atom(RegionAtom("Q2", Interval1D(F(2), F(6))))
        grid = rational_grid(0, 6, 25, include_hi=True)
        report = star_inverse_identity_check(PLUS, term(f, q1 + q2), None, grid)
        assert report.passed

    def test_star_without_inverse_is_rejected(self):
        f = atom("f", "x")
        a = SymbolicHybridSet.from_atom(RegionAtom("A", Interval1D(F(0), F(1))))
        with pytest.raises(ContractError):
            star_inverse_identity_check(TIMES, term(f, a), None, self.grid)
        with pytest.raises(ContractError):
            star_inverse_identity_check(MERGE, term(f, a), None, self.grid)

    def test_multi_atom_terms_are_rejected(self):
        f, g = atom("f", "x"), atom("g", "2*x")
        a = SymbolicHybridSet.from_atom(RegionAtom("A", Interval1D(F(0), F(1))))
        with pytest.raises(ContractError):
            star_inverse_identity_check(PLUS, term(word(f, g), a), None, self.grid)

    def test_a_wrong_inverse_is_caught(self):
        broken = StarOp(
            "+", apply=lambda a, b: a + b, unit=F(0), invert=lambda v: v
        )
        f = atom("f", "2*x")
        a = SymbolicHybridSet.from_atom(RegionAtom("A", Interval1D(F(1), F(2))))
        report = star_inverse_identity_check(
            broken, term(f, a), None, rational_grid(1, 2, 10)
        )
        assert not report.passed
        assert "expected 0" in report.violations[0]


class TestSignedSums:
    ident = atom("i", "x")

    def test_forward_sum(self):
        assert karr_sum(KarrSum(0, 5, self.ident)) == 10

    def test_reversed_bounds_negate(self):
        assert karr_sum(KarrSum(5, 3, self.ident)) == -7
        assert karr_sum(KarrSum(3, 5, self.ident)) == 7

    def test_empty_range(self):
        assert karr_sum(KarrSum(4, 4, self.ident)) == 0

    def test_split_holds_with_a_mid_outside_the_range(self):
        whole = karr_sum(KarrSum(0, 3, self.ident))
        left = karr_sum(KarrSum(0, 5, self.ident))
        right = karr_sum(KarrSum(5, 3, self.ident))
        assert (whole, left, right) == (3, 10, -7)
        assert whole == left + right

    def test_split_check_reports_clean(self):
        report = karr_split_check(self.ident, 0, 5, 3)
        assert report.passed
        assert report.checked == 2

    @pytest.mark.parametrize(
        "bounds",
        [(-3, 1, 4), (4, 1, -3), (1, -3, 4), (0, 0, 0), (2, 7, 2), (-5, -5, 3)],
    )
    def test_split_and_telescoping_for_any_bound_order(self, bounds):
        square = atom("sq", "x*x")
        report = karr_split_check(square, *bounds)
        assert report.passed, report.render()

    def test_parametric_bounds_resolve_through_the_valuation(self):
        s = KarrSum("l", "u", self.ident)
        v = Valuation({"l": F(2), "u": F(6)})
        assert karr_sum(s, v) == 2 + 3 + 4 + 5

    def test_fractional_bound_is_an_error(self):
        with pytest.raises(ContractError):
            karr_sum(KarrSum(F(1, 2), 3, self.ident))


class TestLinearOperators:
    def test_summation_is_registered_and_linear(self):
        assert linear_operator("sum").name == "sum"
        report = linearity_report(linear_operator("sum"))
        assert report.passed
        assert report.checked == 10

    def test_nonlinear_operator_fails_the_probe(self):
        biggest = LinearOperatorSpec("max", lambda vs: max(vs))
        report = linearity_report(biggest)
        assert not report.passed
        with pytest.raises(ContractError):
            register_linear_operator(biggest)

    def test_unknown_operator_name(self):
        with pytest.raises(ContractError):
            linear_operator("integral")
        f = atom("f", "x")
        a = SymbolicHybridSet.from_atom(RegionAtom("A", Interval1D(F(0), F(1))))
        with pytest.raises(ContractError):
            apply_linear("integral", term(f, a), None, [F(0)])

    def test_sum_of_ones_counts_the_sampled_region(self):
        one = constant_atom("one", 1)
        p = SymbolicHybridSet.from_atom(RegionAtom("P", Interval1D(F(0), F(10))))
        sample = [F(n) for n in range(-2, 13)]
        assert apply_linear("sum", term(one, p), None, sample) == 11

    def test_region_multiplicity_weights_the_values(self):
        one = constant_atom("one", 1)
        p = SymbolicHybridSet.from_atom(RegionAtom("P", Interval1D(F(0), F(10))))
        sample = [F(n) for n in range(0, 11)]
        assert apply_linear("sum", term(one, 3 * p), None, sample) == 33

    def test_multi_atom_terms_are_rejected(self):
        f, g = atom("f", "x"), atom("g", "2*x")
        p = SymbolicHybridSet.from_atom(RegionAtom("P", Interval1D(F(0), F(1))))
        with pytest.raises(ContractError):
            apply_linear("sum", term(word(f, g), p), None, [F(0)])


# --- sampled checks against a per-point reference ----------------------
#
# verify_rewrite, is_strict, star_inverse_identity_check and apply_linear
# read their sample through one table pass.  The references below ask
# SymbolicHybridSet.multiplicity and evaluate one point at a time, in the
# order each check hands its regions to the table, so any error they meet
# first is the one the check must raise.

PARAMS = ("a", "b", "c")
LEVELS = (F(0), F(1, 2), F(1), F(3, 2))  # breakpoints tie with each other and with samples
# Grid rectangles read their endpoints only at integer pairs, and intervals
# only at scalars, so a missing parameter can fail at a later point alone.
SAMPLE_POINTS = (
    F(-1, 2), F(0), F(1, 4), F(1, 2), F(1), F(3, 2), (F(1, 2),), (F(0), F(1)), (F(1), F(1, 2))
)
SAMPLED_U = RegionAtom("U", Interval1D(F(0), F(1)))
BODIES = ("2", "a + 1", "x", "1 / x")  # x fails at a pair, 1 / x at 0
RECIPROCAL = StarOp("×", apply=operator.mul, unit=F(1), invert=lambda v: 1 / v)
OFF_BY_ONE = StarOp("+1", apply=operator.add, unit=F(0), invert=lambda v: 1 - v)


def _reference_rows_hold(holds, refined, original, rewrite, valuation, sample):
    n = len(refined)
    for p in sample:
        ms = [r.multiplicity(p, valuation) for r in (*refined, *original.pieces)]
        for i, row in enumerate(rewrite):
            if not holds(row, ms[:n], ms[n + i]):
                return False
    return True


def _reference_verify_rewrite(*args):
    return _reference_rows_hold(
        lambda row, ms, m: sum(c * x for c, x in zip(row, ms)) == m, *args
    )


def _reference_is_strict(*args):
    return _reference_rows_hold(
        lambda row, ms, m: any(x != 0 for c, x in zip(row, ms) if c) == (m != 0), *args
    )


def _reference_inverse_check(star, f, valuation, sample):
    base = f.word.items()[0][0]
    mirrored = FunctionAtom(f"~{base.name}", func=lambda p, v: star.invert(base.value(p, v)))
    expr = marked_join(star, [term(word(base, mirrored), f.region)])
    report = CheckReport(f"inverse identity for {base.name!r} under {star.name!r}")
    for p in sample:
        report.checked += 1
        m = f.region.multiplicity(p, valuation)
        out = evaluate(expr, p, valuation)
        if m == 0:
            if out is not UNDEFINED:
                report.record(f"at {p}: expected undefined, got {out}")
        elif out is UNDEFINED:
            report.record(f"at {p}: expected unit with multiplicity {m}")
        elif out.value != star.unit or out.multiplicity != m:
            report.record(
                f"at {p}: expected {star.unit} with multiplicity {m}, "
                f"got {out.value} with multiplicity {out.multiplicity}"
            )
    return report


def _reference_apply_linear(name, f, valuation, sample):
    base = f.word.items()[0][0]
    values = [F(f.region.multiplicity(p, valuation)) * base.value(p, valuation) for p in sample]
    return linear_operator(name).combine(values)


def _outcome(check, *args):
    """What a check returns, or the type and message of what it raises."""
    try:
        result = check(*args)
    except Exception as e:
        return type(e), str(e)
    return result.render() if isinstance(result, CheckReport) else result


_ENDPOINTS = st.sampled_from(PARAMS + LEVELS)
shapes = st.one_of(
    st.builds(Interval1D, _ENDPOINTS, _ENDPOINTS, st.booleans(), st.booleans()),
    st.builds(GridRect, _ENDPOINTS, _ENDPOINTS, _ENDPOINTS, _ENDPOINTS),
)


@st.composite
def sampled_cases(draw):
    """Two or three partitions of U into signed multiples of intervals and
    grid rectangles with symbolic endpoints, their refinement, a valuation
    that may miss one or two parameters, and a sample."""
    parts = []
    for k in range(draw(st.integers(2, 3))):
        kept = [
            SymbolicHybridSet.from_atom(
                RegionAtom(f"A{k}{i}", draw(shapes)), draw(st.sampled_from((1, -1, 2)))
            )
            for i in range(draw(st.integers(0, 2)))
        ]
        rest = SymbolicHybridSet.combine([(SymbolicHybridSet.from_atom(SAMPLED_U), 1)]
                                         + [(piece, -1) for piece in kept])
        parts.append(GeneralisedPartition(f"P{k}", SAMPLED_U, (*kept, rest)))
    style = draw(st.sampled_from((STYLE_ONES_TOP, STYLE_UPPER_TRIANGLE)))
    refinement = common_strict_refinement(parts, style=style)
    values = {p: draw(st.sampled_from(LEVELS)) for p in PARAMS}
    for name in draw(st.sets(st.sampled_from(PARAMS), max_size=2)):
        del values[name]
    points = draw(st.lists(st.sampled_from(SAMPLE_POINTS), min_size=1, max_size=8))
    return refinement, Valuation(values), points


class TestSampledChecks:
    @seed(2010)
    @settings(max_examples=200, deadline=None)
    @given(sampled_cases(), st.data())
    def test_rewrite_checks_agree_with_the_per_point_reference(self, case, data):
        r, v, points = case
        k = data.draw(st.integers(0, len(r.partitions) - 1))
        rows = [list(row) for row in r.coefficients[k]]
        if data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(rows) - 1))
            j = data.draw(st.integers(0, r.size - 1))
            rows[i][j] += data.draw(st.sampled_from((-1, 1)))
        args = (r.pieces, r.partitions[k], rows, v)
        one_shot = data.draw(st.booleans())
        for check, reference in (
            (verify_rewrite, _reference_verify_rewrite),
            (is_strict, _reference_is_strict),
        ):
            sample = iter(points) if one_shot else points
            assert _outcome(check, *args, sample) == _outcome(reference, *args, points)

    @seed(2010)
    @settings(max_examples=200, deadline=None)
    @given(sampled_cases(), st.data())
    def test_term_checks_agree_with_the_per_point_reference(self, case, data):
        r, v, points = case
        region = data.draw(st.sampled_from(r.pieces + r.partitions[0].pieces))
        region = region.scale(data.draw(st.sampled_from((1, -1, 2))))
        f = term(atom("f", data.draw(st.sampled_from(BODIES))), region)
        star = data.draw(st.sampled_from((PLUS, RECIPROCAL, OFF_BY_ONE)))
        one_shot = data.draw(st.booleans())
        sample = iter(points) if one_shot else points
        assert _outcome(star_inverse_identity_check, star, f, v, sample) == _outcome(
            _reference_inverse_check, star, f, v, points
        )
        sample = iter(points) if one_shot else points
        assert _outcome(apply_linear, "sum", f, v, sample) == _outcome(
            _reference_apply_linear, "sum", f, v, points
        )

    def test_the_first_error_in_point_then_region_order_is_raised(self):
        # the refined pieces go to the table before the original ones, and a
        # region's multiplicity before the value of the term's atom
        ua = SymbolicHybridSet.from_atom(RegionAtom("UA", Interval1D(F(0), "a")))
        ub = SymbolicHybridSet.from_atom(RegionAtom("UB", Interval1D(F(0), "b")))
        part = GeneralisedPartition("P", SAMPLED_U, (ub,), assumed=True)
        no_value = Valuation({"c": F(1)})
        for check in (verify_rewrite, is_strict, _reference_verify_rewrite):
            with pytest.raises(ValuationError, match="'a' has no value"):
                check((ua,), part, [(1,)], no_value, [F(1, 2)])
        f = term(atom("f", "b + 1"), ua)
        for check in (apply_linear, _reference_apply_linear):
            with pytest.raises(ValuationError, match="'a' has no value"):
                check("sum", f, no_value, [F(1, 2)])
        with pytest.raises(ValuationError, match="'b' has no value"):
            apply_linear("sum", term(atom("f", "b + 1"), U), no_value, [F(1, 2)])

    def test_a_spec_passed_in_is_used_as_given(self):
        f = atom("f", "x")
        p = SymbolicHybridSet.from_atom(RegionAtom("P", Interval1D(F(0), F(10))))
        sample = [F(n) for n in range(0, 11)]
        assert apply_linear(linear_operator("sum"), term(f, p), None, sample) == 55
        stray = LinearOperatorSpec("sum", lambda values: sum(values, Fraction(0)))
        assert apply_linear(stray, term(f, p), None, sample) == 55
        with pytest.raises(ContractError, match="'stray' is not declared"):
            apply_linear(LinearOperatorSpec("stray", stray.combine), term(f, p), None, sample)


class TestSampledCheckCost:
    """Each check resolves a region endpoint once per table, not once per
    point: 4096 points cost a handful of resolutions."""

    A = SymbolicHybridSet.from_atom(RegionAtom("A", Interval1D(F(0), "a", hi_closed=False)))
    B = SymbolicHybridSet.from_atom(RegionAtom("B", Interval1D(F(0), "b", hi_closed=False)))
    V = Valuation({"a": F(1, 3), "b": F(2, 3)})
    SAMPLE = rational_grid(-1, 2, 4096)

    def count_resolutions(self, monkeypatch, check, *args):
        resolved = Counter()

        def counting(p, valuation):
            resolved[p] += 1
            return resolve_param(p, valuation)

        monkeypatch.setattr(regions, "resolve_param", counting)
        check(*args)
        return resolved

    def test_rewrite_checks_resolve_each_endpoint_once(self, monkeypatch):
        u = SymbolicHybridSet.from_atom(U_ATOM)
        parts = [
            GeneralisedPartition("P", U_ATOM, (self.A, u - self.A)),
            GeneralisedPartition("Q", U_ATOM, (self.B, u - self.B)),
        ]
        r = common_strict_refinement(parts)
        for check in (verify_rewrite, is_strict):
            for k, part in enumerate(parts):
                args = (r.pieces, part, r.coefficients[k], self.V, self.SAMPLE)
                resolved = self.count_resolutions(monkeypatch, check, *args)
                assert resolved == Counter({F(0): 1, F(1): 1, "a": 1, "b": 1})

    def test_apply_linear_resolves_each_endpoint_once(self, monkeypatch):
        f = term(atom("f", "x"), self.A + self.B)
        resolved = self.count_resolutions(monkeypatch, apply_linear, "sum", f, self.V, self.SAMPLE)
        assert resolved == Counter({F(0): 1, "a": 1, "b": 1})

    def test_the_inverse_check_resolves_each_endpoint_at_most_twice(self, monkeypatch):
        f = term(atom("f", "x"), self.A + self.B)
        resolved = self.count_resolutions(
            monkeypatch, star_inverse_identity_check, PLUS, f, self.V, self.SAMPLE
        )
        assert set(resolved) == {F(0), "a", "b"}
        assert max(resolved.values()) <= 2
