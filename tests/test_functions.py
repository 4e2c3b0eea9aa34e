"""Value words, joins, marked joins, evaluation, and the join laws."""

import itertools
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hybridsets import (
    ContractError,
    Defined,
    FinitePointSet,
    FormalValue,
    FreeWord,
    FunctionAtom,
    GridRect,
    HybridExpr,
    HybridSet,
    HybridTerm,
    Interval1D,
    MERGE,
    MultiplicityOverflowError,
    NonEvaluableError,
    NotReducibleError,
    OpacityError,
    PLUS,
    RegionAtom,
    StarOp,
    SymbolicHybridSet,
    TIMES,
    UNDEFINED,
    Universe,
    Valuation,
    ValuationError,
    atom,
    checked_add,
    checked_mul,
    constant_atom,
    evaluate,
    evaluate_many,
    graph_function,
    hybrid_graph,
    is_reducible,
    join,
    marked_join,
    reduce_formally,
    term,
    word,
)
from hybridsets import regions
from hybridsets.functions import _eval_marked, _eval_plain
from hybridsets.regions import resolve_param

F = Fraction

f = atom("f", "2*x")
g = atom("g", "x + 5")
h = atom("h", "3*x - 1")
k = atom("k", "x + 1")
u_op = atom("u")  # opaque: no body
v_op = atom("v")

U = SymbolicHybridSet.from_atom(RegionAtom("U", Universe()))
A = SymbolicHybridSet.from_atom(RegionAtom("A", Interval1D(F(0), F(1), hi_closed=False)))
B = SymbolicHybridSet.from_atom(RegionAtom("B", Interval1D(F(1), F(2), hi_closed=False)))


class TestFunctionAtoms:
    def test_bodied_atom_evaluates_exactly(self):
        assert f.value(F(1, 2)) == 1
        assert h.value(F(1, 3)) == 0

    def test_constant_atom(self):
        five = constant_atom("five", 5)
        assert five.value(F(99)) == 5

    def test_opaque_atom_refuses_to_evaluate(self):
        assert u_op.is_opaque
        with pytest.raises(OpacityError):
            u_op.value(F(0))


class TestFreeWord:
    def test_cancellation(self):
        w = word((f, 2), (g, 1), (f, -2))
        assert w.exponent("f") == 0
        assert w.exponent("g") == 1
        assert w.items() == [(g, 1)]

    def test_mul_and_pow(self):
        w = word(f, g)
        assert w.mul(w.pow(-1)).is_empty
        assert w.pow(3).exponent("f") == 3

    def test_equality_ignores_order(self):
        assert word(f, g) == word(g, f)
        assert hash(word(f, g)) == hash(word(g, f))

    def test_render_keeps_first_appearance_order(self):
        assert word(g, f).render() == "g * f"
        assert word((f, 2), g).render(" + ") == "f^2 + g"
        assert FreeWord().render() == "1"

    def test_an_atom_that_cancels_and_returns_goes_last(self):
        assert FreeWord([(f, 1), (g, 1), (f, -1), (f, 1)]).render() == "g * f"
        assert word(f, g, (f, -1), f) == word(f, g)

    def test_same_name_two_bodies_rejected(self):
        with pytest.raises(ContractError):
            word(atom("f", "x"), atom("f", "2*x"))


class TestTermsAndJoins:
    def test_term_render(self):
        assert term(f, A).render() == "f^{A}"
        assert term(word(f, g), A).render() == "(f * g)^{A}"
        assert term(word((f, 2)), A).render() == "(f^2)^{A}"

    def test_term_word_must_be_nonempty(self):
        with pytest.raises(ContractError):
            HybridTerm(FreeWord(), A)

    def test_join_merges_equal_words_by_region_sum(self):
        e = join(term(f, A), term(f, B))
        assert len(e.terms) == 1
        assert e.terms[0].region == A + B

    def test_join_of_same_term_doubles_the_region(self):
        e = join(term(f, A), term(f, A))
        assert len(e.terms) == 1
        assert e.terms[0].region == 2 * A

    def test_join_drops_cancelled_regions(self):
        e = join(term(f, U), term(g, U), term(g, -U))
        assert len(e.terms) == 1
        assert e.terms[0].word == word(f)
        assert e.terms[0].region == U

    def test_reduce_formally_on_a_marked_join(self):
        e = marked_join(MERGE, [term(f, A), term(g, B), term(g, -B)])
        r = reduce_formally(e)
        assert r.star is MERGE
        assert len(r.terms) == 1
        assert r.terms[0].render(" ⋈ ") == "f^{A}"

    def test_marked_join_requires_ac_star(self):
        floor_div = MERGE.__class__("//", is_ac=False)
        with pytest.raises(ContractError):
            marked_join(floor_div, [term(f, A)])

    def test_plain_join_refuses_marked_parts(self):
        with pytest.raises(ContractError):
            join(marked_join(PLUS, [term(f, A)]))

    def test_render_shapes(self):
        assert join(term(f, A), term(g, B)).render() == "f^{A} ⊛ g^{B}"
        e = marked_join(TIMES, [term(word(f, g), A)])
        assert e.render() == "(f * g)^{A}"
        assert join().render() == "(empty)"


class TestPlainEvaluation:
    def test_piecewise_lookup(self):
        e = join(term(f, A), term(g, B))
        assert evaluate(e, F(1, 2)) == Defined(F(1))
        assert evaluate(e, F(3, 2)) == Defined(F(13, 2))
        assert evaluate(e, F(1)) == Defined(F(6))

    def test_outside_the_domain_is_undefined(self):
        e = join(term(f, A), term(g, B))
        assert evaluate(e, F(5, 2)) is UNDEFINED
        assert evaluate(join(), F(0)) is UNDEFINED

    def test_cancellation_across_distinct_atoms_with_equal_values(self):
        # f, k and h all take the value 2 at x = 1
        e = join(term(f, B), term(k, B), term(h, -B))
        assert evaluate(e, F(1)) == Defined(F(2))

    def test_distinct_values_make_a_relation(self):
        e = join(term(f, B), term(k, B), term(h, -B))
        with pytest.raises(NonEvaluableError):
            evaluate(e, F(3, 2))

    def test_double_cover_is_not_a_function_value(self):
        e = join(term(f, A), term(f, A))  # merges to f^{2A}
        with pytest.raises(NonEvaluableError):
            evaluate(e, F(1, 2))

    def test_opaque_atom_alone_stays_formal(self):
        e = join(term(u_op, A))
        out = evaluate(e, F(0))
        assert isinstance(out.value, FormalValue)
        assert out.value.render() == "u"

    def test_opaque_overlap_cannot_be_checked(self):
        e = join(term(u_op, A), term(f, A))
        with pytest.raises(OpacityError):
            evaluate(e, F(1, 2))


class TestMarkedEvaluation:
    def test_scalar_star_folds_values(self):
        e = marked_join(PLUS, [term(f, A), term(g, A)])
        out = evaluate(e, F(1, 2))
        assert out.value == F(1) + F(11, 2)
        assert out.multiplicity == 2

    def test_net_zero_region_is_undefined(self):
        e = marked_join(TIMES, [term(f, A), term(g, -A)])
        assert evaluate(e, F(1, 2)) is UNDEFINED

    def test_cancelled_word_yields_the_unit(self):
        e = marked_join(PLUS, [term(word((f, 1)), A), term(word((f, -1)), A)])
        out = evaluate(e, F(1, 2))
        assert out == Defined(F(0), 2)

    def test_cancelled_word_without_unit_fails(self):
        e = marked_join(MERGE, [term(word((u_op, 1)), A), term(word((u_op, -1)), A)])
        with pytest.raises(NonEvaluableError):
            evaluate(e, F(1, 2))

    def test_residual_exponent_needs_an_inverse(self):
        e = marked_join(TIMES, [term(f, 2 * A)])
        with pytest.raises(NonEvaluableError):
            evaluate(e, F(1, 2))

    def test_inverse_star_handles_residual_exponents(self):
        e = marked_join(PLUS, [term(f, 2 * A)])
        out = evaluate(e, F(1, 2))
        assert out.value == 2 * f.value(F(1, 2))
        assert out.multiplicity == 2

    def test_negative_exponent_uses_the_inverse(self):
        e = marked_join(PLUS, [term(f, -A), term(g, 2 * A)])
        out = evaluate(e, F(1, 2))
        assert out.value == -F(1) + 2 * F(11, 2)
        assert out.multiplicity == 1

    @pytest.mark.parametrize("k", [10**18, -10**18])
    def test_huge_exponent_costs_log_k_star_applications(self, k):
        e = marked_join(PLUS, [term(word((f, k)), A)])
        start = time.perf_counter()
        out = evaluate(e, F(3, 4))
        assert time.perf_counter() - start < 1.0
        assert out == Defined(k * F(3, 2), 1)

    def test_powers_match_repeated_application(self):
        ratio = StarOp("x", apply=lambda a, b: a * b, unit=F(1), invert=lambda v: 1 / v)
        three_halves = constant_atom("t", F(3, 2))
        for star in (PLUS, ratio):
            for k in range(1, 41):
                for sign in (1, -1):
                    e = marked_join(star, [term(word((three_halves, sign * k)), A)])
                    v = F(3, 2) if sign > 0 else star.invert(F(3, 2))
                    want = v
                    for _ in range(k - 1):
                        want = star.apply(want, v)
                    assert evaluate(e, F(1, 2)) == Defined(want, 1)

    def test_opaque_atoms_stay_a_formal_combination(self):
        e = marked_join(MERGE, [term(u_op, A), term(v_op, A)])
        out = evaluate(e, F(1, 2))
        assert isinstance(out.value, FormalValue)
        assert out.value.render() == "u ⋈ v"
        assert out.multiplicity == 2


class TestReducibility:
    sample = [F(n, 10) for n in range(-5, 25)]

    def test_single_cover_is_reducible(self):
        assert is_reducible(join(term(f, A)), None, self.sample)

    def test_double_cover_is_not(self):
        assert not is_reducible(join(term(f, 2 * A)), None, self.sample)

    def test_disagreeing_overlap_is_not(self):
        assert not is_reducible(join(term(f, A), term(g, A)), None, self.sample)

    def test_marked_join_over_a_partition_is_reducible(self):
        e = marked_join(TIMES, [term(word(f, g), A), term(word(f, h), B)])
        assert is_reducible(e, None, self.sample)


PARAMS = ("a", "b", "c")
LEVELS = (F(0), F(1, 2), F(1), F(2), F(3))
coords = st.one_of(st.sampled_from(LEVELS), st.integers(0, 3))
sample_points = st.one_of(coords, st.tuples(coords, coords), st.tuples(coords))
ends = st.one_of(st.sampled_from(PARAMS), st.sampled_from(LEVELS))
grid_ends = st.one_of(st.sampled_from(PARAMS), st.integers(0, 3).map(F))
flags = st.booleans()
shapes = st.one_of(
    st.just(Universe()),
    st.builds(Interval1D, ends, ends, flags, flags),
    st.builds(GridRect, grid_ends, grid_ends, grid_ends, grid_ends, flags, flags, flags, flags),
    st.lists(sample_points, max_size=3).map(lambda ps: FinitePointSet(tuple(ps))),
)
# Coefficients and exponents: mostly 1, some other small ones, and about one
# in eight so large that sums and products of them overflow.
HUGE = (2**62, -(2**62), 2**63 - 1, -(2**63))
small_or_huge = st.sampled_from((1,) * 20 + (-1, -1, 2, -2) + HUGE)
value_atoms = (f, g, atom("pa", "a + x"), constant_atom("c3", 3), u_op, v_op)
valuations = st.one_of(
    st.none(),
    st.dictionaries(st.sampled_from(PARAMS), st.sampled_from(LEVELS)).map(Valuation),
)


@st.composite
def expressions(draw, value_atoms=value_atoms):
    pool = [RegionAtom(f"R{i}", s) for i, s in enumerate(draw(st.lists(shapes, min_size=1, max_size=5)))]
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        uses = draw(st.lists(st.tuples(st.sampled_from(range(len(pool))), small_or_huge),
                             min_size=1, max_size=3, unique_by=lambda u: u[0]))
        w = FreeWord(draw(st.lists(st.tuples(st.sampled_from(value_atoms), small_or_huge),
                                   min_size=1, max_size=2, unique_by=lambda u: u[0].name)))
        terms.append(HybridTerm(w, SymbolicHybridSet((pool[i], c) for i, c in uses)))
    return HybridExpr(draw(st.sampled_from((None, PLUS, TIMES, MERGE))), tuple(terms))


def _outcomes(results):
    """The outcomes an iterator yields, then the type and message of the
    error that ends it, if any."""
    out = []
    try:
        for r in results:
            out.append(r)
    except Exception as e:
        out.append((type(e), str(e)))
    return out


def _per_point_reference(e, points, valuation):
    """evaluate(e, p) point by point, summing each term's region
    multiplicity as ``SymbolicHybridSet.multiplicity`` gives it."""
    finish = _eval_plain if e.star is None else _eval_marked
    for p in points:
        net, exps, atoms = 0, {}, {}
        for t in e.terms:
            m = t.region.multiplicity(p, valuation)
            net = checked_add(net, m)
            if m:
                for a, k in t.word.items():
                    exps[a.name] = checked_add(exps.get(a.name, 0), checked_mul(m, k))
                    atoms.setdefault(a.name, a)
        surviving = {n: k for n, k in exps.items() if k}
        yield finish(e.star, (net, surviving, atoms), p, valuation)


class TestEvaluateMany:
    @settings(max_examples=300, deadline=None)
    @given(expressions(), st.lists(sample_points, max_size=8), valuations)
    def test_agrees_with_the_per_point_reference(self, e, points, valuation):
        drawn = []

        def lazily():
            for p in points:
                drawn.append(p)
                yield p

        got = []
        try:
            for out in evaluate_many(e, lazily(), valuation):
                got.append(out)
                assert len(drawn) == len(got)  # no point is read ahead
        except Exception as err:
            got.append((type(err), str(err)))
        assert got == _outcomes(_per_point_reference(e, points, valuation))

    @pytest.mark.parametrize("closed", list(itertools.product((True, False), repeat=4)))
    def test_grid_and_interval_ends_open_and_closed(self, closed):
        v = Valuation({"h": F(2), "k": F(2)})
        grid = SymbolicHybridSet.from_atom(RegionAtom("G", GridRect(1, "h", 1, "k", *closed)))
        line = SymbolicHybridSet.from_atom(RegionAtom("I", Interval1D(F(1), "h", *closed[2:])))
        e = marked_join(MERGE, [term(u_op, grid), term(v_op, line)])
        coords = (F(0), F(1, 2), F(1), F(3, 2), F(2), F(3))
        pts = [*coords, *((i, j) for i in coords for j in coords)]
        assert list(evaluate_many(e, pts, v)) == list(_per_point_reference(e, pts, v))

    # An overflow and a missing parameter at one point: the first one met in
    # the order term, then coefficient, is the one raised.
    U0 = RegionAtom("U0", Universe())
    U1 = RegionAtom("U1", Universe())
    P = RegionAtom("P", Interval1D(F(0), "p"))

    @pytest.mark.parametrize(
        "terms, error",
        [
            ([(word((f, 2)), [(U0, 2**62)]), (g, [(P, 1)])], MultiplicityOverflowError),
            ([(g, [(P, 1)]), (word((f, 2)), [(U0, 2**62)])], ValuationError),
            ([(f, [(U0, 2**62), (U1, 2**62), (P, 1)])], MultiplicityOverflowError),
            ([(f, [(U0, 2**62), (P, 1), (U1, 2**62)])], ValuationError),
        ],
    )
    def test_the_first_error_in_term_order_is_raised(self, terms, error):
        e = HybridExpr(None, tuple(term(w, SymbolicHybridSet(uses)) for w, uses in terms))
        reference = _outcomes(_per_point_reference(e, [F(1, 2)], Valuation()))
        assert reference[-1][0] is error
        assert _outcomes(evaluate_many(e, [F(1, 2)], Valuation())) == reference

    def test_outcomes_before_a_raising_point_come_first(self):
        e = join(term(f, SymbolicHybridSet.from_atom(RegionAtom("P", Interval1D(F(0), "p")))))
        v = Valuation({"p": F(1)})
        results = evaluate_many(e, [F(1, 2), F(2), (F(1), F(1)), "not a point", F(1, 2)], v)
        assert next(results) == Defined(F(1), 1)
        assert next(results) is UNDEFINED
        assert next(results) is UNDEFINED
        with pytest.raises(ContractError, match="a point must be an int or a Fraction"):
            next(results)
        assert list(results) == []

    def test_a_missing_parameter_raises_at_the_first_point_that_needs_it(self):
        e = join(term(f, SymbolicHybridSet.from_atom(RegionAtom("P", Interval1D(F(0), "p")))))
        results = evaluate_many(e, [(F(1), F(2)), F(1)], Valuation())
        assert next(results) is UNDEFINED
        with pytest.raises(ValuationError, match="parameter 'p' has no value"):
            next(results)

    def test_evaluate_is_the_one_point_case(self):
        e = join(term(f, A), term(g, B))
        pts = [F(n, 4) for n in range(-2, 10)]
        assert list(evaluate_many(e, pts)) == [evaluate(e, p) for p in pts]


# Atoms whose value reads x, reads only a parameter (and may raise there),
# reads nothing, or comes from a python function of the point.
mixed_atoms = value_atoms + (
    atom("pb", "b / 2"),
    atom("ia", "1 / a"),
    FunctionAtom("fp", func=lambda p, v: F(len(p)) if isinstance(p, tuple) else 2 * F(p)),
)


@st.composite
def call_sequences(draw):
    """An expression, then several evaluate and evaluate_many calls on it
    under one valuation object, an equal but distinct one, None, and one
    that lacks a parameter."""
    e = draw(expressions(mixed_atoms))
    values = {p: draw(st.sampled_from(LEVELS)) for p in PARAMS}
    lacking = dict(values)
    del lacking[draw(st.sampled_from(PARAMS))]
    pool = (Valuation(values), Valuation(values), None, Valuation(lacking))
    calls = draw(st.lists(
        st.tuples(st.sampled_from(pool), st.booleans(), st.lists(sample_points, min_size=1, max_size=6)),
        min_size=1, max_size=10,
    ))
    return e, calls


class TestPlanAndState:
    """One-point and many-point calls on one expression share its plan and
    the state of the last valuation object; none of it may show."""

    @seed(2010)
    @settings(max_examples=200, deadline=None)
    @given(call_sequences())
    def test_calls_agree_with_the_per_point_reference(self, case):
        e, calls = case
        for valuation, one_point, points in calls:
            fresh = HybridExpr(e.star, e.terms)
            if one_point:
                try:
                    got = [evaluate(e, points[0], valuation)]
                except Exception as err:
                    got = [(type(err), str(err))]
                points = points[:1]
            else:
                got = _outcomes(evaluate_many(e, points, valuation))
            assert got == _outcomes(_per_point_reference(fresh, points, valuation))

    STEPS = [(F(3, 2), "k1"), (F(-2), "k2"), (F(1, 3), "k3"), (F(5), "k4")]

    def steps(self):
        """A marked sum of steps a_i on (k_i, 15] over U = [0, 15]: the
        endpoints are 0, 15 and k1..k4."""
        universe = SymbolicHybridSet.from_atom(RegionAtom("U", Interval1D(F(0), F(15))))
        terms = [term(constant_atom("z", 0), universe)]
        for i, (amp, k) in enumerate(self.STEPS, start=1):
            step = RegionAtom(f"R{i}", Interval1D(k, F(15), lo_closed=False))
            terms.append(term(constant_atom(f"a{i}", amp), SymbolicHybridSet.from_atom(step)))
        return marked_join(PLUS, terms)

    V = Valuation({"k1": F(2), "k2": F(15, 2), "k3": F(2), "k4": F(0)})
    POINTS = [F(j - 2, 4) for j in range(64)]

    def counting(self, monkeypatch):
        resolved = []

        def count(p, valuation):
            resolved.append(p)
            return resolve_param(p, valuation)

        monkeypatch.setattr(regions, "resolve_param", count)
        return resolved

    def test_one_point_calls_resolve_each_endpoint_once(self, monkeypatch):
        e = self.steps()
        reference = list(_per_point_reference(e, self.POINTS, self.V))
        resolved = self.counting(monkeypatch)
        assert [evaluate(e, x, self.V) for x in self.POINTS] == reference
        assert Counter(resolved) == Counter([F(0), F(15), "k1", "k2", "k3", "k4"])
        # an equal but distinct valuation object starts a new state
        evaluate(e, F(1), Valuation({"k1": F(2), "k2": F(15, 2), "k3": F(2), "k4": F(0)}))
        assert len(resolved) == 12

    def test_the_state_keeps_at_most_one_cell_per_gap_and_endpoint(self):
        e = self.steps()
        ends = {F(0), F(15), *(self.V.resolve(k) for _, k in self.STEPS)}
        # 4096 distinct points from -1 up to 16, the endpoints among them
        points = sorted([F(17 * j, 4091) - 1 for j in range(4096 - len(ends))] + sorted(ends))
        assert len(set(points)) == 4096
        for x in points[:2048]:
            evaluate(e, x, self.V)
        assert list(evaluate_many(e, points[2048:], self.V)) == list(
            _per_point_reference(e, points[2048:], self.V)
        )
        table, kept = e._plan.state(self.V)
        assert len(table._cells) <= 2 * len(ends) + 1
        assert len(kept) <= 2 * len(ends) + 1

    def test_a_started_pass_keeps_its_state(self):
        e = self.steps()
        other = Valuation({"k1": F(9), "k2": F(9), "k3": F(9), "k4": F(9)})
        pass_ = evaluate_many(e, self.POINTS, self.V)
        head = [next(pass_) for _ in range(20)]
        assert evaluate(e, F(10), other) == next(_per_point_reference(e, [F(10)], other))
        assert e._plan.slot[0] is other
        assert head + list(pass_) == list(_per_point_reference(e, self.POINTS, self.V))

    P = SymbolicHybridSet.from_atom(RegionAtom("P", Interval1D(F(0), "p")))

    @pytest.mark.parametrize(
        "e, error",
        [
            (join(term(f, P)), ValuationError),  # p has no value
            (join(term(atom("r", "1 / q"), U)), ContractError),  # the finish divides by 0
            (marked_join(PLUS, [term(word((f, 2**62)), U), term(word((f, 2**62)), U)]),
             MultiplicityOverflowError),
        ],
        ids=["resolution", "finish", "overflow"],
    )
    def test_no_error_is_kept(self, e, error):
        v = Valuation({"q": F(0)})
        raised = []
        for _ in range(2):
            with pytest.raises(error) as info:
                evaluate(e, F(1, 2), v)
            raised.append(info.value)
        assert raised[0] is not raised[1]
        assert str(raised[0]) == str(raised[1])


def _graph_values(gr):
    """point -> set of values present with nonzero multiplicity."""
    out = {}
    for (pair, m) in gr.items():
        x, v = pair
        out.setdefault(x, set()).add(v)
    return out


def _is_function_graph(gr):
    return all(len(vs) == 1 for vs in _graph_values(gr).values())


points = st.integers(0, 5).map(Fraction)
small_regions = st.dictionaries(points, st.integers(-2, 2), max_size=6).map(
    lambda d: HybridSet(d.items())
)


def fn_f(x, valuation=None):
    return 2 * x + 1


def fn_g(x, valuation=None):
    return 2 * x  # differs from fn_f everywhere


class TestJoinLaws:
    def test_empty_region_reduces_to_the_empty_function(self):
        assert graph_function(hybrid_graph(fn_f, HybridSet.empty())) == {}

    @given(small_regions)
    def test_self_join_doubles_the_region(self, a):
        left = hybrid_graph(fn_f, a) + hybrid_graph(fn_f, a)
        assert left == hybrid_graph(fn_f, 2 * a)

    @given(small_regions, small_regions)
    def test_same_function_joins_by_region_sum(self, a, b):
        left = hybrid_graph(fn_f, a) + hybrid_graph(fn_f, b)
        assert left == hybrid_graph(fn_f, a + b)
        assert _is_function_graph(left)

    @given(small_regions, small_regions)
    def test_distinct_functions_join_iff_regions_are_disjoint(self, a, b):
        joined = hybrid_graph(fn_f, a) + hybrid_graph(fn_g, b)
        if a.is_disjoint(b):
            merged = {x: fn_f(x) for x in a.support()}
            merged.update({x: fn_g(x) for x in b.support()})
            assert joined == hybrid_graph(merged, a + b)
            assert _is_function_graph(joined)
        else:
            overlap = a.otimes(b).support()
            values = _graph_values(joined)
            assert any(len(values.get(x, ())) == 2 for x in overlap)
            assert not _is_function_graph(joined)

    def test_partial_functions_join_over_disjoint_supports(self):
        h1 = HybridSet([(F(0), 1), (F(1), -2)])
        h2 = HybridSet([(F(2), 3), (F(3), 1)])
        f1 = {F(0): F(5), F(1): F(7)}
        f2 = {F(2): F(1), F(3): F(9)}
        joined = hybrid_graph(f1, h1) + hybrid_graph(f2, h2)
        assert joined == hybrid_graph({**f1, **f2}, h1 + h2)

    def test_graph_round_trip(self):
        a = HybridSet.from_elements([F(0), F(2), F(4)])
        gr = hybrid_graph(fn_f, a)
        assert graph_function(gr) == {x: fn_f(x) for x in a.support()}

    def test_graph_function_rejects_relations(self):
        rel = HybridSet([((F(0), F(1)), 1), ((F(0), F(2)), 1)])
        with pytest.raises(NotReducibleError):
            graph_function(rel)
        with pytest.raises(NotReducibleError):
            graph_function(HybridSet([((F(0), F(1)), 2)]))
        with pytest.raises(NotReducibleError):
            graph_function(HybridSet([(F(3), 1)]))
