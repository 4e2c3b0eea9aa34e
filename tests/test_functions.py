"""Value words, joins, marked joins, evaluation, and the join laws."""

import dataclasses
import itertools
import random
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
    GeneralisedPartition,
    GridRect,
    HybridError,
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
    ParseError,
    RegionAtom,
    StarOp,
    SymbolicHybridSet,
    TIMES,
    UNDEFINED,
    Universe,
    Valuation,
    ValuationError,
    atom,
    block_matrix_2x2,
    constant_atom,
    evaluate,
    evaluate_grid,
    evaluate_many,
    graph_function,
    hybrid_graph,
    join,
    marked_join,
    matrix_add,
    parse_workspace,
    pointwise_star,
    reduce_formally,
    term,
    word,
)
from hybridsets import functions, regions, scalarexpr
from hybridsets.functions import _eval_marked, _eval_plain
from hybridsets.hybridset import FreeCombination, checked_int
from hybridsets.regions import resolve_param
from test_calculus import step_fold, steps_workspace

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

    def test_names_are_not_fields(self):
        # equality, hash and repr read the name and the body alone
        body = scalarexpr.parse_scalar("a * x + b")
        one, other = functions.FunctionAtom("p", body), functions.FunctionAtom("p", body)
        assert [fl.name for fl in dataclasses.fields(one)] == ["name", "body"]
        assert one == other and hash(one) == hash(("p", body))
        assert repr(one) == f"FunctionAtom(name='p', body={body!r})"
        assert one.names == ("a", "x", "b") and one.reads_point
        assert repr(u_op) == "FunctionAtom(name='u', body=None)"
        assert u_op.names == () and not u_op.reads_point
        assert dataclasses.replace(one, body=None).names == ()

    def test_reads_point_is_whether_the_body_names_x(self):
        rng = random.Random(2040)
        leaves = ["x", "a", "b", "1", "2/3"]
        for _ in range(300):
            text = rng.choice(leaves)
            for _ in range(rng.randint(0, 4)):
                text = f"({text}) {rng.choice('+-*/')} {rng.choice(leaves)}"
            body = scalarexpr.parse_scalar(text)
            a = functions.FunctionAtom("r", body)
            assert a.reads_point is ("x" in scalarexpr.body_names(body)), text
            assert a.names == tuple(dict.fromkeys(scalarexpr.body_names(body))), text

    def test_each_body_is_walked_once_across_parse_plan_and_evaluate(self, monkeypatch):
        walks, depth = [], [0]
        real = scalarexpr.body_names

        def counted(expr):
            depth[0] += 1
            try:
                if depth[0] == 1:
                    walks.append(expr)
                yield from real(expr)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(scalarexpr, "body_names", counted)
        ws = parse_workspace(CANCEL_STEPS)
        e = pointwise_star(PLUS, ws.exprs["H1"], ws.exprs["H2"], universe=ws.regions["U"])
        e = pointwise_star(PLUS, e, ws.exprs["H3"], universe=ws.regions["U"])
        for name in ("v", "w"):
            list(evaluate_many(e, [F(n, 2) for n in range(-2, 14)], ws.valuations[name]))
            evaluate(e, F(3), ws.valuations[name])
        bodies = [a.body for a in ws.atoms.values() if a.body is not None]
        assert len(walks) == len(bodies) == 7
        assert {id(b) for b in walks} == {id(b) for b in bodies}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("param a\nfn f = b * x + c\n", "line 2, col 8: unresolved name 'b' in body"),
            ("param a\nfn f = (x + a) / (c - b) + b\n", "line 2, col 8: unresolved name 'c' in body"),
            ("param a\nfn  f =  -q + a\n", "line 2, col 10: unresolved name 'q' in body"),
        ],
    )
    def test_an_unresolved_body_name_is_reported_first_in_reading_order(self, text, message):
        # the messages and columns are those of a check that walks the body
        # in reading order before the atom is made
        with pytest.raises(ParseError) as err:
            parse_workspace(text)
        assert str(err.value) == message


class TestFreeWord:
    def test_cancellation(self):
        w = word((f, 2), (g, 1), (f, -2))
        assert w.coefficient("f") == 0
        assert w.coefficient("g") == 1
        assert w.items() == [(g, 1)]

    def test_mul_and_scale(self):
        w = word(f, g)
        assert w.mul(w.scale(-1)).is_empty
        assert w.scale(3).coefficient("f") == 3

    def test_equality_ignores_order(self):
        assert word(f, g) == word(g, f)
        assert hash(word(f, g)) == hash(word(g, f))

    def test_render_reads_print_order(self):
        # positive exponents first, then negative ones, each by name
        assert word(g, f).render() == "f * g"
        assert word((f, 2), g).render(" + ") == "f^2 + g"
        assert word((f, -1), g).render() == "g * f^-1"
        assert FreeWord().render() == "1"

    def test_an_atom_that_cancels_and_returns_prints_in_print_order(self):
        assert FreeWord([(f, 1), (g, 1), (f, -1), (f, 1)]).render() == "f * g"
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

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_a_join_hashes_each_word_at_most_twice(self, k, monkeypatch):
        # One lookup and one store per term: a word's hash builds a
        # frozenset of its entries, so a join of k terms with distinct
        # words makes at most 2k of them, and keeps each term as it is.
        terms = [term(atom(f"h{i}", str(i)), A) for i in range(k)]
        hashed = []
        hash_word = FreeCombination.__hash__

        def counting(self):
            hashed.append(self)
            return hash_word(self)

        monkeypatch.setattr(FreeCombination, "__hash__", counting)
        e = join(*terms)
        assert len(hashed) <= 2 * k
        assert all(got is t for got, t in zip(e.terms, terms, strict=True))

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


def _branch_outcome(call):
    """The render of what ``call`` returns, or its error's type and message."""
    try:
        return call().render()
    except HybridError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("call, outcome", [
    (lambda: join(marked_join(PLUS, [term(f, A)]), term(g, B)),
     (ContractError, "cannot splice a marked join into a plain join")),
    (lambda: join(join(term(f, A), term(g, B)), term(f, B)), "f^{A + B} ⊛ g^{B}"),
    (lambda: GeneralisedPartition("P", RegionAtom("U", Universe()), (A, U - A), labels=("a",)),
     (ContractError, "piece labels must match piece count")),
    (lambda: f.value(None),
     (ContractError, "expression uses x but no point was supplied")),
    (lambda: HybridSet([(None, 1), ("a", 1), (True, 2)]), "{1^2, a^1, None^1}"),
    (lambda: GeneralisedPartition("P", RegionAtom("U", Universe()), ()),
     (ContractError, "a partition needs at least one piece")),
], ids=["marked join spliced", "plain join spliced", "labels and pieces", "x without a point",
        "a bool and a None sorted", "no pieces"])
def test_branches_that_no_other_test_runs_are_frozen(call, outcome):
    assert _branch_outcome(call) == outcome


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

    def test_grouped_value_multiplicities_stay_in_the_64_bit_range(self):
        one, also_one = constant_atom("one", 1), constant_atom("also_one", 1)
        e = join(term(word((one, 2**62), (also_one, 2**62)), A))
        with pytest.raises(MultiplicityOverflowError, match="leaves the 64-bit range"):
            evaluate(e, F(1, 2))
        # in range, the grouped values still cancel or name the relation
        e = join(term(word((one, 2**62), (also_one, 1 - 2**62)), A))
        assert evaluate(e, F(1, 2)) == Defined(F(1))
        e = join(term(word((one, 2**62), (also_one, 2**62 - 1)), A))
        relation = r"^hybrid relation at point: values 1 \(x9223372036854775807\)$"
        with pytest.raises(NonEvaluableError, match=relation):
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


PARAMS = ("a", "b", "c")
LEVELS = (F(0), F(1, 2), F(1), F(2), F(3))
coords = st.one_of(st.sampled_from(LEVELS), st.integers(0, 3))
sample_points = st.one_of(coords, st.tuples(coords, coords), st.tuples(coords))
ends = st.one_of(st.sampled_from(PARAMS), st.sampled_from(LEVELS))
grid_ends = st.one_of(st.sampled_from(PARAMS), st.integers(0, 3).map(F))
flags = st.booleans()


def rect_of_draws(r_lo, r_hi, c_lo, c_hi, rlc, rhc, clc, chc):
    """A grid rectangle from eight draws: the four ends, then the four
    closed flags, rows before columns."""
    return GridRect(Interval1D(r_lo, r_hi, rlc, rhc), Interval1D(c_lo, c_hi, clc, chc))


shapes = st.one_of(
    st.just(Universe()),
    st.builds(Interval1D, ends, ends, flags, flags),
    st.builds(
        rect_of_draws, grid_ends, grid_ends, grid_ends, grid_ends, flags, flags, flags, flags
    ),
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


def _rendered(outcomes):
    """The text of each formal value among the outcomes, which shows the
    order of its atoms."""
    return [
        o.value.render() for o in outcomes
        if isinstance(o, Defined) and isinstance(o.value, FormalValue)
    ]


def _per_point_reference(e, points, valuation):
    """evaluate(e, p) point by point, summing each term's region
    multiplicity as ``SymbolicHybridSet.multiplicity`` gives it.  Sums are
    taken in ints; the least surviving exponent, then the greatest, then
    the net, are checked once every multiplicity at the point is read."""
    finish = _eval_plain if e.star is None else _eval_marked
    for p in points:
        net, exps, atoms = 0, {}, {}
        for t in e.terms:
            m = t.region.multiplicity(p, valuation)
            net += m
            if m:
                for a, k in t.word.items():
                    exps[a.name] = exps.get(a.name, 0) + m * k
                    atoms.setdefault(a.name, a)
        surviving = {n: k for n, k in exps.items() if k}
        if surviving:
            checked_int(min(surviving.values())), checked_int(max(surviving.values()))
        yield finish(e.star, (checked_int(net), surviving, atoms), p, valuation)


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
        want = _outcomes(_per_point_reference(e, points, valuation))
        assert got == want
        assert _rendered(got) == _rendered(want)  # FreeWord equality ignores order

    @pytest.mark.parametrize("closed", list(itertools.product((True, False), repeat=4)))
    def test_grid_and_interval_ends_open_and_closed(self, closed):
        v = Valuation({"h": F(2), "k": F(2)})
        rect = GridRect(Interval1D(1, "h", *closed[:2]), Interval1D(1, "k", *closed[2:]))
        grid = SymbolicHybridSet.from_atom(RegionAtom("G", rect))
        line = SymbolicHybridSet.from_atom(RegionAtom("I", Interval1D(F(1), "h", *closed[2:])))
        e = marked_join(MERGE, [term(u_op, grid), term(v_op, line)])
        coords = (F(0), F(1, 2), F(1), F(3, 2), F(2), F(3))
        pts = [*coords, *((i, j) for i in coords for j in coords)]
        assert list(evaluate_many(e, pts, v)) == list(_per_point_reference(e, pts, v))

    # An overflow and a missing parameter at one point: an overflow is
    # decided only once every value at the point is read, so the missing
    # parameter is raised wherever it comes in the order term, then
    # coefficient.
    U0 = RegionAtom("U0", Universe())
    U1 = RegionAtom("U1", Universe())
    P = RegionAtom("P", Interval1D(F(0), "p"))

    @pytest.mark.parametrize(
        "terms, error",
        [
            ([(word((f, 2)), [(U0, 2**62)]), (g, [(P, 1)])], ValuationError),
            ([(g, [(P, 1)]), (word((f, 2)), [(U0, 2**62)])], ValuationError),
            ([(f, [(U0, 2**62), (U1, 2**62), (P, 1)])], ValuationError),
            ([(f, [(U0, 2**62), (P, 1), (U1, 2**62)])], ValuationError),
        ],
    )
    def test_an_overflow_is_decided_after_every_value_at_the_point(self, terms, error):
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
# or reads nothing.
mixed_atoms = value_atoms + (
    atom("pb", "b / 2"),
    atom("ia", "1 / a"),
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
        # the number endpoints 0 and 15 are taken as they are
        assert Counter(resolved) == Counter(["k1", "k2", "k3", "k4"])
        # an equal but distinct valuation object starts a new state
        evaluate(e, F(1), Valuation({"k1": F(2), "k2": F(15, 2), "k3": F(2), "k4": F(0)}))
        assert len(resolved) == 8

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
        _, table, kept, _ = e._plan._slot(self.V)
        assert len(table._intervals.cells) <= 2 * len(ends) + 1
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


grid_coords = st.one_of(
    st.integers(-1, 4).map(F), st.integers(-1, 4), st.sampled_from((F(1, 2), F(5, 2))),
)
grid_shapes = st.one_of(
    st.just(Universe()),
    st.builds(
        rect_of_draws, grid_ends, grid_ends, grid_ends, grid_ends, flags, flags, flags, flags
    ),
)
# Grid rectangles with whole and half-integer ends, and valuations that
# mostly give every parameter a value.
half_ends = st.one_of(
    st.sampled_from(PARAMS), st.sampled_from((F(-1), F(0), F(1, 2), F(1), F(3, 2), F(2), F(3))),
)
half_rects = st.builds(
    rect_of_draws, half_ends, half_ends, half_ends, half_ends, flags, flags, flags, flags
)
full_valuations = st.one_of(
    valuations, st.fixed_dictionaries({p: st.sampled_from(LEVELS) for p in PARAMS}).map(Valuation),
)
# Shapes a cell may fall in though they are not grid rectangles.
cell_sets = st.lists(st.tuples(grid_coords, grid_coords), min_size=1, max_size=3).map(
    lambda ps: FinitePointSet(tuple(ps))
)


@st.composite
def grid_expressions(draw, shape_pool, word_atoms=mixed_atoms):
    """An expression whose region atoms draw their shapes from ``shape_pool``
    and whose words draw from ``word_atoms``."""
    drawn = draw(st.lists(shape_pool, min_size=1, max_size=5))
    pool = [RegionAtom(f"R{i}", s) for i, s in enumerate(drawn)]
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        uses = draw(st.lists(st.tuples(st.sampled_from(range(len(pool))), small_or_huge),
                             min_size=1, max_size=3, unique_by=lambda u: u[0]))
        w = FreeWord(draw(st.lists(st.tuples(st.sampled_from(word_atoms), small_or_huge),
                                   min_size=1, max_size=2, unique_by=lambda u: u[0].name)))
        terms.append(HybridTerm(w, SymbolicHybridSet((pool[i], c) for i, c in uses)))
    return HybridExpr(draw(st.sampled_from((None, PLUS, TIMES, MERGE))), tuple(terms))


def _reference_key(layout, point, valuation):
    """The point's indicator vector, shape by shape through
    ``RegionAtom.indicator``, or, at the first shape whose test raises, the
    bits so far, that shape's index and the error's type and message."""
    bits = 0
    for k, shape in enumerate(layout.shapes):
        try:
            bits |= RegionAtom("S", shape).indicator(point, valuation) << k
        except Exception as e:
            return bits, k, type(e), str(e)
    return bits


def with_bodies(m, values):
    """Block matrix ``m`` with each block's symbol swapped for a constant
    atom of the same name and the next of ``values``; ``m`` when ``values``
    is None."""
    if values is None:
        return m
    blocks = tuple(dataclasses.replace(b, symbol=constant_atom(b.name, value))
                   for b, value in zip(m.blocks, values))
    return dataclasses.replace(m, blocks=blocks)


@st.composite
def block_sums(draw):
    """The sum of two 2x2 block matrices of n x m, splits tied, at 0 and at
    the dimension among them, with a valuation that may lack a parameter."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))

    def split(dim):
        return draw(st.one_of(st.sampled_from((0, dim)), st.integers(0, dim)))

    h1, k1 = split(n), split(m)
    h2 = h1 if draw(st.booleans()) else split(n)
    k2 = k1 if draw(st.booleans()) else split(m)
    names = (("A1", "B1", "C1", "D1"), ("A2", "B2", "C2", "D2"))
    bodies = draw(st.sampled_from((None, (1, 2, 3, 5))))
    m1, m2 = (with_bodies(block_matrix_2x2(f"M{i + 1}", "n", "m", f"h{i + 1}", f"k{i + 1}",
                                           names[i]), bodies)
              for i in range(2))
    values = {"n": n, "m": m, "h1": h1, "k1": k1, "h2": h2, "k2": k2}
    if draw(st.integers(0, 4)) == 0:
        del values[draw(st.sampled_from(sorted(values)))]
    return matrix_add(m1, m2, draw(st.sampled_from((PLUS, MERGE)))), Valuation(values), n, m


class TestEvaluateGrid:
    """``evaluate_grid`` is ``evaluate_many`` over the row-major product,
    outcomes and the error that ends them alike; each side evaluates a
    fresh copy of the expression, so neither reads the other's state."""

    @staticmethod
    def both(e, rows, cols, valuation):
        product = [(r, c) for r in rows for c in cols]
        return (
            _outcomes(itertools.chain.from_iterable(
                evaluate_grid(HybridExpr(e.star, e.terms), rows, cols, valuation))),
            _outcomes(evaluate_many(HybridExpr(e.star, e.terms), product, valuation)),
        )

    @seed(2006)
    @settings(max_examples=300, deadline=None)
    @given(block_sums(), st.lists(grid_coords, max_size=3), st.lists(grid_coords, max_size=3))
    def test_block_sums_agree_with_evaluate_many(self, case, extra_rows, extra_cols):
        e, valuation, n, m = case
        rows = [F(i) for i in range(n + 2)] + extra_rows
        cols = [F(j) for j in range(m + 2)] + extra_cols
        got, want = self.both(e, rows, cols, valuation)
        assert got == want

    @seed(2007)
    @settings(max_examples=300, deadline=None)
    @given(grid_expressions(grid_shapes), st.lists(grid_coords, max_size=5),
           st.lists(st.one_of(grid_coords, st.just("c")), max_size=5), valuations)
    def test_grid_shapes_agree_with_evaluate_many(self, e, rows, cols, valuation):
        got, want = self.both(e, rows, cols, valuation)
        assert got == want

    @seed(2008)
    @settings(max_examples=200, deadline=None)
    @given(grid_expressions(st.one_of(shapes, cell_sets)), st.lists(grid_coords, max_size=4),
           st.lists(grid_coords, max_size=4), valuations)
    def test_interval_and_point_set_shapes_agree_with_evaluate_many(self, e, rows, cols, valuation):
        got, want = self.both(e, rows, cols, valuation)
        assert got == want

    # The rows: one tuple per row value with a cell per column, up to the
    # row a raising cell ends early, which the error follows; on every
    # layout, the interval and point-set ones that key cell by cell included.
    @seed(2010)
    @settings(max_examples=300, deadline=None)
    @given(grid_expressions(st.one_of(grid_shapes, shapes, cell_sets)),
           st.lists(grid_coords, max_size=4),
           st.lists(st.one_of(grid_coords, st.just("c")), max_size=4), valuations)
    def test_rows_hold_a_cell_per_column_up_to_the_error(self, e, rows, cols, valuation):
        product = [(r, c) for r in rows for c in cols]
        want = _outcomes(evaluate_many(HybridExpr(e.star, e.terms), product, valuation))
        cut, error = [], []
        try:
            for row in evaluate_grid(HybridExpr(e.star, e.terms), rows, cols, valuation):
                assert type(row) is tuple
                cut.append(row)
        except Exception as raised:
            error.append((type(raised), str(raised)))
        assert all(len(row) == len(cols) for row in cut[:-1])
        if error:
            assert len(cut[-1]) < len(cols)
        else:
            assert len(cut) == len(rows) and all(len(row) == len(cols) for row in cut)
        assert [cell for row in cut for cell in row] + error == want

    def test_a_cell_in_a_point_set_is_found(self):
        cell = SymbolicHybridSet.from_atom(RegionAtom("S", FinitePointSet(((F(1), F(2)),))))
        box = SymbolicHybridSet.from_atom(
            RegionAtom("G", GridRect(Interval1D(F(1), F(1)), Interval1D(F(1), F(1))))
        )
        e = join(term(u_op, cell), term(v_op, box))
        got, want = self.both(e, [F(1)], [F(1), F(2)], None)
        assert got == want == [
            Defined(FormalValue(FreeWord.from_atom(a), None), 1) for a in (v_op, u_op)
        ]

    # Every cell's indicator vector, also after a cell whose outcome raises,
    # by rows and columns and point by point, against the shape-by-shape
    # one: a vector found is the reference's, and a cell where the reference
    # raises gets None, which sends it to the reference.  A cell the
    # reference decides may get None too (a text column where no shape is
    # a grid rectangle is not placed by rows and columns).
    @seed(2009)
    @settings(max_examples=300, deadline=None)
    @given(grid_expressions(st.one_of(grid_shapes, half_rects)), st.lists(grid_coords, max_size=2),
           st.lists(st.one_of(grid_coords, st.just("c")), max_size=2), full_valuations)
    def test_grid_keys_agree_with_keys(self, e, extra_rows, extra_cols, valuation):
        every = [F(n, 2) for n in range(-3, 9)]
        rows, cols = every + extra_rows, every + extra_cols
        layout = regions._Layout([t.region for t in e.terms])
        product = [(r, c) for r in rows for c in cols]
        reference = [_reference_key(layout, p, valuation) for p in product]
        by_rows = regions.IndicatorTable(layout, valuation).grid_keys(rows, cols)
        for keys in (
            (((r, c), key) for r, row in by_rows for c, key in zip(cols, row)),
            regions.IndicatorTable(layout, valuation).keys(product),
        ):
            keys = list(keys)
            assert [p for p, _ in keys] == product
            for (_, key), want in zip(keys, reference):
                if isinstance(want, tuple):
                    assert key is None
                elif key is not None:
                    assert key == want

    def test_a_missing_parameter_ends_the_grid_where_evaluate_many_ends(self):
        # p bounds the rows of the second rectangle: the cells of the
        # non-integer row come out before a cell's test needs p
        first = SymbolicHybridSet.from_atom(
            RegionAtom("G", GridRect(Interval1D(F(2), F(3)), Interval1D(F(1), F(2))))
        )
        second = SymbolicHybridSet.from_atom(
            RegionAtom("H", GridRect(Interval1D(F(1), "p"), Interval1D(F(1), F(2))))
        )
        e = join(term(u_op, first), term(v_op, second))
        rows, cols = [F(1, 2), F(5), F(2)], [F(1), F(2)]
        got, want = self.both(e, rows, cols, Valuation())
        assert got == want
        assert got == [UNDEFINED, UNDEFINED, (ValuationError, "parameter 'p' has no value")]

    # The columns may be any iterable, read once: with an interval shape
    # beside the rectangle and without one (both by row and column classes).
    @pytest.mark.parametrize("with_interval", [True, False])
    def test_columns_may_be_a_one_shot_iterator(self, with_interval):
        box = SymbolicHybridSet.from_atom(
            RegionAtom("G", GridRect(Interval1D(F(1), F(2)), Interval1D(F(2), F(3))))
        )
        e = join(term(u_op, box), term(v_op, A if with_interval else U - box))
        rows, cols = [F(1), F(2), F(3)], [F(1), F(2), F(3)]
        product = [(r, c) for r in rows for c in cols]
        want = _outcomes(evaluate_many(HybridExpr(e.star, e.terms), product, None))
        got = _outcomes(itertools.chain.from_iterable(
            evaluate_grid(HybridExpr(e.star, e.terms), iter(rows), iter(cols), None)))
        assert got == want
        assert len(got) == 9

    # mjoin(+, a^(U - G), b^G, c^I) over grid rectangles U and G and an
    # interval I: the interval holds no cell, so the grid is keyed by row
    # and column classes, and r, which only I reads, is never resolved.
    @pytest.mark.parametrize("values, shared", [
        ({"p": F(3), "q": F(2), "r": F(1)}, True),
        ({"p": F(3), "q": F(2)}, True),
        ({}, False),
    ], ids=["full", "interval end unset", "empty"])
    def test_a_grid_beside_an_interval_is_keyed_by_classes(self, values, shared):
        whole = RegionAtom("U", GridRect(Interval1D(F(1), F(4)), Interval1D(F(1), F(3))))
        box = RegionAtom("G", GridRect(Interval1D(F(2), "p"), Interval1D(F(1), "q")))
        line = RegionAtom("I", Interval1D(F(0), "r"))
        grid, block = SymbolicHybridSet.from_atom(whole), SymbolicHybridSet.from_atom(box)
        e = marked_join(PLUS, [
            term(constant_atom("a", 1), grid - block),
            term(constant_atom("b", 2), block),
            term(constant_atom("c", 3), SymbolicHybridSet.from_atom(line)),
        ])
        valuation = Valuation(values)
        rows, cols = [F(1, 2), F(1), F(2), F(3), F(4), F(2)], [F(0), F(1), F(2), F(3)]
        want, want_error = [], None  # cell by cell, up to the first error
        for r in rows:
            want.append([])
            try:
                want[-1].extend(evaluate(e, (r, c), valuation) for c in cols)
            except HybridError as exc:
                want_error = type(exc), str(exc)
                break
        got, error = [], None
        try:
            for row in evaluate_grid(HybridExpr(e.star, e.terms), rows, cols, valuation):
                got.append(row)
        except HybridError as exc:
            error = type(exc), str(exc)
        assert [list(row) for row in got] == want and error == want_error
        if shared:  # rows 1 and 4 are one row class, and rows 2, 3 and 2 another
            assert got[1] is got[4] and got[2] is got[3] is got[5]
            assert len({id(row) for row in got}) == 3
        else:
            assert error == (ValuationError, "parameter 'p' has no value")

    def test_grid_lines_are_kept_per_table_and_bounded(self, monkeypatch):
        m1, m2 = (
            block_matrix_2x2(f"M{i}", "n", "m", f"h{i}", f"k{i}", [b + str(i) for b in "ABCD"])
            for i in (1, 2)
        )
        e = matrix_add(m1, m2)
        splits = {"n": F(64), "m": F(64), "h1": F(20), "k1": F(7), "h2": F(33)}
        v = Valuation({**splits, "k2": F(41)})
        coords = [F(i) for i in range(1, 65)]
        product = [(r, c) for r in coords for c in coords]
        sorts = []
        sort = regions._Line._sort

        def counting_sort(line, resolve):
            sorts.append(line)
            return sort(line, resolve)

        monkeypatch.setattr(regions._Line, "_sort", counting_sort)
        first = list(itertools.chain.from_iterable(evaluate_grid(e, coords, coords, v)))
        table = e._plan._slot(v)[1]
        lines = (table._rows, table._cols)
        cells = [list(line.cells) for line in lines]
        assert len(sorts) == 2
        second = list(itertools.chain.from_iterable(evaluate_grid(e, coords, coords, v)))
        assert len(sorts) == 2
        assert [line.cells for line in lines] == cells
        assert first == second == list(_per_point_reference(e, product, v))
        layout = e._plan.layout
        for line, ranges in zip(lines, (layout.rows, layout.cols)):
            ends = {resolve_param(p, v) for _, s in ranges for p in (s.lo, s.hi)}
            assert len(line.cells) <= 2 * len(ends) + 1
        # Without k2 the column line never sorts; the cells of the
        # non-integer row come out before the first cell that needs k2.
        lacking = Valuation(splits)
        rows = [F(1, 2)] + coords
        passes = [
            _outcomes(itertools.chain.from_iterable(evaluate_grid(e, rows, coords, lacking)))
            for _ in range(2)
        ]
        assert passes[0] == passes[1] == _outcomes(
            _per_point_reference(e, [(r, c) for r in rows for c in coords], lacking)
        )
        assert passes[0][64:] == [(ValuationError, "parameter 'k2' has no value")]
        assert e._plan._slot(lacking)[1]._cols.ends is None

    # One pass reads and fills the one state it started with, whatever
    # takes the expression's slot between two rows: here a one-point
    # evaluate under another valuation object, before every row but the
    # first and before the end.
    @pytest.mark.parametrize("star", [PLUS, MERGE])
    @pytest.mark.parametrize("bodies", [None, (1, 2, 3, 5)])
    def test_a_pass_keeps_its_state_when_another_valuation_takes_the_slot(self, star, bodies):
        m1, m2 = (
            with_bodies(block_matrix_2x2(f"M{i}", "n", "m", f"h{i}", f"k{i}",
                                         [b + str(i) for b in "ABCD"]), bodies)
            for i in (1, 2)
        )
        e = matrix_add(m1, m2, star)
        v1 = Valuation({"n": F(4), "m": F(4), "h1": F(1), "k1": F(1), "h2": F(2), "k2": F(2)})
        v3 = Valuation({"n": F(8), "m": F(8), "h1": F(3), "k1": F(5), "h2": F(6), "k2": F(2)})
        coords = [F(i) for i in range(1, 9)]
        cells = list(_per_point_reference(e, [(r, c) for r in coords for c in coords], v3))
        rows = evaluate_grid(e, coords, coords, v3)
        got = [next(rows)]
        for _ in coords[1:]:
            evaluate(e, (F(1), F(1)), v1)
            got.append(next(rows))
        evaluate(e, (F(1), F(1)), v1)
        assert next(rows, None) is None
        assert got == [tuple(cells[i:i + 8]) for i in range(0, 64, 8)]

    def test_a_point_independent_outcome_is_one_object_per_indicator_vector(self):
        a = SymbolicHybridSet.from_atom(
            RegionAtom("A", GridRect(Interval1D(F(1), "h"), Interval1D(F(1), "k")))
        )
        e = join(term(u_op, a), term(v_op, U - a))
        v = Valuation({"h": F(2), "k": F(3)})
        coords = [F(i) for i in range(1, 6)]
        outcomes = list(itertools.chain.from_iterable(evaluate_grid(e, coords, coords, v)))
        assert len(outcomes) == 25
        assert len({id(o) for o in outcomes}) == 2
        assert outcomes[0] == Defined(FormalValue(FreeWord.from_atom(u_op), None), 1)


@st.composite
def region_lists(draw):
    """Up to four combinations of up to five shapes drawn from the interval,
    grid and point-set pools, with coefficients that may overflow."""
    drawn = draw(st.lists(st.one_of(shapes, grid_shapes, half_rects, cell_sets),
                          min_size=1, max_size=5))
    pool = [RegionAtom(f"R{i}", s) for i, s in enumerate(drawn)]
    uses = st.lists(st.tuples(st.sampled_from(range(len(pool))), small_or_huge),
                    max_size=3, unique_by=lambda u: u[0])
    return [SymbolicHybridSet((pool[i], c) for i, c in draw(uses))
            for _ in range(draw(st.integers(1, 4)))]


# Numbers, pairs with non-integer rows, text coordinates and text points.
mixed_points = st.one_of(
    sample_points,
    st.tuples(grid_coords, st.one_of(grid_coords, st.just("c"))),
    st.sampled_from(("1/2", ("1", F(1)), (F(1, 2),))),
)


class TestMultiplicitiesMany:
    """``multiplicities_many`` is ``r.multiplicity(p, valuation)`` for each
    region r, point by point: the tuples before the first error, then that
    error's type and message."""

    @seed(2016)
    @settings(max_examples=200, deadline=None)
    @given(region_lists(), st.lists(mixed_points, max_size=12), valuations)
    def test_agrees_with_the_per_point_reference(self, rs, points, valuation):
        want = _outcomes(
            (p, tuple(r.multiplicity(p, valuation) for r in rs)) for p in points
        )
        assert _outcomes(regions.multiplicities_many(rs, points, valuation)) == want


class TestErrorsAreNotKept:
    """A pass keeps nothing about an error: the error that ends a long pass
    is a new one, as short as the error a one-point pass ends in, whatever
    the number of points before it whose placement raised."""

    R = SymbolicHybridSet.from_atom(
        RegionAtom("R", GridRect(Interval1D(F(1), F(2)), Interval1D(F(1), "p")))
    )
    POINTS = [(F(1, 2), F(1))] * 10_000 + [(F(1), F(1))]

    @pytest.mark.parametrize("which", ["evaluate_many", "multiplicities_many"])
    def test_a_long_pass_ends_in_a_short_error(self, which):
        if which == "evaluate_many":
            results = evaluate_many(join(term(u_op, self.R)), self.POINTS, Valuation())
            before = UNDEFINED
        else:
            results = regions.multiplicities_many((self.R,), self.POINTS, Valuation())
            before = (self.POINTS[0], (0,))
        got = []
        with pytest.raises(ValuationError, match="^parameter 'p' has no value$") as info:
            for out in results:
                got.append(out)
        assert got == [before] * 10_000
        entries, tb = 0, info.value.__traceback__
        while tb is not None:
            entries, tb = entries + 1, tb.tb_next
        assert entries < 50


# Every level, a point in every gap between levels, and one beyond each end.
EVERY = (F(-1), F(0), F(1, 4), F(1, 2), F(3, 4), F(1), F(3, 2), F(2), F(5, 2), F(3), F(4))
orders = st.one_of(st.permutations(EVERY), st.just(EVERY), st.just(EVERY[::-1]))
# Up to 64 points: sorted, reversed or shuffled, repeated, or drawn freely.
long_passes = st.one_of(
    st.tuples(orders, st.integers(1, 5)).map(lambda o: list(o[0]) * o[1]),
    st.lists(st.one_of(st.sampled_from(EVERY), sample_points), min_size=1, max_size=64),
)
# Mostly 1; a rare 2**62 puts the plan over the static bound.
small_or_rare_huge = st.sampled_from((1,) * 40 + (-1, -1, -1, 2, -2, 3) + HUGE[:1])
# Valuations that mostly give every parameter a value, often the value of
# another parameter or of a literal end.
tied_valuations = st.one_of(
    st.fixed_dictionaries({p: st.sampled_from(LEVELS) for p in PARAMS}).map(Valuation),
    st.sampled_from(LEVELS).map(lambda v: Valuation({p: v for p in PARAMS})),
    valuations,
)


@st.composite
def sweep_expressions(draw):
    """Up to eight terms over up to eight shapes, mostly intervals, with
    mostly small coefficients and exponents, so that most plans fall within
    the static bound and a new indicator vector changes a few shapes' bits
    at a time."""
    intervals = st.builds(Interval1D, ends, ends, flags, flags)
    drawn = draw(st.lists(st.one_of(intervals, intervals, shapes), min_size=3, max_size=8))
    pool = [RegionAtom(f"R{i}", s) for i, s in enumerate(drawn)]
    terms = []
    for _ in range(draw(st.integers(2, 8))):
        uses = draw(st.lists(st.tuples(st.sampled_from(range(len(pool))), small_or_rare_huge),
                             min_size=1, max_size=3, unique_by=lambda u: u[0]))
        w = FreeWord(draw(st.lists(st.tuples(st.sampled_from(mixed_atoms), small_or_rare_huge),
                                   min_size=1, max_size=3, unique_by=lambda u: u[0].name)))
        terms.append(HybridTerm(w, SymbolicHybridSet((pool[i], c) for i, c in uses)))
    return HybridExpr(draw(st.sampled_from((None, PLUS, TIMES, MERGE))), tuple(terms))


class TestSweep:
    """A plan that keeps no value accumulates each new indicator vector's
    exponents by ``_accumulate`` and keeps them per vector; outcomes, their
    order of atoms, and the first error must be the reference's."""

    def test_long_passes_agree_with_the_per_point_reference(self):
        @seed(2012)
        @settings(max_examples=300, deadline=None)
        @given(sweep_expressions(), long_passes, tied_valuations)
        def check(e, points, valuation):
            want = _outcomes(_per_point_reference(e, points, valuation))
            got = _outcomes(evaluate_many(HybridExpr(e.star, e.terms), points, valuation))
            assert got == want
            assert _rendered(got) == _rendered(want)
            # one-point calls under one valuation object share the state,
            # and go on past a point that raises
            fresh, one_by_one, each = HybridExpr(e.star, e.terms), [], []
            for p in points:
                one_by_one += _outcomes(evaluate(fresh, q, valuation) for q in [p])
                each += _outcomes(_per_point_reference(e, [p], valuation))
            assert one_by_one == each
            assert _rendered(one_by_one) == _rendered(each)

        check()

    def test_a_new_vector_merges_at_most_the_words_active_at_it_and_before(self):
        """Count the word entries ``hybridset.merge`` reads in each
        accumulation against the words of the terms with a nonzero
        multiplicity at the vector, a bound tighter than the words active
        at it or at the vector before."""
        hits = Counter()
        merge, accumulate = functions.merge, functions._accumulate

        def counted(entries):
            for entry in entries:
                hits["entries"] += 1
                yield entry

        def counted_merge(groups, *args):
            return merge(((counted(entries), k) for entries, k in groups), *args)

        def counted_accumulate(plan, multiplicities):
            drawn = []

            def recorded():
                for m in multiplicities:
                    drawn.append(m)
                    yield m

            start = hits["entries"]
            out = accumulate(plan, recorded())
            words = [w._coeffs for w, _, _ in plan.records]
            active = sum(len(w) for w, m in zip(words, drawn) if m)
            assert hits["entries"] - start <= active
            hits["vectors"] += 1
            return out

        @seed(2014)
        @settings(max_examples=150, deadline=None)
        @given(sweep_expressions(), long_passes, tied_valuations)
        def check(e, points, valuation):
            try:
                for _ in evaluate_many(e, points, valuation):
                    pass
            except HybridError:
                pass

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(functions, "merge", counted_merge)
            mp.setattr(functions, "_accumulate", counted_accumulate)
            check()
        assert hits["vectors"] > 0 and hits["entries"] > 0

    @seed(2013)
    @settings(max_examples=200, deadline=None)
    @given(grid_expressions(st.one_of(grid_shapes, half_rects, shapes)),
           st.permutations([F(n, 2) for n in range(-2, 9)]), st.permutations(range(-1, 5)),
           tied_valuations)
    def test_grid_passes_agree_with_the_per_point_reference(self, e, rows, cols, valuation):
        product = [(r, c) for r in rows for c in cols]
        want = _outcomes(_per_point_reference(e, product, valuation))
        got = _outcomes(itertools.chain.from_iterable(
            evaluate_grid(HybridExpr(e.star, e.terms), rows, cols, valuation)))
        assert got == want
        assert _rendered(got) == _rendered(want)

    M = 2**62
    IA = RegionAtom("IA", Interval1D(F(0), F(2)))
    IB = RegionAtom("IB", Interval1D(F(1), "b"))
    SEVENTH = (2**63 - 1) // 7  # 2**63 - 1 is a multiple of 7
    CONSTANTS = {n: constant_atom(n, c) for n, c in (("f", 2), ("g", F(-5, 7)), ("u", 3), ("v", 1))}

    @pytest.mark.parametrize(
        "terms, within",
        [
            ([(f, [(IA, M)]), (f, [(IB, M - 1)])], True),
            ([(f, [(IA, M)]), (f, [(IB, M)])], False),
            ([(f, [(IA, -M)]), (f, [(IB, 1 - M)])], True),
            ([(word(f, g), [(IA, M - 1)]), (g, [(IB, 1)])], True),
            ([(word(f, g), [(IA, M - 1)]), (g, [(IB, 2)])], False),
            ([(word((f, 7)), [(IA, SEVENTH)])], True),
            ([(word((f, 7)), [(IA, SEVENTH)]), (g, [(IB, 1)])], False),
            ([(f, [(IA, -(2**63))])], False),
            ([(word((u_op, 3), v_op), [(IA, M // 8), (IB, -M // 8)]), (v_op, [(IB, M - 1)])], True),
            ([(word((u_op, 3), v_op), [(IA, M // 8), (IB, -M // 8)]), (v_op, [(IB, M)])], False),
        ],
    )
    @pytest.mark.parametrize("star", [None, PLUS, MERGE])
    @pytest.mark.parametrize("constants", [False, True])
    def test_plans_at_the_static_bound_agree_with_the_reference(
        self, terms, within, star, constants
    ):
        # Given, each word reads x or is opaque; swapped, each atom is a
        # constant of the same name, so only the star and the bound decide.
        terms = [term(w, SymbolicHybridSet(uses)) for w, uses in terms]
        if constants:
            terms = [HybridTerm(FreeWord([(self.CONSTANTS[a.name], k) for a, k in t.word.items()]),
                                t.region) for t in terms]
        e = HybridExpr(star, tuple(terms))
        assert e._plan.additive is (constants and star is PLUS and within)
        v = Valuation({"b": F(3)})
        points = [F(n, 2) for n in range(-2, 9)]
        points += points[::-1] + points
        for p in points:  # one point at a time: an error ends no pass early
            want = _outcomes(_per_point_reference(e, [p], v))
            got = _outcomes(evaluate_many(e, [p], v))
            assert got == want
            assert _rendered(got) == _rendered(want)


# Atoms that read no point: constants, and bodies over parameters, one of
# which raises where a is 0 or has no value.
point_free_atoms = (
    constant_atom("c2", 2), constant_atom("cq", F(-5, 7)), atom("pb", "b / 2"),
    atom("ka", "a / 3"), atom("ia", "1 / a"),
)
# The parameter each point-free atom reads, if any.
READS = {"c2": None, "cq": None, "pb": "b", "ka": "a", "ia": "a"}
# Mostly point-free; an atom that reads x and an opaque atom each keep a
# plan off the additive path.
additive_word_atoms = point_free_atoms * 12 + (f, u_op)


@st.composite
def additive_expressions(draw):
    """Marked sums drawn as ``sweep_expressions`` draws its expressions,
    with words over ``additive_word_atoms``."""
    intervals = st.builds(Interval1D, ends, ends, flags, flags)
    drawn = draw(st.lists(st.one_of(intervals, intervals, shapes), min_size=3, max_size=8))
    pool = [RegionAtom(f"R{i}", s) for i, s in enumerate(drawn)]
    terms = []
    for _ in range(draw(st.integers(2, 8))):
        uses = draw(st.lists(st.tuples(st.sampled_from(range(len(pool))), small_or_rare_huge),
                             min_size=1, max_size=3, unique_by=lambda u: u[0]))
        w = FreeWord(draw(st.lists(st.tuples(st.sampled_from(additive_word_atoms), small_or_rare_huge),
                                   min_size=1, max_size=3, unique_by=lambda u: u[0].name)))
        terms.append(HybridTerm(w, SymbolicHybridSet((pool[i], c) for i, c in uses)))
    return marked_join(PLUS, terms)


def _names(e):
    return {a.name for t in e.terms for a, _ in t.word.items()}


def _additive_plan(e):
    """Whether e's plan should be additive, judged by its star, the static
    bound and the names of its atoms."""
    bound = sum(sum(abs(c) for _, c in t.region.items()) * sum(abs(k) for _, k in t.word.items())
                for t in e.terms)
    return e.star is PLUS and bound <= 2**63 - 1 and _names(e) <= READS.keys()


def _additive_state(e, valuation):
    """Whether a state of e under ``valuation`` should keep the value: the
    plan is additive and every parameter its atoms read has a value, which
    is not 0 where ``1 / a`` is among them."""
    if not _additive_plan(e):
        return False
    values = {} if valuation is None else dict(valuation.items())
    names = _names(e)
    if any(READS[n] is not None and READS[n] not in values for n in names):
        return False
    return not ("ia" in names and values["a"] == 0)


def _exactly(outcomes):
    """The outcomes with the type and text of each value, which the
    equality of ``Defined`` does not compare."""
    return [(o, type(o.value), str(o.value)) if isinstance(o, Defined) else o for o in outcomes]


def _one_object_per_vector(e, points, valuation, outcomes):
    """Every point with one indicator vector got the same outcome object,
    up to the error that ends the outcomes."""
    table = regions.IndicatorTable(regions._Layout([t.region for t in e.terms]), valuation)
    seen = {}
    for p, out in zip(points, outcomes):
        if isinstance(out, tuple):
            break
        (_, key), = table.keys([p])
        if key is not None:
            assert seen.setdefault(key, out) is out


class TestAdditiveSweep:
    """Under + with atoms that read no point, a state whose atoms all
    evaluate keeps the value itself.  Its outcomes must be the reference's
    in value, value type, multiplicity and text, one object per indicator
    vector; a plan or a state that may not keep the value accumulates each
    vector, and its outcomes and errors are the reference's too."""

    @staticmethod
    def tracking(mp, states):
        """Count the new states by whether the plan is additive and by the
        sweep they take."""
        made = functions._Plan._sweep

        def tracked(plan, valuation):
            sweep = made(plan, valuation)
            states[plan.additive, type(sweep).__name__] += 1
            return sweep

        mp.setattr(functions._Plan, "_sweep", tracked)

    @staticmethod
    def check_path(e, valuation):
        additive = _additive_state(e, valuation)
        assert e._plan.additive is _additive_plan(e)
        assert isinstance(e._plan.slot[3], functions._AdditiveSweep) is additive
        return additive

    def run_tracked(self, check):
        states = Counter()
        with pytest.MonkeyPatch.context() as mp:
            self.tracking(mp, states)
            check()
        # the additive path, an additive plan whose atom raises, and a plan
        # that is not additive are each reached; the last two keep no sweep
        assert states[True, "_AdditiveSweep"] > 0
        assert states[True, "NoneType"] > 0
        assert states[False, "NoneType"] > 0

    def test_long_passes_agree_with_the_per_point_reference(self):
        @seed(2014)
        @settings(max_examples=300, deadline=None)
        @given(additive_expressions(), long_passes, tied_valuations)
        def check(e, points, valuation):
            want = _exactly(_outcomes(_per_point_reference(e, points, valuation)))
            fresh = HybridExpr(e.star, e.terms)
            got = _outcomes(evaluate_many(fresh, points, valuation))
            assert _exactly(got) == want
            if self.check_path(fresh, valuation):
                _one_object_per_vector(e, points, valuation, got)
            # one-point calls under one valuation object share the state,
            # and go on past a point that raises
            fresh, one_by_one, each = HybridExpr(e.star, e.terms), [], []
            for p in points:
                one_by_one += _outcomes(evaluate(fresh, q, valuation) for q in [p])
                each += _outcomes(_per_point_reference(e, [p], valuation))
            assert _exactly(one_by_one) == _exactly(each)
            if self.check_path(fresh, valuation):
                _one_object_per_vector(e, points, valuation, one_by_one)

        self.run_tracked(check)

    def test_grid_passes_agree_with_the_per_point_reference(self):
        sums = grid_expressions(st.one_of(grid_shapes, half_rects, shapes), additive_word_atoms)

        @seed(2015)
        @settings(max_examples=200, deadline=None)
        @given(sums.map(lambda e: marked_join(PLUS, e.terms)),
               st.permutations([F(n, 2) for n in range(-2, 9)]), st.permutations(range(-1, 5)),
               tied_valuations)
        def check(e, rows, cols, valuation):
            product = [(r, c) for r in rows for c in cols]
            want = _exactly(_outcomes(_per_point_reference(e, product, valuation)))
            fresh = HybridExpr(e.star, e.terms)
            got = _outcomes(itertools.chain.from_iterable(evaluate_grid(fresh, rows, cols, valuation)))
            assert _exactly(got) == want
            if self.check_path(fresh, valuation):
                _one_object_per_vector(e, product, valuation, got)

        self.run_tracked(check)

    # The sum of two fold-eval steps, z^(U - R1) ⊛ f^R1 and z^(U - R2) ⊛ g^R2,
    # with k1 = 2 and k2 = 5: f survives on (2, 15] and cancels below.
    STEPS = """\
param k1, k2, c
region U = interval[0, 15]
region R1 = interval(k1, 15]
region R2 = interval(k2, 15]
fn z = 0
fn f = 1/c
fn g = 2
expr H1 = join(z^(U - R1), f^R1)
expr H2 = join(z^(U - R2), g^R2)
valuation zero: k1 = 2, k2 = 5, c = 0
valuation unset: k1 = 2, k2 = 5
valuation four: k1 = 2, k2 = 5, c = 4
"""
    DIVIDES = (ContractError, "division by zero in body expression")
    UNSET = (ValuationError, "parameter 'c' has no value")

    @pytest.mark.parametrize(
        "name, outcomes",
        [
            ("zero", [Defined(F(0), 1), DIVIDES, DIVIDES, UNDEFINED]),
            ("unset", [Defined(F(0), 1), UNSET, UNSET, UNDEFINED]),
            ("four", [Defined(F(0), 1), Defined(F(1, 4), 1), Defined(F(9, 4), 1), UNDEFINED]),
        ],
    )
    def test_an_atom_that_raises_raises_only_where_it_survives(self, name, outcomes):
        ws = parse_workspace(self.STEPS)
        e = pointwise_star(PLUS, ws.exprs["H1"], ws.exprs["H2"], universe=ws.regions["U"])
        v = ws.valuations[name]
        points = [F(1), F(3), F(6), F(16)]
        got = [_outcomes(evaluate(e, x, v) for x in [p])[0] for p in points]
        assert _exactly(got) == _exactly(outcomes)
        assert e._plan.additive
        assert isinstance(e._plan.slot[3], functions._AdditiveSweep) is (name == "four")
        # a pass ends at its first raising point
        end = next((i for i, o in enumerate(outcomes) if isinstance(o, tuple)), len(outcomes) - 1)
        pass_ = _outcomes(evaluate_many(HybridExpr(e.star, e.terms), points, v))
        assert _exactly(pass_) == _exactly(outcomes[: end + 1])


class TestSharedSweep:
    """A + plan whose atoms name no parameter makes its one
    ``_AdditiveSweep`` with the plan, and every valuation state moves a
    position of its own over it; a plan whose atom names a parameter makes
    one per state.  The one-point and the many-point outcomes are the
    reference's either way, and a kept outcome is one object."""

    def steps(self, last, star=PLUS):
        """Steps a_i on (k_i, 15] over U = [0, 15], as in
        ``TestPlanAndState``, the last with the body ``last``."""
        universe = SymbolicHybridSet.from_atom(RegionAtom("U", Interval1D(F(0), F(15))))
        terms = [term(constant_atom("z", 0), universe)]
        for i, body in enumerate(("3/2", "-2", "1/3", last), start=1):
            step = RegionAtom(f"R{i}", Interval1D(f"k{i}", F(15), lo_closed=False))
            terms.append(term(atom(f"a{i}", body), SymbolicHybridSet.from_atom(step)))
        return marked_join(star, terms)

    # Three valuation objects, the last with every threshold tied; c is 0
    # under the second.
    V = (Valuation({"k1": 2, "k2": F(15, 2), "k3": 2, "k4": 0, "c": 4}),
         Valuation({"k1": 5, "k2": 1, "k3": 9, "k4": 12, "c": 0}),
         Valuation({"k1": 3, "k2": 3, "k3": 3, "k4": 3, "c": F(1, 2)}))
    POINTS = [F(j - 2, 2) for j in range(36)]  # -1 to 33/2, ties included

    @pytest.mark.parametrize(
        "last, builds, shared",
        [("3", 1, "_AdditiveSweep"), ("c / 2", 3, "NoneType"), ("1 / c", 2, "NoneType"),
         ("1/0", 0, "bool")],
        ids=["constant", "parameter", "parameter-raises", "constant-raises"],
    )
    def test_sweeps_are_built_per_plan_or_per_state(self, monkeypatch, last, builds, shared):
        made = []
        build = functions._AdditiveSweep.__init__

        def counting(sweep, plan, values):
            made.append(plan)
            build(sweep, plan, values)

        monkeypatch.setattr(functions._AdditiveSweep, "__init__", counting)
        e = self.steps(last)
        for v in self.V:
            one = [_outcomes(evaluate(e, x, v) for x in [p])[0] for p in self.POINTS]
            each = [_outcomes(_per_point_reference(e, [p], v))[0] for p in self.POINTS]
            assert _exactly(one) == _exactly(each)
            many = _outcomes(evaluate_many(e, self.POINTS, v))
            assert _exactly(many) == _exactly(_outcomes(_per_point_reference(e, self.POINTS, v)))
        assert len(made) == builds and set(map(id, made)) <= {id(e._plan)}
        # the plan's own sweep, None (one per state), or False (an atom raised)
        assert e._plan.additive and type(e._plan.shared).__name__ == shared
        if last == "1/0":  # under the last valuation, a4 survives on (3, 15] and raises there
            assert [isinstance(o, tuple) for o in one] == [3 < x <= 15 for x in self.POINTS]

    @pytest.mark.parametrize("star", [PLUS, TIMES])
    def test_a_kept_outcome_is_the_object_evaluate_many_returns(self, star):
        e = self.steps("3", star)
        for v in self.V:
            one = [evaluate(e, x, v) for x in self.POINTS]
            many = list(evaluate_many(e, self.POINTS, v))
            again = [evaluate(e, x, v) for x in self.POINTS]
            assert all(a is b is c for a, b, c in zip(one, many, again))
            assert one == list(_per_point_reference(e, self.POINTS, v))

    @pytest.mark.parametrize(
        "point, valuation, error",
        [("not a point", V[0], ContractError), (F(1), Valuation({"k1": 2}), ValuationError)],
        ids=["text", "unset-endpoint"],
    )
    def test_an_unkeyable_point_raises_alike_on_every_repeat(self, point, valuation, error):
        e = self.steps("3")
        want = _outcomes(_per_point_reference(e, [point], valuation))
        assert want[0][0] is error
        for _ in range(3):
            assert _outcomes(evaluate(e, x, valuation) for x in [point]) == want
            assert _outcomes(evaluate_many(e, [point], valuation)) == want


# Three fold-eval steps whose atoms read the parameter c.  g enters with
# H1's words and leaves with H3's: the third step's added word holds g^-1,
# and the record it drops holds g, so g cancels out of every term word of
# the fold but stays in its records and added words.
CANCEL_STEPS = """\
param k1, k2, k3, c
region U = interval[0, 6]
region R1 = interval(k1, 6]
region R2 = interval(k2, 6]
region R3 = interval(k3, 6]
fn z1 = 0
fn a1 = 1/2
fn z2 = c
fn a2 = 2 * c
fn z3 = 0
fn a3 = 3
fn g = 1/c
expr H1 = join((g * z1)^(U - R1), (g * a1)^R1)
expr H2 = join(z2^(U - R2), a2^R2)
expr H3 = join((g^-1 * z3)^(U - R3), (g^-1 * a3)^R3)
valuation v: k1 = 1, k2 = 3, k3 = 3, c = 2
valuation w: k1 = 4, k2 = 2, k3 = 0, c = 0
"""


def _steps(ws, star=PLUS):
    e = ws.exprs["H1"]
    for name in ("H2", "H3"):
        e = pointwise_star(star, e, ws.exprs[name], universe=ws.regions["U"])
    return e


# Atoms that the operands of a drawn fold share: constants, bodies over
# parameters (b may have no value, 1 / a divides by 0 where a is 0, and d
# never has one), one that reads x and an opaque one.
shared_atoms = (constant_atom("c2", 2), constant_atom("cq", F(-5, 7)), atom("pb", "b / 2"),
                atom("ia", "1 / a"), atom("ud", "d"), atom("xr", "x + 1"), atom("op"))
shared_exponents = st.sampled_from((1, -1, 2, -2))
# Thresholds on a few levels, so that they tie with each other, with the
# universe's ends and with the sample points.
fold_levels = st.sampled_from((F(0), F(1), F(5, 2), F(3), F(4)))
fold_valuations = st.builds(
    lambda ks, a, b: Valuation({**{f"k{i}": k for i, k in enumerate(ks, start=1)}, "a": a,
                                **({} if b is None else {"b": b})}),
    st.lists(fold_levels, min_size=10, max_size=10), st.sampled_from((F(0), F(1, 2), F(3))),
    st.sampled_from((None, F(1), F(-4, 3))),
)
FOLD_COORDS = (F(-1), F(0), F(1, 2), F(1), F(2), F(5, 2), F(3), F(4), F(5))


@st.composite
def stepped_folds(draw):
    """(star, operands, universe atom): N <= 10 step operands
    z_i^(U - R_i) ⊛ a_i^R_i, R_i = (k_i, 4] over U = [0, 4] or the grid
    rectangle of rows R_i by the columns of U, whose words carry up to two
    shared atoms each; often one shared atom g enters with the first
    operand's words and leaves with the third's."""
    n = draw(st.integers(3, 10))
    grid = draw(st.booleans())
    top = Interval1D(F(0), F(4))
    universe = RegionAtom("U", GridRect(top, top) if grid else top)
    extra = st.one_of(st.just(()), st.just(()), st.just(()), st.lists(
        st.tuples(st.sampled_from(shared_atoms), shared_exponents), max_size=2,
        unique_by=lambda u: u[0].name))
    cancel = draw(st.one_of(st.none(), st.tuples(st.sampled_from(shared_atoms), shared_exponents)))
    operands = []
    for i in range(1, n + 1):
        rows = Interval1D(f"k{i}", F(4), lo_closed=False)
        r = SymbolicHybridSet.from_atom(RegionAtom(f"R{i}", GridRect(rows, top) if grid else rows))
        words = []
        for base in (constant_atom(f"z{i}", F(1, i + 1)), constant_atom(f"a{i}", i)):
            entries = [(base, 1), *draw(extra)]
            if cancel is not None and i in (1, 3):
                entries.append((cancel[0], cancel[1] if i == 1 else -cancel[1]))
            words.append(FreeWord(entries))
        u = SymbolicHybridSet.from_atom(universe)
        operands.append(join(HybridTerm(words[0], u - r), HybridTerm(words[1], r)))
    return draw(st.sampled_from((PLUS, PLUS, TIMES))), operands, universe


class TestRecordPlan:
    """A stepped fold's plan is made from its records and added words and
    never reads its terms; its outcomes are those of the plain marked join
    of its terms, whose plan has one record per term."""

    def test_a_cancelled_atom_changes_the_route_not_the_outcome(self):
        ws = parse_workspace(CANCEL_STEPS)
        e = _steps(ws)
        points = [F(j, 2) for j in range(-2, 15)]
        got = {"v": _outcomes(evaluate_many(e, points, ws.valuations["v"]))}
        assert "terms" not in e.__dict__  # the additive route built no term
        got["w"] = _outcomes(evaluate_many(e, points, ws.valuations["w"]))
        reference = marked_join(PLUS, e.terms)
        assert all("g" not in t.word._coeffs for t in e.terms)
        assert "g" in e._plan.atoms and "g" not in reference._plan.atoms
        for v in "vw":
            want = _outcomes(evaluate_many(reference, points, ws.valuations[v]))
            assert _exactly(got[v]) == _exactly(want)
            assert _exactly([evaluate(e, p, ws.valuations[v]) for p in points]) == _exactly(want)
        # under c = 0, g raises: the fold's state accumulates, the reference's sweeps
        assert e._plan.slot[3] is None
        assert isinstance(reference._plan.slot[3], functions._AdditiveSweep)

    def test_a_compact_plan_takes_the_names_its_form_certified(self, monkeypatch):
        # The compact form bound its names clash-free as it built them, over
        # exactly the words of its records, links and added words, so its
        # plan binds none again; a plain join's plan still binds, and
        # reports a name bound to two definitions.
        bound = []
        real = functions.bind_all
        monkeypatch.setattr(functions, "bind_all", lambda *args: bound.append(1) or real(*args))
        e = step_fold(steps_workspace(12), 12, TIMES)
        form = e._source
        v = Valuation({"t": 14, **{f"k{i}": i for i in range(1, 13)}})
        points = [F(j, 2) for j in range(-2, 31)]
        got = _outcomes(evaluate_many(e, points, v))
        assert bound == [] and e._plan.atoms is form.atoms
        words = [*(w for w, _, _ in form.records), *form.links, *form.added]
        assert form.atoms.keys() == {name for w in words for name in w._coeffs}
        assert _exactly(got) == _exactly(_outcomes(evaluate_many(marked_join(TIMES, e.terms), points, v)))
        assert len(bound) == 1
        clash = marked_join(PLUS, [term(constant_atom("c", 1), A), term(constant_atom("c", 2), B)])
        with pytest.raises(ContractError, match="atom name 'c' bound to two definitions"):
            evaluate(clash, F(1, 2))
        assert len(bound) == 2

    def test_a_times_pass_merges_the_records_and_builds_no_term(self):
        # A * fold keeps no value, so each new vector is accumulated, from the
        # own words of the records active at it, the links and the added
        # words, each read at most once.
        n = 40
        e = step_fold(steps_workspace(n), n, TIMES)
        v = Valuation({"t": n + 2, **{f"k{i}": (7 * i) % n for i in range(1, n + 1)}})
        points = [F(j, 2) for j in range(-2, 2 * (n + 2) + 3)]
        merge, accumulate = functions.merge, functions._accumulate
        read, bounds = [], []

        def counted_merge(groups, *args):
            def counted(entries):
                for entry in entries:
                    read[-1] += 1
                    yield entry
            return merge(((counted(entries), k) for entries, k in groups), *args)

        def counted_accumulate(plan, multiplicities):
            ms = list(multiplicities)
            read.append(0)
            bounds.append(sum(len(w._coeffs) for (w, _, _), m in zip(plan.records, ms) if m)
                          + sum(len(a._coeffs) for a in (*plan.links, *plan.added)))
            return accumulate(plan, iter(ms))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(functions, "merge", counted_merge)
            mp.setattr(functions, "_accumulate", counted_accumulate)
            got = _outcomes(evaluate_many(e, points, v))
        assert e._source.added and "terms" not in e.__dict__
        assert len(read) > n // 2 and all(r <= b for r, b in zip(read, bounds))
        assert _exactly(got) == _exactly(_outcomes(evaluate_many(marked_join(TIMES, e.terms), points, v)))

    def test_an_unset_threshold_raises_at_the_first_record_that_meets_it(self):
        # A valuation that leaves a threshold of the fold unset makes the
        # placement raise, so the points take the key-None route, which
        # reads the records' regions in term order.
        counts = Counter()
        accumulate = functions._accumulate

        def counted_accumulate(plan, multiplicities):
            def drawn():
                try:
                    yield from multiplicities
                except ValuationError:
                    counts["unset"] += bool(plan.added)
                    raise
            return accumulate(plan, drawn())

        @seed(2044)
        @settings(max_examples=100, deadline=None)
        @given(stepped_folds(), fold_valuations, st.sets(st.integers(1, 10), min_size=1, max_size=2),
               st.permutations(FOLD_COORDS))
        def check(drawn, valuation, unset, coords):
            star, operands, universe = drawn
            e = operands[0]
            for op in operands[1:]:
                e = pointwise_star(star, e, op, universe=universe)
            unset = {f"k{(i - 1) % len(operands) + 1}" for i in unset}
            v = Valuation({k: x for k, x in valuation.items() if k not in unset})
            grid = isinstance(universe.shape, GridRect)
            points = [(r, c) for r in coords[:4] for c in coords[4:]] if grid else list(coords)
            outcomes = []
            for run in (e, marked_join(star, e.terms)):
                outcomes.append([_exactly(_outcomes(evaluate_many(run, points, v))),
                                 [_outcomes(evaluate(run, q, v) for q in [p])[0] for p in points]])
            assert outcomes[0] == outcomes[1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(functions, "_accumulate", counted_accumulate)
            check()
        assert counts["unset"] > 500

    def test_outcomes_and_errors_are_the_reference_plans(self):
        counts = Counter()

        @seed(2040)
        @settings(max_examples=200, deadline=None)
        @given(stepped_folds(), st.lists(fold_valuations, min_size=1, max_size=2),
               st.permutations(FOLD_COORDS), st.permutations(FOLD_COORDS[1:6]))
        def check(drawn, valuations, coords, cols):
            star, operands, universe = drawn
            e = operands[0]
            for op in operands[1:]:
                e = pointwise_star(star, e, op, universe=universe)
            grid = isinstance(universe.shape, GridRect)
            points = [(r, c) for r in coords[:4] for c in cols] if grid else list(coords)
            points += [(F(1),), "1/2"]

            def run(e):
                """Every outcome under each valuation, and the sweep each state took."""
                outcomes, routes = [], []
                for v in valuations:
                    outcomes.append(_outcomes(evaluate_many(e, points, v)))
                    routes.append(type(e._plan.slot[3]))
                    outcomes.append([_outcomes(evaluate(e, q, v) for q in [p])[0] for p in points])
                    if grid:
                        outcomes.append(_outcomes(itertools.chain.from_iterable(
                            evaluate_grid(e, coords, cols, v))))
                return outcomes, routes

            got, routes = run(e)
            counts["stepped"] += bool(e._source.added)
            reference = marked_join(star, e.terms)
            want, reference_routes = run(reference)
            assert [_exactly(r) for r in got] == [_exactly(w) for w in want]
            assert [_rendered(r) for r in got] == [_rendered(w) for w in want]
            counts["more atoms"] += e._plan.atoms.keys() > reference._plan.atoms.keys()
            counts["other route"] += routes != reference_routes

        check()
        # stepped folds, cancelled atoms in their records, and states whose
        # route the cancelled atom changed are each met
        assert counts["stepped"] > 150
        assert counts["more atoms"] > 20
        assert counts["other route"] > 5


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
        a = HybridSet((el, 1) for el in [F(0), F(2), F(4)])
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
