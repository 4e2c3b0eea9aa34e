"""Pointwise arithmetic over refinements, signed sums, linear operators."""

import itertools
import operator
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from hybridsets import (
    ChoiceMatrix,
    CheckReport,
    ContractError,
    Defined,
    FreeWord,
    FunctionAtom,
    GeneralisedPartition,
    GridRect,
    HybridError,
    HybridExpr,
    HybridTerm,
    MultiplicityOverflowError,
    Interval1D,
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
    evaluate_many,
    grid_universe,
    is_strict,
    join,
    karr_split_check,
    karr_sum,
    linearity_report,
    marked_join,
    parse_workspace,
    pointwise_star,
    rational_grid,
    star_inverse_identity_check,
    term,
    verify_rewrite,
    word,
)
from hybridsets import calculus, hybridset, oracle, refine, regions
from hybridsets.calculus import summation
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


def over_explicit_refinement(star, operands, universe):
    """``pointwise_star`` over the canonical refinement built by
    ``common_strict_refinement``, one partition per operand."""
    refinement = common_strict_refinement([
        GeneralisedPartition(f"operand {k}", universe, tuple(t.region for t in op.terms), assumed=True)
        for k, op in enumerate(operands, start=1)
    ])
    return pointwise_star(star, *operands, refinement=refinement)


def _outcome_of(call):
    """The render and terms of a combine, or its error's type and message."""
    try:
        e = call()
    except (ContractError, RefinementError) as exc:
        return type(exc), str(exc)
    return e.render(), e.terms


# Words over three shared atoms with exponents +-1 and +-2, so that a word
# can cancel and come back; regions with repeats and combinations.
DIFF_ATOMS = tuple(constant_atom(name, i) for i, name in enumerate("fgh", start=1))
DIFF_WORDS = st.lists(
    st.tuples(st.sampled_from(DIFF_ATOMS), st.sampled_from([1, -1, 2, -2])),
    min_size=1, max_size=2, unique_by=lambda pair: pair[0].name,
).map(lambda pairs: word(*pairs))
DIFF_REGIONS = st.sampled_from([A1, A1, B1, U - A1, U - B1, A1 + B1, U - A1 - B1, A1 - B1, U])
DIFF_OPERANDS = st.lists(st.tuples(DIFF_WORDS, DIFF_REGIONS), min_size=1, max_size=6).map(
    lambda pairs: join(*(term(w, r) for w, r in pairs))
)


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
        for x in oracle.rational_grid_points(F(-1, 4), F(5, 4), 40):
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
        for x in oracle.rational_grid_points(0, 1, 30):
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
        twice = GeneralisedPartition("D", U_ATOM, (A1, A1, U - A1 - A1), assumed=True)
        e = pointwise_star(PLUS, left, right)
        assert [t.word for t in e.terms] == [word(f1, h1), word(f2, h2), word(g1, h3)]
        assert [t.region for t in e.terms] == [A1, A1, U - A1 - A1]
        # the same terms out of order do not match their pieces
        refinement = common_strict_refinement([twice, twice])
        message = r"^operand 2: term 1 has region 'U - 2\*A1', but piece 1 .* is 'A1'$"
        with pytest.raises(RefinementError, match=message):
            pointwise_star(PLUS, left, join(*right.terms[::-1]), refinement=refinement)

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
        # one partition is not shared out among several operands
        one = common_strict_refinement([p])
        with pytest.raises(RefinementError, match="^2 operands but the refinement has 1 partitions$"):
            pointwise_star(TIMES, F_EXPR, F_EXPR, refinement=one)
        with pytest.raises(ContractError):
            pointwise_star(TIMES)
        with pytest.raises(ContractError, match="^a partition needs at least one piece$"):
            pointwise_star(PLUS, join(), join())

    def test_an_atom_that_cancels_and_returns_prints_in_print_order(self):
        # In piece A2 - B1 the x of left piece 1 cancels against the
        # inverted left piece 3 and comes back with right piece 3; it prints
        # where print order puts it, positive exponents first, each by name.
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
            "(w + x^2 + z)^{U - A1} ⊛+ (x^2 + z)^{A1 - A2} "
            "⊛+ (x + y + z + w^-1)^{A2 - B1} ⊛+ (y + z + w^-1)^{B1 - B2} "
            "⊛+ (y + x^-1)^{B2}"
        )

    @pytest.mark.parametrize("whole", [F(1), True], ids=["Fraction", "bool"])
    def test_whole_non_int_matrix_entries_rewrite_as_ints(self, whole):
        # determinant() reads a whole Fraction (or a bool) as its integer;
        # the rewrite rows must carry that plain int too.
        parts = [
            GeneralisedPartition("F", U_ATOM, (A1, U - A1)),
            GeneralisedPartition("G", U_ATOM, (B1, U - B1)),
        ]
        labels = (("U", "F.1", "G.1"), ("P1", "P2", "P3"))
        plain, odd = (
            common_strict_refinement(
                parts, choice=ChoiceMatrix(((1, 1, 1), (e, 0, 0), (0, 1, 0)), *labels)
            )
            for e in (1, whole)
        )
        assert odd.choice.determinant() == 1
        assert odd.coefficients == plain.coefficients
        assert all(type(c) is int for rows in odd.coefficients for row in rows for c in row)
        for k, part in enumerate(parts):
            for i, piece in enumerate(part.pieces):
                assert odd.rewrite(k, i) == plain.rewrite(k, i) == piece
        rendered = [pointwise_star(PLUS, F_EXPR, G_EXPR, refinement=r).render() for r in (odd, plain)]
        assert rendered == ["(f1 + g2)^{A1} ⊛+ (f2 + g1)^{B1} ⊛+ (f2 + g2)^{U - A1 - B1}"] * 2

    def test_a_bare_term_is_an_operand_of_one_piece(self):
        e = pointwise_star(PLUS, term(f1, A1), term(g1, A1))
        assert e.render() == "(f1 + g1)^{A1}"
        with pytest.raises(TypeError, match="^expected an expression or term, got 3$"):
            pointwise_star(PLUS, term(f1, A1), 3)

    def test_a_word_that_cancels_away_is_an_error(self):
        with pytest.raises(
            ContractError, match="^value word for refinement piece 1 cancelled away$"
        ):
            pointwise_star(PLUS, term(f1, A1), term(word((f1, -1)), A1))

    def test_a_custom_matrix_labels_the_pieces_by_its_columns(self):
        p = GeneralisedPartition("F", U_ATOM, (A1, U - A1))
        q = GeneralisedPartition("G", U_ATOM, (B1, U - B1))
        choice = ChoiceMatrix(PRODUCT_MATRIX.entries, PRODUCT_MATRIX.row_labels, ("X", "Y", "Z"))
        ref = common_strict_refinement([p, q], choice=choice)
        assert ref.labels == ("X", "Y", "Z")
        # piece Y is B1 - A1, where f2 meets its inverse
        inverted = join(term(word((f2, -1)), B1), term(g2, U - B1))
        with pytest.raises(
            ContractError, match="^value word for refinement piece Y cancelled away$"
        ):
            pointwise_star(PLUS, F_EXPR, inverted, refinement=ref)

    def test_needs_a_universe_to_refine_mismatched_partitions(self):
        with pytest.raises(ContractError):
            pointwise_star(TIMES, F_EXPR, G_EXPR)

    @pytest.mark.parametrize("operands, message", [
        # piece P3 is B1, where f2 meets its inverse
        ((F_EXPR, join(term(word((f2, -1)), B1), term(g2, U - B1))),
         "^value word for refinement piece P3 cancelled away$"),
        ((join(), F_EXPR), "^a partition needs at least one piece$"),
    ], ids=["cancelled", "no terms"])
    def test_the_closed_form_errors_are_frozen(self, operands, message):
        with pytest.raises(ContractError, match=message):
            pointwise_star(PLUS, *operands, universe=U_ATOM)

    @seed(32)
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([PLUS, TIMES]),
        st.integers(1, 5).flatmap(lambda n: st.lists(DIFF_OPERANDS, min_size=n, max_size=n)),
    )
    def test_the_closed_form_matches_an_explicit_refinement(self, star, operands):
        regions = [tuple(t.region for t in op.terms) for op in operands]
        if all(r == regions[0] for r in regions):
            # a shared partition: the universe is not read
            want = _outcome_of(lambda: pointwise_star(star, *operands))
        else:
            want = _outcome_of(lambda: over_explicit_refinement(star, operands, U_ATOM))
        assert _outcome_of(lambda: pointwise_star(star, *operands, universe=U_ATOM)) == want

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
        # term i is read as piece i: the pieces out of order do not match
        swapped = join(term(f2, U - A1), term(f1, A1))
        message = r"^operand 1: term 1 has region 'U - A1', but piece 1 of the partition is 'A1'$"
        with pytest.raises(RefinementError, match=message):
            pointwise_star(TIMES, swapped, G_EXPR, refinement=product_refinement())


def weak_orderings(p):
    """Every weak ordering of p thresholds, as each threshold's level: the
    levels used are exactly 0..L-1."""
    return [r for r in itertools.product(range(p), repeat=p) if set(r) == set(range(max(r) + 1))]


def steps_text(p):
    """The text of p fold-eval operands z_i^(U - R_i) ⊛ a_i^R_i with
    R_i = (k_i, t] and U = [0, t], the amplitudes a_i = 2^i / 3 telling
    every subset apart."""
    lines = ["param t, " + ", ".join(f"k{i}" for i in range(1, p + 1)),
             "region U = interval[0, t]"]
    for i in range(1, p + 1):
        lines += [f"region R{i} = interval(k{i}, t]", f"fn z{i} = 0", f"fn a{i} = {2**i}/3",
                  f"expr H{i} = join(z{i}^(U - R{i}), a{i}^R{i})"]
    return "\n".join(lines) + "\n"


def steps_workspace(p):
    """The workspace of ``steps_text(p)``."""
    return parse_workspace(steps_text(p))


class TestEveryOrdering:
    """A combine of p step operands agrees with the closed-form step sum
    for every weak ordering of the p thresholds, and for every placement
    of the outer levels on or inside the ends of U, at every endpoint and
    in every gap: the region multiplicities at x depend only on the weak
    ordering of x and the resolved endpoints."""

    @pytest.mark.parametrize("p, cases", [(1, 1), (2, 3), (3, 13), (4, 75)])
    def test_the_combine_matches_the_step_sum(self, p, cases):
        ws = steps_workspace(p)
        operands = [ws.exprs[f"H{i}"] for i in range(1, p + 1)]
        universe = ws.regions["U"]
        fold = operands[0]
        for op in operands[1:]:
            fold = pointwise_star(PLUS, fold, op, universe=universe)
        combines = (pointwise_star(PLUS, *operands, universe=universe), fold)
        assert [len(e.terms) for e in combines] == [p + 1, p + 1]
        amps = [F(2**i, 3) for i in range(1, p + 1)]
        orderings = weak_orderings(p)
        assert len(orderings) == cases
        for levels in orderings:
            # levels on the even integers from 0 or 2; t on the top level or
            # two above it; the odd integers are the gaps
            for low, high in itertools.product((0, 2), (0, 2)):
                ks = [low + 2 * j for j in levels]
                top = max(ks) + high
                v = Valuation({"t": top, **{f"k{i}": k for i, k in enumerate(ks, start=1)}})
                points = [F(x) for x in range(-1, top + 2)]
                want = [
                    Defined(sum((a for a, k in zip(amps, ks) if k < x), F(0)), 1)
                    if 0 <= x <= top else UNDEFINED
                    for x in points
                ]
                for e in combines:
                    got = list(evaluate_many(e, points, v))
                    assert got == want, (levels, low, high)
                    assert all(type(o.value) is F for o in got if o is not UNDEFINED)


def step_fold(ws, n, star=PLUS):
    """H1 ⊛ H2 ⊛ ... ⊛ Hn under ``star``, one binary ``pointwise_star`` per step."""
    fold = ws.exprs["H1"]
    for i in range(2, n + 1):
        fold = pointwise_star(star, fold, ws.exprs[f"H{i}"], universe=ws.regions["U"])
    return fold


class TestFoldCost:
    """A binary fold of the fold-eval operands z_i^(U - R_i) ⊛ a_i^R_i. Each
    step extends the running result's compact form by P1 and the new
    operand's kept pieces, and the N + 1 terms are built once, on first
    read, each by one merge seeded by its birth word, which copies it, and
    reading only the words added since.  So a fold of N steps makes
    ``hybridset.merge`` read O(N^2) entries in Python; merging every
    running entry at every step would make O(N^3)."""

    @pytest.mark.parametrize("n", [20, 40])
    def test_entries_merged_in_python_stay_within_two_n_squared(self, n, monkeypatch):
        ws = steps_workspace(n)
        reads = []
        real = hybridset.merge

        def counted(entries):
            for entry in entries:
                reads.append(1)
                yield entry

        def merge(groups, *args):
            return real(((counted(entries), k) for entries, k in groups), *args)

        monkeypatch.setattr(hybridset, "merge", merge)
        fold = step_fold(ws, n)
        assert len(fold.terms) == n + 1
        assert len(reads) <= 2 * n * n

    def test_a_fold_over_fresh_equal_universe_atoms_stays_compact(self, monkeypatch):
        # Each step is handed a new but equal universe atom, so the running
        # compact form is extended as over one atom: 3N merges to build and
        # no term read.  Reading the running terms at every step made 934
        # merges and 38 term builds at N = 40.
        n = 40
        ws = steps_workspace(n)
        u = ws.regions["U"]
        merges, reads = [], []
        real_merge, real_terms = hybridset.merge, calculus._Compact.terms
        monkeypatch.setattr(hybridset, "merge", lambda *args: merges.append(1) or real_merge(*args))
        monkeypatch.setattr(calculus._Compact, "terms", lambda form: reads.append(1) or real_terms(form))
        fold = ws.exprs["H1"]
        for i in range(2, n + 1):
            fold = pointwise_star(PLUS, fold, ws.exprs[f"H{i}"], universe=RegionAtom(u.name, u.shape))
        assert len(merges) <= 3 * n and reads == []
        monkeypatch.undo()
        one = step_fold(ws, n)
        assert fold == one
        assert fold.render() == one.render()

    def test_a_fold_of_twelve_renders_as_frozen_and_matches_the_step_sum(self):
        ws = steps_workspace(12)
        fold = step_fold(ws, 12)
        assert fold.render() == (
            "(a1 + a12 + z10 + z11 + z2 + z3 + z4 + z5 + z6 + z7 + z8 + z9)^{R12 - R11} ⊛+ "
            "(a1 + a11 + a12 + z10 + z2 + z3 + z4 + z5 + z6 + z7 + z8 + z9)^{R11 - R10} ⊛+ "
            "(a1 + a10 + a11 + a12 + z2 + z3 + z4 + z5 + z6 + z7 + z8 + z9)^{R10 - R9} ⊛+ "
            "(a1 + a10 + a11 + a12 + a9 + z2 + z3 + z4 + z5 + z6 + z7 + z8)^{R9 - R8} ⊛+ "
            "(a1 + a10 + a11 + a12 + a8 + a9 + z2 + z3 + z4 + z5 + z6 + z7)^{R8 - R7} ⊛+ "
            "(a1 + a10 + a11 + a12 + a7 + a8 + a9 + z2 + z3 + z4 + z5 + z6)^{R7 - R6} ⊛+ "
            "(a1 + a10 + a11 + a12 + a6 + a7 + a8 + a9 + z2 + z3 + z4 + z5)^{R6 - R5} ⊛+ "
            "(a1 + a10 + a11 + a12 + a5 + a6 + a7 + a8 + a9 + z2 + z3 + z4)^{R5 - R4} ⊛+ "
            "(a1 + a10 + a11 + a12 + a4 + a5 + a6 + a7 + a8 + a9 + z2 + z3)^{R4 - R3} ⊛+ "
            "(a1 + a10 + a11 + a12 + a3 + a4 + a5 + a6 + a7 + a8 + a9 + z2)^{R3 - R2} ⊛+ "
            "(a1 + a10 + a11 + a12 + a2 + a3 + a4 + a5 + a6 + a7 + a8 + a9)^{R1 + R2 - U} ⊛+ "
            "(a10 + a11 + a12 + a2 + a3 + a4 + a5 + a6 + a7 + a8 + a9 + z1)^{U - R1} ⊛+ "
            "(a1 + z10 + z11 + z12 + z2 + z3 + z4 + z5 + z6 + z7 + z8 + z9)^{U - R12}"
        )
        # thresholds on the even integers 0..12, with ties; t on the top one
        # or two above it; the odd integers are the gaps
        ks = [2 * (5 * i % 7) for i in range(1, 13)]
        amps = [F(2**i, 3) for i in range(1, 13)]
        for top in (max(ks), max(ks) + 2):
            v = Valuation({"t": top, **{f"k{i}": k for i, k in enumerate(ks, start=1)}})
            points = [F(x) for x in range(-1, top + 2)]
            want = [
                Defined(sum((a for a, k in zip(amps, ks) if k < x), F(0)), 1)
                if 0 <= x <= top else UNDEFINED
                for x in points
            ]
            assert list(evaluate_many(fold, points, v)) == want


class TestClosedFormCost:
    """A binary fold reads each step's terms off the canonical refinement's
    closed form: it makes no choice matrix, partition or refinement, however
    many operands it folds, and equals the fold over explicit refinements."""

    @pytest.mark.parametrize("n", [20, 56])
    def test_a_fold_builds_no_matrix_partition_or_refinement(self, n, monkeypatch):
        ws = steps_workspace(n)
        made = Counter()

        def counted(name, real):
            return lambda *args, **kwargs: made.update([name]) or real(*args, **kwargs)

        for cls in (refine.ChoiceMatrix, refine.GeneralisedPartition):
            monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
        for module in (refine, calculus):
            monkeypatch.setattr(
                module, "common_strict_refinement",
                counted("common_strict_refinement", module.common_strict_refinement),
            )
        fold = step_fold(ws, n)
        assert len(fold.terms) == n + 1
        assert made == Counter()
        monkeypatch.undo()
        explicit = ws.exprs["H1"]
        for i in range(2, n + 1):
            explicit = over_explicit_refinement(PLUS, (explicit, ws.exprs[f"H{i}"]), ws.regions["U"])
        assert fold == explicit
        assert fold.render() == explicit.render()


    @pytest.mark.parametrize("n", [20, 40, 80, 160])
    def test_a_fold_step_pays_only_for_its_new_operand(self, n, monkeypatch):
        # A step merges P1's region, the negated added total and one key per
        # kept piece, and leaves the older terms' records alone: 3N - 1
        # merges for the fold.  The terms are built once, on first read, one
        # merge each and one per sum of links: 5N - 3 merges in all.
        # Rebuilding all N + 1 running terms at every step made 266 / 936 /
        # 3476 / 13356 merges in all here.
        ws = steps_workspace(n)
        merges, made = [], []
        real_merge, real_post_init = hybridset.merge, HybridTerm.__post_init__
        monkeypatch.setattr(
            hybridset, "merge", lambda *args: merges.append(1) or real_merge(*args)
        )
        monkeypatch.setattr(
            HybridTerm, "__post_init__", lambda t: made.append(1) or real_post_init(t)
        )
        fold = step_fold(ws, n)
        assert len(merges) <= 3 * n
        assert len(fold.terms) == n + 1
        assert len(merges) <= 5 * n and len(made) <= 2 * n
        merges.clear(), made.clear()
        assert len(fold.terms) == n + 1
        assert merges == made == []

    def test_a_combine_of_the_fixture_matrices_makes_a_merge_per_key(self, monkeypatch):
        # one closed-form combine of the two fixture matrices, as matrix-add
        # makes per call: P1's region, one key per kept piece of M2 and the
        # negated added word, 5 merges; a read of the terms then makes one
        # merge per term, which evaluation and json-lines output never make
        fixture = Path(__file__).resolve().parent.parent / "fixtures" / "matrix_demo.ws"
        ws = parse_workspace(fixture.read_text())
        m1, m2 = ws.matrices["M1"], ws.matrices["M2"]
        operands, universe = (m1.expr(), m2.expr()), grid_universe(m1.rows, m1.cols)
        merges, real_merge = [], hybridset.merge
        monkeypatch.setattr(
            hybridset, "merge", lambda *args: merges.append(1) or real_merge(*args)
        )
        e = pointwise_star(PLUS, *operands, universe=universe)
        assert len(merges) <= 5
        assert len(e.terms) == 7
        assert len(merges) <= 5 + 7


class TestCompactRecords:
    """A step stores the words its operands brought and merges none of them
    into a record."""

    def test_every_record_word_and_link_is_an_operand_word(self):
        # Combining H1 .. Hn takes n - 1 steps, by a binary fold or by one
        # n-ary call: step s brings H(s + 1), whose last word is added[s - 1]
        # and P1's own word, and whose kept piece is born at step s; H1's
        # kept piece is born at step 0.  links[s] is the own word of the term
        # last before step s + 1: H1's last word, then the fold's step s
        # kept piece or the n-ary call's H(s + 1) last word.
        n = 12
        ws = steps_workspace(n)
        operand = [ws.exprs[f"H{i}"].terms for i in range(1, n + 1)]
        nary = pointwise_star(PLUS, *(ws.exprs[f"H{i}"] for i in range(1, n + 1)), universe=ws.regions["U"])
        for e, link in ((step_fold(ws, n), 0), (nary, -1)):
            form = e._source
            assert len(form.added) == len(form.links) == n - 1
            for w, b, _ in form.records:
                assert any(w is t.word for t in operand[b])
            assert [a is operand[s][-1].word for s, a in enumerate(form.added, start=1)] == [True] * (n - 1)
            assert form.links[0] is operand[0][-1].word
            assert [w is operand[s][link].word for s, w in enumerate(form.links[1:], start=1)] == [True] * (n - 2)


# Binary folds for the compact-form differential: words over shared atoms
# with exponents +-1 and +-2, so that words cancel, and in some examples a
# name bound to a second definition, exponents near 2^62 or -2^63, or a second
# universe atom; regions over three thresholds, with repeats and
# combinations.
C1 = SymbolicHybridSet.from_atom(RegionAtom("C1", Interval1D(F(0), "c", hi_closed=False)))
FOLD_REGIONS = st.sampled_from(
    [A1, B1, C1, U - A1, U - B1, U - C1, A1 + B1, U - A1 - B1, A1 - B1, B1 - C1, U, C1 - U]
)
V_ATOM = RegionAtom("V", Interval1D(F(0), F(1), hi_closed=False))
FA, GA, HA = DIFF_ATOMS


@st.composite
def binary_folds(draw):
    """A first operand, 1-7 steps of (operand, star, universe atom) and one
    more step to take from an accumulator that was extended already."""
    atoms, exponents, universes = list(DIFF_ATOMS), [1, -1, 2, -2], [U_ATOM]
    if draw(st.integers(0, 3)) == 0:
        atoms.append(constant_atom("f", 9))
    if draw(st.integers(0, 3)) == 0:
        exponents += [2**62, -(2**62), 2**62 + 1, -(2**63)]
    if draw(st.integers(0, 3)) == 0:
        universes.append(V_ATOM)
    words = st.lists(
        st.tuples(st.sampled_from(atoms), st.sampled_from(exponents)),
        min_size=1, max_size=2, unique_by=lambda pair: pair[0].name,
    ).map(lambda pairs: word(*pairs))
    operands = st.sampled_from([1, 2, 2, 3, 3]).flatmap(
        lambda n: st.lists(st.tuples(words, FOLD_REGIONS), min_size=n, max_size=n)
    ).map(lambda pairs: join(*(term(w, r) for w, r in pairs)))
    steps = st.tuples(operands, st.sampled_from([PLUS, TIMES]), st.sampled_from(universes))
    return draw(operands), draw(st.lists(steps, min_size=1, max_size=7)), draw(steps)


FOLD_POINTS = [F(k, 8) for k in range(-1, 10)]
FOLD_VALUATIONS = [Valuation({"a": F(1, 3), "b": F(2, 3), "c": F(1, 2)}), Valuation()]


def _fold_outcome(call):
    try:
        return call()
    except HybridError as exc:
        return type(exc), str(exc)


def _snapshot(e):
    """What a combine shows: its render, each term's word and region
    coefficients by name (both are read in print order, so their storage
    order shows nowhere), and its values or errors at the sample points
    under each sample valuation, one point at a time."""
    return (
        e.render(),
        [(dict(t.word._coeffs), dict(t.region._coeffs)) for t in e.terms],
        [_fold_outcome(lambda: evaluate(e, x, v)) for v in FOLD_VALUATIONS for x in FOLD_POINTS],
    )


def _fold(first, steps, eager):
    """Each accumulator of the binary fold of ``first`` by ``steps``, or,
    at the step that raises, the step number and the error's type and
    message.  The eager fold rebuilds each result as a plain marked join,
    which has no compact form to extend."""
    accs = [first]
    for k, (operand, star, universe) in enumerate(steps, start=1):
        try:
            acc = pointwise_star(star, accs[-1], operand, universe=universe)
        except HybridError as exc:
            return accs, (k, type(exc), str(exc))
        accs.append(marked_join(star, acc.terms) if eager else acc)
    return accs, None


class TestCompactFold:
    """A binary fold over compact forms builds what a fold that rebuilds
    all running terms at every step builds, and raises what it raises at
    the same step, with the same message."""

    @seed(33)
    @settings(max_examples=300, deadline=None)
    @given(binary_folds(), st.data())
    def test_the_compact_fold_matches_the_eager_fold(self, fold, data):
        first, steps, side = fold
        compact, raised = _fold(first, steps, eager=False)
        eager, eager_raised = _fold(first, steps, eager=True)
        assert raised == eager_raised
        shown = [_snapshot(e) for e in compact]
        assert shown == [_snapshot(e) for e in eager]
        assert compact == eager
        assert [(hash(e), repr(e)) for e in compact] == [(hash(e), repr(e)) for e in eager]
        # an accumulator that was extended already is extended again
        j = data.draw(st.integers(0, len(compact) - 1))
        again, again_raised = _fold(compact[j], [side], eager=False)
        want, want_raised = _fold(eager[j], [side], eager=True)
        assert again_raised == want_raised
        assert [_snapshot(e) for e in again[1:]] == [_snapshot(e) for e in want[1:]]
        assert [_snapshot(e) for e in compact] == shown

    # The first step is eager and gives (g * h)^{U - A1 - B1} ⊛ (f * h)^{A1}
    # ⊛ (g^2)^{B1}; the second extends its compact form where it can.
    @pytest.mark.parametrize("second, universe, raised", [
        (join(term(FA, C1), term(word((FA, -1), (HA, -1)), U - C1)), U_ATOM,
         (2, ContractError, "value word for refinement piece P3 cancelled away")),
        (join(term(FA, C1), term(word((GA, -2)), U - C1)), U_ATOM,
         (2, ContractError, "value word for refinement piece P1 cancelled away")),
        (join(term(word((GA, -2)), C1), term(FA, U - C1)), U_ATOM,
         (2, ContractError, "value word for refinement piece P4 cancelled away")),
        (join(term(HA, C1), term(word((FA, 2**63 - 1)), U - C1)), U_ATOM,
         (2, MultiplicityOverflowError, f"multiplicity {2**63} leaves the 64-bit range")),
        (join(term(FA, C1), term(constant_atom("h", 9), U - C1)), U_ATOM,
         (2, ContractError, "atom name 'h' bound to two definitions")),
        (join(term(constant_atom("h", 9), C1), term(GA, U - C1)), U_ATOM, None),
        (join(term(FA, SymbolicHybridSet.from_atom(RegionAtom("A1", Interval1D(F(0), "c")))),
              term(GA, U - C1)), U_ATOM,
         (2, ContractError, "region name 'A1' bound to two shapes")),
        (join(term(FA, C1), term(GA, U - C1)), V_ATOM, None),
        (join(term(FA, C1)), U_ATOM, None),
    ], ids=["older word cancelled", "P1 cancelled", "new word cancelled", "exponent overflow",
            "atom name rebound", "atom name rebound where no word has it", "region name rebound",
            "another universe", "one-term operand"])
    def test_a_step_it_cannot_certify_runs_the_eager_loop(self, second, universe, raised):
        first = join(term(FA, A1), term(GA, U - A1))
        steps = [(join(term(GA, B1), term(HA, U - B1)), PLUS, U_ATOM), (second, PLUS, universe)]
        compact, compact_raised = _fold(first, steps, eager=False)
        eager, eager_raised = _fold(first, steps, eager=True)
        assert compact_raised == eager_raised == raised
        assert [_snapshot(e) for e in compact] == [_snapshot(e) for e in eager]

    def test_an_exponent_of_int64_min_on_a_kept_piece_folds_as_the_eager_fold(self):
        # Step 2 puts f^(-2^63) on a kept piece and step 3 extends its
        # result.  Each finds a bound above INT64_MAX and runs the eager
        # loop; negating that word into an offset would raise.
        first = join(term(FA, A1), term(GA, U - A1))
        steps = [(join(term(GA, B1), term(HA, U - B1)), PLUS, U_ATOM),
                 (join(term(word((FA, -(2**63))), C1), term(GA, U - C1)), PLUS, U_ATOM),
                 (join(term(HA, A1), term(GA, U - A1)), PLUS, U_ATOM)]
        compact, compact_raised = _fold(first, steps, eager=False)
        eager, eager_raised = _fold(first, steps, eager=True)
        assert compact_raised is None and eager_raised is None
        assert [_snapshot(e) for e in compact] == [_snapshot(e) for e in eager]
        assert "f^-9223372036854775808" in compact[-1].render()


@st.composite
def nary_combines(draw):
    """A star, a first operand and 1-3 further operands for one n-ary
    closed-form combine.  The first operand is a plain join or the binary
    fold of 2-4 such joins, stopped before a step that raises; words are
    over shared atoms with exponents +-1, so that words cancel in P1 and in
    the kept pieces of every operand, and in some examples a name bound to
    a second definition or exponents near 2^62 or -2^63."""
    atoms, exponents = list(DIFF_ATOMS), [1, -1, 1, -1, 2]
    if draw(st.integers(0, 3)) == 0:
        atoms.append(constant_atom("f", 9))
    if draw(st.integers(0, 3)) == 0:
        exponents += [2**62, -(2**62), 2**62 + 1, -(2**63)]
    words = st.lists(
        st.tuples(st.sampled_from(atoms), st.sampled_from(exponents)),
        min_size=1, max_size=2, unique_by=lambda pair: pair[0].name,
    ).map(lambda pairs: word(*pairs))
    operands = st.integers(2, 3).flatmap(
        lambda n: st.lists(st.tuples(words, FOLD_REGIONS), min_size=n, max_size=n)
    ).map(lambda pairs: join(*(term(w, r) for w, r in pairs)))
    star = draw(st.sampled_from([PLUS, TIMES, MERGE]))
    first = draw(operands)
    for op in draw(st.lists(operands, max_size=3)):
        try:
            first = pointwise_star(star, first, op, universe=U_ATOM)
        except HybridError:
            break
    return star, first, draw(st.lists(operands, min_size=1, max_size=3))


class TestCompactCombine:
    """An n-ary closed-form combine builds what the group builder builds
    over the canonical refinement, or raises what it raises, with the same
    message, whether its first operand is a join or a stepped fold."""

    def test_the_compact_form_matches_the_group_builder(self):
        met = Counter()

        @seed(47)
        @settings(max_examples=400, deadline=None)
        @given(nary_combines())
        def check(case):
            star, first, rest = case
            combine = lambda: pointwise_star(star, first, *rest, universe=U_ATOM)
            got = _fold_outcome(lambda: _snapshot(combine()))
            regions = [[t.region for t in op.terms] for op in (first, *rest)]
            if all(r == regions[0] for r in regions):  # a shared partition: no closed form
                want = _fold_outcome(lambda: _snapshot(pointwise_star(star, first, *rest)))
            else:
                want = _fold_outcome(lambda: _snapshot(over_explicit_refinement(star, (first, *rest), U_ATOM)))
            assert got == want
            # what the cases met: an error's kind, and for a cancelled word,
            # whether it was P1's, a kept piece's of operand 0 or of a later one
            if isinstance(got[0], type):
                kind, message = got
                if message.startswith("value word for refinement piece P"):
                    j = int(re.search(r"P(\d+)", message).group(1))
                    kind = "P1" if j == 1 else "operand 0" if j <= len(first.terms) else "operand k"
                elif "bound to two" in message:
                    kind = "clash"
                met[kind] += 1
            else:
                met["compact"] += combine()._source is not None
            met["stepped", len(rest)] += first._source is not None
            met[star.name] += 1

        check()
        assert {"P1", "operand 0", "operand k", "clash", MultiplicityOverflowError} <= met.keys(), met
        assert all(met["stepped", k] for k in (1, 2, 3)) and met[MERGE.name] and met["compact"], met

    # P1's region is the last record's region less the kept pieces that
    # enter: U + 2^63 A1 - B1 for the zero-step form, and B1 + (2^63 - 1) B1
    # after a step that put B1 last.  The canonical refinement's P1 is the
    # same sum, so the compact form raises in place what it raises.
    @pytest.mark.parametrize("first, rest", [
        ([join(term(FA, A1.scale(-(2**62))), term(GA, U + A1.scale(2**62)))],
         join(term(HA, A1.scale(-(2**62)) + B1), term(GA, U - B1))),
        ([join(term(FA, A1), term(GA, U - A1)), join(term(HA, B1), term(GA, U - B1))],
         join(term(FA, B1.scale(-(2**63 - 1))), term(GA, U))),
    ], ids=["zero-step", "stepped"])
    def test_a_p1_overflow_raises_in_place(self, first, rest, monkeypatch):
        def fold():
            acc = first[0]
            for op in first[1:]:
                acc = pointwise_star(PLUS, acc, op, universe=U_ATOM)
            return acc

        want = _fold_outcome(lambda: over_explicit_refinement(PLUS, (fold(), rest), U_ATOM))
        acc = fold()  # its terms are not read yet
        assert (acc._source is not None) == (len(first) > 1)
        assert want == (MultiplicityOverflowError, f"multiplicity {2**63} leaves the 64-bit range")
        calls = Counter()
        real_refinement, real_terms = calculus.common_strict_refinement, calculus._Compact.terms
        monkeypatch.setattr(calculus, "common_strict_refinement",
                            lambda *args, **kwargs: calls.update(["refinement"]) or real_refinement(*args, **kwargs))
        monkeypatch.setattr(calculus._Compact, "terms", lambda form: calls.update(["terms"]) or real_terms(form))
        assert _fold_outcome(lambda: pointwise_star(PLUS, acc, rest, universe=U_ATOM)) == want
        assert calls == Counter()


def custom_choice(sizes, operations, order) -> ChoiceMatrix:
    """A custom unimodular choice matrix for partitions of ``sizes``: the
    ones-top-row matrix, then each (a, b, s) of ``operations`` adds s times
    row a to row b, both unit rows at first, then column j is old column
    ``order[j]``.  The all-ones row is untouched, and each step keeps the
    determinant at +-1."""
    n = sum(sizes) + 1 - len(sizes)
    m = [[int(i == 0 or i == j) for j in range(n)] for i in range(n)]
    for a, b, s in operations:
        m[b] = [x + s * y for x, y in zip(m[b], m[a])]
    rows = ["U", *(f"{k}.{i}" for k, size in enumerate(sizes, start=1) for i in range(1, size))]
    return ChoiceMatrix(
        tuple(tuple(row[j] for j in order) for row in m), tuple(rows), tuple(f"P{j}" for j in range(1, n + 1))
    )


def rewrite_row_walk(star, operands, refinement):
    """The reference combine: every operand's dense rewrite rows, read off
    ``Refinement.coefficients``, give each term's word to every new piece
    where its coefficient is nonzero, in operand and then piece order."""
    groups = [[] for _ in refinement.pieces]
    for op, rows in zip(operands, refinement.coefficients):
        for t, row in zip(op.terms, rows):
            for j, c in enumerate(row):
                if c:
                    groups[j].append((t.word, c))
    terms = []
    for piece, label, group in zip(refinement.pieces, refinement.labels, groups):
        w = FreeWord.combine(group)
        if w.is_empty:
            raise ContractError(f"value word for refinement piece {label} cancelled away")
        terms.append(HybridTerm(w, piece))
    return marked_join(star, terms)


OTHER_F = constant_atom("f", 9)


@st.composite
def custom_combines(draw):
    """1-4 operands of 1-4 terms over assumed partitions of U, and a custom
    choice matrix for them (``custom_choice``): words over shared atoms
    with exponents +-1 and +-2, so that a word can cancel away, and in some
    examples f bound to a second atom, or exponents near 2^62 and -2^63,
    whose partial sums over a piece can leave the 64-bit range while the
    final sums fit."""
    atoms, exponents = list(DIFF_ATOMS), [1, -1, 2, -2]
    if draw(st.integers(0, 3)) == 0:
        atoms.append(OTHER_F)
    if draw(st.integers(0, 2)) == 0:
        exponents += [2**62, -(2**62), 2**62 + 1, -(2**63)]
    words = st.lists(
        st.tuples(st.sampled_from(atoms), st.sampled_from(exponents)),
        min_size=1, max_size=2, unique_by=lambda pair: pair[0].name,
    ).map(lambda pairs: word(*pairs))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    operands = [
        HybridExpr(None, tuple(HybridTerm(draw(words), draw(FOLD_REGIONS)) for _ in range(size)))
        for size in sizes
    ]
    n = sum(sizes) + 1 - len(sizes)
    pairs = st.tuples(st.integers(1, n - 1), st.integers(1, n - 1), st.sampled_from([1, -1]))
    operations = draw(st.lists(pairs.filter(lambda p: p[0] != p[1]), max_size=2 * n)) if n > 2 else []
    return operands, custom_choice(sizes, operations, draw(st.permutations(range(n))))


def custom_refinement(operands, choice, universe=U_ATOM):
    """The refinement that ``choice`` makes of the operands' assumed partitions."""
    parts = [
        GeneralisedPartition(f"operand {k}", universe, tuple(t.region for t in op.terms), assumed=True)
        for k, op in enumerate(operands, start=1)
    ]
    return common_strict_refinement(parts, choice=choice)


def custom_example(sizes, terms, operations, order):
    """``custom_combines``' output for operands whose term k of operand i
    is ``terms[i][k]``, (atom, exponent, region), and the matrix
    ``custom_choice(sizes, operations, order)``."""
    operands = [
        HybridExpr(None, tuple(HybridTerm(word((a, e)), r) for a, e, r in op)) for op in terms
    ]
    return operands, custom_choice(sizes, operations, order)


class TestCustomCombine:
    """A combine over an explicit refinement reads its choice matrix's
    runs, and builds what the walk of the dense rewrite rows builds."""

    @seed(42)
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([PLUS, TIMES]), custom_combines())
    # f bound to two atoms; a sum of -2^63 and -2^63; a word that cancels
    # away; partial sums of 2^62 and 2^62 that leave the 64-bit range, whose
    # final sums fit
    @example(PLUS, custom_example([1, 1], [[(FA, 1, U - C1)], [(OTHER_F, -2, A1)]], [], [0]))
    @example(TIMES, custom_example(
        [2, 1, 2], [[(GA, -1, C1), (HA, 1, U - B1)], [(GA, -1, C1)], [(GA, -(2**63), U - C1)] * 2],
        [(1, 2, 1)], [0, 1, 2],
    ))
    @example(PLUS, custom_example(
        [2, 3], [[(GA, -2, B1), (GA, -2, U - A1)], [(FA, 2, U - C1), (GA, 2, U - A1), (HA, -2, C1)]],
        [(2, 1, 1)], [2, 1, 0, 3],
    ))
    @example(PLUS, custom_example(
        [1, 3], [[(FA, -(2**62), C1)], [(HA, 2**62, B1), (FA, -2, C1), (HA, 2**62, U - B1)]],
        [(2, 1, 1), (2, 1, 1)], [1, 2, 0],
    ))
    def test_the_combine_matches_the_rewrite_row_walk(self, star, case):
        operands, choice = case
        refinement = custom_refinement(operands, choice)
        got = _fold_outcome(lambda: pointwise_star(star, *operands, refinement=refinement))
        want = _fold_outcome(lambda: rewrite_row_walk(star, operands, refinement))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert (got.render(), got.terms) == (want.render(), want.terms)

    def test_it_reads_no_dense_row_or_matrix_entry(self, monkeypatch):
        operands = [
            HybridExpr(None, tuple(HybridTerm(word((a, k)), r) for a, r in zip(DIFF_ATOMS, regions)))
            for k, regions in enumerate([(A1, U - A1), (B1, C1 - B1, U - C1), (C1, U - C1)], start=1)
        ]
        choice = custom_choice([2, 3, 2], [(1, 2, 1), (3, 1, -1), (4, 3, 1)], [1, 0, 3, 2, 4])
        refinement = custom_refinement(operands, choice)
        reads = Counter()
        for cls, name in ((refine.ChoiceMatrix, "entries"), (refine.Refinement, "coefficients")):
            real = cls.__dict__[name]
            monkeypatch.setattr(cls, name, property(
                lambda self, real=real, name=name: reads.update([name]) or real.__get__(self, type(self))
            ))
        got = pointwise_star(TIMES, *operands, refinement=refinement)
        assert reads == Counter()
        # the counters see the reference's reads: its walk, and the dense
        # kept rows that the walk's rows are written from
        assert got == rewrite_row_walk(TIMES, operands, refinement)
        assert reads["coefficients"] == 1 and reads["entries"] > 0


T_ATOM = RegionAtom("U", Interval1D(F(0), "t"))
ORACLE_STARS = {PLUS: operator.add, TIMES: operator.mul}


@st.composite
def tied_chain_combines(draw):
    """(operands, constants, cuts, choice, valuation): 1-3 operands over
    chain partitions of U = [0, t], each term one constant atom, piece i of
    operand k being A_k,i less A_k,(i-1) with A_k,i = [0, a_k,i) (the first
    piece A_k,1, the last U less the last A); per operand, its thresholds'
    values under the valuation, which cut [0, t] into its pieces; a custom
    unimodular choice matrix for them (``custom_choice``), or None for the
    closed form; and a valuation that puts the thresholds on the even
    integers by rank, from 0 or 2, with t on the top threshold or two above
    it, so that ranks tie thresholds to each other and to both ends of U.
    Each operand's thresholds rise with i, so its pieces partition U, and
    ``constants`` holds each operand's term values."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    levels = [sorted(draw(st.lists(st.integers(0, 4), min_size=n - 1, max_size=n - 1))) for n in sizes]
    ranks = {level: r for r, level in enumerate(sorted({x for ls in levels for x in ls}))}
    low, high = draw(st.sampled_from([0, 2])), draw(st.sampled_from([0, 2]))
    cuts = [[low + 2 * ranks[x] for x in ls] for ls in levels]
    values = iter(F(v, 3) for v in (2, 5, -7, 11, 13, -17, 19, 23, -29))  # no subset sums alike
    constants = [[next(values) for _ in range(n)] for n in sizes]
    universe, operands, binding = SymbolicHybridSet.from_atom(T_ATOM), [], {}
    for k, ks in enumerate(cuts, start=1):
        chain = [
            SymbolicHybridSet.from_atom(RegionAtom(f"A{k}_{i}", Interval1D(F(0), f"a{k}_{i}", hi_closed=False)))
            for i in range(1, len(ks) + 1)
        ]
        binding.update((f"a{k}_{i}", x) for i, x in enumerate(ks, start=1))
        ends = [*chain, universe]
        pieces = [ends[0], *(b - a for a, b in zip(ends, ends[1:]))]
        operands.append(join(*(
            term(constant_atom(f"c{k}_{i}", c), r) for i, (c, r) in enumerate(zip(constants[k - 1], pieces))
        )))
    valuation = Valuation({"t": max([low, *binding.values()]) + high, **binding})
    choice = None
    if draw(st.booleans()):
        n = sum(sizes) + 1 - len(sizes)
        pairs = st.tuples(st.integers(1, n - 1), st.integers(1, n - 1), st.sampled_from([1, -1]))
        operations = draw(st.lists(pairs.filter(lambda p: p[0] != p[1]), max_size=2 * n)) if n > 2 else []
        choice = custom_choice(sizes, operations, draw(st.permutations(range(n))))
    return operands, constants, cuts, choice, valuation


def instantiated(constants, cuts, top):
    """The oracle's function on the integers of [0, top] whose piece i is
    [cut i - 1, cut i), the first from 0 and the last to top, closed, with
    the value ``constants[i]``."""
    points = range(top + 1)
    bounds = zip([0, *cuts], [*cuts, top + 1])
    return oracle.ClassicalPiecewise(frozenset(points), tuple(
        (frozenset(x for x in points if lo <= x < hi), (lambda c: lambda x: c)(c))
        for (lo, hi), c in zip(bounds, constants)
    ))


class TestCombineAgainstTheOracle:
    """A combine of operands with one constant atom per term, over a custom
    unimodular refinement or in closed form, takes at every integer the
    value that the classical case split takes, under valuations that tie
    thresholds to each other and to the ends of the universe."""

    @seed(18)
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([PLUS, TIMES]), tied_chain_combines())
    def test_the_combine_matches_the_classical_star(self, star, case):
        operands, constants, cuts, choice, valuation = case
        top = int(valuation.resolve("t"))
        if choice is None:
            e = pointwise_star(star, *operands, universe=T_ATOM)
        else:
            e = pointwise_star(star, *operands, refinement=custom_refinement(operands, choice, T_ATOM))
        classical = [instantiated(cs, ks, top) for cs, ks in zip(constants, cuts)]
        want = classical[0]
        for f in classical[1:]:
            want = oracle.classical_star(ORACLE_STARS[star], want, f)
        for x in range(-1, top + 2):
            value = oracle.classical_eval(want, x)
            assert evaluate(e, F(x), valuation) == (UNDEFINED if value is None else Defined(value, 1)), x


class TestInverseIdentity:
    grid = rational_grid(F(-1, 2), F(3, 2), 41)

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
        grid = rational_grid(0, 6, 25)
        report = star_inverse_identity_check(PLUS, term(f, q1 + q2), None, grid)
        assert report.passed

    @pytest.mark.parametrize("star", [PLUS, "reciprocal"])
    def test_negative_multiplicities_collapse_to_the_unit(self, star):
        # f^-m * ~f^m at multiplicity -m: the renamed copy carries the
        # inverse through its negative exponent, so f meets its inverse
        # whatever the sign of the multiplicity
        star = RECIPROCAL if star == "reciprocal" else star
        f = atom("f", "x + 2")
        q1 = SymbolicHybridSet.from_atom(RegionAtom("Q1", Interval1D(F(0), F(4))))
        q2 = SymbolicHybridSet.from_atom(RegionAtom("Q2", Interval1D(F(2), F(6))))
        grid = rational_grid(0, 6, 25)
        report = star_inverse_identity_check(star, term(f, -q1 - q2), None, grid)
        assert report.passed, report.render()
        assert report.checked == 25
        seen = {m for _, (m,) in regions.multiplicities_many((-q1 - q2,), grid, None)}
        assert seen == {-1, -2}

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
            broken, term(f, a), None, oracle.rational_grid_points(1, 2, 10)
        )
        assert not report.passed
        assert "expected 0" in report.violations[0]


# A square, a pole at 2, a parameter that may be missing, and an opaque atom;
# bounds are integers or parameter names, whose values may not be integers.
KARR_SUMMANDS = (atom("sq", "x*x"), atom("pole", "1 / (x - 2)"), atom("pa", "a * x + 1"), atom("g"))
KARR_BOUNDS = st.one_of(st.integers(-4, 5), st.sampled_from(("p", "q")))
KARR_VALUES = st.sampled_from([F(n) for n in range(-4, 6)] + [F(1, 2)])


def _reference_bound(b, valuation):
    resolved = resolve_param(b if isinstance(b, str) else F(b), valuation)
    if resolved.denominator != 1:
        raise ContractError(f"summation bound {resolved} is not an integer")
    return int(resolved)


def _reference_signed_sum(g, lo, hi):
    """g(i) summed point by point over lo <= i < hi; swapping the bounds
    negates the sum (Karr 1981)."""
    if lo > hi:
        return -_reference_signed_sum(g, hi, lo)
    total = F(0)
    for i in range(lo, hi):
        total += g(i)
    return total


def _reference_karr_split_check(f, lower, mid, upper, valuation):
    def value(i):
        return f.value(F(i), valuation)

    def signed(lo, hi):
        return _reference_signed_sum(
            value, _reference_bound(lo, valuation), _reference_bound(hi, valuation)
        )

    report = CheckReport(f"signed-sum identities for {f.name!r}")
    whole, left, right = signed(lower, upper), signed(lower, mid), signed(mid, upper)
    report.checked += 1
    if whole != left + right:
        report.record(f"split ({lower},{mid},{upper}): {whole} != {left} + {right}")
    m, u = _reference_bound(mid, valuation), _reference_bound(upper, valuation)
    tele = _reference_signed_sum(lambda i: value(i + 1) - value(i), m, u)
    direct = value(u) - value(m)
    report.checked += 1
    if tele != direct:
        report.record(f"telescoping ({mid},{upper}): {tele} != {direct}")
    return report


class TestSignedSums:
    ident = atom("i", "x")

    def test_forward_sum(self):
        assert karr_sum(self.ident, 0, 5) == 10

    def test_reversed_bounds_negate(self):
        assert karr_sum(self.ident, 5, 3) == -7
        assert karr_sum(self.ident, 3, 5) == 7

    def test_empty_range(self):
        assert karr_sum(self.ident, 4, 4) == 0

    def test_split_holds_with_a_mid_outside_the_range(self):
        whole = karr_sum(self.ident, 0, 3)
        left = karr_sum(self.ident, 0, 5)
        right = karr_sum(self.ident, 5, 3)
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
        v = Valuation({"l": F(2), "u": F(6)})
        assert karr_sum(self.ident, "l", "u", v) == 2 + 3 + 4 + 5

    def test_fractional_bound_is_an_error(self):
        with pytest.raises(ContractError):
            karr_sum(self.ident, F(1, 2), 3)

    @seed(1981)
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(KARR_SUMMANDS),
        st.tuples(*[KARR_BOUNDS] * 3),
        st.one_of(st.none(), st.dictionaries(st.sampled_from(("a", "p", "q")), KARR_VALUES, min_size=2)),
    )
    def test_split_check_agrees_with_the_per_point_reference(self, f, bounds, values):
        v = None if values is None else Valuation(values)
        for lower, mid, upper in itertools.permutations(bounds):
            assert _outcome(karr_split_check, f, lower, mid, upper, v) == _outcome(
                _reference_karr_split_check, f, lower, mid, upper, v
            )


class TestLinearOperators:
    def test_summation_is_registered_and_linear(self):
        report = linearity_report("sum", summation)
        assert report.passed
        assert report.checked == 10

    def test_nonlinear_operator_fails_the_probe(self):
        report = linearity_report("max", max)
        assert not report.passed
        assert report.checked == 10
        assert report.violations == [
            "additivity fails on vectors of length 7",
            "additivity fails on vectors of length 4",
            "scaling by -4 fails on a vector of length 4",
            "additivity fails on vectors of length 7",
            "additivity fails on vectors of length 4",
            "scaling by -5 fails on a vector of length 4",
            "scaling by -1 fails on a vector of length 4",
        ]
        assert linearity_report("sum", summation).passed

    def test_sum_of_ones_counts_the_sampled_region(self):
        one = constant_atom("one", 1)
        p = SymbolicHybridSet.from_atom(RegionAtom("P", Interval1D(F(0), F(10))))
        sample = [F(n) for n in range(-2, 13)]
        assert apply_linear(term(one, p), None, sample) == 11

    def test_region_multiplicity_weights_the_values(self):
        one = constant_atom("one", 1)
        p = SymbolicHybridSet.from_atom(RegionAtom("P", Interval1D(F(0), F(10))))
        sample = [F(n) for n in range(0, 11)]
        assert apply_linear(term(one, 3 * p), None, sample) == 33

    def test_multi_atom_terms_are_rejected(self):
        f, g = atom("f", "x"), atom("g", "2*x")
        p = SymbolicHybridSet.from_atom(RegionAtom("P", Interval1D(F(0), F(1))))
        with pytest.raises(ContractError):
            apply_linear(term(word(f, g), p), None, [F(0)])


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
    mirrored = FunctionAtom(f"~{base.name}", base.body)
    expr = marked_join(star, [term(word(base, (mirrored, -1)), f.region)])
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


def _reference_apply_linear(f, valuation, sample):
    base = f.word.items()[0][0]
    values = []
    for p in sample:
        m = f.region.multiplicity(p, valuation)
        values.append(F(m) * base.value(p, valuation) if m else F(0))
    return sum(values, F(0))


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
    st.builds(
        lambda r_lo, r_hi, c_lo, c_hi: GridRect(Interval1D(r_lo, r_hi), Interval1D(c_lo, c_hi)),
        _ENDPOINTS, _ENDPOINTS, _ENDPOINTS, _ENDPOINTS,
    ),
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
        assert _outcome(apply_linear, f, v, sample) == _outcome(
            _reference_apply_linear, f, v, points
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
                check(f, no_value, [F(1, 2)])
        with pytest.raises(ValuationError, match="'b' has no value"):
            apply_linear(term(atom("f", "b + 1"), U), no_value, [F(1, 2)])

    def test_the_registered_spec_is_applied_by_name(self):
        f = atom("f", "x")
        p = SymbolicHybridSet.from_atom(RegionAtom("P", Interval1D(F(0), F(10))))
        sample = [F(n) for n in range(0, 11)]
        assert apply_linear(term(f, p), None, sample) == 55
        sample = oracle.rational_grid_points(0, 1, 4)
        assert apply_linear(term(constant_atom("f", 3), U), None, sample) == 12


class TestSampledCheckCost:
    """Each check resolves a parameter endpoint once per table, not once per
    point, and a number endpoint not at all: 4096 points cost a handful of
    resolutions."""

    A = SymbolicHybridSet.from_atom(RegionAtom("A", Interval1D(F(0), "a", hi_closed=False)))
    B = SymbolicHybridSet.from_atom(RegionAtom("B", Interval1D(F(0), "b", hi_closed=False)))
    V = Valuation({"a": F(1, 3), "b": F(2, 3)})
    SAMPLE = oracle.rational_grid_points(-1, 2, 4096)

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
                assert resolved == Counter({"a": 1, "b": 1})

    def test_apply_linear_resolves_each_endpoint_once(self, monkeypatch):
        f = term(atom("f", "x"), self.A + self.B)
        resolved = self.count_resolutions(monkeypatch, apply_linear, f, self.V, self.SAMPLE)
        assert resolved == Counter({"a": 1, "b": 1})

    def test_the_inverse_check_resolves_each_endpoint_at_most_twice(self, monkeypatch):
        f = term(atom("f", "x"), self.A + self.B)
        resolved = self.count_resolutions(
            monkeypatch, star_inverse_identity_check, PLUS, f, self.V, self.SAMPLE
        )
        assert set(resolved) == {"a", "b"}
        assert max(resolved.values()) <= 2
