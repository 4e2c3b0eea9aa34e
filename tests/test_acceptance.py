"""End-to-end acceptance suite.

Each test exercises one numbered criterion and prints a single PASS or FAIL
verdict line (through ``capsys.disabled`` so the line is visible even when
pytest captures output), including the measured runtime.  Criteria with a
runtime budget fail when the budget is exceeded.
"""

import operator
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations

import pytest

from hybridsets import (
    ChoiceMatrix,
    GeneralisedPartition,
    HybridSet,
    Interval1D,
    PLUS,
    RegionAtom,
    STYLE_ONES_TOP,
    STYLE_UPPER_TRIANGLE,
    SymbolicHybridSet,
    TIMES,
    UNDEFINED,
    Valuation,
    apply_linear,
    atom,
    block_matrix_2x2,
    canonical_choice_matrix,
    common_strict_refinement,
    constant_atom,
    evaluate,
    graph_function,
    hybrid_graph,
    join,
    karr_split_check,
    marked_join,
    matrix_add_with_refinement,
    min_refinement_size,
    ominus,
    oplus,
    otimes,
    pointwise_star,
    rational_grid,
    spline_eval_region,
    spline_merge_with_refinement,
    term,
    word,
)
from hybridsets import SymbolicSpline
from hybridsets import oracle
from hybridsets.refine import bareiss_determinant, exact_integer_inverse

F = Fraction


@contextmanager
def criterion(capsys, number, summary, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number}: FAIL - {summary}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        with capsys.disabled():
            print(
                f"criterion {number}: FAIL - {summary} "
                f"(runtime {elapsed:.2f}s over the {budget:.0f}s budget)",
                flush=True,
            )
        pytest.fail(f"criterion {number} took {elapsed:.2f}s, budget {budget}s")
    with capsys.disabled():
        print(f"criterion {number}: PASS - {summary} ({elapsed:.2f}s)", flush=True)


def interval_region(name, lo, hi, lo_closed=True, hi_closed=True):
    return SymbolicHybridSet.from_atom(
        RegionAtom(name, Interval1D(lo, hi, lo_closed, hi_closed))
    )


def test_criterion_1_module_laws(capsys):
    with criterion(capsys, 1, "module laws on 1000 randomised signed sets", budget=1.0):
        rng = random.Random(190001)
        tokens = [f"t{i}" for i in range(10)]
        zero = HybridSet.empty()

        def rand_set():
            pairs = [
                (rng.choice(tokens), rng.randint(-50, 50))
                for _ in range(rng.randint(0, 10))
            ]
            return HybridSet(pairs)

        sets = [rand_set() for _ in range(1000)]
        for i, h in enumerate(sets):
            k = sets[(7 * i + 1) % len(sets)]
            l = sets[(13 * i + 2) % len(sets)]
            c = rng.randint(-4, 4)
            d = rng.randint(-4, 4)
            # group laws
            assert oplus(h, k) == oplus(k, h)
            assert oplus(oplus(h, k), l) == oplus(h, oplus(k, l))
            assert oplus(h, zero) == h
            assert ominus(h, h) == zero
            # module laws
            assert h * 1 == h
            assert h * (c + d) == oplus(h * c, h * d)
            assert oplus(h, k) * c == oplus(h * c, k * c)
            assert (h * c) * d == h * (c * d)
            # intersection distributes over sum
            assert otimes(h, oplus(k, l)) == oplus(otimes(h, k), otimes(h, l))


def test_criterion_2_join_laws(capsys):
    with criterion(capsys, 2, "join laws on randomised graphs, iff both ways", budget=1.0):
        rng = random.Random(190002)

        def fn_f(x):
            return 2 * x + 1

        def fn_g(x):
            return 2 * x  # never agrees with fn_f

        def rand_region():
            pairs = [
                (F(rng.randint(0, 5)), rng.randint(-2, 2))
                for _ in range(rng.randint(0, 6))
            ]
            return HybridSet(pairs)

        def graph_values(gr):
            out = {}
            for (pair, _) in gr.items():
                x, v = pair
                out.setdefault(x, set()).add(v)
            return out

        def is_function_graph(gr):
            return all(len(vs) == 1 for vs in graph_values(gr).values())

        assert graph_function(hybrid_graph(fn_f, HybridSet.empty())) == {}

        disjoint_seen = overlap_seen = 0
        for _ in range(200):
            a, b = rand_region(), rand_region()
            # joining a function with itself doubles the region
            assert hybrid_graph(fn_f, a) + hybrid_graph(fn_f, a) == hybrid_graph(
                fn_f, 2 * a
            )
            # one function: the join adds regions and stays a function
            same = hybrid_graph(fn_f, a) + hybrid_graph(fn_f, b)
            assert same == hybrid_graph(fn_f, a + b)
            assert is_function_graph(same)
            # two everywhere-distinct functions: a function iff disjoint
            joined = hybrid_graph(fn_f, a) + hybrid_graph(fn_g, b)
            if a.is_disjoint(b):
                disjoint_seen += 1
                merged = {x: fn_f(x) for x in a.support()}
                merged.update({x: fn_g(x) for x in b.support()})
                assert joined == hybrid_graph(merged, a + b)
                assert is_function_graph(joined)
            else:
                overlap_seen += 1
                values = graph_values(joined)
                assert any(
                    len(values.get(x, ())) == 2 for x in a.otimes(b).support()
                )
                assert not is_function_graph(joined)
            # partial functions over disjoint supports merge their tables
            lo = HybridSet([(F(p), rng.randint(1, 3)) for p in (0, 1, 2)])
            hi = HybridSet([(F(p), rng.randint(1, 3)) for p in (3, 4, 5)])
            t_lo = {x: F(rng.randint(-9, 9)) for x in lo.support()}
            t_hi = {x: F(rng.randint(-9, 9)) for x in hi.support()}
            assert hybrid_graph(t_lo, lo) + hybrid_graph(t_hi, hi) == hybrid_graph(
                {**t_lo, **t_hi}, lo + hi
            )
        assert disjoint_seen > 0 and overlap_seen > 0


def test_criterion_3_refinement_cardinality(capsys):
    with criterion(capsys, 3, "refinement sizes and canonical matrix inverses"):
        assert min_refinement_size([4, 4]) == 7
        for r in range(1, 7):
            for n in range(1, 7):
                assert min_refinement_size([n] * r) == r * (n - 1) + 1

        shapes = [[2], [2, 2], [3, 3], [4, 4], [2, 2, 2], [3, 4, 5], [6, 6], [12]]
        for sizes in shapes:
            dim = min_refinement_size(sizes)
            assert dim <= 12
            for style in (STYLE_ONES_TOP, STYLE_UPPER_TRIANGLE):
                m = canonical_choice_matrix(sizes, style)
                rows = m.entries
                assert bareiss_determinant([list(r) for r in rows]) == 1
                inv = exact_integer_inverse([list(r) for r in rows])
                for i in range(dim):
                    for j in range(dim):
                        acc = sum(rows[i][k] * inv[k][j] for k in range(dim))
                        assert acc == (1 if i == j else 0)
                if style == STYLE_ONES_TOP:
                    assert list(inv[0]) == [1] + [-1] * (dim - 1)
                else:
                    for i in range(dim):
                        for j in range(dim):
                            want = 1 if i == j else (-1 if j == i + 1 else 0)
                            assert inv[i][j] == want


def test_criterion_4_three_term_product(capsys):
    with criterion(capsys, 4, "three-term product vs classical oracle, 5 orderings", budget=1.0):
        u_atom = RegionAtom("U", Interval1D(F(0), F(1), hi_closed=False))
        u = SymbolicHybridSet.from_atom(u_atom)
        a1 = interval_region("A1", F(0), "a", hi_closed=False)
        b1 = interval_region("B1", F(0), "b", hi_closed=False)
        f1, f2 = constant_atom("f1", 2), constant_atom("f2", 0)
        g1, g2 = constant_atom("g1", 5), constant_atom("g2", 7)
        f_expr = join(term(f1, a1), term(f2, u - a1))
        g_expr = join(term(g1, b1), term(g2, u - b1))
        choice = ChoiceMatrix(
            ((1, 1, 1), (1, 0, 0), (1, 1, 0)),
            ("U", "F.1", "G.1"),
            ("P1", "P2", "P3"),
        )
        p = GeneralisedPartition("F", u_atom, (a1, u - a1))
        q = GeneralisedPartition("G", u_atom, (b1, u - b1))
        refinement = common_strict_refinement([p, q], choice=choice)

        e = pointwise_star(TIMES, f_expr, g_expr, refinement=refinement)
        assert len(e.terms) == 3
        assert [t.word for t in e.terms] == [word(f1, g1), word(f2, g1), word(f2, g2)]
        assert [t.region.render() for t in e.terms] == ["A1", "B1 - A1", "U - B1"]

        grid = oracle.rational_grid_points(F(0), F(1), 100)
        orderings = [
            {"a": F(1, 3), "b": F(2, 3)},
            {"a": F(2, 3), "b": F(1, 3)},
            {"a": F(1, 2), "b": F(1, 2)},
            {"a": F(3, 2), "b": F(1, 2)},
            {"a": F(1, 4), "b": F(5, 4)},
        ]
        for params in orderings:
            a, b = params["a"], params["b"]
            v = Valuation(params)
            pf = oracle.ClassicalPiecewise(
                grid,
                (
                    (frozenset(x for x in grid if x < a), lambda x: F(2)),
                    (frozenset(x for x in grid if x >= a), lambda x: F(0)),
                ),
            )
            pg = oracle.ClassicalPiecewise(
                grid,
                (
                    (frozenset(x for x in grid if x < b), lambda x: F(5)),
                    (frozenset(x for x in grid if x >= b), lambda x: F(7)),
                ),
            )
            want = oracle.classical_star(operator.mul, pf, pg)
            for x in grid:
                out = evaluate(e, x, v)
                assert out is not UNDEFINED
                assert out.value == oracle.classical_eval(want, x)


def test_criterion_5_block_matrix_addition(capsys):
    with criterion(capsys, 5, "seven-term matrix sum vs oracle on 8x8 grids", budget=2.0):
        m1 = block_matrix_2x2("M1", "n", "m", "h1", "k1", ["A1", "B1", "C1", "D1"])
        m2 = block_matrix_2x2("M2", "n", "m", "h2", "k2", ["A2", "B2", "C2", "D2"])
        expr, _ = matrix_add_with_refinement(m1, m2)
        assert len(expr.terms) == 7 == min_refinement_size([4, 4])
        assert [t.region.render() for t in expr.terms] == [
            "U - A1 - A2 - B1 - B2 - C1 - C2",
            "A1",
            "B1",
            "C1",
            "A2",
            "B2",
            "C2",
        ]
        atoms = {}
        for t in expr.terms:
            for a, _ in t.word.items():
                atoms[a.name] = a
        assert [t.word for t in expr.terms] == [
            word(atoms["D1"], atoms["D2"]),
            word(atoms["A1"], atoms["D2"]),
            word(atoms["B1"], atoms["D2"]),
            word(atoms["C1"], atoms["D2"]),
            word(atoms["D1"], atoms["A2"]),
            word(atoms["D1"], atoms["B2"]),
            word(atoms["D1"], atoms["C2"]),
        ]

        v1 = Valuation.parse("n=4, m=4, h1=1, k1=1, h2=2, k2=2")
        v2 = Valuation.parse("n=4, m=4, h1=2, k1=2, h2=1, k2=1")
        cell = (F(2), F(1))
        # the remainder piece carries multiplicity 1 - (0+1+0+1+0+0) = -1 here
        block_mults = tuple(t.region.multiplicity(cell, v1) for t in expr.terms[1:])
        assert block_mults == (0, 1, 0, 1, 0, 0)
        assert expr.terms[0].region.multiplicity(cell, v1) == -1
        assert evaluate(expr, (F(2), F(1)), v1).value.render() == "B1 + A2"
        assert evaluate(expr, (F(2), F(1)), v2).value.render() == "A1 + B2"
        assert evaluate(expr, (F(4), F(4)), v1).value.render() == "D1 + D2"

        split_choices = [
            (2, 3, 5, 6),
            (5, 6, 2, 3),
            (3, 3, 3, 3),
            (1, 7, 7, 1),
            (6, 2, 4, 4),
            (7, 5, 1, 3),
        ]
        union = operator.or_
        for h1, k1, h2, k2 in split_choices:
            v = Valuation.parse(f"n=8, m=8, h1={h1}, k1={k1}, h2={h2}, k2={k2}")
            pw1 = oracle.block_matrix_piecewise(8, 8, h1, k1, ("A1", "B1", "C1", "D1"))
            pw2 = oracle.block_matrix_piecewise(8, 8, h2, k2, ("A2", "B2", "C2", "D2"))
            want = oracle.classical_star(union, pw1, pw2)
            for i in range(1, 9):
                for j in range(1, 9):
                    out = evaluate(expr, (F(i), F(j)), v)
                    assert out is not UNDEFINED
                    assert out.multiplicity == 1
                    got = frozenset(a.name for a, _ in out.value.combination.items())
                    assert got == oracle.classical_eval(want, (i, j))


def test_criterion_6_spline_merge(capsys):
    with criterion(capsys, 6, "spline merge pairs segments over knot intervals"):
        s = SymbolicSpline.build("S", ("a", "c", "b"))
        t = SymbolicSpline.build("T", ("a", "d", "b"))
        expr, _ = spline_merge_with_refinement(s, t)
        assert expr.render() == (
            "(S[a,c] ⋈ T[d,b])^{S.P1} ⊛⋈ (S[c,b] ⋈ T[a,d])^{T.P1}"
            " ⊛⋈ (S[c,b] ⋈ T[d,b])^{U[a,b] - S.P1 - T.P1}"
        )

        v_cd = Valuation.parse("a=0, c=1, d=2, b=3")  # a < c < d < b
        expected = [
            (F(1, 2), "S[a,c] ⋈ T[a,d]", (F(0), F(1))),
            (F(3, 2), "S[c,b] ⋈ T[a,d]", (F(1), F(2))),
            (F(5, 2), "S[c,b] ⋈ T[d,b]", (F(2), F(3))),
        ]
        for x, pair, interval in expected:
            desc = spline_eval_region(expr, x, v_cd)
            assert desc.defined and not desc.residual and not desc.empty
            assert desc.multiplicity == 1
            assert desc.interval == interval
            assert desc.render() == f"{pair} on [{interval[0]}, {interval[1]}]"

        # mirrored ordering a < d < c < b still tiles [a, b] cleanly
        v_dc = Valuation.parse("a=0, d=1, c=2, b=3")
        for v in (v_cd, v_dc):
            intervals = set()
            for x in rational_grid(F(0), F(3), 61, include_hi=True):
                desc = spline_eval_region(expr, x, v)
                assert desc.defined and not desc.residual and not desc.empty
                intervals.add(desc.interval)
            assert intervals == {(F(0), F(1)), (F(1), F(2)), (F(2), F(3))}
            assert spline_eval_region(expr, F(-1, 2), v).defined is False
            assert spline_eval_region(expr, F(7, 2), v).defined is False


def test_criterion_7_signed_sums_and_linearity(capsys):
    with criterion(capsys, 7, "signed-sum identities, 200 trials, all orderings"):
        rng = random.Random(190007)
        sq = atom("sq", "x * x")
        lin = atom("lin", "3*x - 1")
        for trial in range(200):
            f = sq if trial % 2 else lin
            bounds = [rng.randint(-20, 20) for _ in range(3)]
            for lo, mid, hi in permutations(bounds):
                report = karr_split_check(f, lo, mid, hi)
                assert report.passed and report.checked == 2

        u_atom = RegionAtom("U", Interval1D(F(0), F(10)))
        u = SymbolicHybridSet.from_atom(u_atom)
        grid = rational_grid(F(0), F(10), 21, include_hi=True)
        for trial in range(50):
            a, b = F(rng.randint(0, 10)), F(rng.randint(0, 10))
            p1 = interval_region("P1", F(0), a)
            p2 = interval_region("P2", F(0), b)
            pieces = (p1, p2 - p1, u - p2)  # signed when b < a
            GeneralisedPartition("split", u_atom, pieces)
            f = sq if trial % 2 else lin
            whole = apply_linear("sum", term(f, u), None, grid)
            parts = sum(apply_linear("sum", term(f, r), None, grid) for r in pieces)
            assert whole == parts


def test_criterion_8_refinement_invariance(capsys):
    with criterion(capsys, 8, "evaluation invariant under 100 random refinements"):
        rng = random.Random(190008)
        u_atom = RegionAtom("U", Interval1D(F(0), F(1), hi_closed=False))
        u = SymbolicHybridSet.from_atom(u_atom)
        pool = [atom("p", "2*x + 1"), atom("q", "x * x"), constant_atom("c3", 3)]
        base_grid = rational_grid(F(0), F(1), 17, include_hi=True)

        for trial in range(100):
            a = F(rng.randint(1, 7), 8)
            b = F(rng.randint(1, 7), 8)
            ra = interval_region("A", F(0), a, hi_closed=False)
            rb = interval_region("B", F(0), b, hi_closed=False)
            p = GeneralisedPartition("P", u_atom, (ra, u - ra))
            q = GeneralisedPartition("Q", u_atom, (rb, u - rb))
            refinement = common_strict_refinement([p, q])
            k = rng.randrange(2)
            i = rng.randrange(2)
            piece = refinement.partitions[k].pieces[i]
            row = refinement.coefficients[k][i]
            f = rng.choice(pool)
            refined_terms = [
                term(f, c * r) for c, r in zip(row, refinement.pieces) if c
            ]
            if trial % 2:
                direct = join(term(f, piece))
                refined = join(*refined_terms)
            else:
                direct = marked_join(PLUS, [term(f, piece)])
                refined = marked_join(PLUS, refined_terms)
            for x in (*base_grid, a, b):
                lhs = evaluate(direct, x, None)
                rhs = evaluate(refined, x, None)
                if lhs is UNDEFINED or rhs is UNDEFINED:
                    assert lhs is rhs is UNDEFINED
                else:
                    assert lhs.value == rhs.value
                    assert lhs.multiplicity == rhs.multiplicity


def test_criterion_9_linear_vs_exponential(capsys):
    with criterion(capsys, 9, "ten steps: 11 terms vs exhaustive oracle", budget=5.0):
        rng = random.Random(190009)
        knots = sorted(rng.sample(range(1, 20), 10))
        amps = [rng.randint(-9, 9) or 1 for _ in range(10)]
        grid = oracle.rational_grid_points(F(0), F(20), 200)
        plus = operator.add

        for _ in range(5):
            rng.shuffle(knots)
            u = interval_region("U", F(0), F(20))
            terms = [term(constant_atom("s0", 0), u)]
            want = oracle.constant_piecewise(grid, F(0))
            for i, (k, amp) in enumerate(zip(knots, amps), start=1):
                region = interval_region(f"R{i}", F(k), F(20), lo_closed=False)
                terms.append(term(constant_atom(f"s{i}", amp), region))
                step = oracle.ClassicalPiecewise(
                    grid,
                    (
                        (frozenset(x for x in grid if x <= k), lambda x: F(0)),
                        (
                            frozenset(x for x in grid if x > k),
                            (lambda a: lambda x: F(a))(amp),
                        ),
                    ),
                )
                want = oracle.classical_star(plus, want, step)
            expr = marked_join(PLUS, terms)
            assert len(expr.terms) == 11  # one per step plus the base term
            assert len(want.pieces) <= 2 ** 10  # the oracle may blow up
            for x in grid:
                out = evaluate(expr, x, None)
                assert out is not UNDEFINED
                assert out.value == oracle.classical_eval(want, x)


def test_criterion_10_library_builds_the_linear_join(capsys):
    with criterion(capsys, 10, "ten steps through pointwise_star: 11 terms vs oracle", budget=5.0):
        n = 10
        rng = random.Random(190010)
        u_atom = RegionAtom("U", Interval1D(F(0), F(20)))
        u = SymbolicHybridSet.from_atom(u_atom)
        amps = [rng.randint(-9, 9) or 1 for _ in range(n)]
        steps = []
        for i, amp in enumerate(amps, start=1):
            region = interval_region(f"R{i}", f"k{i}", F(20), lo_closed=False)
            steps.append(join(term(constant_atom(f"z{i}", 0), u - region),
                              term(constant_atom(f"a{i}", amp), region)))
        nary = pointwise_star(PLUS, *steps, universe=u_atom)
        folded = steps[0]
        for step in steps[1:]:
            folded = pointwise_star(PLUS, folded, step, universe=u_atom)
        sizes = [len(step.terms) for step in steps]
        assert len(nary.terms) == len(folded.terms) == min_refinement_size(sizes) == n + 1

        grid = oracle.rational_grid_points(F(0), F(20), 80)
        for _ in range(6):
            # knots on the half-integers, which are grid points, drawn from
            # four values so that several knots tie
            pool = rng.sample(range(41), 4)
            knots = [F(rng.choice(pool), 2) for _ in range(n)]
            want = oracle.constant_piecewise(grid, F(0))
            for k, amp in zip(knots, amps):
                step = oracle.ClassicalPiecewise(
                    grid,
                    (
                        (frozenset(x for x in grid if x <= k), lambda x: F(0)),
                        (
                            frozenset(x for x in grid if x > k),
                            (lambda a: lambda x: F(a))(amp),
                        ),
                    ),
                )
                want = oracle.classical_star(operator.add, want, step)
            v = Valuation({f"k{i}": k for i, k in enumerate(knots, start=1)})
            for expr in (nary, folded):
                for x in grid:
                    out = evaluate(expr, x, v)
                    assert out is not UNDEFINED and out.multiplicity == 1
                    assert out.value == oracle.classical_eval(want, x)
