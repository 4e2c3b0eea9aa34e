"""Choice matrices, minimal common refinements, and strictness checks."""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hybridsets import (
    ChoiceMatrix,
    ContractError,
    GeneralisedPartition,
    Interval1D,
    Refinement,
    RefinementError,
    RegionAtom,
    STYLE_ONES_TOP,
    STYLE_UPPER_TRIANGLE,
    SymbolicHybridSet,
    UnimodularError,
    Valuation,
    canonical_choice_matrix,
    common_strict_refinement,
    is_strict,
    min_refinement_size,
    rational_grid,
    verify_rewrite,
)
import hybridsets.refine as refine_module
from hybridsets.refine import (
    bareiss_determinant,
    determinant_and_adjugate,
    exact_integer_inverse,
)

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src"


def shs(name, lo, hi, lo_closed=True, hi_closed=True):
    return SymbolicHybridSet.from_atom(
        RegionAtom(name, Interval1D(F(lo), F(hi), lo_closed, hi_closed))
    )


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def fraction_determinant(rows):
    """Reference determinant: plain Gaussian elimination over Fractions."""
    m = [[F(v) for v in row] for row in rows]
    n, det = len(m), F(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            m[i] = [a - factor * b for a, b in zip(m[i], m[k])]
    return det


class TestIntegerLinearAlgebra:
    def test_determinant_known_values(self):
        assert bareiss_determinant([[2, 3], [1, 4]]) == 5
        assert bareiss_determinant([[1, 2], [2, 4]]) == 0
        assert bareiss_determinant(identity(5)) == 1
        assert bareiss_determinant([[0, 1], [1, 0]]) == -1

    def test_determinant_wants_square_input(self):
        with pytest.raises(ContractError):
            bareiss_determinant([[1, 2, 3], [4, 5, 6]])

    def test_inverse_of_identity(self):
        assert exact_integer_inverse(identity(4)) == identity(4)

    def test_inverse_requires_unit_determinant(self):
        with pytest.raises(UnimodularError, match="determinant is 2"):
            exact_integer_inverse([[2, 0], [0, 1]])
        with pytest.raises(UnimodularError, match="determinant is 0"):
            exact_integer_inverse([[1, 1], [1, 1]])

    @given(st.integers(2, 5), st.data())
    def test_random_unimodular_matrices_invert_exactly(self, n, data):
        # build det-1 matrices from elementary row additions on the identity
        m = identity(n)
        for _ in range(data.draw(st.integers(0, 8))):
            i = data.draw(st.integers(0, n - 1))
            j = data.draw(st.integers(0, n - 1))
            if i == j:
                continue
            c = data.draw(st.integers(-3, 3))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        assert bareiss_determinant(m) == 1
        inv = exact_integer_inverse(m)
        product = [
            [sum(m[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert product == identity(n)

    def test_elimination_matches_a_fraction_reference_on_seeded_matrices(self):
        rng = random.Random(20261018)
        swaps = singular = 0
        for trial in range(300):
            n = rng.randint(1, 7)
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if trial % 3 == 0:
                m[0][0] = 0  # the first column then needs a row swap, or has no pivot
            if trial % 5 == 0 and n > 2:
                m[-1] = [a - 2 * b for a, b in zip(m[0], m[1])]  # dependent rows
            det, adj = determinant_and_adjugate(m)
            assert det == fraction_determinant(m)
            assert bareiss_determinant(m) == det
            swaps += m[0][0] == 0 and any(row[0] for row in m)
            if det == 0:
                singular += 1
                assert adj is None
            else:
                assert matmul(adj, m) == [[det * v for v in row] for row in identity(n)]
                assert matmul(m, adj) == [[det * v for v in row] for row in identity(n)]
        assert swaps > 50 and singular > 30

    def test_empty_matrix(self):
        assert determinant_and_adjugate([]) == (1, [])
        assert exact_integer_inverse([]) == []


class TestMinRefinementSize:
    def test_pair_of_four_piece_partitions_needs_seven(self):
        assert min_refinement_size([4, 4]) == 7

    def test_single_partition_refines_itself(self):
        for n in range(1, 7):
            assert min_refinement_size([n]) == n

    def test_equal_sizes_formula(self):
        for r in range(1, 7):
            for n in range(1, 7):
                assert min_refinement_size([n] * r) == r * (n - 1) + 1

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ContractError):
            min_refinement_size([])
        with pytest.raises(ContractError):
            min_refinement_size([2, 0])


class TestCanonicalChoiceMatrices:
    def test_ones_top_for_two_two_piece_partitions(self):
        c = canonical_choice_matrix([2, 2])
        assert c.entries == ((1, 1, 1), (0, 1, 0), (0, 0, 1))
        assert c.row_labels == ("U", "1.1", "2.1")
        assert c.col_labels == ("P1", "P2", "P3")
        assert c.inverse() == ((1, -1, -1), (0, 1, 0), (0, 0, 1))

    def test_upper_triangle_for_two_two_piece_partitions(self):
        c = canonical_choice_matrix([2, 2], STYLE_UPPER_TRIANGLE)
        assert c.entries == ((1, 1, 1), (0, 1, 1), (0, 0, 1))
        assert c.inverse() == ((1, -1, 0), (0, 1, -1), (0, 0, 1))

    def test_both_styles_are_unimodular_up_to_size_twelve(self):
        for n in range(1, 13):
            for style in (STYLE_ONES_TOP, STYLE_UPPER_TRIANGLE):
                c = canonical_choice_matrix([n], style)
                assert c.size == n
                assert c.determinant() == 1

    def test_inverse_patterns(self):
        inv_top = canonical_choice_matrix([3, 3], STYLE_ONES_TOP).inverse()
        assert inv_top[0] == (1, -1, -1, -1, -1)
        for j in range(1, 5):
            assert inv_top[j] == tuple(int(i == j) for i in range(5))
        inv_tri = canonical_choice_matrix([3, 3], STYLE_UPPER_TRIANGLE).inverse()
        for i in range(5):
            for j in range(5):
                expect = 1 if i == j else (-1 if j == i + 1 else 0)
                assert inv_tri[i][j] == expect

    def test_closed_forms_match_elimination_up_to_size_64(self):
        for n in range(1, 65):
            for style in (STYLE_ONES_TOP, STYLE_UPPER_TRIANGLE):
                c = canonical_choice_matrix([n], style)
                inv = c.inverse()
                assert [list(row) for row in inv] == exact_integer_inverse(c.entries)
                plain = ChoiceMatrix(c.entries, c.row_labels, c.col_labels)
                assert plain == c and plain.inverse() == inv
                assert plain.determinant() == c.determinant() == 1
                assert matmul(c.entries, inv) == identity(n)

    def test_unknown_style_rejected(self):
        with pytest.raises(ContractError):
            canonical_choice_matrix([2, 2], "lower-triangle")

    def test_matrix_contract_is_enforced(self):
        with pytest.raises(ContractError):
            ChoiceMatrix(((1, 0), (0, 1)), ("U", "A"), ("P1", "P2"))
        with pytest.raises(ContractError):
            ChoiceMatrix(((1, 1), (0,)), ("U", "A"), ("P1", "P2"))
        with pytest.raises(ContractError):
            ChoiceMatrix(((1, 1), (0, 1)), ("U",), ("P1", "P2"))

    def test_render_lines_up_rows_with_labels(self):
        c = canonical_choice_matrix([2, 2])
        assert c.render().splitlines() == [
            "U: [1 1 1]",
            "1.1: [0 1 0]",
            "2.1: [0 0 1]",
        ]


U = RegionAtom("U", Interval1D(F(0), F(1), hi_closed=False))
A1 = SymbolicHybridSet.from_atom(
    RegionAtom("A1", Interval1D(F(0), "a", hi_closed=False))
)
B1 = SymbolicHybridSet.from_atom(
    RegionAtom("B1", Interval1D(F(0), "b", hi_closed=False))
)
USET = SymbolicHybridSet.from_atom(U)

P = GeneralisedPartition("P", U, (A1, USET - A1), ("1", "2"))
Q = GeneralisedPartition("Q", U, (B1, USET - B1), ("1", "2"))

GRID = rational_grid(0, 1, 40, include_hi=True)


class TestGeneralisedPartition:
    def test_formal_sum_must_hit_the_universe(self):
        with pytest.raises(ContractError):
            GeneralisedPartition("bad", U, (A1, B1))

    def test_assumed_partitions_skip_the_formal_check(self):
        # [0,a) and [0,b) tile [0,1) only in the degenerate reading a=0, b=1;
        # the formal layer cannot see that, so the partition must be assumed
        p = GeneralisedPartition("loose", U, (A1, B1), assumed=True)
        v = Valuation({"a": F(0), "b": F(1)})
        assert p.validate_by_sampling(v, GRID[:-1]) == []

    def test_sampling_reports_failures(self):
        p = GeneralisedPartition("loose", U, (A1, B1), assumed=True)
        v = Valuation({"a": F(1, 3), "b": F(1, 3)})
        bad = p.validate_by_sampling(v, GRID)
        assert bad and "pieces sum to" in bad[0]

    def test_labels_default_to_indices(self):
        p = GeneralisedPartition("P", U, (A1, USET - A1))
        assert p.labels == ("1", "2")


class TestCommonRefinement:
    def test_two_interval_partitions_canonical_pieces(self):
        r = common_strict_refinement([P, Q])
        assert r.size == 3 == min_refinement_size([2, 2])
        assert r.labels == ("P1", "P2", "P3")
        assert r.pieces == (USET - A1 - B1, A1, B1)
        assert sum(r.pieces, SymbolicHybridSet.zero()) == USET

    def test_rewrites_reproduce_the_originals_formally(self):
        r = common_strict_refinement([P, Q])
        assert r.rewrite(0, 0) == A1
        assert r.rewrite(0, 1) == USET - A1
        assert r.rewrite(1, 0) == B1
        assert r.rewrite(1, 1) == USET - B1

    def test_rewrites_verify_under_either_breakpoint_ordering(self):
        r = common_strict_refinement([P, Q])
        for a, b in [(F(1, 3), F(2, 3)), (F(2, 3), F(1, 3)), (F(1, 2), F(1, 2))]:
            v = Valuation({"a": a, "b": b})
            for k, part in enumerate(r.partitions):
                assert verify_rewrite(r.pieces, part, r.coefficients[k], v, GRID)

    def test_new_pieces_still_partition_the_universe_pointwise(self):
        r = common_strict_refinement([P, Q])
        v = Valuation({"a": F(2, 5), "b": F(4, 5)})
        for x in GRID:
            total = sum(p.multiplicity(x, v) for p in r.pieces)
            assert total == U.indicator(x, v)

    def test_custom_choice_matrix_gives_the_ordered_pieces(self):
        c = ChoiceMatrix(
            ((1, 1, 1), (1, 0, 0), (1, 1, 0)),
            ("U", "P.1", "Q.1"),
            ("P1", "P2", "P3"),
        )
        assert c.determinant() == 1
        assert c.inverse() == ((0, 1, 0), (0, -1, 1), (1, 0, -1))
        r = common_strict_refinement([P, Q], choice=c)
        assert r.pieces == (A1, B1 - A1, USET - B1)
        assert r.rewrite(0, 1) == USET - A1
        assert r.rewrite(1, 0) == B1

    def test_elimination_runs_once_per_custom_matrix_and_never_for_canonical(
        self, monkeypatch
    ):
        calls = []
        real = refine_module.determinant_and_adjugate
        monkeypatch.setattr(
            refine_module, "determinant_and_adjugate", lambda rows: calls.append(rows) or real(rows)
        )
        for style in (STYLE_ONES_TOP, STYLE_UPPER_TRIANGLE):
            r = common_strict_refinement([P, Q], style=style)
            assert (r.choice.determinant(), r.choice.size) == (1, 3)
        assert calls == []
        c = ChoiceMatrix(
            ((1, 1, 1), (1, 0, 0), (1, 1, 0)),
            ("U", "P.1", "Q.1"),
            ("P1", "P2", "P3"),
        )
        common_strict_refinement([P, Q], choice=c)
        assert c.determinant() == 1
        assert c.inverse() == ((0, 1, 0), (0, -1, 1), (1, 0, -1))
        assert calls == [c.entries]

    def test_upper_triangle_style(self):
        r = common_strict_refinement([P, Q], style=STYLE_UPPER_TRIANGLE)
        assert r.size == 3
        assert sum(r.pieces, SymbolicHybridSet.zero()) == USET
        v = Valuation({"a": F(1, 4), "b": F(3, 4)})
        for k, part in enumerate(r.partitions):
            assert verify_rewrite(r.pieces, part, r.coefficients[k], v, GRID)

    def test_reordered_moves_pieces_and_relabels(self):
        r = common_strict_refinement([P, Q]).reordered([1, 2, 0])
        assert r.pieces == (A1, B1, USET - A1 - B1)
        assert r.labels == ("P1", "P2", "P3")
        v = Valuation({"a": F(1, 3), "b": F(2, 3)})
        for k, part in enumerate(r.partitions):
            assert verify_rewrite(r.pieces, part, r.coefficients[k], v, GRID)
        with pytest.raises(ContractError):
            r.reordered([0, 0, 1])

    def test_universe_mismatch_is_an_error(self):
        other_u = RegionAtom("V", Interval1D(F(0), F(2)))
        other = GeneralisedPartition(
            "R",
            other_u,
            (A1, SymbolicHybridSet.from_atom(other_u) - A1),
        )
        with pytest.raises(RefinementError):
            common_strict_refinement([P, other])

    def test_choice_size_mismatch_is_an_error(self):
        small = canonical_choice_matrix([2])
        with pytest.raises(RefinementError):
            common_strict_refinement([P, Q], choice=small)

    def test_at_least_one_partition(self):
        with pytest.raises(ContractError):
            common_strict_refinement([])


def chain_partitions(count, pieces):
    """``count`` partitions of U into ``pieces`` intervals each: piece i of
    partition k is [0, a_k,i) minus [0, a_k,i-1), the last one U minus the rest."""
    parts = []
    for k in range(count):
        cuts = [
            SymbolicHybridSet.from_atom(
                RegionAtom(f"A{k}_{i}", Interval1D(F(0), f"a{k}_{i}", hi_closed=False))
            )
            for i in range(1, pieces)
        ]
        chain = [cuts[0]] + [b - a for a, b in zip(cuts, cuts[1:])] + [USET - cuts[-1]]
        parts.append(GeneralisedPartition(f"C{k}", U, tuple(chain)))
    return parts


def scrambled_choice(size, seed):
    """A unimodular choice matrix that is neither canonical style: the
    ones-top-row matrix after seeded row additions below the first row and
    swaps of neighbouring columns, so elimination needs row swaps."""
    rng = random.Random(seed)
    m = [list(row) for row in canonical_choice_matrix([size]).entries]
    rows = list(range(1, size))
    rng.shuffle(rows)
    for a, b in zip(rows[0::2], rows[1::2]):
        c = rng.choice((-1, 1))
        m[b] = [x + c * y for x, y in zip(m[b], m[a])]
    perm = list(range(size))
    for j in range(0, size - 1, 2):
        if rng.random() < 0.5:
            perm[j], perm[j + 1] = perm[j + 1], perm[j]
    entries = tuple(tuple(row[p] for p in perm) for row in m)
    return ChoiceMatrix(
        entries, ("U",) * size, tuple(f"P{j}" for j in range(1, size + 1))
    )


class TestLargeRefinement:
    # 16 partitions of 16 pieces: 16 * 15 + 1 = 241 new pieces
    PARTS = chain_partitions(16, 16)

    @pytest.mark.parametrize("style", [STYLE_ONES_TOP, STYLE_UPPER_TRIANGLE, "custom"])
    def test_size_241_rewrites_every_piece_formally(self, style):
        if style == "custom":
            choice = scrambled_choice(241, 7)
            assert choice.determinant() in (1, -1)
            r = common_strict_refinement(self.PARTS, choice=choice)
        else:
            r = common_strict_refinement(self.PARTS, style=style)
        assert r.size == len(r.pieces) == 241 == min_refinement_size([16] * 16)
        assert SymbolicHybridSet.combine((p, 1) for p in r.pieces) == USET
        for k, part in enumerate(self.PARTS):
            for i, piece in enumerate(part.pieces):
                assert r.rewrite(k, i) == piece


class TestChecksSurviveOptimisedMode:
    def test_non_unimodular_choices_raise_under_python_O(self):
        code = textwrap.dedent(
            """
            import sys
            from hybridsets import (
                ChoiceMatrix, GeneralisedPartition, Interval1D, RegionAtom,
                SymbolicHybridSet, UnimodularError, common_strict_refinement,
            )
            from hybridsets.refine import exact_integer_inverse

            u = RegionAtom("U", Interval1D(0, 1))
            a = SymbolicHybridSet.from_atom(RegionAtom("A", Interval1D(0, "a")))
            part = GeneralisedPartition("P", u, (a, SymbolicHybridSet.from_atom(u) - a))
            for entries in (((1, 1), (-1, 1)), ((1, 1), (1, 1))):
                choice = ChoiceMatrix(entries, ("U", "P.1"), ("P1", "P2"))
                for attempt in (
                    lambda: common_strict_refinement([part], choice=choice),
                    lambda: choice.inverse(),
                    lambda: exact_integer_inverse(entries),
                ):
                    try:
                        attempt()
                        print("accepted")
                    except UnimodularError as e:
                        print(e)
            print("optimize", sys.flags.optimize)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        two = "determinant is 2, expected +1 or -1"
        zero = "determinant is 0, expected +1 or -1"
        assert result.stdout.splitlines() == [two] * 3 + [zero] * 3 + ["optimize 1"]


class TestStrictness:
    def test_trivial_refinement_is_strict(self):
        r = Refinement.trivial(P)
        v = Valuation({"a": F(1, 2)})
        assert verify_rewrite(r.pieces, P, r.coefficients[0], v, GRID)
        assert is_strict(r.pieces, P, r.coefficients[0], v, GRID)

    def test_interval_split_refining_two_overlapping_partitions(self):
        w = RegionAtom("W", Interval1D(F(0), F(3)))
        i1 = shs("I1", 0, 1)
        i2 = shs("I2", 1, 2, lo_closed=False)
        i3 = shs("I3", 2, 3, lo_closed=False)
        left = GeneralisedPartition(
            "L",
            w,
            (shs("LA", 0, 2), shs("LB", 2, 3, lo_closed=False)),
            assumed=True,
        )
        right = GeneralisedPartition(
            "R",
            w,
            (shs("RA", 0, 1), shs("RB", 1, 3, lo_closed=False)),
            assumed=True,
        )
        grid = rational_grid(0, 3, 60, include_hi=True)
        refined = [i1, i2, i3]
        assert verify_rewrite(refined, left, [(1, 1, 0), (0, 0, 1)], None, grid)
        assert is_strict(refined, left, [(1, 1, 0), (0, 0, 1)], None, grid)
        assert verify_rewrite(refined, right, [(1, 0, 0), (0, 1, 1)], None, grid)
        assert is_strict(refined, right, [(1, 0, 0), (0, 1, 1)], None, grid)

    def test_signed_refinement_that_spills_support_is_not_strict(self):
        # [0,1] written as -[-1,0) - (1,2] + [-1,2]: a valid rewrite whose
        # supports spill out to [-1,2], so the refinement is not strict
        p_atom = RegionAtom("P", Interval1D(F(0), F(1)))
        original = GeneralisedPartition(
            "whole", p_atom, (SymbolicHybridSet.from_atom(p_atom),)
        )
        refined = [
            -shs("I1", -1, 0, hi_closed=False),
            -shs("I2", 1, 2, lo_closed=False),
            shs("I3", -1, 2),
        ]
        grid = rational_grid(-2, 3, 100, include_hi=True)
        rewrite = [(1, 1, 1)]
        assert verify_rewrite(refined, original, rewrite, None, grid)
        assert not is_strict(refined, original, rewrite, None, grid)

    def test_strictness_depends_on_the_breakpoint_ordering(self):
        c = ChoiceMatrix(
            ((1, 1, 1), (1, 0, 0), (1, 1, 0)),
            ("U", "P.1", "Q.1"),
            ("P1", "P2", "P3"),
        )
        r = common_strict_refinement([P, Q], choice=c)
        ordered = Valuation({"a": F(1, 3), "b": F(2, 3)})
        for k, part in enumerate(r.partitions):
            assert is_strict(r.pieces, part, r.coefficients[k], ordered, GRID)
        swapped = Valuation({"a": F(2, 3), "b": F(1, 3)})
        assert not is_strict(r.pieces, P, r.coefficients[0], swapped, GRID)

    def test_a_one_shot_sample_checks_every_row(self):
        r = common_strict_refinement([P, Q])
        v = Valuation({"a": F(1, 3), "b": F(2, 3)})
        good = r.coefficients[0]
        assert verify_rewrite(r.pieces, P, good, v, iter(GRID))
        wrong_second_row = (good[0], tuple(1 - c for c in good[1]))
        assert not verify_rewrite(r.pieces, P, wrong_second_row, v, iter(GRID))

    def test_a_check_stops_at_the_first_failing_point(self):
        choice = ChoiceMatrix(
            ((1, 1, 1), (1, 0, 0), (1, 1, 0)),
            ("U", "P.1", "Q.1"),
            ("P1", "P2", "P3"),
        )
        r = common_strict_refinement([P, Q], choice=choice)
        swapped = Valuation({"a": F(2, 3), "b": F(1, 3)})
        good = r.coefficients[0]
        wrong_second_row = (good[0], tuple(1 - c for c in good[1]))
        for check, rows in ((verify_rewrite, wrong_second_row), (is_strict, good)):
            drawn = []

            def sample():
                for x in GRID:
                    drawn.append(x)
                    yield x

            assert not check(r.pieces, P, rows, swapped, sample())
            assert len(drawn) < len(GRID) / 2

    @pytest.mark.parametrize("check", [verify_rewrite, is_strict])
    @pytest.mark.parametrize(
        "shape", ["too few rows", "too many rows", "too wide a row", "too narrow a row"]
    )
    def test_a_rewrite_of_the_wrong_shape_is_a_contract_error(self, check, shape):
        r = common_strict_refinement([P, Q])
        v = Valuation({"a": F(1, 3), "b": F(2, 3)})
        rows = list(r.coefficients[0])
        if shape == "too few rows":
            rows = rows[:1]
        elif shape == "too many rows":
            rows.append(rows[0])
        elif shape == "too wide a row":
            rows[1] += (0,)
        else:
            rows[1] = rows[1][:-1]
        with pytest.raises(ContractError) as exc:
            check(r.pieces, P, rows, v, GRID)
        assert str(exc.value) == "a rewrite of 'P' needs 2 rows of 3 coefficients"
