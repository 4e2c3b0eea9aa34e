"""Choice matrices, minimal common refinements, and strictness checks."""

import os
import random
import re
import subprocess
import sys
import textwrap
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from hybridsets import (
    ChoiceMatrix,
    ContractError,
    GeneralisedPartition,
    Interval1D,
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


def dense(rows, n):
    """Sparse (column, value) rows, nonzero and by ascending column, as n-entry lists."""
    out = []
    for row in rows:
        assert [c for c, _ in row] == sorted({c for c, _ in row}) and all(v for _, v in row)
        out.append([dict(row).get(c, 0) for c in range(n)])
    return out


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
            adj = adj if adj is None else dense(adj, n)
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
        det, adj = determinant_and_adjugate([])
        assert (det, dense(adj, 0)) == (1, [])
        assert exact_integer_inverse([]) == []

    def test_a_fraction_entry_is_refused_not_truncated(self):
        message = r"row 1, column 0 must be an integer, got Fraction\(1, 2\)"
        with pytest.raises(ContractError, match=message):
            ChoiceMatrix(((1, 1), (Fraction(1, 2), 1)), ("U", "a"), ("p", "q"))

    def test_a_text_entry_is_refused_not_read(self):
        with pytest.raises(ContractError, match="row 1, column 0 must be an integer, got '0'"):
            determinant_and_adjugate(((1, 1), ("0", 1)))

    def test_whole_fractions_read_as_their_integers(self):
        det, adj = determinant_and_adjugate(((Fraction(2), 3), (1, Fraction(4, 2))))
        assert (det, dense(adj, 2)) == (1, [[2, -3], [-1, 2]])

    def test_entries_are_plain_ints_from_the_start(self):
        # render() shows the ints the entries are read as, not an equal bool
        c = ChoiceMatrix(((True, 1), (0, Fraction(1))), ("U", "a"), ("p", "q"))
        assert c.render() == "U: [1 1]\na: [0 1]"
        assert c.determinant() == 1
        assert {type(v) for row in c.entries for v in row} == {int}


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

    def test_a_custom_matrix_of_determinant_two_is_refused(self):
        c = ChoiceMatrix(((1, 1, 1), (0, 2, 0), (0, 0, 1)), ("U", "P.1", "Q.1"), ("p", "q", "r"))
        assert c.determinant() == 2
        message = r"^determinant is 2, expected \+1 or -1$"
        with pytest.raises(UnimodularError, match=message):
            c.inverse()
        with pytest.raises(UnimodularError, match=message):
            common_strict_refinement([P, Q], choice=c)

    def test_render_lines_up_rows_with_labels(self):
        c = canonical_choice_matrix([2, 2])
        assert c.render().splitlines() == [
            "U: [1 1 1]",
            "1.1: [0 1 0]",
            "2.1: [0 0 1]",
        ]

    def test_the_empty_matrix_renders_as_no_lines(self):
        c = ChoiceMatrix((), (), ())
        assert (c.determinant(), c.inverse(), c.render()) == (1, (), "")


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

GRID = rational_grid(0, 1, 40)


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

    @pytest.mark.parametrize("name, pieces, message", [
        ("bad", (A1, B1), "pieces of 'bad' do not sum to the universe formally; "
         "declare the partition assumed if that is intended"),
        ("none", (), "a partition needs at least one piece"),
        ("clash", (A1, USET - shs("A1", 0, 1)), "region name 'A1' bound to two shapes"),
    ])
    def test_a_direct_construction_checks_its_pieces(self, name, pieces, message):
        # the workspace checks a partition line's sum on its pairs and skips
        # this check; a partition built directly still makes it
        with pytest.raises(ContractError) as exc:
            GeneralisedPartition(name, U, pieces)
        assert str(exc.value) == message


class TestCommonRefinement:
    def test_two_interval_partitions_canonical_pieces(self):
        r = common_strict_refinement([P, Q])
        assert r.size == 3 == min_refinement_size([2, 2])
        assert r.labels == ("P1", "P2", "P3")
        assert r.pieces == (USET - A1 - B1, A1, B1)
        assert sum(r.pieces, SymbolicHybridSet()) == USET

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
        assert calls == [c.runs]

    def test_a_custom_matrix_is_read_once_and_a_canonical_one_never(self, monkeypatch):
        reads = []
        real = refine_module._read_runs
        monkeypatch.setattr(refine_module, "_read_runs", lambda rows: reads.append(rows) or real(rows))
        rows = ((1, 1, 1), (1, 0, 0), (1, 1, 0))
        custom = ChoiceMatrix(rows, ("U", "P.1", "Q.1"), ("P1", "P2", "P3"))
        styles = (STYLE_ONES_TOP, STYLE_UPPER_TRIANGLE)
        for c in (custom, *(canonical_choice_matrix([2, 2], style) for style in styles)):
            r = common_strict_refinement([P, Q], choice=c)
            assert (c.determinant(), len(c.inverse()), len(c.render().splitlines())) == (1, 3, 3)
            assert len(c.entries) == len(r.coefficients) + 1 == 3
        assert reads == [rows]

    @pytest.mark.parametrize("style", [STYLE_ONES_TOP, STYLE_UPPER_TRIANGLE, None])
    def test_refining_and_rendering_never_write_out_dense_rows(self, style):
        # A refinement, the matrix's render and its determinant work from the
        # runs; the dense entries and rewrite rows are written on first read.
        if style is None:
            c = ChoiceMatrix(((1, 1, 1), (1, 0, 0), (1, 1, 0)), ("U", "P.1", "Q.1"), ("a", "b", "c"))
            r = common_strict_refinement([P, Q], choice=c)
        else:
            r = common_strict_refinement(chain_partitions(3, 5), style=style)
        assert (r.choice.determinant(), len(r.choice.render().splitlines())) == (1, r.size)
        assert "entries" not in vars(r.choice) and "coefficients" not in vars(r)
        assert r.coefficients[0][0] == r.choice.entries[1]
        assert vars(r)["coefficients"] is r.coefficients
        assert vars(r.choice)["entries"] is r.choice.entries

    def test_upper_triangle_style(self):
        r = common_strict_refinement([P, Q], style=STYLE_UPPER_TRIANGLE)
        assert r.size == 3
        assert sum(r.pieces, SymbolicHybridSet()) == USET
        v = Valuation({"a": F(1, 4), "b": F(3, 4)})
        for k, part in enumerate(r.partitions):
            assert verify_rewrite(r.pieces, part, r.coefficients[k], v, GRID)

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


class TestUnitRowPieces:
    """A new piece whose inverse row is the single entry (i, 1) is the i-th
    universe or kept piece itself; every other row is one merge."""

    PARTS = chain_partitions(3, 4)  # 10 new pieces

    @staticmethod
    def merged(parts, rows):
        """Each inverse row's piece, as a merge over the universe and kept pieces."""
        rhs = [USET] + [piece for part in parts for piece in part.pieces[:-1]]
        return tuple(SymbolicHybridSet.combine((rhs[i], c) for i, c in row) for row in rows)

    @pytest.mark.parametrize("style", [STYLE_ONES_TOP, STYLE_UPPER_TRIANGLE, "custom"])
    def test_the_pieces_are_the_merged_ones(self, style):
        if style == "custom":
            r = common_strict_refinement(self.PARTS, choice=scrambled_choice(10, 3))
        else:
            r = common_strict_refinement(self.PARTS, style=style)
        assert r.pieces == self.merged(self.PARTS, r.choice._inverse_rows())

    def test_a_ones_top_row_refinement_merges_each_non_unit_row_once(self, monkeypatch):
        from hybridsets import hybridset

        merges = []
        real = hybridset.merge
        monkeypatch.setattr(hybridset, "merge", lambda *args: merges.append(1) or real(*args))
        r = common_strict_refinement(self.PARTS, style=STYLE_ONES_TOP)
        rows = r.choice._inverse_rows()
        unit = [j for j, row in enumerate(rows) if len(row) == 1 and row[0][1] == 1]
        # the inverse is 1, -1, ..., -1 above the identity: nine unit rows
        assert unit == list(range(1, 10))
        kept = [piece for part in self.PARTS for piece in part.pieces[:-1]]
        assert all(r.pieces[j] is kept[j - 1] for j in unit)
        # one merge makes each non-unit row; the universe's combination is
        # built without one
        assert len(merges) == len(rows) - len(unit)


def check_elimination(m):
    """``determinant_and_adjugate(m)`` against the fraction reference, and
    adj * m == det * I when m is not singular; returns the determinant."""
    det, adj = determinant_and_adjugate(m)
    assert det == fraction_determinant(m)
    if det == 0:
        assert adj is None
    else:
        assert matmul(dense(adj, len(m)), m) == [[det * v for v in row] for row in identity(len(m))]
    return det


class TestSparseElimination:
    SIZES = (2, 3, 4, 6, 9, 13, 19, 28, 42, 64)

    def test_sparse_unit_matrices_match_the_fraction_reference(self):
        rng = random.Random(18)
        for n in self.SIZES:
            m = [list(row) for row in scrambled_choice(n, rng.randrange(10**6)).entries]
            assert check_elimination(m) in (1, -1)
            # the last row made the sum of two others: singular, and still sparse
            i, j = rng.sample(range(n - 1), 2) if n > 2 else (0, 0)
            m[-1] = [a + b for a, b in zip(m[i], m[j])]
            assert check_elimination(m) == 0

    @pytest.mark.parametrize(
        "m, det",
        [
            # column 0's only candidate is -1: the pivot row is negated
            ([[0, 1], [-1, 0]], 1),
            # the pivot of column 2 is -2 after a pivot of 2 (p = -prev)
            ([[0, 1, 1, 1], [0, 0, -1, 0], [0, 0, 0, -2], [2, 0, 0, 0]], -4),
            # a unit pivot, then pivots 2 and 4: every row is rescaled,
            # those with and those without an entry in the pivot column
            ([[2, -1, -2], [0, 2, 0], [1, 1, -2]], -4),
        ],
    )
    def test_negated_and_non_unit_pivots(self, m, det):
        assert check_elimination(m) == det

    def test_a_matrix_that_turns_singular_partway(self):
        # columns 0 and 1 take pivots; column 2 then has entries only in rows
        # that already are pivots, since row 1 has become zero
        assert determinant_and_adjugate([[1, 1, 1], [1, 1, 1], [0, 1, 2]]) == (0, None)

    def test_size_241_inverse_times_the_matrix_is_the_identity(self):
        choice = scrambled_choice(241, 11)
        inverse = choice._inverse_rows()
        for i, row in enumerate(choice.entries):
            product = {}
            for k, a in enumerate(row):
                for j, v in inverse[k] if a else ():
                    product[j] = product.get(j, 0) + a * v
            assert {j: v for j, v in product.items() if v} == {i: 1}


def dense_render(labels, rows):
    """The choice-matrix render, cell by cell from the dense rows."""
    width = max((len(str(v)) for row in rows for v in row), default=0)
    return "\n".join(
        f"{label}: [{' '.join(str(v).rjust(width) for v in row)}]" for label, row in zip(labels, rows)
    )


def fraction_inverse(rows):
    """Reference inverse: Gauss-Jordan over Fractions, None when singular."""
    n = len(rows)
    m = [[F(v) for v in row] + [F(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return None
        m[k], m[pivot] = m[pivot], m[k]
        m[k] = [v / m[k][k] for v in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                m[i] = [a - m[i][k] * b for a, b in zip(m[i], m[k])]
    return [row[n:] for row in m]


def one_top_rows(n):
    return [[int(i == 0 or i == j) for j in range(n)] for i in range(n)]


@st.composite
def choice_rows(draw):
    """An n x n integer matrix, n <= 12, with an all-ones first row: either
    any entries below it, or a unimodular one made from the ones-top-row
    matrix by row additions and column swaps."""
    n = draw(st.integers(0, 12))
    entry = st.sampled_from((0, 0, 0, 1, 1, -1, 2, 10, -12))
    if n and draw(st.booleans()):
        return [[1] * n] + [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n - 1)]
    m = one_top_rows(n)
    for _ in range(draw(st.integers(0, 2 * n))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(1, max(n - 1, 1)))
        if n > 1 and a != b:
            c = draw(entry)
            m[b] = [x + c * y for x, y in zip(m[b], m[a])]
    for _ in range(draw(st.integers(0, n))):
        j, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        for row in m:
            row[j], row[k] = row[k], row[j]
    return m


class TestRuns:
    """A choice matrix is held as runs of equal nonzero entries; what it
    shows must be what a dense matrix shows."""

    @pytest.mark.parametrize("zero", [0.0, Decimal(0), F(1, 2)])
    @pytest.mark.parametrize("i, j", [(1, 0), (1, 2), (2, 1), (2, 3)])
    def test_a_foreign_zero_is_refused_where_it_sits(self, zero, i, j):
        # 0.0 == 0, so a read that grouped equal entries would drop it unseen
        rows = [[1, 1, 1, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        rows[i][j] = zero
        message = rf"^matrix entry at row {i}, column {j} must be an integer, got {re.escape(repr(zero))}$"
        with pytest.raises(ContractError, match=message):
            ChoiceMatrix(rows, ("U", "a", "b", "c"), ("p", "q", "r", "s"))
        with pytest.raises(ContractError, match=message):
            determinant_and_adjugate(rows)

    @pytest.mark.parametrize("one", [1.0, Decimal(1)])
    def test_a_foreign_entry_in_the_first_row_is_refused(self, one):
        rows = ((1, 1, one), (0, 1, 0), (0, 0, 1))
        message = rf"^matrix entry at row 0, column 2 must be an integer, got {re.escape(repr(one))}$"
        with pytest.raises(ContractError, match=message):
            ChoiceMatrix(rows, ("U", "a", "b"), ("p", "q", "r"))
        with pytest.raises(ContractError, match=message):
            determinant_and_adjugate(rows)

    def test_the_first_bad_entry_of_a_row_is_named(self):
        rows = ((1, 1, 1, 1), (1, 1.0, 1, F(1, 2)), (0, 0, 1, 0), (0, 0, 0, 1))
        with pytest.raises(ContractError, match=r"row 1, column 1 must be an integer, got 1\.0$"):
            ChoiceMatrix(rows, ("U", "a", "b", "c"), ("p", "q", "r", "s"))

    def test_false_reads_as_0_and_true_as_1(self):
        c = ChoiceMatrix(
            ((True, True, 1), (False, 1, False), (0, F(0), True)), ("U", "1.1", "1.2"), ("P1", "P2", "P3")
        )
        assert c.runs == (((0, 3, 1),), ((1, 2, 1),), ((2, 3, 1),))
        assert {type(v) for row in c.runs for run in row for v in run} == {int}
        assert c == canonical_choice_matrix([3])
        assert c.render() == "U: [1 1 1]\n1.1: [0 1 0]\n1.2: [0 0 1]"

    def test_a_matrix_without_zeros_renders_no_empty_cell(self):
        c = ChoiceMatrix(((1, 1, 1), (10, 10, 11), (-1, 2, 2)), ("U", "a", "b"), ("p", "q", "r"))
        assert c.runs == (((0, 3, 1),), ((0, 2, 10), (2, 3, 11)), ((0, 1, -1), (1, 3, 2)))
        assert c.render() == "U: [ 1  1  1]\na: [10 10 11]\nb: [-1  2  2]"
        assert c.determinant() == fraction_determinant(c.entries) == -3
        two = ChoiceMatrix(((1, 1), (2, 1)), ("U", "a"), ("p", "q"))
        assert (two.render(), two.determinant(), two.inverse()) == ("U: [1 1]\na: [2 1]", -1, ((-1, 1), (2, -1)))

    def test_sizes_0_and_1(self):
        empty = ChoiceMatrix((), (), ())
        assert (empty.runs, empty.entries, empty.render(), empty.determinant()) == ((), (), "", 1)
        one = ChoiceMatrix(((1,),), ("U",), ("P1",))
        assert (one.runs, one.entries, one.render(), one.inverse()) == ((((0, 1, 1),),), ((1,),), "U: [1]", ((1,),))
        assert one == canonical_choice_matrix([1]) == canonical_choice_matrix([1], STYLE_UPPER_TRIANGLE)
        part = GeneralisedPartition("P", U, (USET,))
        r = common_strict_refinement([part], choice=one)
        assert (r.pieces, r.coefficients) == ((USET,), (((1,),),))

    def test_negative_entries(self):
        c = ChoiceMatrix(((1, 1, 1), (-1, -1, 0), (0, -1, -1)), ("U", "a", "b"), ("p", "q", "r"))
        assert c.runs == (((0, 3, 1),), ((0, 2, -1),), ((1, 3, -1),))
        assert c.render() == "U: [ 1  1  1]\na: [-1 -1  0]\nb: [ 0 -1 -1]"
        assert c.determinant() == 1
        assert [list(row) for row in c.inverse()] == fraction_inverse(c.entries)

    @settings(max_examples=150, deadline=None)
    @seed(3901)
    @given(choice_rows())
    def test_every_view_equals_a_dense_reference(self, rows):
        n = len(rows)
        labels = ("U", *(f"r{i}" for i in range(1, n)))[:n]
        c = ChoiceMatrix(rows, labels, tuple(f"P{j}" for j in range(1, n + 1)))
        assert c.entries == tuple(map(tuple, rows))
        assert all(v and start < stop for row in c.runs for start, stop, v in row)
        # maximal and in column order: a run ends at a gap or a new value
        assert all(a[1] < b[0] or a[1] == b[0] and a[2] != b[2] for row in c.runs for a, b in zip(row, row[1:]))
        assert c.render() == dense_render(labels, rows)
        det = fraction_determinant(rows)
        assert c.determinant() == det
        if det not in (1, -1):
            with pytest.raises(UnimodularError):
                c.inverse()
            return
        assert [list(row) for row in c.inverse()] == fraction_inverse(rows)
        if not n:
            return
        # one partition of n pieces; rows 1..n-1 are its kept pieces
        part = GeneralisedPartition("P", U, tuple(shs(f"A{i}", 0, 1) for i in range(n)), assumed=True)
        r = common_strict_refinement([part], choice=c)
        dropped = tuple(1 - sum(col) for col in zip(*rows[1:])) if n > 1 else (1,)
        assert r.coefficients == ((*map(tuple, rows[1:]), dropped),)

    def test_the_canonical_styles_equal_their_dense_formulas_up_to_size_130(self):
        for n in range(1, 131):
            for style, rows in (
                (STYLE_ONES_TOP, one_top_rows(n)),
                (STYLE_UPPER_TRIANGLE, [[int(j >= i) for j in range(n)] for i in range(n)]),
            ):
                c = canonical_choice_matrix([n], style)
                assert c.entries == tuple(map(tuple, rows))
                assert c == ChoiceMatrix(rows, c.row_labels, c.col_labels)
                assert c.render() == dense_render(c.row_labels, rows)


class TestOnePiecePartition:
    # A one-piece partition keeps no piece, so its only rewrite row is the
    # all-ones universe row, and the partitions after it start one row on.
    C0, C1, C2 = chain_partitions(3, 3)
    PARTS = [C0, GeneralisedPartition("W", U, (USET,)), C1, C2]

    @pytest.mark.parametrize("style", [STYLE_ONES_TOP, STYLE_UPPER_TRIANGLE, "custom"])
    def test_every_piece_rewrites_formally(self, style):
        n = min_refinement_size([3, 1, 3, 3])
        if style == "custom":
            r = common_strict_refinement(self.PARTS, choice=scrambled_choice(n, 3))
        else:
            r = common_strict_refinement(self.PARTS, style=style)
        assert r.size == n == 7
        assert r.coefficients[1] == ((1,) * n,)
        for k, part in enumerate(self.PARTS):
            for i, piece in enumerate(part.pieces):
                assert r.rewrite(k, i) == piece


V = RegionAtom("V", Interval1D(F(0), F(2)))


def named_chain(name, universe, pieces, labels):
    """A partition ``name`` of ``universe`` into ``pieces`` intervals, with
    ``labels`` as given (None for the default ones)."""
    whole = SymbolicHybridSet.from_atom(universe)
    cuts = [
        SymbolicHybridSet.from_atom(
            RegionAtom(f"{universe.name}{i}", Interval1D(F(0), f"c{i}", hi_closed=False))
        )
        for i in range(1, pieces)
    ]
    chain = [b - a for a, b in zip([SymbolicHybridSet(), *cuts], cuts)] + [
        whole - cuts[-1] if cuts else whole
    ]
    return GeneralisedPartition(name, universe, tuple(chain), labels or ())


SHAPE_PARTITIONS = st.lists(
    st.tuples(
        st.sampled_from(["P", "Q", "operand 1", "a.b", ""]),
        st.integers(1, 8),
        st.sampled_from(["default", "tuple", "list"]),
    ),
    min_size=1,
    max_size=5,
)


class TestCanonicalRefinement:
    """A canonical refinement, built afresh on every call, labels its rows
    ``U`` then ``name.label`` and its pieces sum to its own universe."""

    @seed(31)
    @settings(max_examples=60, deadline=None)
    @example([("P", 2, "default"), ("Q", 2, "list")], STYLE_ONES_TOP, U)
    @given(
        SHAPE_PARTITIONS,
        st.sampled_from([STYLE_ONES_TOP, STYLE_UPPER_TRIANGLE]),
        st.sampled_from([U, V]),
    )
    def test_a_canonical_refinement_labels_its_rows_and_covers_its_universe(
        self, shape, style, universe
    ):
        parts = []
        for name, pieces, kind in shape:
            labels = [f"{name}{chr(97 + i)}" for i in range(pieces)]
            labels = {"default": None, "tuple": tuple(labels), "list": labels}[kind]
            parts.append(named_chain(name, universe, pieces, labels))
        got = common_strict_refinement(parts, style=style)
        want_rows = ["U"] + [f"{p.name}.{label}" for p in parts for label in p.labels[:-1]]
        assert got.choice.row_labels == tuple(want_rows)
        assert got.labels == got.choice.col_labels == tuple(f"P{j}" for j in range(1, got.size + 1))
        assert SymbolicHybridSet.combine((q, 1) for q in got.pieces) == (
            SymbolicHybridSet.from_atom(universe)
        )
        assert {a.name[0] for q in got.pieces for a in q.atoms()} == {universe.name}

    def test_an_unknown_style_raises_the_same_error_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ContractError, match="^unknown choice-matrix style 'diagonal'$"):
                common_strict_refinement([P, Q], style="diagonal")


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
    def test_one_partition_refines_itself_strictly(self):
        r = common_strict_refinement([P])
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
        grid = rational_grid(0, 3, 60)
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
        grid = rational_grid(-2, 3, 100)
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
