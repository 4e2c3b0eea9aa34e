"""Block-matrix sums that stay correct whichever way the splits compare."""

from fractions import Fraction

import pytest

from hybridsets import (
    Block,
    ContractError,
    Defined,
    FormalValue,
    FunctionAtom,
    GridRect,
    RegionAtom,
    SymbolicBlockMatrix,
    UNDEFINED,
    Valuation,
    block_matrix_2x2,
    evaluate,
    grid_cells,
    grid_universe,
    matrix_add,
    matrix_add_with_refinement,
    min_refinement_size,
    verify_rewrite,
    word,
)
from hybridsets import oracle

F = Fraction

M1 = block_matrix_2x2("M1", "n", "m", "h1", "k1", ["A1", "B1", "C1", "D1"])
M2 = block_matrix_2x2("M2", "n", "m", "h2", "k2", ["A2", "B2", "C2", "D2"])

V1 = Valuation.parse("n=4, m=4, h1=1, k1=1, h2=2, k2=2")
V2 = Valuation.parse("n=4, m=4, h1=2, k1=2, h2=1, k2=1")
V3 = Valuation.parse("n=8, m=8, h1=3, k1=5, h2=6, k2=2")


def block_word(e, *names):
    atoms = {}
    for t in e.terms:
        for a, _ in t.word.items():
            atoms[a.name] = a
    return word(*(atoms[n] for n in names))


class TestBlockGeometry:
    def test_top_left_block_is_doubly_closed(self):
        a1 = M1.blocks[0]
        assert a1.name == "A1"
        assert a1.region.shape == GridRect(1, "h1", 1, "k1")

    def test_side_blocks_open_toward_the_split(self):
        b1, c1, d1 = M1.blocks[1], M1.blocks[2], M1.blocks[3]
        assert b1.region.shape == GridRect("h1", "n", 1, "k1", row_lo_closed=False)
        assert c1.region.shape == GridRect(1, "h1", "k1", "m", col_lo_closed=False)
        assert d1.region.shape == GridRect(
            "h1", "n", "k1", "m", row_lo_closed=False, col_lo_closed=False
        )

    def test_blocks_partition_the_grid_under_sampling(self):
        u = grid_universe("n", "m")
        for v in (V1, V2, V3):
            rows = int(v.resolve("n"))
            cols = int(v.resolve("m"))
            sample = grid_cells(rows, cols)
            for mat in (M1, M2):
                assert mat.partition(u).validate_by_sampling(v, sample) == []

    def test_block_at_finds_the_unique_block(self):
        assert M1.block_at(1, 1, V1).name == "A1"
        assert M1.block_at(2, 1, V1).name == "B1"
        assert M1.block_at(1, 2, V1).name == "C1"
        assert M1.block_at(4, 4, V1).name == "D1"
        assert M1.block_at(9, 9, V1) is None

    def test_overlapping_blocks_are_reported(self):
        overlapping = SymbolicBlockMatrix(
            "bad",
            F(2),
            F(2),
            (
                Block(RegionAtom("X", GridRect(1, 2, 1, 2)), FunctionAtom("X")),
                Block(RegionAtom("Y", GridRect(1, 1, 1, 1)), FunctionAtom("Y")),
            ),
        )
        with pytest.raises(ContractError):
            overlapping.block_at(1, 1, None)

    def test_four_names_required(self):
        with pytest.raises(ContractError):
            block_matrix_2x2("M", "n", "m", "h", "k", ["A", "B", "C"])


class TestSevenTermSum:
    def test_term_count_matches_the_refinement_bound(self):
        e = matrix_add(M1, M2)
        assert len(e.terms) == 7 == min_refinement_size([4, 4])

    def test_frozen_term_structure(self):
        e, refinement = matrix_add_with_refinement(M1, M2)
        regions = [t.region.render() for t in e.terms]
        assert regions == [
            "U - A1 - A2 - B1 - B2 - C1 - C2",
            "A1",
            "B1",
            "C1",
            "A2",
            "B2",
            "C2",
        ]
        assert [t.word for t in e.terms] == [
            block_word(e, "D1", "D2"),
            block_word(e, "A1", "D2"),
            block_word(e, "B1", "D2"),
            block_word(e, "C1", "D2"),
            block_word(e, "D1", "A2"),
            block_word(e, "D1", "B2"),
            block_word(e, "D1", "C2"),
        ]
        assert refinement.labels == tuple(f"P{j}" for j in range(1, 8))

    def test_dropped_blocks_rewrite_over_the_leftover_piece(self):
        _, refinement = matrix_add_with_refinement(M1, M2)
        # D1 (index 3 of the first partition) uses P1 plus the kept blocks of M2
        assert refinement.coefficients[0][3] == (1, 0, 0, 0, 1, 1, 1)
        assert refinement.coefficients[1][3] == (1, 1, 1, 1, 0, 0, 0)
        for v in (V1, V2, V3):
            rows = int(v.resolve("n"))
            sample = grid_cells(rows, rows)
            for k, part in enumerate(refinement.partitions):
                assert verify_rewrite(
                    refinement.pieces, part, refinement.coefficients[k], v, sample
                )

    @pytest.mark.parametrize(
        "cell, expect",
        [((2, 1), "B1 + A2"), ((1, 2), "C1 + A2"), ((1, 1), "A1 + A2"), ((4, 4), "D1 + D2")],
    )
    def test_cell_values_under_the_first_split(self, cell, expect):
        e = matrix_add(M1, M2)
        out = evaluate(e, (F(cell[0]), F(cell[1])), V1)
        assert isinstance(out, Defined)
        assert out.multiplicity == 1
        assert isinstance(out.value, FormalValue)
        assert out.value.render() == expect

    def test_cell_values_flip_with_the_split_ordering(self):
        e = matrix_add(M1, M2)
        assert evaluate(e, (F(2), F(1)), V2).value.render() == "A1 + B2"
        assert evaluate(e, (F(1), F(2)), V2).value.render() == "A1 + C2"

    def test_outside_the_grid_is_undefined(self):
        e = matrix_add(M1, M2)
        assert evaluate(e, (F(5), F(5)), V1) is UNDEFINED
        assert evaluate(e, (F(0), F(1)), V1) is UNDEFINED

    def test_identical_splits_still_evaluate_blockwise(self):
        m3 = block_matrix_2x2("M3", "n", "m", "h1", "k1", ["A3", "B3", "C3", "D3"])
        e = matrix_add(M1, m3)
        assert len(e.terms) == 7
        assert evaluate(e, (F(1), F(1)), V1).value.render() == "A1 + A3"
        assert evaluate(e, (F(3), F(3)), V1).value.render() == "D1 + D3"

    def test_dimension_symbols_must_agree(self):
        other = block_matrix_2x2("N", "p", "q", "h", "k", ["A", "B", "C", "D"])
        with pytest.raises(ContractError):
            matrix_add(M1, other)

    def test_numeric_bodies_give_scalar_cells(self):
        m1 = block_matrix_2x2("S1", 4, 4, 2, 2, ["A1", "B1", "C1", "D1"], bodies=[1, 2, 3, 4])
        m2 = block_matrix_2x2("S2", 4, 4, 3, 1, ["A2", "B2", "C2", "D2"], bodies=[10, 20, 30, 40])
        e = matrix_add(m1, m2)
        assert evaluate(e, (F(1), F(1)), None) == Defined(F(11))
        assert evaluate(e, (F(4), F(4)), None) == Defined(F(44))
        assert evaluate(e, (F(3), F(2)), None) == Defined(F(2 + 30))


class TestOracleAgreement:
    @pytest.mark.parametrize("v", [V1, V2, V3])
    def test_every_cell_matches_the_exhaustive_refinement(self, v):
        e = matrix_add(M1, M2)
        rows, cols = int(v.resolve("n")), int(v.resolve("m"))
        left = oracle.block_matrix_piecewise(
            rows, cols, int(v.resolve("h1")), int(v.resolve("k1")), ["A1", "B1", "C1", "D1"]
        )
        right = oracle.block_matrix_piecewise(
            rows, cols, int(v.resolve("h2")), int(v.resolve("k2")), ["A2", "B2", "C2", "D2"]
        )
        combined = oracle.classical_star(lambda a, b: a | b, left, right)
        for (i, j) in oracle.integer_grid(rows, cols):
            got = evaluate(e, (F(i), F(j)), v)
            names = frozenset(a.name for a, _ in got.value.combination.items())
            assert names == oracle.classical_eval(combined, (i, j))
            assert got.multiplicity == 1
