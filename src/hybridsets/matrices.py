"""Symbolic block-matrix addition without knowing how the splits compare.

Two matrices share outer dimensions n x m but are split into 2x2 blocks at
symbolic row/column positions.  Their sum is expressed over the minimal
common refinement of the two block partitions: seven terms, each adding one
block symbol of each operand, valid for every ordering of the splits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .calculus import pointwise_star
from .errors import ContractError
from .functions import (
    FunctionAtom,
    HybridExpr,
    PLUS,
    StarOp,
    constant_atom,
    evaluate,  # unused here, but a name the perfbench tracer rebinds in this module
    join,
    term,
)
from .refine import GeneralisedPartition, Refinement, common_strict_refinement
from .regions import (
    GridRect,
    Param,
    RegionAtom,
    SymbolicHybridSet,
    Valuation,
    as_fraction,
    render_param,
)


@dataclass(frozen=True)
class Block:
    """One block: the region of cells it occupies and its opaque symbol."""

    region: RegionAtom
    symbol: FunctionAtom

    @property
    def name(self) -> str:
        return self.region.name


@dataclass(frozen=True)
class SymbolicBlockMatrix:
    name: str
    rows: Param
    cols: Param
    blocks: Tuple[Block, ...]

    def partition(self, universe: RegionAtom) -> GeneralisedPartition:
        # Coverage depends on how the split parameters compare with the
        # dimensions, so the partition is assumed and validated by sampling.
        return GeneralisedPartition(
            self.name,
            universe,
            tuple(SymbolicHybridSet.from_atom(b.region) for b in self.blocks),
            labels=tuple(b.name for b in self.blocks),
            assumed=True,
        )

    def expr(self) -> HybridExpr:
        return join(*(term(b.symbol, SymbolicHybridSet.from_atom(b.region)) for b in self.blocks))

    def block_at(self, i, j, valuation: Optional[Valuation]) -> Optional[Block]:
        point = (as_fraction(i, "a row"), as_fraction(j, "a column"))
        hits = [b for b in self.blocks if b.region.indicator(point, valuation)]
        if len(hits) > 1:
            raise ContractError(
                f"cell ({i}, {j}) lies in several blocks of {self.name!r}"
            )
        return hits[0] if hits else None


def block_matrix_2x2(
    name: str,
    rows: Param,
    cols: Param,
    row_split: Param,
    col_split: Param,
    block_names: Sequence[str],
    bodies: Optional[Sequence] = None,
) -> SymbolicBlockMatrix:
    """Build the standard 2x2 split: top-left block up to (row_split,
    col_split) inclusive, the lower and right blocks taking the open side."""
    if len(block_names) != 4:
        raise ContractError("a 2x2 block matrix needs exactly 4 block names")
    a, b, c, d = block_names
    shapes = {
        a: GridRect(1, row_split, 1, col_split),
        b: GridRect(row_split, rows, 1, col_split, row_lo_closed=False),
        c: GridRect(1, row_split, col_split, cols, col_lo_closed=False),
        d: GridRect(row_split, rows, col_split, cols, row_lo_closed=False, col_lo_closed=False),
    }
    blocks = []
    for idx, block_name in enumerate(block_names):
        body = bodies[idx] if bodies is not None else None
        symbol = FunctionAtom(block_name) if body is None else constant_atom(block_name, body)
        blocks.append(Block(RegionAtom(block_name, shapes[block_name]), symbol))
    return SymbolicBlockMatrix(name, rows, cols, tuple(blocks))


def grid_universe(rows: Param, cols: Param, name: str = "U") -> RegionAtom:
    return RegionAtom(name, GridRect(1, rows, 1, cols))


def matrix_add(
    m1: SymbolicBlockMatrix,
    m2: SymbolicBlockMatrix,
    star: StarOp = PLUS,
) -> HybridExpr:
    """Sum expression over the minimal common refinement of the two block
    partitions.  For 2x2 operands this is the seven-term form with the
    leftover region first, then the kept blocks of each operand."""
    expr, _ = matrix_add_with_refinement(m1, m2, star)
    return expr


def matrix_add_with_refinement(
    m1: SymbolicBlockMatrix,
    m2: SymbolicBlockMatrix,
    star: StarOp = PLUS,
) -> Tuple[HybridExpr, Refinement]:
    if m1.rows != m2.rows or m1.cols != m2.cols:
        raise ContractError(
            f"dimension symbols differ: {render_param(m1.rows)}x{render_param(m1.cols)} "
            f"vs {render_param(m2.rows)}x{render_param(m2.cols)}"
        )
    universe = grid_universe(m1.rows, m1.cols)
    refinement = common_strict_refinement(
        [m1.partition(universe), m2.partition(universe)]
    )
    expr = pointwise_star(star, m1.expr(), m2.expr(), refinement=refinement)
    return expr, refinement

