"""Symbolic block-matrix addition without knowing how the splits compare.

Two matrices share outer dimensions n x m but are split into 2x2 blocks at
symbolic row/column positions.  Their sum is expressed over the minimal
common refinement of the two block partitions: seven terms, each adding one
block symbol of each operand, valid for every ordering of the splits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

from .calculus import pointwise_star
from .errors import ContractError
from .functions import (
    FunctionAtom,
    HybridExpr,
    PLUS,
    StarOp,
    evaluate,  # unused here, but a name the perfbench tracer rebinds in this module
    join,
    term,
)
from .refine import GeneralisedPartition, Refinement, common_strict_refinement
from .regions import (
    GridRect,
    Interval1D,
    Param,
    RegionAtom,
    SymbolicHybridSet,
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

    @cached_property
    def piece(self) -> SymbolicHybridSet:
        """The region as a combination, built once for partitions and terms."""
        return SymbolicHybridSet.from_atom(self.region)


@dataclass(frozen=True)
class SymbolicBlockMatrix:
    name: str
    rows: Param
    cols: Param
    blocks: Tuple[Block, ...]

    def partition(self) -> GeneralisedPartition:
        # Coverage depends on how the split parameters compare with the
        # dimensions, so the partition is assumed and validated by sampling.
        return GeneralisedPartition(
            self.name,
            grid_universe(self.rows, self.cols),
            tuple(b.piece for b in self.blocks),
            labels=tuple(b.name for b in self.blocks),
            assumed=True,
        )

    def expr(self) -> HybridExpr:
        return join(*(term(b.symbol, b.piece) for b in self.blocks))


def block_matrix_2x2(
    name: str,
    rows: Param,
    cols: Param,
    row_split: Param,
    col_split: Param,
    block_names: Sequence[str],
) -> SymbolicBlockMatrix:
    """Build the standard 2x2 split: top-left block up to (row_split,
    col_split) inclusive, the lower and right blocks taking the open side."""
    if len(block_names) != 4:
        raise ContractError("a 2x2 block matrix needs exactly 4 block names")
    a, b, c, d = block_names
    top, bottom = Interval1D(1, row_split), Interval1D(row_split, rows, lo_closed=False)
    left, right = Interval1D(1, col_split), Interval1D(col_split, cols, lo_closed=False)
    shapes = {
        a: GridRect(top, left),
        b: GridRect(bottom, left),
        c: GridRect(top, right),
        d: GridRect(bottom, right),
    }
    blocks = tuple(
        Block(RegionAtom(block_name, shapes[block_name]), FunctionAtom(block_name))
        for block_name in block_names
    )
    return SymbolicBlockMatrix(name, rows, cols, blocks)


def grid_universe(rows: Param, cols: Param) -> RegionAtom:
    return RegionAtom("U", GridRect(Interval1D(1, rows), Interval1D(1, cols)))


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
    refinement = common_strict_refinement([m1.partition(), m2.partition()])
    expr = pointwise_star(star, m1.expr(), m2.expr(), refinement=refinement)
    return expr, refinement

