"""Generalised partitions and their minimal common strict refinements.

Refining r partitions with n_1..n_r pieces needs (sum n_i) + 1 - r new
pieces: keep all but the last piece of each partition as independent
regions, and recover everything else from the universe by subtraction.
Which integer combinations to use is recorded in a unimodular choice
matrix whose first row (the universe row) is all ones; its exact integer
inverse yields the new pieces as combinations of universe and originals.

Both canonical choice matrices come with their inverse in closed form, so
a canonical refinement builds each new piece straight from the inputs
its inverse row names, with no elimination at all.  A custom matrix is
inverted by one fraction-free integer elimination on [A | I] (Bareiss,
1968), which yields the determinant and the adjugate together; when the
determinant is +-1 the inverse is +-adj.  The matrix keeps the result, so
asking for its determinant after refining costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import ContractError, RefinementError, UnimodularError
from .regions import Point, RegionAtom, SymbolicHybridSet, multiplicities_many

# Nonzero (column, value) pairs of each row of an inverse.
SparseRows = Tuple[Tuple[Tuple[int, int], ...], ...]


def determinant_and_adjugate(
    rows: Sequence[Sequence[int]],
) -> Tuple[int, Optional[List[List[int]]]]:
    """Determinant and adjugate of a square integer matrix, exactly.

    One fraction-free Gauss-Jordan elimination on [A | I]: each step
    replaces every other row by (p * row - a * pivot row) / q, where p is
    the pivot, a the row's entry in the pivot column and q the previous
    pivot; by Sylvester's identity every division is exact.  Once every
    column has had its pivot, the left block is d * I and the right block
    d * A^-1, where d is the last pivot, which is det A up to the sign of
    the row swaps.  The adjugate is None when the matrix is singular:
    elimination stops at the first column without a pivot.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ContractError("determinant needs a square matrix")
    m = [[int(v) for v in row] + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0, None
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        top = m[k]
        p = top[k]
        for i, row in enumerate(m):
            a = row[k]
            # a row with no entry in this column is unchanged while p == prev
            if i != k and (a or p != prev):
                m[i] = [(p * x - a * y) // prev for x, y in zip(row, top)]
        prev = p
    return sign * prev, [[sign * v for v in row[n:]] for row in m]


def _require_unimodular(det: int) -> None:
    if det not in (1, -1):
        raise UnimodularError(f"determinant is {det}, expected +1 or -1")


def bareiss_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    return determinant_and_adjugate(rows)[0]


def exact_integer_inverse(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """Inverse of a unimodular integer matrix, computed exactly.

    The inverse is det * adj (det being +-1), both from the one
    elimination; any other determinant raises ``UnimodularError``.
    """
    det, adj = determinant_and_adjugate(rows)
    _require_unimodular(det)
    return [[det * v for v in row] for row in adj]


def min_refinement_size(sizes: Sequence[int]) -> int:
    """(sum of sizes) + 1 - (number of partitions)."""
    sizes = list(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ContractError(f"sizes must be positive, got {sizes!r}")
    return sum(sizes) + 1 - len(sizes)


@dataclass(frozen=True)
class ChoiceMatrix:
    """Unimodular matrix selecting a common refinement.

    Rows are labelled by the universe followed by the kept pieces of each
    partition; columns by the new refinement pieces.  The first row is all
    ones (the universe is the sum of all new pieces).
    """

    entries: Tuple[Tuple[int, ...], ...]
    row_labels: Tuple[str, ...]
    col_labels: Tuple[str, ...]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(r) != n for r in self.entries):
            raise ContractError("choice matrix must be square")
        if len(self.row_labels) != n or len(self.col_labels) != n:
            raise ContractError("label count must match matrix size")
        if n and any(v != 1 for v in self.entries[0]):
            raise ContractError("first row of a choice matrix must be all ones")

    @classmethod
    def _with_inverse(cls, entries, row_labels, col_labels, inverse: SparseRows):
        """A determinant-1 matrix whose inverse is already known."""
        choice = cls(entries, row_labels, col_labels)
        object.__setattr__(choice, "_solution", (1, inverse))
        return choice

    @cached_property
    def _solution(self) -> Tuple[int, Optional[SparseRows]]:
        """(determinant, sparse inverse rows), the rows only when unimodular."""
        det, adj = determinant_and_adjugate(self.entries)
        if det not in (1, -1):
            return det, None
        return det, tuple(tuple((i, det * v) for i, v in enumerate(row) if v) for row in adj)

    @property
    def size(self) -> int:
        return len(self.entries)

    def determinant(self) -> int:
        return self._solution[0]

    def _inverse_rows(self) -> SparseRows:
        """The nonzero (column, value) pairs of each row of ``inverse()``."""
        det, rows = self._solution
        _require_unimodular(det)
        return rows

    def inverse(self) -> Tuple[Tuple[int, ...], ...]:
        """Exact integer inverse; row j says how new piece j combines the
        universe and kept originals, so it has no all-ones constraint.

        Canonical matrices carry it in closed form; any other matrix gets it
        from one fraction-free elimination, done once per matrix."""
        out = []
        for row in self._inverse_rows():
            dense = [0] * self.size
            for i, v in row:
                dense[i] = v
            out.append(tuple(dense))
        return tuple(out)

    def render(self) -> str:
        values = set().union(*self.entries)
        width = max(len(str(v)) for v in values)
        cell = {v: str(v).rjust(width) for v in values}
        lines = []
        for label, row in zip(self.row_labels, self.entries):
            cells = " ".join(map(cell.__getitem__, row))
            lines.append(f"{label}: [{cells}]")
        return "\n".join(lines)


STYLE_ONES_TOP = "ones-top-row"
STYLE_UPPER_TRIANGLE = "full-upper-triangle"


def canonical_choice_matrix(
    sizes: Sequence[int],
    style: str = STYLE_ONES_TOP,
    row_labels: Optional[Sequence[str]] = None,
) -> ChoiceMatrix:
    """The two canonical unimodular choices, with their inverses in closed form.

    ``ones-top-row``: identity below an all-ones first row; its inverse has
    first row 1, -1, ..., -1 and the identity below.
    ``full-upper-triangle``: ones on and above the diagonal; its inverse is
    the bidiagonal with a -1 band above the diagonal.  Both have
    determinant 1, and building either costs no elimination.
    """
    n = min_refinement_size(sizes)
    if style == STYLE_ONES_TOP:
        entries = ((1,) * n,) + tuple((0,) * j + (1,) + (0,) * (n - j - 1) for j in range(1, n))
        inverse = (((0, 1),) + tuple((j, -1) for j in range(1, n)),)
        inverse += tuple(((j, 1),) for j in range(1, n))
    elif style == STYLE_UPPER_TRIANGLE:
        entries = tuple((0,) * i + (1,) * (n - i) for i in range(n))
        inverse = tuple(((j, 1), (j + 1, -1)) for j in range(n - 1)) + (((n - 1, 1),),)
    else:
        raise ContractError(f"unknown choice-matrix style {style!r}")
    if row_labels is None:
        labels = ["U"]
        for k, size in enumerate(sizes, start=1):
            labels.extend(f"{k}.{i}" for i in range(1, size))
        row_labels = labels
    col_labels = tuple(f"P{j}" for j in range(1, n + 1))
    return ChoiceMatrix._with_inverse(entries, tuple(row_labels), col_labels, inverse)


def _default_labels(count: int) -> Tuple[str, ...]:
    return tuple(str(i) for i in range(1, count + 1))


@dataclass(frozen=True)
class GeneralisedPartition:
    """Pieces whose formal sum is the universe (or is assumed to be).

    With ``assumed`` set the formal identity is not required; it is then the
    caller's job to validate the partition by sampling, which is what the
    matrix blocks need (their pieces only cover the grid once the dimension
    parameters are ordered sensibly, which the formal layer cannot see).
    """

    name: str
    universe: RegionAtom
    pieces: Tuple[SymbolicHybridSet, ...]
    labels: Tuple[str, ...] = ()
    assumed: bool = False

    def __post_init__(self):
        if not self.pieces:
            raise ContractError("a partition needs at least one piece")
        if not self.labels:
            object.__setattr__(self, "labels", _default_labels(len(self.pieces)))
        if len(self.labels) != len(self.pieces):
            raise ContractError("piece labels must match piece count")
        if not self.assumed:
            total = SymbolicHybridSet.combine((p, 1) for p in self.pieces)
            if total != SymbolicHybridSet.from_atom(self.universe):
                raise ContractError(
                    f"pieces of {self.name!r} do not sum to the universe formally; "
                    "declare the partition assumed if that is intended"
                )

    def validate_by_sampling(self, valuation, sample: Iterable[Point]) -> List[str]:
        """Points where the pieces do not sum to the universe indicator."""
        regions = (*self.pieces, SymbolicHybridSet.from_atom(self.universe))
        bad = []
        for p, (*pieces, expect) in multiplicities_many(regions, sample, valuation):
            total = sum(pieces)
            if total != expect:
                bad.append(f"at {p}: pieces sum to {total}, universe gives {expect}")
        return bad


@dataclass(frozen=True)
class Refinement:
    """A common refinement: new pieces plus rewrite data for every original.

    ``coefficients[k][i][j]`` is the coefficient of new piece j in the
    rewrite of piece i of partition k (rows for dropped pieces included).
    """

    universe: RegionAtom
    partitions: Tuple[GeneralisedPartition, ...]
    pieces: Tuple[SymbolicHybridSet, ...]
    labels: Tuple[str, ...]
    coefficients: Tuple[Tuple[Tuple[int, ...], ...], ...]
    choice: Optional[ChoiceMatrix] = None

    @property
    def size(self) -> int:
        return len(self.pieces)

    def rewrite(self, k: int, i: int) -> SymbolicHybridSet:
        """Piece i of partition k expanded over the new pieces."""
        return SymbolicHybridSet.combine(
            (self.pieces[j], c) for j, c in enumerate(self.coefficients[k][i]) if c
        )

    def reordered(self, order: Sequence[int]) -> "Refinement":
        """Permute the new pieces; labels are reissued in the new order."""
        if sorted(order) != list(range(self.size)):
            raise ContractError(f"not a permutation of 0..{self.size - 1}: {order!r}")
        pieces = tuple(self.pieces[j] for j in order)
        labels = tuple(f"P{j + 1}" for j in range(self.size))
        coeffs = tuple(
            tuple(tuple(rows[i][j] for j in order) for i in range(len(rows)))
            for rows in self.coefficients
        )
        return Refinement(self.universe, self.partitions, pieces, labels, coeffs, None)

    @classmethod
    def trivial(cls, partition: GeneralisedPartition) -> "Refinement":
        """A partition refines itself."""
        n = len(partition.pieces)
        identity = tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n)
        )
        return cls(
            partition.universe,
            (partition,),
            partition.pieces,
            partition.labels,
            (identity,),
        )


def common_strict_refinement(
    parts: Sequence[GeneralisedPartition],
    choice: Optional[ChoiceMatrix] = None,
    style: str = STYLE_ONES_TOP,
) -> Refinement:
    """Minimal common refinement of several partitions of one universe.

    The kept (independent) pieces are all but the last of each partition;
    the supplied or canonical choice matrix says how the new pieces combine
    into universe and kept pieces, and its exact inverse defines the new
    pieces themselves: each is one merge over the nonzero entries of its
    inverse row.
    """
    parts = list(parts)
    if not parts:
        raise ContractError("need at least one partition")
    universe = parts[0].universe
    for p in parts[1:]:
        if p.universe != universe:
            raise RefinementError(
                f"partitions {parts[0].name!r} and {p.name!r} have different universes"
            )
    sizes = [len(p.pieces) for p in parts]
    n = min_refinement_size(sizes)

    row_labels = ["U"]
    rhs = [SymbolicHybridSet.from_atom(universe)]
    for p in parts:
        for label, piece in list(zip(p.labels, p.pieces))[:-1]:
            row_labels.append(f"{p.name}.{label}")
            rhs.append(piece)

    if choice is None:
        choice = canonical_choice_matrix(sizes, style, row_labels)
    if choice.size != n:
        raise RefinementError(
            f"choice matrix is {choice.size}x{choice.size}, refinement needs {n}"
        )
    pieces = tuple(
        SymbolicHybridSet.combine((rhs[i], c) for i, c in row)
        for row in choice._inverse_rows()
    )

    coefficients = []
    row = 1  # row 0 is the universe
    for p in parts:
        rows = []
        kept = len(p.pieces) - 1
        for i in range(kept):
            rows.append(tuple(choice.entries[row + i]))
        # the dropped final piece is universe minus the kept ones
        dropped = list(choice.entries[0])
        for i in range(kept):
            dropped = [d - c for d, c in zip(dropped, choice.entries[row + i])]
        rows.append(tuple(dropped))
        coefficients.append(tuple(rows))
        row += kept

    labels = tuple(f"P{j}" for j in range(1, n + 1))
    return Refinement(universe, tuple(parts), pieces, labels, tuple(coefficients), choice)


def _rows_hold(holds, refined, original, rewrite, valuation, sample) -> bool:
    """Whether ``holds(row, ms, m)`` is true for every rewrite row at every
    sample point, where ``ms`` starts with the refined pieces' multiplicities
    and m is the row's original piece's.  One table pass over the refined
    and then the original pieces reads the sample once, in order, and stops
    at the first failure."""
    n = len(refined)
    if len(rewrite) != len(original.pieces) or any(len(row) != n for row in rewrite):
        raise ContractError(
            f"a rewrite of {original.name!r} needs {len(original.pieces)} rows "
            f"of {n} coefficients"
        )
    return all(
        holds(row, ms, ms[n + i])
        for _, ms in multiplicities_many((*refined, *original.pieces), sample, valuation)
        for i, row in enumerate(rewrite)
    )


def verify_rewrite(
    refined: Sequence[SymbolicHybridSet],
    original: GeneralisedPartition,
    rewrite: Sequence[Sequence[int]],
    valuation,
    sample: Iterable[Point],
) -> bool:
    """Sampled check that each rewrite reproduces its original piece exactly."""
    return _rows_hold(
        lambda row, ms, m: sum(c * x for c, x in zip(row, ms)) == m,
        refined, original, rewrite, valuation, sample,
    )


def is_strict(
    refined: Sequence[SymbolicHybridSet],
    original: GeneralisedPartition,
    rewrite: Sequence[Sequence[int]],
    valuation,
    sample: Iterable[Point],
) -> bool:
    """Strictness check: the pieces used to rewrite each original piece must
    not spill support outside it (union of supports, sampled)."""
    return _rows_hold(
        lambda row, ms, m: any(x for c, x in zip(row, ms) if c) == (m != 0),
        refined, original, rewrite, valuation, sample,
    )
