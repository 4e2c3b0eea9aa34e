"""Generalised partitions and their minimal common strict refinements.

Refining r partitions with n_1..n_r pieces needs (sum n_i) + 1 - r new
pieces: keep all but the last piece of each partition as independent
regions, and recover everything else from the universe by subtraction.
Which integer combinations to use is recorded in a unimodular choice
matrix whose first row (the universe row) is all ones; its exact integer
inverse yields the new pieces as combinations of universe and originals.

Both canonical choice matrices come with their inverse in closed form, so
a canonical refinement builds each new piece straight from the inputs its
inverse row names, with no elimination, afresh on every call.  Under
ones-top-row, P1 is the universe less every kept piece and P(j+1) is kept
piece j; ``calculus.pointwise_star`` reads its terms off that, with no
matrix.  A custom matrix is inverted by one fraction-free integer
elimination on [A | I] (Bareiss, 1968), which yields the determinant and
the adjugate together; when the determinant is +-1 the inverse is +-adj.
The elimination keeps its rows sparse and picks pivots as Markowitz (1957)
did, so on a custom choice matrix, a few +-1 entries per row, the work
follows the nonzeros, not n^3.  A matrix's entries are read once, into
plain ints, when it is made; its inverse stays sparse from the elimination
to the new pieces, and the matrix keeps it, so asking for its determinant
after refining is free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import ContractError, RefinementError, UnimodularError
from .regions import Point, RegionAtom, SymbolicHybridSet, multiplicities_many

# Nonzero (column, value) pairs of each row of an inverse, by ascending column.
SparseRows = Tuple[Tuple[Tuple[int, int], ...], ...]


class _IntRows(tuple):
    """Rows of plain ints, which ``_integer_rows`` made and will not read again."""


def determinant_and_adjugate(
    rows: Sequence[Sequence[int]],
) -> Tuple[int, Optional[SparseRows]]:
    """Determinant and adjugate of a square integer matrix, exactly.

    One fraction-free Gauss-Jordan elimination on [A | I], each row sparse
    ({column: value}).  Column k's pivot is, of the rows not yet pivots with
    an entry there (a column -> rows index finds them), a unit one (|p| the
    previous pivot q) if any, else the one with the fewest nonzeros
    (Markowitz); a negative one is negated, with the sign.  Only the rows
    with an entry a in column k change, to (p * row - a * pivot row) / q,
    exact by Sylvester's identity, and only p != q scales all the others by
    p / q.  So with unit pivots the work follows the nonzeros, not n^3.  The
    pivot rows end as d * I | d * A^-1, d the last pivot, and det A is d
    times the sign of the negations and of the pivot-row order.  The
    adjugate comes back as sparse rows; it is None when the matrix is
    singular: elimination stops at the first column without a pivot.  Each
    entry must be an int or a Fraction with denominator 1.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ContractError("determinant needs a square matrix")
    columns = range(n)
    m = [dict(zip(compress(columns, row), compress(row, row))) for row in _integer_rows(rows)]
    holders = [set() for _ in range(2 * n)]  # column -> rows with a nonzero there
    for i, row in enumerate(m):
        row[n + i] = 1
        for c in row:
            holders[c].add(i)
    # order[k:] are the rows not yet pivots, and at[i] is row i's place in order
    order, at = list(columns), list(columns)
    sign, prev = 1, 1
    for k in columns:
        pick = min((i for i in holders[k] if at[i] >= k), default=None,
                   key=lambda i: (abs(m[i][k]) != prev, len(m[i])))
        if pick is None:
            return 0, None
        if at[pick] != k:
            j, other = at[pick], order[k]
            order[k], order[j], at[pick], at[other] = pick, other, k, j
            sign = -sign
        top = m[pick]
        p = top[k]
        if p < 0:
            top = m[pick] = {c: -y for c, y in top.items()}
            p, sign = -p, -sign
        rest = [(c, y) for c, y in top.items() if c != k]
        for i in holders[k] - {pick} if p == prev else [i for i in columns if i != pick]:
            row = m[i]
            a = row.pop(k, 0)
            if p != prev:
                # outside the pivot row's columns, p * x / q is exact on its own
                for c in row.keys() - (top.keys() if a else ()):
                    row[c] = p * row[c] // prev
            if a:
                for c, y in rest:
                    v = (p * row.get(c, 0) - a * y) // prev
                    if v:
                        row[c] = v
                        holders[c].add(i)
                    else:
                        del row[c]
                        holders[c].discard(i)
        holders[k] = {pick}
        prev = p
    adjugate = tuple(
        tuple([(c - n, sign * v) for c, v in sorted(m[i].items()) if c >= n]) for i in order
    )
    return sign * prev, adjugate


def _integer_rows(rows) -> _IntRows:
    """``rows`` with every entry read by ``_integer_entry``, after one check
    of a row's types; rows that already are ``_IntRows`` are not read again."""
    if isinstance(rows, _IntRows):
        return rows
    return _IntRows(
        tuple(row) if set(map(type, row)) == {int}
        else tuple(v if type(v) is int else _integer_entry(v, i, j) for j, v in enumerate(row))
        for i, row in enumerate(rows)
    )


def _integer_entry(v, i: int, j: int) -> int:
    """``v`` as an int when it is an int or a Fraction with denominator 1;
    anything else is a ContractError that names row ``i`` and column ``j``,
    counted from 0."""
    if isinstance(v, int) or isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    raise ContractError(f"matrix entry at row {i}, column {j} must be an integer, got {v!r}")


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
    return _dense(adj, len(rows), det)


def _dense(rows: SparseRows, n: int, scale: int = 1) -> List[List[int]]:
    """``scale`` times the sparse ``rows``, written out as n-entry lists."""
    out = [[0] * n for _ in rows]
    for dense, row in zip(out, rows):
        for c, v in row:
            dense[c] = scale * v
    return out


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
    ones (the universe is the sum of all new pieces).  The entries are read
    into plain ints once, when the matrix is made.
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
        object.__setattr__(self, "entries", _integer_rows(self.entries))

    @cached_property
    def _solution(self) -> Tuple[int, Optional[SparseRows]]:
        """(determinant, sparse inverse rows), the rows only when unimodular."""
        det, adj = determinant_and_adjugate(self.entries)
        if det not in (1, -1):
            return det, None
        return det, adj if det == 1 else tuple(tuple([(c, -v) for c, v in row]) for row in adj)

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
        return tuple(map(tuple, _dense(self._inverse_rows(), self.size)))

    def render(self) -> str:
        if not self.entries:
            return ""
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
        entries = _IntRows(((1,) * n, *((0,) * j + (1,) + (0,) * (n - j - 1) for j in range(1, n))))
        inverse = (((0, 1),) + tuple((j, -1) for j in range(1, n)),)
        inverse += tuple(((j, 1),) for j in range(1, n))
    elif style == STYLE_UPPER_TRIANGLE:
        entries = _IntRows((0,) * i + (1,) * (n - i) for i in range(n))
        inverse = tuple(((j, 1), (j + 1, -1)) for j in range(n - 1)) + (((n - 1, 1),),)
    else:
        raise ContractError(f"unknown choice-matrix style {style!r}")
    if row_labels is None:
        row_labels = ["U", *(f"{k}.{i}" for k, size in enumerate(sizes, start=1) for i in range(1, size))]
    col_labels = tuple(f"P{j}" for j in range(1, n + 1))
    choice = ChoiceMatrix(entries, tuple(row_labels), col_labels)
    object.__setattr__(choice, "_solution", (1, inverse))  # determinant 1, inverse known
    return choice


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
            object.__setattr__(self, "labels", tuple(map(str, range(1, len(self.pieces) + 1))))
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

    partitions: Tuple[GeneralisedPartition, ...]
    pieces: Tuple[SymbolicHybridSet, ...]
    coefficients: Tuple[Tuple[Tuple[int, ...], ...], ...]
    choice: ChoiceMatrix

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(self.choice.col_labels)

    @property
    def size(self) -> int:
        return len(self.pieces)

    def rewrite(self, k: int, i: int) -> SymbolicHybridSet:
        """Piece i of partition k expanded over the new pieces."""
        return SymbolicHybridSet.combine(
            (self.pieces[j], c) for j, c in enumerate(self.coefficients[k][i]) if c
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
    inverse row, or, when that row is the single entry (i, 1), the i-th
    universe or kept piece itself.  The new pieces are labelled by the
    matrix's columns; a canonical matrix, built afresh on each call, has
    rows labelled ``U`` and then ``name.label`` for each kept piece.
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

    if choice is None:
        row_labels = ["U", *(f"{p.name}.{label}" for p in parts for label in p.labels[:-1])]
        choice = canonical_choice_matrix(sizes, style, row_labels)
    elif choice.size != n:
        raise RefinementError(
            f"choice matrix is {choice.size}x{choice.size}, refinement needs {n}"
        )

    rhs = [SymbolicHybridSet.from_atom(universe), *(q for p in parts for q in p.pieces[:-1])]
    pieces = tuple(
        rhs[row[0][0]] if len(row) == 1 and row[0][1] == 1
        else SymbolicHybridSet.combine((rhs[i], c) for i, c in row)
        for row in choice._inverse_rows()
    )

    # Each row is read once: a kept piece's row as is, and the dropped final
    # piece's as the all-ones universe row minus the kept rows' column sums.
    coefficients = []
    row = 1  # row 0 is the universe
    for size in sizes:
        kept = choice.entries[row:row + size - 1]
        dropped = tuple([1 - s for s in map(sum, zip(*kept))]) if kept else (1,) * n
        coefficients.append((*kept, dropped))
        row += len(kept)
    return Refinement(tuple(parts), pieces, tuple(coefficients), choice)


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
