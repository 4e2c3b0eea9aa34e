"""Seeded job generators, timed job bodies and correctness gates.

Each workload is a stream of jobs drawn from the workload seed.  A job's
inputs are plain data (workspace text, a choice-matrix entry table, a
command line); the library sees only those.  Size axes are spread by
stratified sampling: job i of J takes the midpoint of the i-th of J equal
slices, mapped onto the size range, so every seed covers the whole range
with the same sizes and runs of different seeds stay comparable.

The gates never ask the library under test whether it was right: they
compare its output against the generator's own description of the input,
closed-form sums, or the classical oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from hybridsets import calculus, cli, functions, oracle, refine, workspace


def _rng(workload: str, seed: int, salt: str = "") -> random.Random:
    # String seeds hash with sha512, so streams do not depend on PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{salt}")


def _strata(rng: random.Random, count: int) -> List[float]:
    """The midpoints of ``count`` equal slices of [0, 1), in seeded order.

    Every seed gets the same multiset of sizes, so runs on different seeds
    measure the same amount of work; the seed decides everything else."""
    order = list(range(count))
    rng.shuffle(order)
    return [(k + 0.5) / count for k in order]


def _by_rank(us: List[float], cycle: list) -> list:
    """Label jobs by cycling through ``cycle`` in order of size, so that each
    label spans the whole size range and every seed gets the same pairing of
    labels with sizes."""
    out = [None] * len(us)
    for rank, i in enumerate(sorted(range(len(us)), key=lambda i: us[i])):
        out[i] = cycle[rank % len(cycle)]
    return out


def _log_scale(u: float, lo: int, hi: int) -> int:
    """Map u in [0, 1) onto lo..hi evenly on a log scale.

    Job cost grows faster than linearly in every size axis, so a log spread
    covers the range without letting the largest sizes take the whole run."""
    return round(lo * (hi / lo) ** u)


# --- refine-wide ------------------------------------------------------------

STYLE_ONES = "ones-top-row"
STYLE_UPPER = "full-upper-triangle"
STYLE_CUSTOM = "custom"
# Every eight jobs by size: 3 ones-top-row, 3 full-upper-triangle, 2 custom.
_STYLE_CYCLE = [STYLE_ONES, STYLE_UPPER, STYLE_CUSTOM, STYLE_ONES,
                STYLE_UPPER, STYLE_ONES, STYLE_UPPER, STYLE_CUSTOM]

REFINE_SIZE_MIN, REFINE_SIZE_MAX = 5, 121


@dataclass
class RefineJob:
    index: int
    sizes: Tuple[int, ...]
    style: str
    text: str
    # expected[k][i]: piece i of partition k as {region atom name: coefficient}
    expected: Tuple[Tuple[Dict[str, int], ...], ...]
    entries: Optional[Tuple[Tuple[int, ...], ...]]  # the custom choice matrix
    det: int

    @property
    def size(self) -> int:
        return sum(self.sizes) + 1 - len(self.sizes)


def _split_sizes(rng: random.Random, size: int) -> Tuple[int, ...]:
    """r partitions of 3..16 pieces each with sum(n_i) + 1 - r == size."""
    kept = size - 1  # sum of (n_i - 1), each in 2..15
    r_lo, r_hi = max(2, -(-kept // 15)), min(8, kept // 2)
    r = rng.randint(r_lo, r_hi)
    parts = [2] * r
    for _ in range(kept - 2 * r):
        k = rng.choice([i for i in range(r) if parts[i] < 15])
        parts[k] += 1
    return tuple(p + 1 for p in parts)


def _refine_text(rng: random.Random, sizes) -> Tuple[str, tuple]:
    """Chain partitions of U = [0, 1): piece i of P_k is A_k,i - A_k,i-1."""
    params, regions, partitions, expected = [], [], [], []
    for k, n in enumerate(sizes, start=1):
        names = [f"A{k}_{i}" for i in range(1, n)]
        params.extend(f"a{k}_{i}" for i in range(1, n))
        for i, name in enumerate(names, start=1):
            closed = "]" if rng.random() < 0.25 else ")"
            regions.append(f"region {name} = interval[0, a{k}_{i}{closed}")
        pieces = [names[0]] + [f"{names[i]} - {names[i - 1]}" for i in range(1, n - 1)]
        pieces.append(f"U - {names[-1]}")
        partitions.append(f"partition P{k} of U = " + ", ".join(pieces))
        exp = [{names[0]: 1}]
        exp += [{names[i]: 1, names[i - 1]: -1} for i in range(1, n - 1)]
        exp.append({"U": 1, names[-1]: -1})
        expected.append(tuple(exp))
    lines = ["param " + ", ".join(params), "region U = interval[0, 1)"]
    return "\n".join(lines + regions + partitions) + "\n", tuple(expected)


def _canonical_entries(size: int, style: str):
    if style == STYLE_ONES:
        return tuple(tuple(int(i == 0 or i == j) for j in range(size)) for i in range(size))
    return tuple(tuple(int(j >= i) for j in range(size)) for i in range(size))


def _custom_entries(rng: random.Random, size: int):
    """A unimodular matrix with an all-ones first row: seeded row operations
    below the first row of the ones-top-row matrix, then a seeded column
    permutation (whose sign is the determinant).

    Each operation adds +-1 times an untouched row to another untouched row,
    and the permutation only swaps neighbouring columns, so entries stay
    small and the elimination work depends on the size, not on the seed."""
    m = [list(r) for r in _canonical_entries(size, STYLE_ONES)]
    rows = list(range(1, size))
    rng.shuffle(rows)
    for a, b in zip(rows[0::2], rows[1::2]):
        c = rng.choice((-1, 1))
        m[b] = [x + c * y for x, y in zip(m[b], m[a])]
    # Disjoint swaps of neighbouring columns; each swap flips the sign.
    perm, det = list(range(size)), 1
    for j in range(0, size - 1, 2):
        if rng.random() < 0.5:
            perm[j], perm[j + 1] = perm[j + 1], perm[j]
            det = -det
    return tuple(tuple(row[perm[j]] for j in range(size)) for row in m), det


def refine_generate(seed: int, count: int) -> List[RefineJob]:
    rng = _rng("refine-wide", seed)
    us = _strata(rng, count)
    styles = _by_rank(us, _STYLE_CYCLE)
    return [_refine_job(rng, i, _log_scale(us[i], REFINE_SIZE_MIN, REFINE_SIZE_MAX), styles[i])
            for i in range(count)]


def _refine_job(rng, index, size, style) -> RefineJob:
    sizes = _split_sizes(rng, size)
    text, expected = _refine_text(rng, sizes)
    entries, det = _custom_entries(rng, size) if style == STYLE_CUSTOM else (None, 1)
    return RefineJob(index, sizes, style, text, expected, entries, det)


def refine_warmup(seed: int) -> RefineJob:
    return _refine_job(_rng("refine-wide", seed, "warmup"), -1, 13, STYLE_CUSTOM)


def refine_run(job: RefineJob):
    ws = workspace.parse_workspace(job.text)
    parts = [ws.partitions[f"P{k}"] for k in range(1, len(job.sizes) + 1)]
    if job.style == STYLE_CUSTOM:
        row_labels = ["U"] + [f"P{k}.{i}" for k, n in enumerate(job.sizes, 1) for i in range(1, n)]
        col_labels = [f"P{j}" for j in range(1, job.size + 1)]
        choice = refine.ChoiceMatrix(job.entries, tuple(row_labels), tuple(col_labels))
        ref = refine.common_strict_refinement(parts, choice=choice)
    else:
        ref = refine.common_strict_refinement(parts, style=job.style)
    rendered = [f"{label} = {piece.render()}" for label, piece in zip(ref.labels, ref.pieces)]
    rendered.append(f"choice matrix (det {ref.choice.determinant()}):")
    rendered.extend(ref.choice.render().splitlines())
    return ref, rendered


def refine_check(job: RefineJob, out) -> List[str]:
    ref, rendered = out
    problems = []
    if ref.size != job.size:
        problems.append(f"size {ref.size}, expected {job.size}")
        return problems
    requested = job.entries or _canonical_entries(job.size, job.style)
    if tuple(map(tuple, ref.choice.entries)) != requested:
        problems.append("choice matrix differs from the requested one")
    if f"choice matrix (det {job.det}):" not in rendered:
        problems.append(f"rendered determinant is not {job.det}")
    pieces = [dict((a.name, c) for a, c in p.items()) for p in ref.pieces]
    for k, expect_rows in enumerate(job.expected):
        for i, expect in enumerate(expect_rows):
            got: Dict[str, int] = {}
            for j, c in enumerate(ref.coefficients[k][i]):
                for name, v in pieces[j].items():
                    got[name] = got.get(name, 0) + c * v
            got = {n: v for n, v in got.items() if v}
            if got != expect:
                problems.append(f"rewrite of P{k + 1}.{i + 1} is {got}, expected {expect}")
    return problems


def refine_counts(job: RefineJob, out) -> Tuple[int, int]:
    ref, _ = out
    return ref.size, sum(len(p.items()) for p in ref.pieces)


# --- fold-eval --------------------------------------------------------------

FOLD_N_MIN, FOLD_N_MAX = 4, 28
FOLD_HI = Fraction(15)
# 64 sorted points on the 1/4 lattice from -1/2 to 61/4: three fall outside
# U = [0, 15], and every threshold on the 1/4 lattice ties with one of them.
FOLD_POINTS = tuple(Fraction(j - 2, 4) for j in range(64))
FOLD_VALUATIONS = ("v1", "v2", "v3")


@dataclass
class FoldJob:
    index: int
    amps: Tuple[Fraction, ...]
    # thresholds[v][i]: value of k_i under valuation v
    thresholds: Tuple[Tuple[Fraction, ...], ...]
    text: str = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.amps)


def _fold_job(rng: random.Random, index: int, n: int) -> FoldJob:
    amps = []
    for _ in range(n):
        num = rng.choice([v for v in range(-9, 10) if v])
        amps.append(Fraction(num, rng.choice((1, 2, 3))))
    # Thresholds on the 1/8 lattice in [0, 15]: ties between thresholds are
    # common at this density, and half of them sit on a sample point.
    thresholds = tuple(
        tuple(Fraction(rng.randint(0, 120), 8) for _ in range(n)) for _ in FOLD_VALUATIONS
    )
    lines = ["param " + ", ".join(f"k{i}" for i in range(1, n + 1)),
             f"region U = interval[0, {FOLD_HI}]"]
    for i, a in enumerate(amps, start=1):
        lines += [f"region R{i} = interval(k{i}, {FOLD_HI}]",
                  f"fn z{i} = 0",
                  f"fn a{i} = {a}",
                  f"expr H{i} = join(z{i}^(U - R{i}), a{i}^R{i})"]
    for name, ks in zip(FOLD_VALUATIONS, thresholds):
        lines.append(f"valuation {name}: " + ", ".join(
            f"k{i} = {k}" for i, k in enumerate(ks, start=1)))
    return FoldJob(index, tuple(amps), thresholds, "\n".join(lines) + "\n")


def fold_generate(seed: int, count: int) -> List[FoldJob]:
    rng = _rng("fold-eval", seed)
    return [_fold_job(rng, i, _log_scale(u, FOLD_N_MIN, FOLD_N_MAX))
            for i, u in enumerate(_strata(rng, count))]


def fold_warmup(seed: int) -> FoldJob:
    return _fold_job(_rng("fold-eval", seed, "warmup"), -1, 6)


def fold_run(job: FoldJob):
    ws = workspace.parse_workspace(job.text)
    universe = ws.regions["U"]
    acc = ws.exprs["H1"]
    for i in range(2, job.n + 1):
        acc = calculus.pointwise_star(functions.PLUS, acc, ws.exprs[f"H{i}"], universe=universe)
    values = [[functions.evaluate(acc, x, ws.valuations[v]) for x in FOLD_POINTS]
              for v in FOLD_VALUATIONS]
    return acc, values


def fold_check(job: FoldJob, out) -> List[str]:
    acc, values = out
    problems = []
    if len(acc.terms) != job.n + 1:
        problems.append(f"{len(acc.terms)} terms, expected {job.n + 1}")
    for v, ks, row in zip(FOLD_VALUATIONS, job.thresholds, values):
        for x, got in zip(FOLD_POINTS, row):
            if not 0 <= x <= FOLD_HI:
                if got is not functions.UNDEFINED:
                    problems.append(f"{v} at {x}: {got!r}, expected undefined")
                continue
            want = sum((a for a, k in zip(job.amps, ks) if k < x), Fraction(0))
            if not (isinstance(got, functions.Defined) and got.multiplicity == 1
                    and got.value == want):
                problems.append(f"{v} at {x}: {got!r}, expected {want}")
    return problems


def fold_counts(job: FoldJob, out) -> Tuple[int, int]:
    acc, _ = out
    return len(acc.terms), sum(len(t.word.items()) for t in acc.terms)


# --- matrix-table -----------------------------------------------------------

MATRIX_DIM_MIN, MATRIX_DIM_MAX = 8, 64
MATRIX_NAMES = (("A1", "B1", "C1", "D1"), ("A2", "B2", "C2", "D2"))


@dataclass
class MatrixJob:
    index: int
    n: int
    m: int
    splits: Tuple[int, int, int, int]  # h1, k1, h2, k2
    fmt: str
    text: str = field(repr=False)
    path: str = ""


def _split(rng: random.Random, dim: int) -> int:
    r = rng.random()
    if r < 0.15:
        return 0
    if r < 0.30:
        return dim
    return rng.randint(1, dim - 1)


def _matrix_job(rng: random.Random, index: int, n: int, m: int, fmt: str) -> MatrixJob:
    h1, k1 = _split(rng, n), _split(rng, m)
    h2 = h1 if rng.random() < 0.25 else _split(rng, n)
    k2 = k1 if rng.random() < 0.25 else _split(rng, m)
    text = (
        "param n, m, h1, k1, h2, k2\n"
        "matrix M1 = dims(n, m) split(h1, k1) blocks(A1, B1, C1, D1)\n"
        "matrix M2 = dims(n, m) split(h2, k2) blocks(A2, B2, C2, D2)\n"
        f"valuation v: n = {n}, m = {m}, h1 = {h1}, k1 = {k1}, h2 = {h2}, k2 = {k2}\n"
    )
    return MatrixJob(index, n, m, (h1, k1, h2, k2), fmt, text)


def _log_triangular(u: float) -> float:
    """Quantile of the mean of two uniforms on [0, 1): the spread of
    (log n + log m) / 2 when n and m are each spread evenly on a log scale."""
    return (u / 2) ** 0.5 if u < 0.5 else 1 - ((1 - u) / 2) ** 0.5


def matrix_generate(seed: int, count: int) -> List[MatrixJob]:
    rng = _rng("matrix-table", seed)
    us = _strata(rng, count)
    fmts = _by_rank(us, ["text", "json-lines"])
    lo, hi = MATRIX_DIM_MIN, MATRIX_DIM_MAX
    jobs = []
    for i, u in enumerate(us):
        # The cell count comes from the stratum, so every seed gets the same
        # table sizes; the seed picks the shape.
        cells = (lo * (hi / lo) ** _log_triangular(u)) ** 2
        n = rng.randint(max(lo, math.ceil(cells / hi)), min(hi, int(cells // lo)))
        m = min(hi, max(lo, round(cells / n)))
        jobs.append(_matrix_job(rng, i, n, m, fmts[i]))
    return jobs


def matrix_warmup(seed: int) -> MatrixJob:
    return _matrix_job(_rng("matrix-table", seed, "warmup"), -1, 8, 8, "json-lines")


def matrix_prepare(jobs: List[MatrixJob], workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        path = workdir / f"job{job.index}.ws"
        path.write_text(job.text, encoding="utf-8")
        job.path = str(path)


def matrix_run(job: MatrixJob):
    out, err = io.StringIO(), io.StringIO()
    argv = ["matrix-add", job.path, "M1", "M2", "--table", "--with", "v", "--format", job.fmt]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _oracle_table(job: MatrixJob) -> dict:
    h1, k1, h2, k2 = job.splits
    f = oracle.block_matrix_piecewise(job.n, job.m, h1, k1, MATRIX_NAMES[0])
    g = oracle.block_matrix_piecewise(job.n, job.m, h2, k2, MATRIX_NAMES[1])
    return oracle.table(oracle.classical_star(lambda a, b: a | b, f, g))


def _parse_cells(job: MatrixJob, text: str) -> List[Tuple[str, str, int]]:
    """(cell, value, multiplicity) for each table line of the CLI output."""
    lines = text.splitlines()
    cells = []
    if job.fmt == "json-lines":
        for line in lines:
            rec = json.loads(line)
            if not rec.get("defined"):
                cells.append((rec["at"], "undefined", 0))
            else:
                cells.append((rec["at"], rec["value"], rec["multiplicity"]))
        return cells
    for line in lines[1:]:  # the first line renders the symbolic sum
        at, _, value = line.partition(": ")
        mult = 1
        if value.endswith(")") and " (multiplicity " in value:
            value, _, tail = value.partition(" (multiplicity ")
            mult = int(tail[:-1])
        cells.append((at, value, mult))
    return cells


def matrix_counts(job: MatrixJob, out) -> Tuple[int, int]:
    """Table records, and the atom entries of the printed cell values."""
    cells = _parse_cells(job, out[1])
    return len(cells), sum(len(value.split(" + ")) for _, value, mult in cells if mult)


def matrix_check(job: MatrixJob, out) -> List[str]:
    code, text, err = out
    if code != 0:
        return [f"exit {code}: {err.strip()}"]
    cells = _parse_cells(job, text)
    expect = _oracle_table(job)
    problems = []
    if len(cells) != len(expect):
        problems.append(f"{len(cells)} cells, expected {len(expect)}")
    seen = set()
    for at, value, mult in cells:
        i, j = (int(c) for c in at.strip("()").split(","))
        seen.add((i, j))
        want = expect.get((i, j))
        got = frozenset(value.split(" + "))
        if mult != 1 or want is None or got != want:
            problems.append(f"cell {at}: {value!r} x{mult}, expected {sorted(want or ())}")
    if seen != set(expect):
        problems.append("table does not cover each cell exactly once")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    generate: object
    warmup: object
    run: object
    check: object
    counts: object
    prepare: object = None


WORKLOADS = {
    "refine-wide": Workload("refine-wide", refine_generate, refine_warmup, refine_run,
                            refine_check, refine_counts),
    "fold-eval": Workload("fold-eval", fold_generate, fold_warmup, fold_run,
                          fold_check, fold_counts),
    "matrix-table": Workload("matrix-table", matrix_generate, matrix_warmup, matrix_run,
                             matrix_check, matrix_counts, prepare=matrix_prepare),
}
