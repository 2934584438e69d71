"""Smith normal form over the integers.

Exact arbitrary-precision arithmetic throughout.  Two entry points read
only the diagonal and track no transforms: :func:`invariant_factors` and
:func:`matrix_rank` eliminate the unit entries of a :class:`SparseMatrix`
and hand the small non-unit remainder to the dense engine,
:func:`smith_normal_form`, which tracks all four transforms.  Every other
input (the engine's, a :class:`SparseMatrix` too) is read one way, as rows
of ints: a ragged row or a non-integer entry raises ValueError.
Its pivoting picks the entry of smallest nonzero magnitude and moves it
into place, which keeps coefficient growth tame on small dense matrices.
Its factorization satisfies ``U @ M @ V == diag`` with ``U``, ``V``
unimodular.  Each transform lives in a list that its operations already
walk: ``U`` to the right of ``A`` in one list of rows, ``V`` under ``A``
as more rows for the column operations, and ``U^-1``, kept transposed,
and ``V^-1`` changed by row operations.  Cycle
representatives read the kernel of a boundary off ``V`` and the
coordinates of cycles in that kernel off ``V^-1`` of one factorization;
:func:`kernel_basis` and :func:`solve_columns` are built on it as well.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain

import numpy as np


def _identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a, b):
    """Plain integer matrix product on lists of lists."""
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    cols = len(b[0])
    out = []
    for row in a:
        acc = [0] * cols
        for k, v in enumerate(row):
            if v:
                brow = b[k]
                for j in range(cols):
                    acc[j] += v * brow[j]
        out.append(acc)
    return out


@dataclass
class SmithNormalForm:
    diagonal: list  # length min(m, n); nonzero entries first, each dividing the next
    rank: int
    u: list
    u_inv: list
    v: list
    v_inv: list


def _int_rows(matrix, noun: str = "row"):
    """The rows of a list of rows, a 2-D array or a :class:`SparseMatrix` as
    lists of ints, and the column count.  ValueError names a row of another
    length or with an entry ``x`` where ``int(x) != x``."""
    # a matrix without rows still has columns, which only its shape tells
    n = matrix.shape[1] if hasattr(matrix, "shape") else len(matrix[0]) if matrix else 0
    if isinstance(matrix, SparseMatrix):  # exact, unlike its int64 array
        matrix = [[c.get(i, 0) for c in matrix.column_entries()] for i in range(matrix.shape[0])]
    out = []
    for i, row in enumerate(np.asarray(matrix).tolist() if hasattr(matrix, "shape") else matrix):
        if len(row) != n:
            raise ValueError(f"{noun} {i} has {len(row)} entries, not {n}")
        try:
            out.append([int(x) for x in row])
        except (TypeError, ValueError, OverflowError):
            out.append(None)
        if out[-1] != list(row):
            raise ValueError(f"{noun} {i} has an entry that is not an integer")
    return out, n


def smith_normal_form(matrix) -> SmithNormalForm:
    rows, n = _int_rows(matrix)
    m = len(rows)
    a = [row + e for row, e in zip(rows, _identity(m))]  # rows of [A | U]
    v, v_inv = _identity(n), _identity(n)  # V is kept under A
    ut = _identity(m)  # U^-1 transposed: it changes by row operations, as V^-1 does

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        ut[i], ut[j] = ut[j], ut[i]

    def row_add(i, j, q):  # row i += q * row j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        ut[j] = [x - q * y for x, y in zip(ut[j], ut[i])]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        ut[i] = [-x for x in ut[i]]

    def col_swap(i, j):
        for r in chain(a, v):
            r[i], r[j] = r[j], r[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def col_add(i, j, q):  # col i += q * col j
        for r in chain(a, v):
            r[i] += q * r[j]
        v_inv[j] = [x - q * y for x, y in zip(v_inv[j], v_inv[i])]

    def pivot_to(t):
        """Move the smallest-magnitude nonzero of a[t:, t:] to (t, t)."""
        best = None
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if abs(x) == 1:
                        break
            if best and best[0] == 1:
                break
        if best is None:
            return False
        _, i, j = best
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        if a[t][t] < 0:
            row_neg(t)
        return True

    t = 0
    while t < min(m, n):
        if not pivot_to(t):
            break
        while True:
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        row_add(i, t, -q)
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        col_add(j, t, -q)
            if any(a[i][t] for i in range(t + 1, m)) or \
               any(a[t][j] for j in range(t + 1, n)):
                pivot_to(t)  # a remainder became the new, smaller pivot
                continue
            bad = None
            d = a[t][t]
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % d:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_add(t, bad, 1)
        t += 1

    diagonal = [a[i][i] for i in range(min(m, n))]
    rank = sum(1 for d in diagonal if d)
    u, u_inv = [r[n:] for r in a], [list(c) for c in zip(*ut)]
    return SmithNormalForm(diagonal, rank, u, u_inv, v, v_inv)


class SparseMatrix:
    """Integer matrix with ``n_rows`` rows, kept as the given columns, each
    a dict from row number to nonzero entry: the form in which boundaries
    and chain maps store their columns."""

    def __init__(self, n_rows: int, columns: list):
        self.shape = (n_rows, len(columns))
        self._columns = columns

    def column_entries(self) -> list:
        """Each column as a dict from row number to entry; the matrix's
        own, not to be changed."""
        return self._columns

    def __array__(self, dtype=None, copy=None):
        """The dense int64 array; the one place a dense matrix is written."""
        m = np.zeros(self.shape, dtype=np.int64)
        for j, col in enumerate(self.column_entries()):
            for i, v in col.items():
                m[i, j] = v
        return m  # numpy casts it when another dtype is asked for


def invariant_factors(matrix) -> list:
    """The nonzero diagonal of the Smith normal form of a :class:`SparseMatrix`,
    a list of rows or a 2-D array: positive, each dividing the next.

    The columns are eliminated as the rows of the transpose, which has the
    same factors.  A unit pivot needs no column operations: once row
    operations have cleared its column, its row and column split off as a
    factor 1.  The pivot is a ±1 entry of the shortest live row, taken from
    the shortest column among that row's units, which keeps fill-in low on
    sparse boundary matrices.  Rows left without a unit entry form the
    remainder, whose factors come from :func:`smith_normal_form`; when no
    row is left, it is not called.  The columns of a :class:`SparseMatrix`
    are copied, not changed; other matrices are read as rows of ints.
    """
    if isinstance(matrix, SparseMatrix):
        lines = matrix.column_entries()
    else:
        lines = [{i: v for i, v in enumerate(col) if v} for col in zip(*_int_rows(matrix)[0])]
    rows = {i: dict(r) for i, r in enumerate(lines) if r}  # row -> {column: nonzero entry}
    col_rows = defaultdict(set)  # column -> rows with a nonzero there
    for i, r in rows.items():
        for j in r:
            col_rows[j].add(i)
    heap = [(len(r), i) for i, r in rows.items()]
    heapq.heapify(heap)
    units = 0
    while heap:
        length, p = heapq.heappop(heap)
        prow = rows.get(p)
        if prow is None or len(prow) != length:
            continue  # stale: the row was eliminated or has been pushed again
        unit_cols = [j for j, v in prow.items() if v == 1 or v == -1]
        if not unit_cols:
            continue  # pushed again if a later pivot changes it
        pc = min(unit_cols, key=lambda j: len(col_rows[j]))
        sign = prow[pc]
        del rows[p]
        for j in prow:
            col_rows[j].discard(p)
        for k in col_rows.pop(pc):
            row = rows[k]
            q = row[pc] * sign  # row k -= q * pivot row clears column pc
            for j, v in prow.items():
                w = row.get(j, 0) - q * v
                if w:
                    if j not in row:
                        col_rows[j].add(k)
                    row[j] = w
                else:
                    del row[j]
                    if j != pc:
                        col_rows[j].discard(k)
            if row:
                heapq.heappush(heap, (len(row), k))
            else:
                del rows[k]
        units += 1
    if not rows:
        return [1] * units
    keep_cols = sorted({j for r in rows.values() for j in r})
    rest = [[r.get(j, 0) for j in keep_cols] for _, r in sorted(rows.items())]
    return [1] * units + [d for d in smith_normal_form(rest).diagonal if d]


def matrix_rank(matrix) -> int:
    return len(invariant_factors(matrix))


def kernel_basis(matrix) -> list:
    """Columns spanning the integer kernel lattice (saturated)."""
    snf = smith_normal_form(matrix)
    n = len(snf.v)
    return [[snf.v[i][j] for i in range(n)] for j in range(snf.rank, n)]


def solve_columns(basis_cols, target) -> list:
    """Integer coordinates of each target column in the span of basis_cols.

    ``basis_cols`` must be independent and span a saturated sublattice
    containing every column of ``target``; raises ArithmeticError when a
    column is not in the span, and ValueError when a basis column or a
    target row has the wrong length or an entry that is not an integer.
    """
    basis, n = _int_rows(basis_cols, "basis column")
    target, cols = _int_rows(target, "target row")
    if basis and len(target) != n:
        raise ValueError(f"target has {len(target)} rows, not {n}")
    k, n = len(basis), len(target)
    mat = [[col[i] for col in basis] for i in range(n)]
    snf = smith_normal_form(mat)
    if snf.rank != k:
        raise ArithmeticError("basis columns are not independent")
    ub = matmul(snf.u, target)
    coords = []
    for c in range(cols):
        y = [row[c] for row in ub]
        if any(y[k:]):
            raise ArithmeticError("target column outside the basis span")
        if any(x % d for x, d in zip(y, snf.diagonal)):
            raise ArithmeticError("target column outside the basis lattice")
        coords.append([x // d for x, d in zip(y, snf.diagonal)])
    return matmul(snf.v, [list(z) for z in zip(*coords)])  # k x cols
