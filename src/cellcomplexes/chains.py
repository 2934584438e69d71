"""Integer chain complexes, homology, cohomology, and acyclicity.

The boundary of a cell is the signed sum of its faces with the incidence
signs of a :class:`~cellcomplexes.flags.SignTable`; the coboundary is the
transpose.  Homology is computed degree by degree from Smith normal forms
and reported in invariant-factor form: a free rank (Betti number) plus a
divisibility chain of torsion coefficients.

Boundary columns come from the index tuples: the table's signs of each
cell, aligned with its face indices.  Cells are sorted by rank, so the
row of a face is its index minus the first index of its rank, and
homology and cohomology touch no label.  The columns chain maps share
and the label-keyed boundaries are built when first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .cells import EMPTY, CellId
from .complexes import MAX_CELLS, Ccc, _as_int
from .errors import EmptyComplexError
from .flags import SignTable, _require_signs
from .snf import SparseMatrix, invariant_factors, smith_normal_form
# Unused here; kept because bench/tracing.py patches these names.
from .snf import kernel_basis, matmul, solve_columns  # noqa: F401


@dataclass
class Chain:
    """A finitely supported integer combination of same-rank cells."""

    degree: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        given = self.coeffs
        try:
            self.coeffs = {c: int(v) for c, v in given.items() if v != 0}
            integral = self.coeffs.items() <= given.items()  # no int(v) != v
        except (TypeError, ValueError, OverflowError):  # int(v) failed
            integral = False
        if not integral:
            c = next(c for c, v in given.items() if _as_int(v) is None)
            raise ValueError(f"cell {c} has the coefficient {given[c]}, not an integer")

    def __add__(self, other):
        if other.degree != self.degree:
            raise ValueError("cannot add chains of different degrees")
        out = dict(self.coeffs)
        for c, v in other.coeffs.items():
            out[c] = out.get(c, 0) + v
        return Chain(self.degree, out)

    def __neg__(self):
        return Chain(self.degree, {c: -v for c, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, k: int):
        return Chain(self.degree, {c: k * v for c, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs


class ChainComplex:
    """Ordered cell bases per degree plus the boundary of each cell.

    ``columns[x]`` is the boundary of the cell at index ``x``, a dict from
    face index ``y`` to ``s(x, y)``; ``images`` reads it with labels.
    ``boundary_matrix(i)`` maps degree ``i`` to ``i - 1``; entry ``[y, x]``
    is ``s(x, y)``.  With ``augmented=True`` a degree ``-1`` group
    generated by the empty cell, which has no index, is appended to
    ``images`` and the matrices, and every vertex maps to its generator.
    The signs are copied from the table when the complex is built, one
    tuple per cell aligned with its face indices; ``columns`` and
    ``images`` are built from them when first read.  A top rank above
    ``MAX_CELLS`` raises ValueError before any basis is built.
    """

    def __init__(self, complex: Ccc, signs: SignTable, augmented: bool = False):
        if len(complex) == 0:
            raise EmptyComplexError("chain complex of the empty complex is undefined")
        self.complex = complex
        self.signs = signs
        self.augmented = augmented
        self.dim = complex.dim
        if self.dim > MAX_CELLS:  # one basis per degree; the axioms fill every rank to the top
            raise ValueError(f"the top rank {self.dim} is more than {MAX_CELLS}, the cap on cells")
        self.bases = [list(complex.cells_of_rank(r)) for r in range(self.dim + 1)]
        self._rows = list(signs._rows_on(complex))
        _require_signs(complex, self._rows)

    @cached_property
    def columns(self) -> list:
        return [dict(zip(fs, row)) for fs, row in zip(self.complex._face_ix, self._rows)]

    @cached_property
    def images(self) -> dict:
        cells = self.complex.cells
        return {x: {EMPTY: 1} if self.augmented and not r
                else {cells[y]: v for y, v in col.items()}
                for x, r, col in zip(cells, self.complex._ranks, self.columns)}

    def sparse_boundary(self, i: int) -> SparseMatrix:
        """The boundary from degree ``i`` to ``i - 1``, kept sparse, with
        its columns read off the index tuples: cells of rank ``i - 1`` by
        cells of rank ``i``, so empty on either side outside 0..dim."""
        s = self.complex
        if i == 0 and self.augmented:
            return SparseMatrix(1, [{0: 1} for _ in s._rank_range(0)])
        lo, faces, rows = s._rank_range(i - 1), s._face_ix, self._rows
        cols = [dict(zip([y - lo.start for y in faces[x]], rows[x])) for x in s._rank_range(i)]
        return SparseMatrix(len(lo), cols)

    def boundary_matrix(self, i: int) -> np.ndarray:
        return np.asarray(self.sparse_boundary(i))

    def chain(self, coeffs: Mapping, degree: int | None = None) -> Chain:
        items = dict(coeffs)
        if degree is None:
            degrees = {self.complex.rank(c) for c in items}
            if len(degrees) != 1:
                raise ValueError("chain coefficients must live in one degree")
            degree = degrees.pop()
        _check_cells(self.complex, items, degree)
        return Chain(degree, items)

    def from_vector(self, vec, degree: int) -> Chain:
        """The chain with coefficient ``vec[k]`` on the k-th cell of the
        degree's basis."""
        if not 0 <= degree <= self.dim:
            raise ValueError(f"degree {degree} is outside 0..{self.dim}")
        basis = self.bases[degree]
        if len(vec) != len(basis):
            raise ValueError(f"a degree-{degree} vector has {len(basis)} "
                             f"entries, not {len(vec)}")
        return Chain(degree, dict(zip(basis, vec)))


def chain_complex(s: Ccc, signs: SignTable, augmented: bool = False) -> ChainComplex:
    """Raises MissingSignError when ``signs`` lacks an incidence pair."""
    return ChainComplex(s, signs, augmented)


def _push(coeffs: dict, images: dict) -> dict:
    """The combination of images that ``coeffs`` weights, zeros dropped."""
    out: dict = {}
    for x, a in coeffs.items():
        for y, b in images[x].items():
            out[y] = out.get(y, 0) + a * b
    return {y: v for y, v in out.items() if v}


def _check_cells(s: Ccc, cells: Iterable[CellId], degree: int) -> None:
    """UnknownCellError for a cell not in ``s``; ValueError for a rank other than ``degree``."""
    for x in cells:
        if s._ranks[s._i(x)] != degree:
            raise ValueError(f"cell {x} does not have rank {degree}")


def boundary(c: Chain, cc: ChainComplex) -> Chain:
    """Signed sum of faces, extended linearly; zero on minimal cells."""
    _check_cells(cc.complex, c.coeffs, c.degree)
    if c.degree <= 0:  # also on an augmented complex
        return Chain(c.degree - 1)
    return Chain(c.degree - 1, _push(c.coeffs, cc.images))


def coboundary(c: Chain, cc: ChainComplex) -> Chain:
    """Signed sum of cofaces; zero on maximal cells."""
    s, cols = cc.complex, cc.columns
    _check_cells(s, c.coeffs, c.degree)
    coimages = {y: {s.cells[x]: cols[x][j] for x in s._coface_ix[j]}
                for y, j in zip(c.coeffs, map(s._i, c.coeffs))}
    return Chain(c.degree + 1, _push(c.coeffs, coimages))


@dataclass(frozen=True)
class HomologyResult:
    """Per-degree invariant factors: free rank plus torsion coefficients."""

    betti: tuple
    torsion: tuple  # per degree, a tuple of integers > 1, each dividing the next

    def group(self, i: int) -> str:
        if not 0 <= i < len(self.betti):
            return "0"
        parts = []
        if self.betti[i]:
            parts.append("Z" if self.betti[i] == 1 else f"Z^{self.betti[i]}")
        parts.extend(f"Z/{t}" for t in self.torsion[i])
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        return ", ".join(self.group(i) for i in range(len(self.betti)))

    @property
    def is_acyclic(self) -> bool:
        return (self.betti[0] == 1 and not self.torsion[0]
                and all(b == 0 for b in self.betti[1:])
                and all(not t for t in self.torsion[1:]))


def _groups(sizes, mats, torsion_from: int) -> HomologyResult:
    """Groups of ..-> C_i -> C_{i-1} -> .. where mats[i] is D_i: rank
    n_i - r_i - r_{i+1} plus the non-unit invariant factors of
    D_{i + torsion_from}, which is D_{i+1} for homology and D_i for
    cohomology."""
    factors = [invariant_factors(m) if all(m.shape) else [] for m in mats] + [[]]
    betti = tuple(n - len(factors[i]) - len(factors[i + 1]) for i, n in enumerate(sizes))
    torsion = tuple(tuple(d for d in factors[i + torsion_from] if d > 1)
                    for i in range(len(sizes)))
    return HomologyResult(betti, torsion)


def homology_of(cc: ChainComplex) -> HomologyResult:
    """For an augmented complex this is the reduced homology: the
    degree-zero map already quotients by the empty cell."""
    mats = [cc.sparse_boundary(i) for i in range(cc.dim + 1)]
    return _groups([len(b) for b in cc.bases], mats, 1)


def homology(s: Ccc, signs: SignTable, reduced: bool = False) -> HomologyResult:
    cc = chain_complex(s, signs, augmented=reduced)
    return homology_of(cc)


def cohomology_of(cc: ChainComplex) -> HomologyResult:
    """Cohomology from the boundaries homology reads: the coboundary out of
    degree i is the transpose of D_{i+1}, with the same invariant factors.
    The augmentation is ignored."""
    mats = [cc.sparse_boundary(i) for i in range(cc.dim + 1)]
    mats[0] = SparseMatrix(0, [])
    return _groups([len(b) for b in cc.bases], mats, 0)


def cohomology(s: Ccc, signs: SignTable) -> HomologyResult:
    return cohomology_of(chain_complex(s, signs))


def relative_homology(s: Ccc, t: Iterable[CellId], signs: SignTable) -> HomologyResult:
    """Homology of the quotient by a closed subcomplex.

    The quotient in each degree is free on the cells outside ``t``, with
    the boundary matrix restricted to those rows and columns.  A cell of
    ``t`` not in ``s`` raises UnknownCellError, from the closure of ``t``.
    """
    tset = set(t)
    if s.closure(tset) != tset:
        raise ValueError("relative homology needs a closed subcomplex")
    return _homology_of_cells(chain_complex(s, signs), set(s.cells) - tset)


def _homology_of_cells(cc: ChainComplex, cells) -> HomologyResult:
    """Homology of the boundary matrices restricted to the rows and
    columns of ``cells``: of the quotient by the other cells when those
    are closed, of the subcomplex on ``cells`` when it is closed."""
    s = cc.complex
    keep = [[] for _ in range(cc.dim + 1)]  # per rank, the indices kept, ascending
    for i in sorted(map(s._i, cells)):
        keep[s._ranks[i]].append(i)
    at = {i: n for k in keep for n, i in enumerate(k)}  # index -> its row or column
    faces, rows = s._face_ix, cc._rows
    mats = [SparseMatrix(0, [{} for _ in keep[0]])]
    mats += [SparseMatrix(len(keep[r - 1]), [
        {at[y]: v for y, v in zip(faces[x], rows[x]) if y in at} for x in keep[r]])
        for r in range(1, cc.dim + 1)]
    return _groups([len(k) for k in keep], mats, 1)


def is_acyclic(s: Ccc, signs: SignTable) -> bool:
    """True when every positive degree vanishes and degree zero is infinite cyclic."""
    return homology(s, signs).is_acyclic


def h0_components(s: Ccc) -> int:
    """Components of the graph of vertices and rank-one cells.

    Equals the degree-zero Betti number: two vertices are homologous
    exactly when a path of rank-one cells joins them.
    """
    parent = {v: v for v in s._rank_range(0)}  # by cell index

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in s._rank_range(1):
        vs = s._face_ix[e]
        for v in vs[1:]:
            parent[find(v)] = find(vs[0])
    return len({find(v) for v in parent})


# -- cycle representatives -------------------------------------------------


def free_cycle_generators(cc: ChainComplex, i: int) -> list:
    """Cycles representing a basis of the free part of degree-``i`` homology.

    One Smith form ``U D_i V = diag`` of the outgoing boundary gives the
    cycles, the columns of ``V`` past its rank.  Every column of the
    incoming boundary is a cycle, so its coordinates in them are the same
    rows of ``V^-1`` times the column.  A Smith form of those coordinates
    leaves one representative per free factor, and a greedy pass shrinks
    supports by boundary columns.  On an augmented complex degree zero
    gives reduced generators.  Degrees outside 0..dim have none.
    """
    if not 0 <= i <= cc.dim:
        return []
    out = smith_normal_form(cc.sparse_boundary(i))
    cycles = range(out.rank, len(out.v))
    d_in = cc.sparse_boundary(i + 1).column_entries()
    coords = [[sum(out.v_inv[c][r] * x for r, x in col.items()) for col in d_in]
              for c in cycles]
    quo = smith_normal_form(coords)
    gens = []
    for j in range(quo.rank, len(cycles)):
        weights = [(c, quo.u_inv[t][j]) for t, c in enumerate(cycles)]
        vec = [sum(row[c] * w for c, w in weights) for row in out.v]
        gens.append(_reduce_support(vec, d_in))
    return gens


def _reduce_support(vec: list, cols: list) -> list:
    """Add or subtract each column, a dict from row to entry, while that
    shrinks the support of ``vec``."""
    improved = True
    while improved:
        improved = False
        for b in cols:
            for sgn in (1, -1):
                gain = sum((vec[r] != 0) - (vec[r] + sgn * x != 0) for r, x in b.items())
                if gain > 0:
                    for r, x in b.items():
                        vec[r] += sgn * x
                    improved = True
    return vec
