"""Integer chain complexes, homology, cohomology, and acyclicity.

The boundary of a cell is the signed sum of its faces with the incidence
signs of a :class:`~cellcomplexes.flags.SignTable`; the coboundary is the
transpose.  Homology is reported in invariant-factor form: a free rank
(Betti number) plus a divisibility chain of torsion coefficients.

Every homology and cohomology goes through one reduction, ``_morse``.  A
coreduction (Mrozek-Batko) pairs cells with faces along incidences of
sign +1 or -1, which are invertible over the integers, and leaves a few
critical cells; their Morse complex has the same homology (Forman), and
the Smith normal form of its boundary costs almost nothing.  The
reduction checks its certificate as it runs, at linear cost: the
boundary squares to zero on the cells reduced, each matched incidence is
+1 or -1, and a pair forms only when every other face of its coface is
gone, so the matching is acyclic.  A table whose boundary does not square
to zero has no homology, and ValueError names the first cell where it
fails.

Boundary columns come from the index tuples: the table's signs of each
cell, aligned with its face indices.  Cells are sorted by rank, so the
row of a face is its index minus the first index of its rank, and
homology and cohomology touch no label.  The columns chain maps share
and the label-keyed boundaries are built when first read.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from typing import Iterable, Mapping, NamedTuple

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
    ``images`` and the matrices, and every vertex maps to its generator
    times the vertex's sign in the table, ``s(v, EMPTY)``.  The signs are
    copied from the table when the complex is built, one tuple per cell
    aligned with its face indices and one sign per vertex; ``columns`` and
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
        self._vertex_signs = [signs.vertex_signs.get(v, 1) for v in self.bases[0]]

    @cached_property
    def columns(self) -> list:
        return [dict(zip(fs, row)) for fs, row in zip(self.complex._face_ix, self._rows)]

    @cached_property
    def images(self) -> dict:
        cells = self.complex.cells
        out = {x: {cells[y]: v for y, v in col.items()} for x, col in zip(cells, self.columns)}
        if self.augmented:
            out.update({v: {EMPTY: e} for v, e in zip(self.bases[0], self._vertex_signs)})
        return out

    def sparse_boundary(self, i: int) -> SparseMatrix:
        """The boundary from degree ``i`` to ``i - 1``, kept sparse, with
        its columns read off the index tuples: cells of rank ``i - 1`` by
        cells of rank ``i``, so empty on either side outside 0..dim."""
        s = self.complex
        if i == 0 and self.augmented:
            return SparseMatrix(1, [{0: e} for e in self._vertex_signs])
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


class _MorseComplex(NamedTuple):
    """``critical[r]`` lists the critical cells of rank ``r`` by index, for
    ``r`` from 0 to dim and, as the last entry, -1, which holds the empty
    cell (index ``len(complex)``) when it is in the reduction.  ``pairs``
    holds each matched (face, coface, incidence sign) in pairing order, and
    ``boundaries[r]`` maps the critical cells of rank ``r`` to those of
    rank ``r - 1``."""

    critical: list
    pairs: list
    boundaries: list


def _morse(cc: ChainComplex, cells, augmented: bool = False) -> _MorseComplex:
    """Coreduce the chain complex restricted to the cell indices ``cells``
    (their quotient by the other cells) to the Morse complex of its
    critical cells.  With ``augmented`` the empty cell is a cell of rank
    -1, the one face of every vertex.

    The lowest-rank live cell becomes critical and its cofaces are queued.
    A queued cell with exactly one live face is paired with that face, and
    the cofaces of both are queued; one with no live face waits, its
    cofaces queued, so that it can still be paired as a face.  When a pair
    forms, every other face of its coface is dead, so a gradient path
    strictly decreases in pairing order: the matching is acyclic.  The
    Morse boundary of a critical cell is its boundary with each face that
    is paired upward cleared by the boundary of its partner, latest pair
    first, which uses each pair at most once; what stays on critical cells
    is its column.  ValueError names the first cell whose boundary does not
    square to zero, or a matched incidence other than +1 or -1: no
    Morse complex has the same homology then."""
    s = cc.complex
    n = len(s)
    faces, cofaces, rows = s._face_ix, s._coface_ix, cc._rows
    order = sorted(cells)  # by rank, as cells are numbered
    inside = bytearray(n + 1)
    for i in order:
        inside[i] = 1
    # a cell of rank 2 or more, or 1 with the empty cell, has faces with faces
    squared = order[bisect_left(order, bisect_left(s._ranks, 1 if augmented else 2)):]
    if augmented:  # the empty cell, index n, is the one face of every vertex
        n0 = len(s._rank_range(0))
        faces = ((n,),) * n0 + faces[n0:] + ((),)
        rows = [(e,) for e in cc._vertex_signs] + rows[n0:] + [()]
        cofaces = cofaces + (tuple(range(n0)),)
        inside[n] = 1
        order.insert(0, n)
    for x in squared:
        acc: dict = {}
        for y, a in zip(faces[x], rows[x]):
            if inside[y]:
                for z, b in zip(faces[y], rows[y]):
                    if inside[z]:
                        acc[z] = acc.get(z, 0) + a * b
        if any(acc.values()):
            raise ValueError(f"the boundary of cell {s.cells[x]} does not square to zero")

    live = bytearray(inside)  # 1 live, 2 live and waiting with its cofaces queued, 0 dead
    paired = {}  # the pairing order of each cell matched with a coface
    pairs, critical = [], []
    queue = deque()
    pop, push = queue.popleft, queue.extend
    for c in order:
        if not live[c]:
            continue
        live[c] = 0
        critical.append(c)
        push(cofaces[c])
        while queue:
            q = pop()
            if live[q] != 1:
                continue
            fq = faces[q]
            free = [y for y in fq if live[y]]
            if not free:
                live[q] = 2
                push(cofaces[q])
            elif len(free) == 1:
                y = free[0]
                e = rows[q][fq.index(y)]
                if e != 1 and e != -1:
                    raise ValueError(f"cell {s.cells[q]} meets its face "
                                     f"{s.cells[y]} with the coefficient {e}")
                live[y] = live[q] = 0
                paired[y] = len(pairs)
                pairs.append((y, q, e))
                push(cofaces[y])
                push(cofaces[q])

    by_rank = [[] for _ in range(cc.dim + 2)]
    for c in critical:  # found in rank order, so each list ascends
        by_rank[s._ranks[c] if c < n else -1].append(c)
    at = {c: j for r in by_rank for j, c in enumerate(r)}
    mats = []
    for r in range(cc.dim + 1):
        cols = []
        for c in by_rank[r]:
            acc, heap = {}, []
            for y, a in zip(faces[c], rows[c]):
                if inside[y]:
                    acc[y] = a
                    if y in paired:
                        heappush(heap, -paired[y])
            while heap:
                y, p, e = pairs[-heappop(heap)]
                f = -acc[y] * e
                if f:
                    for z, b in zip(faces[p], rows[p]):
                        if z in acc:
                            acc[z] += f * b
                        elif inside[z]:
                            acc[z] = f * b
                            if z in paired:
                                heappush(heap, -paired[z])
            cols.append({at[z]: v for z, v in acc.items() if v and z in at})
        mats.append(SparseMatrix(len(by_rank[r - 1]), cols))
    return _MorseComplex(by_rank, pairs, mats)


def _groups(m: _MorseComplex, torsion_from: int) -> HomologyResult:
    """Groups of the Morse complex ..-> C_i -> C_{i-1} -> .. in degrees 0
    to dim, where D_i is ``m.boundaries[i]``: rank n_i - r_i - r_{i+1} plus
    the non-unit invariant factors of D_{i + torsion_from}, which is
    D_{i+1} for homology and D_i for cohomology."""
    sizes = list(map(len, m.critical[:-1]))
    factors = [invariant_factors(d) if all(d.shape) else [] for d in m.boundaries] + [[]]
    betti = tuple(n - len(factors[i]) - len(factors[i + 1]) for i, n in enumerate(sizes))
    torsion = tuple(tuple(d for d in factors[i + torsion_from] if d > 1)
                    for i in range(len(sizes)))
    return HomologyResult(betti, torsion)


def homology_of(cc: ChainComplex) -> HomologyResult:
    """For an augmented complex this is the reduced homology: the
    empty cell is a cell of rank -1 in the reduction."""
    return _groups(_morse(cc, range(len(cc.complex)), cc.augmented), 1)


def homology(s: Ccc, signs: SignTable, reduced: bool = False) -> HomologyResult:
    cc = chain_complex(s, signs, augmented=reduced)
    return homology_of(cc)


def cohomology_of(cc: ChainComplex) -> HomologyResult:
    """Cohomology of the Morse complex homology reads: the coboundary out
    of degree i is the transpose of D_{i+1}, with the same invariant
    factors.  The augmentation is ignored."""
    return _groups(_morse(cc, range(len(cc.complex))), 0)


def cohomology(s: Ccc, signs: SignTable) -> HomologyResult:
    return cohomology_of(chain_complex(s, signs))


def relative_homology(s: Ccc, t: Iterable[CellId], signs: SignTable) -> HomologyResult:
    """Homology of the quotient by a closed subcomplex.

    The quotient in each degree is free on the cells outside ``t``, with
    the boundary restricted to them.  A cell of ``t`` not in ``s`` raises
    UnknownCellError, from the closure of ``t``.
    """
    tset = set(t)
    if s.closure(tset) != tset:
        raise ValueError("relative homology needs a closed subcomplex")
    return _homology_of_cells(chain_complex(s, signs), set(s.cells) - tset)


def _homology_of_cells(cc: ChainComplex, cells) -> HomologyResult:
    """Homology of the boundary restricted to ``cells``: of the quotient
    by the other cells when those are closed, of the subcomplex on
    ``cells`` when it is closed."""
    return _groups(_morse(cc, map(cc.complex._i, cells)), 1)


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
