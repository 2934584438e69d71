"""Integer chain complexes, homology, cohomology, and acyclicity.

The boundary of a cell is the signed sum of its faces with the incidence
signs of a :class:`~cellcomplexes.flags.SignTable`; the coboundary is the
transpose.  Homology is computed degree by degree from Smith normal forms
and reported in invariant-factor form: a free rank (Betti number) plus a
divisibility chain of torsion coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .cells import CellId
from .complexes import Ccc
from .errors import EmptyComplexError, UnknownCellError
from .flags import SignTable
from .snf import invariant_factors, kernel_basis, matmul, smith_normal_form, solve_columns


@dataclass
class Chain:
    """A finitely supported integer combination of same-rank cells."""

    degree: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        self.coeffs = {c: int(v) for c, v in self.coeffs.items() if v}

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

    def __eq__(self, other):
        return (isinstance(other, Chain) and self.degree == other.degree
                and self.coeffs == other.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs


class ChainComplex:
    """Ordered cell bases per degree plus integer boundary matrices.

    ``boundary_matrix(i)`` maps degree ``i`` to ``i - 1``; entry ``[y, x]``
    is ``s(x, y)`` for a face ``y`` of ``x``.  With ``augmented=True`` a
    degree ``-1`` group generated by the empty cell is appended and every
    vertex maps to its generator.
    """

    def __init__(self, complex: Ccc, signs: SignTable | None, augmented: bool = False):
        if len(complex) == 0:
            raise EmptyComplexError("chain complex of the empty complex is undefined")
        self.complex = complex
        self.signs = signs
        self.augmented = augmented
        self.dim = complex.dim
        self.bases = [list(complex.cells_of_rank(r)) for r in range(self.dim + 1)]
        self.index = [{c: i for i, c in enumerate(b)} for b in self.bases]
        mats = [np.zeros((1 if augmented else 0, len(self.bases[0])), dtype=np.int64)]
        if augmented:
            mats[0][0, :] = 1
        for r in range(1, self.dim + 1):
            m = np.zeros((len(self.bases[r - 1]), len(self.bases[r])), dtype=np.int64)
            for j, x in enumerate(self.bases[r]):
                for y in complex.faces(x):
                    m[self.index[r - 1][y], j] = signs.s(x, y)
            mats.append(m)
        self.mats = mats

    def boundary_matrix(self, i: int) -> np.ndarray:
        if 0 <= i <= self.dim:
            return self.mats[i]
        lower = len(self.bases[i - 1]) if 0 <= i - 1 <= self.dim else 0
        upper = len(self.bases[i]) if 0 <= i <= self.dim else 0
        return np.zeros((lower, upper), dtype=np.int64)

    def chain(self, coeffs: Mapping, degree: int | None = None) -> Chain:
        items = dict(coeffs)
        if degree is None:
            degrees = {self.complex.rank(c) for c in items}
            if len(degrees) != 1:
                raise ValueError("chain coefficients must live in one degree")
            degree = degrees.pop()
        return Chain(degree, items)

    def vector(self, chain: Chain) -> np.ndarray:
        v = np.zeros(len(self.bases[chain.degree]), dtype=np.int64)
        for c, coeff in chain.coeffs.items():
            if self.complex.rank(c) != chain.degree:
                raise ValueError(f"cell {c} does not have rank {chain.degree}")
            v[self.index[chain.degree][c]] = coeff
        return v

    def from_vector(self, vec, degree: int) -> Chain:
        return Chain(degree, {c: int(v) for c, v in zip(self.bases[degree], vec)})


def chain_complex(s: Ccc, signs: SignTable, augmented: bool = False) -> ChainComplex:
    """Raises MissingSignError when ``signs`` lacks an incidence pair."""
    return ChainComplex(s, signs, augmented)


def _image(m: np.ndarray, cc: ChainComplex, c: Chain, degree: int) -> Chain:
    """The chain of ``degree`` that ``m`` sends ``c`` to, read off the
    columns in the chain's support."""
    cols = [cc.index[c.degree][x] for x in c.coeffs]
    vec = m[:, cols].astype(object) @ np.array(list(c.coeffs.values()), dtype=object)
    return cc.from_vector(vec, degree)


def boundary(c: Chain, cc: ChainComplex) -> Chain:
    """Signed sum of faces, extended linearly; zero on minimal cells."""
    if c.degree <= 0:  # also on an augmented complex
        return Chain(c.degree - 1)
    return _image(cc.boundary_matrix(c.degree), cc, c, c.degree - 1)


def coboundary(c: Chain, cc: ChainComplex) -> Chain:
    """Signed sum of cofaces; zero on maximal cells."""
    if c.degree >= cc.dim:
        return Chain(c.degree + 1)
    return _image(cc.boundary_matrix(c.degree + 1).T, cc, c, c.degree + 1)


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


def _homology_from_matrices(sizes, mats) -> HomologyResult:
    """Homology of ..-> C_i -> C_{i-1} -> ..; mats[i] maps degree i down."""
    top = len(sizes) - 1
    ranks = [0] * (top + 2)
    factors = [[] for _ in range(top + 2)]
    for i in range(top + 1):
        if mats[i].size:
            f = invariant_factors(mats[i])
            ranks[i] = len(f)
            factors[i] = f
    betti = []
    torsion = []
    for i in range(top + 1):
        out_rank = ranks[i]
        in_rank = ranks[i + 1] if i + 1 <= top else 0
        betti.append(sizes[i] - out_rank - in_rank)
        tor = [d for d in (factors[i + 1] if i + 1 <= top else []) if d > 1]
        torsion.append(tuple(tor))
    return HomologyResult(tuple(betti), tuple(torsion))


def homology_of(cc: ChainComplex) -> HomologyResult:
    """For an augmented complex this is the reduced homology: the
    degree-zero map already quotients by the empty cell."""
    sizes = [len(b) for b in cc.bases]
    mats = [cc.boundary_matrix(i) for i in range(cc.dim + 1)]
    return _homology_from_matrices(sizes, mats)


def homology(s: Ccc, signs: SignTable, reduced: bool = False) -> HomologyResult:
    cc = chain_complex(s, signs, augmented=reduced)
    return homology_of(cc)


def cohomology_of(cc: ChainComplex) -> HomologyResult:
    """Homology of the transposed complex, reported by original degree."""
    n = cc.dim
    sizes = [len(cc.bases[n - j]) for j in range(n + 1)]
    mats = [None] * (n + 1)
    for j in range(n + 1):
        # degree j of the flipped complex is C^{n-j}; its outgoing map is
        # the transpose of the boundary arriving at degree n-j.
        i = n - j
        mats[j] = cc.boundary_matrix(i + 1).T if i + 1 <= n else \
            np.zeros((0, sizes[j]), dtype=np.int64)
    flipped = _homology_from_matrices(sizes, mats)
    betti = tuple(reversed(flipped.betti))
    torsion = tuple(reversed(flipped.torsion))
    return HomologyResult(betti, torsion)


def cohomology(s: Ccc, signs: SignTable) -> HomologyResult:
    return cohomology_of(chain_complex(s, signs))


def relative_homology(s: Ccc, t: Iterable[CellId], signs: SignTable) -> HomologyResult:
    """Homology of the quotient by a closed subcomplex.

    The quotient in each degree is free on the cells outside ``t``, with
    the boundary matrix restricted to those rows and columns.
    """
    tset = set(t)
    for c in tset:
        if c not in s:
            raise UnknownCellError(f"cell {c} is not in the complex")
    if s.closure(tset) != tset:
        raise ValueError("relative homology needs a closed subcomplex")
    return _homology_of_cells(chain_complex(s, signs), set(s.cells) - tset)


def _homology_of_cells(cc: ChainComplex, cells) -> HomologyResult:
    """Homology of the boundary matrices restricted to the rows and
    columns of ``cells``: of the quotient by the other cells when those
    are closed, of the subcomplex on ``cells`` when it is closed."""
    keep = [[i for i, c in enumerate(b) if c in cells] for b in cc.bases]
    mats = [np.zeros((0, len(keep[0])), dtype=np.int64)]
    mats += [cc.mats[r][np.ix_(keep[r - 1], keep[r])] for r in range(1, cc.dim + 1)]
    return _homology_from_matrices([len(k) for k in keep], mats)


def is_acyclic(s: Ccc, signs: SignTable) -> bool:
    """True when every positive degree vanishes and degree zero is infinite cyclic."""
    return homology(s, signs).is_acyclic


def h0_components(s: Ccc) -> int:
    """Components of the graph of vertices and rank-one cells.

    Equals the degree-zero Betti number: two vertices are homologous
    exactly when a path of rank-one cells joins them.
    """
    parent = {v: v for v in s.cells_of_rank(0)}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in s.cells_of_rank(1):
        vs = [v for v in s.faces(e)]
        for v in vs[1:]:
            parent[find(v)] = find(vs[0])
    return len({find(v) for v in parent})


# -- cycle representatives -------------------------------------------------


def free_cycle_generators(cc: ChainComplex, i: int) -> list:
    """Cycles representing a basis of the free part of degree-``i`` homology.

    Kernel coordinates come from the Smith normal form of the outgoing
    boundary; the incoming boundary is rewritten in those coordinates and
    reduced again, leaving one representative per free factor.  A greedy
    pass shrinks supports by boundary columns.  Degrees outside 0..dim have none.
    """
    if not 0 <= i <= cc.dim:
        return []
    n_i = len(cc.bases[i])
    d_out = cc.boundary_matrix(i)
    if d_out.size and i > 0:
        kb = kernel_basis(d_out.tolist())
    else:
        kb = [[1 if r == j else 0 for r in range(n_i)] for j in range(n_i)]
    k = len(kb)
    if k == 0:
        return []
    d_in = cc.boundary_matrix(i + 1)
    if d_in.size:
        coords = solve_columns(kb, d_in.tolist())
    else:
        coords = [[] for _ in range(k)]
    snf = smith_normal_form(coords)
    kmat = [[kb[j][r] for j in range(k)] for r in range(n_i)]
    gens = []
    for j in range(snf.rank, k):
        col = [[snf.u_inv[r][j]] for r in range(k)]
        vec = [row[0] for row in matmul(kmat, col)]
        gens.append(_reduce_support(vec, d_in))
    return gens


def _reduce_support(vec, d_in) -> list:
    cols = [list(d_in[:, j]) for j in range(d_in.shape[1])] if d_in.size else []
    vec = list(vec)
    nnz = lambda v: sum(1 for x in v if x)
    improved = True
    while improved:
        improved = False
        for b in cols:
            for sgn in (1, -1):
                cand = [x + sgn * y for x, y in zip(vec, b)]
                if nnz(cand) < nnz(vec):
                    vec = cand
                    improved = True
    return [int(x) for x in vec]
