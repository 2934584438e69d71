"""Stellar and barycentric subdivision with chain maps between them.

Subdividing at a cell ``x`` removes every cell above ``x`` and cones the
rest of the star off a new vertex: one cone ``C(x;y)`` per cell ``y`` of
the star outside the up-set of ``x``, plus the vertex ``C(x;0)`` of sign
+1.  Signs are written down by closed rules, never read off flags.  Old
cells keep theirs; each cone is oriented like its base, which gives the
cone rule ``s(C(x;y), y) = 1``, ``s(C(x;y), C(x;z)) = -s(y, z)`` and
``s(C(x;v), C(x;0)) = -e(v)`` for a vertex ``v`` of sign ``e(v)``.

The barycentric subdivision is the complex of non-empty chains; it equals
the tower of stellar subdivisions at all cells in decreasing rank order,
and both constructions here label a chain ``v0 < v1 < ... < vr`` by the
same nested cone ``C(v1; C(v2; ... C(vr; v0)))`` (base ``0`` when the
chain has no vertex), which realizes the comparison bijection directly.
Its signs follow the removal rule: dropping the i-th largest member of a
chain carries sign (-1)^i.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .cells import CellId, EMPTY
from .chains import ChainComplex, HomologyResult, chain_complex, homology_of
from .complexes import Ccc
from .errors import CccError, UnknownCellError
from .flags import SignTable, flags_of
# Unused here; kept because bench/tracing.py patches these names.
from .flags import _derive_signs, permutation_orientation  # noqa: F401


@dataclass(frozen=True)
class StellarResult:
    complex: Ccc
    old_cells: frozenset
    new_cells: dict       # base cell in the cone target (or EMPTY) -> cone id
    origin_complex: Ccc
    origin_cell: CellId


class ChainMap:
    """Degree-preserving integer matrices intertwining two boundary operators."""

    def __init__(self, source: ChainComplex, target: ChainComplex, mats):
        self.source = source
        self.target = target
        self.mats = mats  # per degree: (len(target.bases[d]), len(source.bases[d]))

    def matrix(self, d: int) -> np.ndarray:
        if 0 <= d < len(self.mats):
            return self.mats[d]
        return np.zeros((0, 0), dtype=np.int64)

    def apply(self, chain):
        d = chain.degree
        vec = self.matrix(d) @ self.source.vector(chain)
        return self.target.from_vector(vec, d)

    def is_chain_map(self) -> bool:
        """Does target-boundary compose with this as this composes with source-boundary?"""
        for d in range(1, max(self.source.dim, self.target.dim) + 1):
            left = self.target.boundary_matrix(d) @ self.matrix(d)
            right = self.matrix(d - 1) @ self.source.boundary_matrix(d)
            if left.shape != right.shape or not np.array_equal(left, right):
                return False
        return True

    def then(self, nxt: "ChainMap") -> "ChainMap":
        if self.target.bases != nxt.source.bases:
            raise ValueError("chain maps do not compose: bases differ")
        mats = [nxt.matrix(d) @ self.matrix(d)
                for d in range(len(self.mats))]
        return ChainMap(self.source, nxt.target, mats)


def identity_chain_map(cc: ChainComplex) -> ChainMap:
    mats = [np.eye(len(b), dtype=np.int64) for b in cc.bases]
    return ChainMap(cc, cc, mats)


# -- stellar subdivision ----------------------------------------------------


def stellar(s: Ccc, x: CellId, signs: SignTable):
    """Subdivide at ``x`` (rank >= 1) and transport orientations.

    Returns the :class:`StellarResult` and the sign table of the new
    complex.  Old cells keep their signs and the cones get theirs by the
    cone rule, so every cone is oriented like its base.
    """
    if x not in s:
        raise UnknownCellError(f"cell {x} is not in the complex")
    if s.rank(x) == 0:
        raise ValueError(f"stellar subdivision at the vertex {x} is not supported")
    up = s.up_set(x)
    base_cells = s.open_star(x)  # closed: the cone bases
    cone = {y: CellId.cone(x, y) for y in base_cells}
    cone[EMPTY] = CellId.cone(x, EMPTY)
    for c in cone.values():
        if c in s:
            raise CccError(f"cone label {c} collides with an existing cell")

    old = [z for z in s.cells if z not in up]
    ranks = {z: s.rank(z) for z in old}
    below = {z: s.covers(z) for z in old}
    table = {(z, w): signs.s(z, w) for z in old for w in s.faces(z)}
    ranks[cone[EMPTY]] = 0
    below[cone[EMPTY]] = ()
    for y in base_cells:
        c = cone[y]
        ranks[c] = s.rank(y) + 1
        below[c] = [y, cone[EMPTY]] + [cone[z] for z in below[y]]
        table[(c, y)] = 1
        for z in s.faces(y):
            table[(c, cone[z])] = -signs.s(y, z)
        if s.rank(y) == 0:
            table[(c, cone[EMPTY])] = -signs.vertex_signs[y]
    out = Ccc(ranks, below)
    new_signs = SignTable(out, table, signs.vertex_signs)

    result = StellarResult(
        complex=out,
        old_cells=frozenset(old),
        new_cells=dict(cone),
        origin_complex=s,
        origin_cell=x,
    )
    return result, new_signs


def stellar_sequence(s: Ccc, points: Iterable[CellId], signs: SignTable):
    """Fold stellar subdivision over ``points``; each must be alive in turn.

    When the up-sets of the points are pairwise disjoint the result does
    not depend on the order.
    """
    cur, cur_signs = s, signs
    for x in points:
        res, cur_signs = stellar(cur, x, cur_signs)
        cur = res.complex
    return cur, cur_signs


def phi(s: Ccc, x: CellId, signs: SignTable) -> ChainMap:
    """The subdivision chain map: identity off the up-set of ``x``, cone
    expansion on it."""
    return _stellar_map(chain_complex(s, signs), x)


def _stellar_map(src: ChainComplex, x: CellId) -> ChainMap:
    """:func:`phi` out of an existing chain complex; the target is the
    chain complex of the subdivision."""
    s, signs = src.complex, src.signs
    res, new_signs = stellar(s, x, signs)
    tgt = chain_complex(res.complex, new_signs)
    up = s.up_set(x)
    mats = []
    for d in range(s.dim + 1):
        m = np.zeros((len(tgt.bases[d]), len(src.bases[d])), dtype=np.int64)
        for j, w in enumerate(src.bases[d]):
            if w not in up:
                m[tgt.index[d][w], j] = 1
            else:
                for y in s.faces(w):
                    if y in up:
                        continue
                    m[tgt.index[d][res.new_cells[y]], j] = signs.s(w, y)
        mats.append(m)
    return ChainMap(src, tgt, mats)


# -- barycentric subdivision ------------------------------------------------


def cell_of_chain(s: Ccc, chain) -> CellId:
    """Label of the barycentric cell of an ascending chain of cells of ``s``:
    nested cones around the chain's vertex, or around the empty base when
    the chain has no rank-zero member."""
    if not chain:
        raise ValueError("empty chain")
    if s.rank(chain[0]) == 0:
        cur, apexes = chain[0], chain[1:]
    else:
        cur, apexes = EMPTY, chain
    for a in reversed(apexes):
        cur = CellId.cone(a, cur)
    return cur


def chain_of_cell(s: Ccc, cid: CellId):
    """The ascending chain of cells of ``s`` a subdivision label stands for.

    Inverse of the labelling used by :func:`barycentric` and by the
    stellar tower; peeling stops at cells of ``s`` so nested labels inside
    ``s`` itself are never split.
    """
    apexes = []
    cur = cid
    while isinstance(cur, CellId) and cur.is_cone and cur not in s:
        apexes.append(cur.apex)
        cur = cur.base
    if cur is EMPTY:
        chain = tuple(apexes)
    else:
        if cur not in s:
            raise UnknownCellError(f"label {cid} does not decode over this complex")
        chain = (cur,) + tuple(apexes)
    for a, b in zip(chain, chain[1:]):
        if not s.lt(a, b):
            raise CccError(f"label {cid} does not decode to a chain")
    return chain


def barycentric(s: Ccc):
    """The complex of non-empty chains, with alternating-sign orientations.

    Cells are chains ordered by inclusion and rank is length minus one.
    Members of a chain are ranked by their rank in ``s``, and removing the
    i-th largest member carries sign (-1)^i.
    """
    chains_by_top: dict = {}
    for c in s.cells:  # ascending rank order
        chains_by_top[c] = [(c,)] + [ch + (c,) for b in s.closure([c]) if b != c
                                     for ch in chains_by_top[b]]
    all_chains = [ch for per in chains_by_top.values() for ch in per]

    label = {ch: cell_of_chain(s, ch) for ch in all_chains}
    ranks = {label[ch]: len(ch) - 1 for ch in all_chains}
    if len(ranks) != len(all_chains):
        raise CccError("chain labels collide; complex already uses them")
    # the face without ch[k] drops the (len(ch) - 1 - k)-th largest member
    signs = {(label[ch], label[ch[:k] + ch[k + 1:]]): (-1) ** (len(ch) - 1 - k)
             for ch in all_chains if len(ch) > 1 for k in range(len(ch))}
    below = {c: [] for c in ranks}
    for c, face in signs:
        below[c].append(face)
    out = Ccc(ranks, below)
    return out, SignTable(out, signs)


def big_phi(s: Ccc, signs: SignTable, target=None) -> ChainMap:
    """Chain map into the barycentric subdivision: a cell goes to the
    signed sum of its flags, weighted by its chosen orientation."""
    if target is None:
        target = barycentric(s)
    bcc, bsigns = target
    src = chain_complex(s, signs)
    tgt = chain_complex(bcc, bsigns)
    mats = []
    for d in range(s.dim + 1):
        m = np.zeros((len(tgt.bases[d]), len(src.bases[d])), dtype=np.int64)
        for j, x in enumerate(src.bases[d]):
            for flag in flags_of(s, x):
                lbl = cell_of_chain(s, tuple(reversed(flag)))
                m[tgt.index[d][lbl], j] = signs.color(flag)
        mats.append(m)
    return ChainMap(src, tgt, mats)


@dataclass
class TowerStage:
    rank: int
    points: tuple       # the cells subdivided at during this stage
    complex: Ccc
    signs: SignTable
    step_map: ChainMap  # from the previous stage's complex


@dataclass
class BaryTower:
    source: Ccc
    stages: list
    final: Ccc
    final_signs: SignTable
    phi_total: ChainMap
    iso: dict  # final cell -> ascending chain in the source


def barycentric_via_stellar(s: Ccc, signs: SignTable) -> BaryTower:
    """Subdivide at every cell of rank >= 1 in decreasing rank order.

    Before each stage the up-sets of that stage's subdivision points are
    checked to be pairwise disjoint, which makes the within-stage order
    immaterial; every point must still be alive when its stage arrives.
    The final complex carries the chain labels of the barycentric
    subdivision, and :func:`compare_phi_bigphi` checks that it equals it.
    """
    cc = chain_complex(s, signs)
    total = identity_chain_map(cc)
    stages = []
    for r in range(s.dim, 0, -1):
        points = list(s.cells_of_rank(r))
        cur = cc.complex
        for t in points:
            if t not in cur:
                raise CccError(f"subdivision point {t} died before its stage")
        for a, b in combinations(points, 2):
            if cur.up_set(a) & cur.up_set(b):
                raise CccError(
                    f"up-sets of {a} and {b} intersect before stage {r}")
        stage_map = None
        for t in points:
            step = _stellar_map(cc, t)  # its target is the next step's source
            stage_map = step if stage_map is None else stage_map.then(step)
            cc = step.target
        stages.append(TowerStage(rank=r, points=tuple(points), complex=cc.complex,
                                 signs=cc.signs, step_map=stage_map))
        if stage_map is not None:
            total = total.then(stage_map)
    iso = {c: chain_of_cell(s, c) for c in cc.complex.cells}
    return BaryTower(source=s, stages=stages, final=cc.complex,
                     final_signs=cc.signs, phi_total=total, iso=iso)


def compare_phi_bigphi(s: Ccc, signs: SignTable):
    """Per-degree sign relating the tower composite to the flag-sum map.

    Both maps land in the same chain groups (the tower reproduces the
    barycentric labels); they agree degree by degree up to one global
    sign, which this returns.  Raises if no uniform sign exists.
    """
    tower = barycentric_via_stellar(s, signs)
    bcc, bsigns = barycentric(s)
    if tower.final != bcc:
        raise CccError("stellar tower does not reproduce the barycentric complex")
    flag_map = big_phi(s, signs, target=(bcc, bsigns))
    eps = []
    for d in range(s.dim + 1):
        a = flag_map.matrix(d)
        b = tower.phi_total.matrix(d)
        nz = np.argwhere(b != 0)
        if nz.size == 0:
            if a.any():
                raise CccError(f"maps differ in degree {d}")
            eps.append(1)
            continue
        i, j = nz[0]
        e = int(a[i, j]) // int(b[i, j]) if b[i, j] else 0
        if e not in (1, -1) or not np.array_equal(a, e * b):
            raise CccError(f"no uniform sign relates the maps in degree {d}")
        eps.append(e)
    return eps


@dataclass(frozen=True)
class InvarianceReport:
    cell: CellId
    before: HomologyResult
    after: HomologyResult
    chain_map_ok: bool

    @property
    def passed(self) -> bool:
        return self.before == self.after and self.chain_map_ok


def verify_subdivision_invariance(s: Ccc, x: CellId, signs: SignTable) -> InvarianceReport:
    """Check that subdividing at ``x`` preserves homology degree by degree
    and that the subdivision chain map commutes with the boundaries."""
    f = phi(s, x, signs)
    before = homology_of(f.source)
    after = homology_of(f.target)
    return InvarianceReport(cell=x, before=before, after=after,
                            chain_map_ok=f.is_chain_map())
