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
from functools import cache
from typing import Iterable

import numpy as np

from .cells import CellId, EMPTY
from .chains import Chain, ChainComplex, HomologyResult, _push, chain_complex, homology_of
from .complexes import Ccc, _bits
from .errors import CccError, UnknownCellError
from .flags import SignTable, _index_flags, _require_signs
from .snf import SparseMatrix
# Unused here; kept because bench/tracing.py patches these names.
from .flags import _derive_signs, flags_of, permutation_orientation  # noqa: F401


@dataclass(frozen=True)
class StellarResult:
    complex: Ccc
    old_cells: frozenset
    new_cells: dict       # base cell in the cone target (or EMPTY) -> cone id
    origin_complex: Ccc
    origin_cell: CellId


class ChainMap:
    """A degree-preserving map of chain groups that intertwines two boundary
    operators, stored as the image of each source cell: a dict from target
    cell to nonzero coefficient."""

    def __init__(self, source: ChainComplex, target: ChainComplex, images: dict):
        self.source = source
        self.target = target
        self.images = images

    def matrix(self, d: int):
        """Dense (len(target.bases[d]), len(source.bases[d])) array; 0 x 0
        outside degrees 0..dim."""
        if not 0 <= d <= self.source.dim:
            return np.asarray(SparseMatrix({}, [], self.images))
        return np.asarray(SparseMatrix(self.target.index[d], self.source.bases[d], self.images))

    def apply(self, chain: Chain) -> Chain:
        d = chain.degree
        if not 0 <= d <= self.source.dim:
            return Chain(d)
        for c in chain.coeffs:
            if self.source.complex.rank(c) != d:
                raise ValueError(f"cell {c} does not have rank {d}")
        return Chain(d, _push(chain.coeffs, self.images))

    def is_chain_map(self) -> bool:
        """Does the boundary of each cell's image equal the image of its boundary?"""
        return all(_push(img, self.target.images) == _push(self.source.images[x], self.images)
                   for x, img in self.images.items())

    def then(self, nxt: "ChainMap") -> "ChainMap":
        if self.target.bases != nxt.source.bases:
            raise ValueError("chain maps do not compose: bases differ")
        images = {x: _push(img, nxt.images) for x, img in self.images.items()}
        return ChainMap(self.source, nxt.target, images)


# -- stellar subdivision ----------------------------------------------------


def _subdivide(s: Ccc, points, signs: SignTable):
    """Stellar subdivision at ``points``, whose up-sets must be pairwise
    disjoint, so that the order of the points is immaterial.

    Returns the complex, its sign table, each point's cones (base cell, or
    EMPTY for the new vertex, -> cone id) and the point above each removed
    cell.
    """
    above, cones = {}, {}
    for x in points:
        if x not in s:
            raise UnknownCellError(f"cell {x} is not in the complex")
        if s.rank(x) == 0:
            raise ValueError(f"stellar subdivision at the vertex {x} is not supported")
        for z in s.up_set(x):
            if above.setdefault(z, x) != x:
                raise CccError(f"up-sets of {above[z]} and {x} intersect")
        cone = {y: CellId.cone(x, y) for y in s.open_star(x)}  # closed: the bases
        cone[EMPTY] = CellId.cone(x, EMPTY)
        for c in cone.values():
            if c in s:
                raise CccError(f"cone label {c} collides with an existing cell")
        cones[x] = cone

    cells, faces = s.cells, s._face_ix
    old = [i for i, z in enumerate(cells) if z not in above]
    ranks = {cells[i]: s._ranks[i] for i in old}
    below = {cells[i]: s.covers(cells[i]) for i in old}
    for cone in cones.values():
        ranks[cone[EMPTY]] = 0
        below[cone[EMPTY]] = ()
        for y, c in cone.items():
            if y is EMPTY:
                continue
            ranks[c] = s.rank(y) + 1
            below[c] = [y, cone[EMPTY]] + [cone[z] for z in below[y]]
    out = Ccc(ranks, below)

    # old cells keep their faces and signs; each cone takes the cone rule
    at, rows = out._index, [()] * len(out)
    given = signs._rows_on(s)
    _require_signs(s, given, old)
    for i in old:
        rows[at[cells[i]]] = given[i]
    for cone in cones.values():
        apex = at[cone[EMPTY]]
        for y, c in cone.items():
            if y is EMPTY:
                continue
            iy = s._i(y)
            sign = {at[y]: 1}
            if s._ranks[iy]:
                _require_signs(s, given, (iy,))
                for z, v in zip(faces[iy], given[iy]):
                    sign[at[cone[cells[z]]]] = -v
            else:
                sign[apex] = -signs.vertex_signs[y]
            ic = at[c]
            rows[ic] = tuple(sign.get(j, 0) for j in out._face_ix[ic])
    return out, SignTable._of(out, rows, signs.vertex_signs), cones, above


def stellar(s: Ccc, x: CellId, signs: SignTable):
    """Subdivide at ``x`` (rank >= 1) and transport orientations.

    Returns the :class:`StellarResult` and the sign table of the new
    complex.  Old cells keep their signs and the cones get theirs by the
    cone rule, so every cone is oriented like its base.
    """
    out, new_signs, cones, above = _subdivide(s, [x], signs)
    return StellarResult(
        complex=out,
        old_cells=frozenset(s.cells) - above.keys(),
        new_cells=cones[x],
        origin_complex=s,
        origin_cell=x,
    ), new_signs


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
    return _stellar_map(chain_complex(s, signs), [x])


def _stellar_map(src: ChainComplex, points) -> ChainMap:
    """:func:`phi` at every one of ``points`` (pairwise disjoint up-sets) out
    of an existing chain complex; the target is the chain complex of the
    subdivision."""
    s, signs = src.complex, src.signs
    out, new_signs, cones, above = _subdivide(s, points, signs)
    tgt = chain_complex(out, new_signs)
    images = {w: {w: 1} for w in s.cells if w not in above}
    cells, faces, rows = s.cells, s._face_ix, src._rows
    for w, x in above.items():
        i = s._index[w]
        images[w] = {cones[x][cells[y]]: v for y, v in zip(faces[i], rows[i])
                     if cells[y] not in above}
    return ChainMap(src, tgt, images)


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


def _chains(s: Ccc) -> list:
    """Every non-empty ascending chain of cells of ``s``, as a tuple of
    indices into ``s.cells``; shorter chains come first."""
    ups = [tuple(_bits(m ^ (1 << i))) for i, m in enumerate(s._above)]
    out, level = [], [(i,) for i in range(len(ups))]
    while level:
        out += level
        level = [ch + (j,) for ch in level for j in ups[ch[-1]]]
    return out


def _label_chain(s: Ccc, label: dict, ch: tuple) -> CellId:
    """The label :func:`barycentric` gives ``ch``, an ascending chain of
    cell indices of ``s``.  It is stored in ``label`` (chain -> its cell,
    with ``() -> EMPTY``), and so is any label it is built from that
    ``label`` lacks."""
    cells, ranks = s.cells, s._ranks
    if ranks[ch[0]] == 0:
        if ch[1:]:
            base = ch[:1] + ch[2:]
            c = CellId.cone(cells[ch[1]], label[base] if base in label
                            else _label_chain(s, label, base))
        else:
            c = cells[ch[0]]
    elif ch[1:] and ranks[ch[1]] == 0:  # a vertex above a cell of positive rank
        c = cell_of_chain(s, tuple(cells[i] for i in ch))
    else:
        base = ch[1:]
        c = CellId.cone(cells[ch[0]], label[base] if base in label
                        else _label_chain(s, label, base))
    label[ch] = c
    return c


@cache
def _removal_signs(n: int) -> tuple:
    """The sign (-1)^(n - 1 - k) of dropping the k-th of n members."""
    return tuple(-1 if (n - 1 - k) % 2 else 1 for k in range(n))


def barycentric(s: Ccc):
    """The complex of non-empty chains, with alternating-sign orientations.

    Cells are chains ordered by inclusion and rank is length minus one.
    Members of a chain are ranked by their rank in ``s``, and removing the
    i-th largest member carries sign (-1)^i.  Each chain's label is one
    cone over the label of a face (see :func:`cell_of_chain`): the face
    without its second member when the chain starts at a vertex, without
    its first member otherwise.
    """
    label = {(): EMPTY}  # chain -> its cell
    ranks, below = {}, {}
    for ch in _chains(s):  # the faces of a chain come before it
        c = _label_chain(s, label, ch)
        r = ranks[c] = len(ch) - 1
        if r:
            below[c] = [label[ch[:k] + ch[k + 1:]] for k in range(r + 1)]
    if len(ranks) != len(label) - 1:
        raise CccError("chain labels collide; complex already uses them")
    out = Ccc(ranks, below)
    at, rows = out._index, [()] * len(out)
    for c, faces in below.items():  # the k-th face drops the k-th member
        i = at[c]
        sign = dict(zip(map(at.__getitem__, faces), _removal_signs(len(faces))))
        rows[i] = tuple(map(sign.__getitem__, out._face_ix[i]))
    return out, SignTable._of(out, rows)


def big_phi(s: Ccc, signs: SignTable, target=None) -> ChainMap:
    """Chain map into the barycentric subdivision: a cell goes to the
    signed sum of its flags, weighted by its chosen orientation.

    Flags are walked as cell indices; a flag's color is the product of
    the signs along it times its vertex's sign, and its cell is labelled
    by :func:`_label_chain`, as in :func:`barycentric`."""
    if target is None:
        target = barycentric(s)
    bcc, bsigns = target
    src = chain_complex(s, signs)
    tgt = chain_complex(bcc, bsigns)
    cells = s.cells
    sign = [dict(zip(fs, row)) for fs, row in zip(s._face_ix, src._rows)]
    vertex = {i: signs.vertex_signs[cells[i]] for i in s._rank_range(0)}
    label = {(): EMPTY}  # chain -> its cell
    images = {}
    for i, x in enumerate(cells):
        img = images[x] = {}
        for flag in _index_flags(s, i):
            color = vertex[flag[-1]]
            for a, b in zip(flag, flag[1:]):
                color *= sign[a][b]
            img[_label_chain(s, label, flag[::-1])] = color
    return ChainMap(src, tgt, images)


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

    Each stage is one stellar subdivision at all cells of its rank at once:
    their up-sets are pairwise disjoint (checked as the removed cells are
    collected), so one complex, sign table, chain complex and chain map
    are built per stage.  The final complex carries the chain labels of
    the barycentric subdivision, and :func:`compare_phi_bigphi` checks
    that it equals it.
    """
    cc = chain_complex(s, signs)
    total = ChainMap(cc, cc, {x: {x: 1} for x in s.cells})
    stages = []
    for r in range(s.dim, 0, -1):
        points = s.cells_of_rank(r)
        step = _stellar_map(cc, points)
        cc = step.target
        stages.append(TowerStage(rank=r, points=points, complex=cc.complex,
                                 signs=cc.signs, step_map=step))
        total = total.then(step)
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
        cells = flag_map.source.bases[d]
        a = {(x, y): v for x in cells for y, v in flag_map.images[x].items()}
        b = {(x, y): v for x in cells for y, v in tower.phi_total.images[x].items()}
        if a and not b:
            raise CccError(f"maps differ in degree {d}")
        e = 1 if a == b else -1
        if a != {k: e * v for k, v in b.items()}:
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
