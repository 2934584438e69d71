"""Stellar and barycentric subdivision with chain maps between them, by cell index.

Subdividing at a cell ``x`` removes every cell above ``x`` and cones the
rest of the star off a new vertex: one cone ``C(x;y)`` per cell ``y`` of
the star outside the up-set of ``x``, plus the vertex ``C(x;0)`` of sign
+1.  Signs are written down by closed rules, never read off flags.  Old
cells keep theirs; each cone is oriented like its base, which gives the
cone rule ``s(C(x;y), y) = 1``, ``s(C(x;y), C(x;z)) = -s(y, z)`` and
``s(C(x;v), C(x;0)) = -e(v)`` for a vertex ``v`` of sign ``e(v)``.

The barycentric subdivision is the complex of non-empty chains; it equals
the tower of stellar subdivisions at all cells in decreasing rank order,
and both constructions here label a chain ``c0 < c1 < ... < cr`` by the
same nested cone, ``C(c1; ... C(cr; c0))`` when ``c0`` is a vertex and
``C(c0; ... C(cr; 0))`` otherwise, written and read back in one pass over
the keys; this realizes the comparison bijection directly.  Its signs
follow the removal rule: dropping the i-th largest member carries (-1)^i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable

import numpy as np

from .cells import CellId, EMPTY, nest, peel
from .chains import (Chain, ChainComplex, HomologyResult, _check_cells, _push, chain_complex,
                     homology_of)
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
    operators, stored as one column per source cell, as a boundary is: a
    dict from target cell index to nonzero coefficient.  ``images`` reads
    the columns with labels."""

    def __init__(self, source: ChainComplex, target: ChainComplex, columns: list):
        if len(columns) != len(source.complex):
            raise ValueError(f"{len(columns)} columns for {len(source.complex)} source cells")
        self.source = source
        self.target = target
        self.columns = columns

    @cached_property
    def images(self) -> dict:
        cells = self.target.complex.cells
        return {x: {cells[y]: v for y, v in col.items()}
                for x, col in zip(self.source.complex.cells, self.columns)}

    def matrix(self, d: int):
        """Dense (len(target.bases[d]), len(source.bases[d])) array; 0 x 0
        outside degrees 0..dim."""
        if not 0 <= d <= self.source.dim:
            return np.asarray(SparseMatrix(0, []))
        src, start = self.source.complex._rank_range(d), self.target.complex._rank_range(d).start
        return np.asarray(SparseMatrix(len(self.target.bases[d]), [
            {y - start: v for y, v in self.columns[x].items()} for x in src]))

    def apply(self, chain: Chain) -> Chain:
        d = chain.degree
        if not 0 <= d <= self.source.dim:
            return Chain(d)
        _check_cells(self.source.complex, chain.coeffs, d)
        return Chain(d, _push(chain.coeffs, self.images))

    def is_chain_map(self) -> bool:
        """Does the boundary of each cell's image equal the image of its boundary?"""
        return all(_push(col, self.target.columns) == _push(up, self.columns)
                   for col, up in zip(self.columns, self.source.columns))

    def then(self, nxt: "ChainMap") -> "ChainMap":
        if self.target.bases != nxt.source.bases:
            raise ValueError("chain maps do not compose: bases differ")
        return ChainMap(self.source, nxt.target, [_push(col, nxt.columns) for col in self.columns])


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
    at, cells = out._index, s.cells
    columns = []
    for w, col in zip(cells, src.columns):
        x = above.get(w)  # identity off the up-sets, cone expansion on them
        columns.append({at[w]: 1} if x is None else {at[cones[x][cells[y]]]: v
                       for y, v in col.items() if cells[y] not in above})
    return ChainMap(src, tgt, columns)


# -- barycentric subdivision ------------------------------------------------


def cell_of_chain(s: Ccc, chain) -> CellId:
    """Label of the barycentric cell of an ascending chain ``c0 < ... < cr``
    of cells of ``s``: ``C(c1;...C(cr;c0))`` when ``c0`` is a vertex, else
    ``C(c0;...C(cr;0))``.  Raises UnknownCellError for a member that is not
    a cell of ``s`` and CccError for a chain that does not ascend."""
    if not chain:
        raise ValueError("empty chain")
    return _cell_of(s, _ascending(s, chain))


def _cell_of(s: Ccc, ch) -> CellId:
    """:func:`cell_of_chain` of a chain of cell indices, unchecked."""
    members = list(map(s.cells.__getitem__, ch))
    return nest(members, EMPTY) if s._ranks[ch[0]] else nest(members[1:], members[0])


def _ascending(s: Ccc, chain) -> list:
    """The cell indices of ``chain``; raises unless it is an ascending chain
    of cells of ``s``."""
    ix = list(map(s._i, chain))
    if any(a == b or not s._below[b] >> a & 1 for a, b in zip(ix, ix[1:])):
        raise CccError(f"the cells {tuple(chain)} do not form an ascending chain")
    return ix


def chain_of_cell(s: Ccc, cid: CellId):
    """The ascending chain of cells of ``s`` a subdivision label stands for.

    Inverse of :func:`cell_of_chain`, used by :func:`barycentric` and by
    the stellar tower; peeling stops at cells of ``s`` so nested labels
    inside ``s`` itself are never split.
    """
    if not isinstance(cid, CellId):
        raise UnknownCellError(f"label {cid} does not decode over this complex")
    chain, base = peel(cid, s.__contains__)
    if base is not EMPTY:
        chain.insert(0, base)
    return s._labels(_ascending(s, chain))


def _chains(s: Ccc) -> list:
    """Every non-empty ascending chain of cells of ``s``, as a tuple of
    indices into ``s.cells``; shorter chains come first."""
    ups = [tuple(_bits(m ^ (1 << i))) for i, m in enumerate(s._above)]
    out, level = [], [(i,) for i in range(len(ups))]
    while level:
        out += level
        level = [ch + (j,) for ch in level for j in ups[ch[-1]]]
    return out


@cache
def _removal_signs(n: int) -> tuple:
    """The sign (-1)^(n - 1 - k) of dropping the k-th of n members."""
    return tuple(-1 if (n - 1 - k) % 2 else 1 for k in range(n))


def barycentric(s: Ccc):
    """The complex of non-empty chains, with alternating-sign orientations.

    Cells are chains ordered by inclusion and rank is length minus one.
    Members of a chain are ranked by their rank in ``s``, and removing the
    i-th largest member carries sign (-1)^i.  Each chain is labelled by
    :func:`cell_of_chain`.
    """
    label = {}  # chain -> its cell, to look up faces
    ranks, below = {}, {}
    for ch in _chains(s):  # the faces of a chain come before it
        c = label[ch] = _cell_of(s, ch)
        r = ranks[c] = len(ch) - 1
        if r:
            below[c] = [label[ch[:k] + ch[k + 1:]] for k in range(r + 1)]
    if len(ranks) != len(label):
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
    by :func:`cell_of_chain`, as in :func:`barycentric`."""
    if target is None:
        target = barycentric(s)
    bcc, bsigns = target
    src = chain_complex(s, signs)
    tgt = chain_complex(bcc, bsigns)
    at, cells, sign = bcc._index, s.cells, src.columns
    columns = []
    for i in range(len(s)):
        col = {}
        for flag in _index_flags(s, i):
            color = signs.vertex_signs[cells[flag[-1]]]
            for a, b in zip(flag, flag[1:]):
                color *= sign[a][b]
            col[at[_cell_of(s, flag[::-1])]] = color
        columns.append(col)
    return ChainMap(src, tgt, columns)


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
    total = ChainMap(cc, cc, [{i: 1} for i in range(len(s))])
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
    for d in range(s.dim + 1):  # equal complexes number their cells alike
        r = s._rank_range(d)
        a, b = flag_map.columns[r.start:r.stop], tower.phi_total.columns[r.start:r.stop]
        if any(a) and not any(b):
            raise CccError(f"maps differ in degree {d}")
        e = 1 if a == b else -1
        if a != [{y: e * v for y, v in col.items()} for col in b]:
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
