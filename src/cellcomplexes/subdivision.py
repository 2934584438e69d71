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

Both constructions hand their cells, the positions of the cells below
each and one sign per face to the complex builder, which returns the
sign rows aligned with the new complex's faces.  A barycentric
subdivision of more than ``MAX_CELLS`` cells is refused before it is
built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable

import numpy as np

from .cells import CellId, EMPTY, nest, peel
from .chains import (Chain, ChainComplex, HomologyResult, _check_cells, _push, chain_complex,
                     homology_of)
from .complexes import MAX_CELLS, Ccc, _assemble, _chain_count, _chains
from .errors import CccError, UnknownCellError
from .flags import SignTable, _index_flags, _require_signs
from .snf import SparseMatrix
# Unused here; kept because bench/tracing.py patches these names.
from .flags import _derive_signs, flags_of, permutation_orientation  # noqa: F401


@dataclass(frozen=True)
class StellarResult:
    """One stellar subdivision at ``origin_cell``.  ``new_cells`` maps the
    base of each cone, or EMPTY for the new vertex, to the cone's label: the
    new vertex first, then the bases in the order of ``origin_complex.cells``."""
    complex: Ccc
    old_cells: frozenset
    new_cells: dict
    origin_complex: Ccc
    origin_cell: CellId


class ChainMap:
    """A degree-preserving map of chain groups that intertwines two boundary
    operators, stored as one column per source cell, as a boundary is: a
    dict from target cell index to nonzero coefficient.  ``images`` reads
    the columns with labels.  A column that holds a target cell of another
    rank than its source cell raises ValueError naming the source cell."""

    def __init__(self, source: ChainComplex, target: ChainComplex, columns: list):
        if len(columns) != len(source.complex):
            raise ValueError(f"{len(columns)} columns for {len(source.complex)} source cells")
        s, t = source.complex, target.complex
        for d in range(s.dim + 1):  # every column must land in its source cell's degree
            span, ok = s._rank_range(d), t._rank_range(d)
            ys = list(itertools.chain.from_iterable(columns[span.start:span.stop]))
            if ys and (min(ys) < ok.start or max(ys) >= ok.stop):
                x = next(x for x in span if not all(y in ok for y in columns[x]))
                raise ValueError(f"the image of {s.cells[x]} has cells outside degree {d}")
        self.source = source
        self.target = target
        self.columns = columns

    @cached_property
    def images(self) -> dict:
        cells = self.target.complex.cells
        return {x: {cells[y]: v for y, v in col.items()}
                for x, col in zip(self.source.complex.cells, self.columns)}

    def matrix(self, d: int):
        """Dense array of (target cells of rank d, source cells of rank d),
        in every degree: empty on a side without cells of rank d."""
        rows, src = self.target.complex._rank_range(d), self.source.complex._rank_range(d)
        return np.asarray(SparseMatrix(len(rows), [
            {y - rows.start: v for y, v in self.columns[x].items()} for x in src]))

    def apply(self, chain: Chain) -> Chain:
        _check_cells(self.source.complex, chain.coeffs, chain.degree)
        return Chain(chain.degree, _push(chain.coeffs, self.images))

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

    Works in cell indices of ``s``: each point's up-set and star are read
    once off the order.  Returns the complex, its sign table, the cones
    and ``over``, the index of the point above each cell of ``s`` (-1 for
    a cell that stays).  The cones map ``(point index, base index)`` to
    the cone label, with base index -1 for the new vertex; each point
    lists its new vertex first, then its bases in ``s.cells`` order.
    """
    cells, ranks_of, faces = s.cells, s._ranks, s._face_ix
    over, cones = [-1] * len(s), {}
    for x in points:
        p = s._i(x)
        if not ranks_of[p]:
            raise ValueError(f"stellar subdivision at the vertex {x} is not supported")
        up, rest = s._star(p)
        for z in up:
            if over[z] not in (-1, p):
                raise CccError(f"up-sets of {cells[over[z]]} and {x} intersect")
            over[z] = p
        for b in (-1, *rest):  # the new vertex, then the bases
            c = cones[p, b] = nest((x,), cells[b] if b >= 0 else EMPTY)
            if c in s:
                raise CccError(f"cone label {c} collides with an existing cell")

    given = signs._rows_on(s)
    old = [i for i, p in enumerate(over) if p < 0]
    _require_signs(s, given, old)
    # positions: the old cells, then the cones.  An old cell names its
    # faces, which its signs follow, then any cover that is not a face
    # (only where the axioms fail): the order closes covers
    at, named = [-1] * len(s), [()] * len(s)
    for k, i in enumerate(old):
        at[i], cv = k, s._cover_ix[i]
        named[i] = faces[i] if cv == faces[i] else faces[i] + cv
    pos = dict(zip(cones, itertools.count(len(old))))
    labels = [cells[i] for i in old] + list(cones.values())
    ranks = [ranks_of[i] for i in old] + [ranks_of[b] + 1 if b >= 0 else 0 for _, b in cones]
    below, rows = [[at[j] for j in named[i]] for i in old], [given[i] for i in old]
    for p, b in cones:
        if b < 0:  # the new vertex
            below.append(())
            rows.append(())
        elif named[b]:  # the cone rule
            below.append([at[b], *(pos[p, j] for j in named[b])])
            rows.append((1, *(-v for v in given[b])))
        else:  # a base that names nothing below it, a vertex: the apex is a face
            below.append([at[b], pos[p, -1]])
            rows.append((1, -signs.vertex_signs.get(cells[b], 0)))
    out, rows = _assemble(labels, ranks, below, rows)
    return out, SignTable._of(out, rows, signs.vertex_signs), cones, over


def stellar(s: Ccc, x: CellId, signs: SignTable):
    """Subdivide at ``x`` (rank >= 1) and transport orientations.

    Returns the :class:`StellarResult` and the sign table of the new
    complex.  Old cells keep their signs and the cones get theirs by the
    cone rule, so every cone is oriented like its base.
    """
    out, new_signs, cones, over = _subdivide(s, [x], signs)
    return StellarResult(
        complex=out,
        old_cells=frozenset(c for c, p in zip(s.cells, over) if p < 0),
        new_cells={s.cells[b] if b >= 0 else EMPTY: c for (_, b), c in cones.items()},
        origin_complex=s,
        origin_cell=x,
    ), new_signs


def stellar_sequence(s: Ccc, points: Iterable[CellId], signs: SignTable):
    """Fold stellar subdivision over ``points``; each must be alive in turn.

    When the up-sets of the points are pairwise disjoint the result does
    not depend on the order.
    """
    for x in points:
        s, signs = _subdivide(s, [x], signs)[:2]
    return s, signs


def phi(s: Ccc, x: CellId, signs: SignTable) -> ChainMap:
    """The subdivision chain map: identity off the up-set of ``x``, cone
    expansion on it."""
    return _stellar_map(chain_complex(s, signs), [x])


def _stellar_map(src: ChainComplex, points) -> ChainMap:
    """:func:`phi` at every one of ``points`` (pairwise disjoint up-sets) out
    of an existing chain complex; the target is the chain complex of the
    subdivision."""
    out, new_signs, cones, over = _subdivide(src.complex, points, src.signs)
    at, cells = out._index, src.complex.cells
    columns = [{at[cells[w]]: 1} if p < 0  # identity off the up-sets, cone expansion on them
               else {at[cones[p, y]]: v for y, v in col.items() if over[y] < 0}
               for w, (p, col) in enumerate(zip(over, src.columns))]
    return ChainMap(src, chain_complex(out, new_signs), columns)


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
    if not all(map(s.lt, chain, chain[1:])):
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


def _refuse_oversize(s: Ccc) -> None:
    """Raises ValueError when the barycentric subdivision of ``s`` has more
    than ``MAX_CELLS`` cells, counted without building it."""
    n = _chain_count(s)
    if n > MAX_CELLS:
        raise ValueError(f"the barycentric subdivision has {n} cells, more than {MAX_CELLS}")


@cache
def _removal_signs(n: int) -> tuple:
    """The sign (-1)^(n - 1 - k) of dropping the k-th of n members."""
    return tuple(-1 if (n - 1 - k) % 2 else 1 for k in range(n))


def barycentric(s: Ccc):
    """The complex of non-empty chains, with alternating-sign orientations.

    Cells are chains ordered by inclusion and rank is length minus one.
    Members of a chain are ranked by their rank in ``s``, and removing the
    i-th largest member carries sign (-1)^i.  Each chain is labelled by
    :func:`cell_of_chain`; labels that collide, which only a complex that
    already uses chain labels can make, raise CccError.  A subdivision of
    more than ``MAX_CELLS`` cells raises ValueError before it is built.
    """
    _refuse_oversize(s)
    chains = _chains(s)
    at = dict(zip(chains, range(len(chains))))
    below = [[at[ch[:k] + ch[k + 1:]] for k in range(len(ch))] if len(ch) > 1 else ()
             for ch in chains]  # the k-th face drops the k-th member
    out, rows = _assemble([_cell_of(s, ch) for ch in chains], [len(ch) - 1 for ch in chains],
                          below, [_removal_signs(len(fs)) for fs in below])
    return out, SignTable._of(out, rows)


def big_phi(s: Ccc, signs: SignTable) -> ChainMap:
    """Chain map into the barycentric subdivision: a cell goes to the
    signed sum of its flags, weighted by its chosen orientation.

    Flags are walked as cell indices; a flag's color is the product of
    the signs along it times its vertex's sign, and its cell is labelled
    by :func:`cell_of_chain`, as in :func:`barycentric`."""
    bcc, bsigns = barycentric(s)
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
    """The stellar tower over ``source``.  ``iso`` maps each final cell to
    the ascending chain of ``source`` it stands for, decoded when first read."""
    source: Ccc
    stages: list
    final: Ccc
    final_signs: SignTable
    phi_total: ChainMap

    @cached_property
    def iso(self) -> dict:
        return {c: chain_of_cell(self.source, c) for c in self.final.cells}


def barycentric_via_stellar(s: Ccc, signs: SignTable) -> BaryTower:
    """Subdivide at every cell of rank >= 1 in decreasing rank order.

    Each stage is one stellar subdivision at all cells of its rank at once:
    their up-sets are pairwise disjoint (checked as the removed cells are
    collected), so one complex, sign table, chain complex and chain map
    are built per stage.  The final complex carries the chain labels of
    the barycentric subdivision, and :func:`compare_phi_bigphi` checks
    that it equals it.  A subdivision of more than ``MAX_CELLS`` cells
    raises ValueError before it is built.
    """
    _refuse_oversize(s)
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
    return BaryTower(source=s, stages=stages, final=cc.complex,
                     final_signs=cc.signs, phi_total=total)


def compare_phi_bigphi(s: Ccc, signs: SignTable):
    """Per-degree sign relating the tower composite to the flag-sum map.

    Both maps land in the same chain groups (the tower reproduces the
    barycentric labels); they agree degree by degree up to one global
    sign, which this returns.  Raises if no uniform sign exists.
    """
    tower = barycentric_via_stellar(s, signs)
    flag_map = big_phi(s, signs)
    if tower.final != flag_map.target.complex:
        raise CccError("stellar tower does not reproduce the barycentric complex")
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
