"""Finite ranked posets and the cell-complex axioms.

A :class:`Ccc` stores every cell's rank together with the full order
relation, one bitset row per cell, so comparability, closures, meets and
interval queries are cheap.  Complexes are immutable once built; all
operations are pure queries or return new complexes.

The four axioms a combinatorial cell complex must satisfy:

1. the order is compatible with rank: ``y < x`` implies ``rank(y) < rank(x)``;
2. every subset that is bounded below has a greatest lower bound, and for
   ``y < x`` some cell one rank above ``y`` lies between ``y`` and ``x``;
3. every cell of rank at least one is the least upper bound of its faces;
4. every codimension-two interval contains exactly two intermediate cells,
   and those two cells meet at the bottom of the interval.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

from .cells import CellId
from .errors import (
    CoverCycleError,
    DuplicateCellError,
    EmptyComplexError,
    NotManifoldLikeError,
    RankOrderError,
    UnknownCellError,
)


def _bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Classification:
    equidimensional: bool
    dimension: int
    boundary: frozenset
    nonsingular: bool
    manifold_like: bool


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str  # one of "1", "2a", "2b", "3", "4"
    cells: tuple
    message: str


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple

    def __str__(self):
        if self.passed:
            return "all axioms hold"
        return "\n".join(f"axiom {v.axiom}: {v.message}" for v in self.violations)


class Ccc:
    """A finite ranked poset; the candidate combinatorial cell complex.

    Cells are kept in a canonical order (rank, then label).  The order is
    the closure of the relation given, which names cells below each cell:
    covers suffice, and a cycle raises CoverCycleError.  It is stored as
    one integer bitmask per cell over the canonical order.  Use
    :func:`build_complex`, :func:`from_simplicial`, :func:`product` or the
    subdivision module to construct instances.
    """

    __slots__ = ("_cells", "_ranks", "_index", "_below", "_above",
                 "_faces", "_face_ix", "_cofaces", "_rank_masks", "_dim")

    def __init__(self, ranks: Mapping[CellId, int], relation: Mapping[CellId, Iterable[CellId]]):
        order = sorted([(r, c) for c, r in ranks.items()])
        cells = [c for _, c in order]
        rank_of = [r for r, _ in order]
        index = {c: i for i, c in enumerate(cells)}
        n = len(cells)
        rel = [[index[d] for d in relation.get(c, ())] for c in cells]
        # a cell's closure is taken after those of the cells it names: a cell
        # naming an unfinished one waits (-1) on the stack until they are done
        below = [0] * n
        done = []  # every cell after the cells it names
        stack = list(range(n - 1, -1, -1))
        while stack:
            i = stack.pop()
            todo = [j for j in rel[i] if below[j] <= 0]
            if todo:
                if any(below[j] for j in todo):
                    raise CoverCycleError(f"the order relation has a cycle through {cells[i]}")
                below[i] = -1
                stack += [i, *todo]
            elif below[i] <= 0:
                m = 1 << i
                for j in rel[i]:
                    m |= below[j]
                below[i] = m
                done.append(i)
        above = [1 << i for i in range(n)]
        for i in reversed(done):
            for j in rel[i]:
                above[j] |= above[i]
        # cells are sorted by rank, so each rank's cells form one index range
        rank_masks = {r: (1 << bisect_right(rank_of, r)) - (1 << bisect_left(rank_of, r))
                      for r in dict.fromkeys(rank_of)}
        faces, face_ix = [], []
        cofaces = [[] for _ in range(n)]  # filled by inverting the face lists
        for i, c in enumerate(cells):
            fs = tuple(_bits(below[i] & rank_masks.get(rank_of[i] - 1, 0)))
            face_ix.append(fs)
            faces.append(tuple(cells[j] for j in fs))
            for j in fs:
                cofaces[j].append(c)
        self._cells = tuple(cells)
        self._ranks = tuple(rank_of)
        self._index = index
        self._below = below
        self._above = above
        self._faces = tuple(faces)
        self._face_ix = tuple(face_ix)  # the same faces, as indices
        self._cofaces = tuple(map(tuple, cofaces))
        self._rank_masks = rank_masks
        self._dim = max(self._ranks) if cells else -1

    # -- basic queries -------------------------------------------------

    @property
    def cells(self) -> tuple:
        return self._cells

    @property
    def dim(self) -> int:
        """Largest rank present; -1 for the empty complex."""
        return self._dim

    def __len__(self):
        return len(self._cells)

    def __contains__(self, x: CellId) -> bool:
        return x in self._index

    def __eq__(self, other):
        if not isinstance(other, Ccc):
            return NotImplemented
        return (self._cells == other._cells and self._ranks == other._ranks
                and self._below == other._below)

    __hash__ = None

    def __repr__(self):
        counts = ",".join(str(m.bit_count()) for _, m in sorted(self._rank_masks.items()))
        return f"<Ccc {len(self)} cells ({counts})>"

    def rank(self, x: CellId) -> int:
        return self._ranks[self._i(x)]

    def _i(self, x: CellId) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise UnknownCellError(f"cell {x} is not in the complex") from None

    def cells_of_rank(self, r: int) -> tuple:
        span = self._rank_range(r)
        return self._cells[span.start:span.stop]

    def _rank_range(self, r: int) -> range:
        """The indices of the cells of rank ``r``: cells are sorted by rank,
        so they form one range."""
        return range(bisect_left(self._ranks, r), bisect_right(self._ranks, r))

    def leq(self, y: CellId, x: CellId) -> bool:
        return bool(self._below[self._i(x)] >> self._i(y) & 1)

    def lt(self, y: CellId, x: CellId) -> bool:
        return y != x and self.leq(y, x)

    def faces(self, x: CellId) -> tuple:
        return self._faces[self._i(x)]

    def cofaces(self, x: CellId) -> tuple:
        return self._cofaces[self._i(x)]

    def covers(self, x: CellId) -> tuple:
        """The cells below ``x`` with no cell strictly between: its faces,
        when the axioms hold."""
        return tuple(map(self._cells.__getitem__, self._covers(self._i(x))))

    def _covers(self, i: int) -> tuple:
        """The indices of the covers of the cell at index ``i``, ascending."""
        strict = self._below[i] ^ (1 << i)
        under = 0
        for j in _bits(strict):
            under |= self._below[j] ^ (1 << j)
        return tuple(_bits(strict & ~under))

    def maximal_cells(self) -> tuple:
        return tuple(c for i, c in enumerate(self._cells)
                     if self._above[i] == 1 << i)

    # -- order-theoretic operations -------------------------------------

    def closure(self, cells: Iterable[CellId]) -> set:
        """All cells below some member of ``cells`` (the topological closure)."""
        m = 0
        for x in cells:
            m |= self._below[self._i(x)]
        return {self._cells[i] for i in _bits(m)}

    def up_set(self, x: CellId) -> set:
        """All cells above ``x`` (the smallest open set containing it)."""
        return {self._cells[i] for i in _bits(self._above[self._i(x)])}

    def meet(self, cells: Iterable[CellId]):
        """Greatest lower bound of a non-empty set, or None if there is none."""
        m = -1
        for x in cells:
            m &= self._below[self._i(x)]
        if m == -1:
            raise ValueError("meet of an empty collection")
        if m == 0:
            return None
        top = m.bit_length() - 1
        return self._cells[top] if self._below[top] == m else None

    def join(self, cells: Iterable[CellId]):
        """Least upper bound of a non-empty set, or None if there is none."""
        m = -1
        for x in cells:
            m &= self._above[self._i(x)]
        if m == -1:
            raise ValueError("join of an empty collection")
        if m == 0:
            return None
        low = (m & -m).bit_length() - 1
        return self._cells[low] if self._above[low] == m else None

    def star(self, x: CellId) -> "Ccc":
        """The closed subcomplex spanned by every cell comparable above ``x``."""
        return self.subcomplex(self.closure(self.up_set(x)))

    def open_star(self, x: CellId) -> set:
        """Cells of the star not above ``x``; the base the subdivision cones over."""
        return self.closure(self.up_set(x)) - self.up_set(x)

    def subcomplex(self, cells: Iterable[CellId]) -> "Ccc":
        """The induced complex on a down-closed set of cells."""
        chosen = sorted({self._i(x) for x in cells})
        mask = 0
        for i in chosen:
            mask |= 1 << i
        for i in chosen:
            if self._below[i] & ~mask:
                raise ValueError("subset is not closed: "
                                 f"{self._cells[i]} has faces outside it")
        ranks = {self._cells[i]: self._ranks[i] for i in chosen}
        sb = {self._cells[i]: [self._cells[j] for j in _bits(self._below[i] & ~(1 << i))]
              for i in chosen}
        return Ccc(ranks, sb)

    def skeleton(self, i: int) -> "Ccc":
        if i < 0:
            raise ValueError("skeleton index must be non-negative")
        keep = [c for c in self._cells if self.rank(c) <= i]
        return self.subcomplex(keep)

    def closure_complex(self, x: CellId) -> "Ccc":
        """The closed subcomplex of a single cell."""
        return self.subcomplex(self.closure([x]))

    # -- classification and duality -------------------------------------

    def classify(self) -> Classification:
        if not self._cells:
            raise EmptyComplexError("classification of the empty complex is undefined")
        n = self._dim
        maximal = 0
        for i in range(len(self._cells)):
            if self._above[i] == 1 << i:
                maximal |= 1 << i
        equi = all(self._ranks[i] == n for i in _bits(maximal))
        boundary = frozenset(
            self._cells[i] for i in range(len(self._cells))
            if self._ranks[i] < n and (self._above[i] & maximal).bit_count() == 1
        )
        nonsingular = equi
        if equi:
            top_mask = self._rank_masks.get(n, 0)
            for i in _bits(self._rank_masks.get(n - 1, 0)):
                if (self._above[i] & top_mask).bit_count() > 2:
                    nonsingular = False
                    break
            if nonsingular:
                zero_mask = self._rank_masks.get(0, 0)
                for i in _bits(self._rank_masks.get(1, 0)):
                    if (self._below[i] & zero_mask).bit_count() != 2:
                        nonsingular = False
                        break
        return Classification(
            equidimensional=equi,
            dimension=n,
            boundary=boundary,
            nonsingular=nonsingular,
            manifold_like=nonsingular and not boundary,
        )

    def dual(self) -> "Ccc":
        """Same cells, order reversed, rank complemented.

        Defined for manifold-like complexes; applying it twice returns a
        complex structurally equal to the original.
        """
        cls = self.classify()
        if not cls.manifold_like:
            raise NotManifoldLikeError("dual is defined only for manifold-like complexes")
        n = self._dim
        ranks = {c: n - self._ranks[i] for i, c in enumerate(self._cells)}
        sb = {c: [self._cells[j] for j in _bits(self._above[i] & ~(1 << i))]
              for i, c in enumerate(self._cells)}
        return Ccc(ranks, sb)

    # -- axiom validation ------------------------------------------------

    def validate_axioms(self) -> ValidationReport:
        """Check the four axioms and report every violation found."""
        cells, ranks = self._cells, self._ranks
        below, above = self._below, self._above
        n = len(cells)
        out = []

        rank_ge = {}  # rank r -> mask of cells with rank >= r
        acc = 0
        for r in sorted(self._rank_masks, reverse=True):
            acc |= self._rank_masks[r]
            rank_ge[r] = acc

        for i in range(n):
            bad = below[i] & ~(1 << i) & rank_ge.get(ranks[i], 0)
            for j in _bits(bad):
                out.append(AxiomViolation(
                    "1", (cells[j], cells[i]),
                    f"{cells[j]} < {cells[i]} but rank {ranks[j]} >= rank {ranks[i]}"))

        # Pairwise greatest lower bounds generate all finite meets.  The
        # common down-set of a pair bounded below holds a minimal cell, so
        # the partners j > i that can fail lie above a minimal cell under
        # i.  Where axiom 1 holds at i (no cell below i sorts after it), a
        # cell above i meets it at i and is skipped; elsewhere such pairs
        # can fail and are checked.  Pairs are visited from the top, which
        # takes the highest candidate bit cheaply, and reported ascending.
        minimal = 0
        for i in range(n):
            if below[i] == 1 << i:
                minimal |= 1 << i
        found = []
        for i in range(n - 1, -1, -1):
            bi = below[i]
            reach = 0
            rest = bi & minimal
            while rest:
                low = rest & -rest
                rest ^= low
                reach |= above[low.bit_length() - 1]
            rest = reach >> (i + 1) << (i + 1)
            if bi.bit_length() == i + 1:
                rest &= ~above[i]
            while rest:
                j = rest.bit_length() - 1
                rest ^= 1 << j
                common = bi & below[j]
                if below[common.bit_length() - 1] != common:
                    found.append(AxiomViolation(
                        "2a", (cells[i], cells[j]),
                        f"{cells[i]} and {cells[j]} are bounded below "
                        "but have no greatest lower bound"))
        out += reversed(found)

        for i in range(n):
            for j in _bits(below[i] & ~(1 << i)):
                step = above[j] & below[i] & self._rank_masks.get(ranks[j] + 1, 0)
                if not step:
                    out.append(AxiomViolation(
                        "2b", (cells[j], cells[i]),
                        f"no cell of rank {ranks[j] + 1} lies between "
                        f"{cells[j]} and {cells[i]}"))

        for i in range(n):
            if ranks[i] == 0:
                continue
            fm = below[i] & self._rank_masks.get(ranks[i] - 1, 0)
            if not fm:
                out.append(AxiomViolation(
                    "3", (cells[i],), f"{cells[i]} has rank {ranks[i]} but no faces"))
                continue
            ub = -1
            for j in _bits(fm):
                ub &= above[j]
            low = (ub & -ub).bit_length() - 1 if ub else -1
            if low != i or above[i] != ub:
                out.append(AxiomViolation(
                    "3", (cells[i],),
                    f"{cells[i]} is not the least upper bound of its faces"))

        for i in range(n):
            r = ranks[i]
            if r < 2:
                continue
            for j in _bits(below[i] & self._rank_masks.get(r - 2, 0)):
                between = above[j] & below[i] & self._rank_masks.get(r - 1, 0)
                k = between.bit_count()
                if k != 2:
                    out.append(AxiomViolation(
                        "4", (cells[j], cells[i]),
                        f"{k} cells between {cells[j]} and {cells[i]}, "
                        "expected exactly two"))
                    continue
                p, q = _bits(between)
                common = below[p] & below[q]
                top = common.bit_length() - 1
                if top != j or below[j] != common:
                    out.append(AxiomViolation(
                        "4", (cells[j], cells[i]),
                        f"the two cells between {cells[j]} and {cells[i]} "
                        f"do not meet at {cells[j]}"))

        return ValidationReport(passed=not out, violations=tuple(out))


# -- constructors --------------------------------------------------------


def build_complex(cell_ranks: Iterable[tuple], covers: Iterable[tuple]) -> Ccc:
    """Assemble a complex from (cell, rank) pairs and covering pairs.

    The order is the closure of the relation given, here ``covers``.  The
    result is returned even if the axioms fail; run ``validate_axioms``
    separately.
    """
    ranks: dict[CellId, int] = {}
    for c, r in cell_ranks:
        if c in ranks:
            raise DuplicateCellError(f"cell {c} declared twice")
        if r < 0:
            raise RankOrderError(f"cell {c} has negative rank {r}")
        ranks[c] = int(r)
    below: dict[CellId, list] = {c: [] for c in ranks}
    for lo, hi in covers:
        if lo not in ranks:
            raise UnknownCellError(f"cover references unknown cell {lo}")
        if hi not in ranks:
            raise UnknownCellError(f"cover references unknown cell {hi}")
        if lo == hi:
            raise CoverCycleError(f"cover ({lo}, {hi}) is a cycle")
        if ranks[lo] >= ranks[hi]:
            raise RankOrderError(
                f"cover ({lo}, {hi}) has rank {ranks[lo]} >= {ranks[hi]}")
        below[hi].append(lo)
    return Ccc(ranks, below)


def product(x: Ccc, y: Ccc) -> Ccc:
    """Cartesian product: pair cells, compare componentwise, add ranks.

    Cell labels must be plain named cells on both sides; the pair
    ``(a, b)`` is labelled ``a*b``.
    """
    for s in (x, y):
        for c in s.cells:
            if c.is_cone or "*" in c.name:
                raise ValueError("product factors must have plain named cells "
                                 "without '*'")
    names = {}
    ranks = {}
    for a in x.cells:
        for b in y.cells:
            c = CellId.of(f"{a}*{b}")
            names[(a, b)] = c
            ranks[c] = x.rank(a) + y.rank(b)
    cov_x = {a: x.covers(a) for a in x.cells}
    cov_y = {b: y.covers(b) for b in y.cells}
    below = {c: [names[(a2, b)] for a2 in cov_x[a]] + [names[(a, b2)] for b2 in cov_y[b]]
             for (a, b), c in names.items()}
    return Ccc(ranks, below)


_SIMPLEX_SEP = "_"


def from_simplicial(simplices: Iterable[Iterable[str]]) -> Ccc:
    """Build the complex of an abstract simplicial complex, auto-closing
    under subsets.  A simplex on vertex tokens ``a, b, c`` is the cell
    ``a_b_c``; its rank is one less than its vertex count and the order is
    inclusion.
    """
    closed: set[frozenset] = set()
    for s in simplices:
        vs = frozenset(str(v) for v in s)
        if not vs:
            raise ValueError("the empty simplex is not a cell")
        for v in vs:
            if _SIMPLEX_SEP in v:
                raise ValueError(f"vertex token {v!r} contains {_SIMPLEX_SEP!r}")
        for k in range(1, len(vs) + 1):
            closed.update(frozenset(c) for c in combinations(sorted(vs), k))
    ids = {s: CellId.of(_SIMPLEX_SEP.join(sorted(s))) for s in closed}
    ranks = {ids[s]: len(s) - 1 for s in closed}
    below = {ids[s]: [ids[s - {v}] for v in s if len(s) > 1] for s in closed}
    return Ccc(ranks, below)


def simplex_vertices(x: CellId) -> tuple:
    """Vertex tokens of a cell created by :func:`from_simplicial`."""
    from .errors import SimplicialStructureError

    if x.is_cone:
        raise SimplicialStructureError(f"{x} is not a simplicial cell")
    return tuple(x.name.split(_SIMPLEX_SEP))


def euler_characteristic(s: Ccc) -> int:
    return sum((-1) ** s.rank(c) for c in s.cells)
