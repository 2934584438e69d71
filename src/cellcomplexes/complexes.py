"""Finite ranked posets and the cell-complex axioms.

A :class:`Ccc` stores every cell's rank together with the full order
relation, one bitset row per cell, so comparability, closures, meets and
interval queries are cheap, and its faces and cofaces by cell index.
Complexes are immutable once built; all operations are pure queries or
return new complexes.  One core builds every complex from its cells as
parallel lists, each naming the positions of the cells below it:
``Ccc(ranks, relation)`` is its front end for labels, and
:func:`build_complex` (so every file) and the derived complexes (products,
simplicial complexes, subcomplexes, duals and subdivisions) go through
:func:`_assemble` by position.

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
from itertools import combinations, repeat
from typing import Iterable, Mapping

from .cells import CellId
from .errors import (
    CccError,
    CoverCycleError,
    DuplicateCellError,
    EmptyComplexError,
    FormatError,
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
    one integer bitmask per cell over the canonical order, and the cells
    one rank below and above each cell once, as ascending index tuples
    (``_face_ix`` and ``_coface_ix``); :meth:`faces` and :meth:`cofaces`
    put them in labels on each call.  Use :func:`build_complex`,
    :func:`from_simplicial`, :func:`product` or the subdivision module to
    construct instances.  The constructor takes ``ranks`` and
    ``relation`` keyed by label; a relation that names a cell without a
    rank raises UnknownCellError, a label that is not a CellId
    FormatError, and a rank that is not an integer in 0..MAX_RANK
    RankOrderError, naming the least (rank, label) out of range.
    """

    __slots__ = ("_cells", "_ranks", "_index", "_below", "_above",
                 "_face_ix", "_coface_ix", "_dim")

    def __init__(self, ranks: Mapping[CellId, int], relation: Mapping[CellId, Iterable[CellId]]):
        labels = list(ranks)  # _setup sorts them
        rank_of = [_int_rank(c, r) for c, r in ranks.items()]
        bad = [(r, c) for c, r in zip(labels, rank_of) if not 0 <= r <= MAX_RANK]
        if bad:
            r, c = min(bad)
            raise _rank_out_of_range(c, r)
        at = dict(zip(labels, range(len(labels))))
        below = [()] * len(labels)
        try:
            for c, ds in relation.items():
                below[at[c]] = [at[d] for d in ds]
        except KeyError as e:
            raise UnknownCellError(f"the relation names the unknown cell {e.args[0]}") from None
        self._setup(labels, rank_of, below)

    def _setup(self, labels: list, ranks: list, below: list, signs=None):
        """The construction core: number the cells ``labels[p]`` of rank
        ``ranks[p]`` in canonical order and close the relation that names
        the positions ``below[p]`` under each.  Returns the complex and,
        where ``signs[p]`` signs the cells ``below[p]`` names in order, up
        to its last face, its sign rows aligned with ``_face_ix`` (0: none)."""
        n = len(labels)
        order = sorted(range(n), key=list(zip(ranks, labels)).__getitem__)
        cells, rank_of, rel = labels, ranks, below
        if order != list(range(n)):  # renumber: new[p] is the index of position p
            new = sorted(range(n), key=order.__getitem__)
            cells, rank_of = [labels[p] for p in order], [ranks[p] for p in order]
            rel = [tuple(map(new.__getitem__, below[p])) for p in order]
        index = dict(zip(cells, range(n)))
        if len(index) != n:
            twice = next(c for i, c in enumerate(cells) if index[c] != i)
            raise CccError(f"labels collide: {twice} names two cells")
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
        face_ix = []
        cofaces = [[] for _ in range(n)]  # filled by inverting the face lists
        for i in range(n):
            fs = tuple(_bits(below[i] & rank_masks.get(rank_of[i] - 1, 0)))
            face_ix.append(fs)
            for j in fs:
                cofaces[j].append(i)
        self._cells = tuple(cells)
        self._ranks = tuple(rank_of)
        self._index = index
        self._below = below
        self._above = above
        self._face_ix = tuple(face_ix)
        self._coface_ix = tuple(map(tuple, cofaces))
        self._dim = max(self._ranks) if cells else -1
        zero = repeat(0)
        return self, None if signs is None else [
            signs[p] if rs == fs else tuple(map(dict(zip(rs, signs[p])).get, fs, zero))
            for p, fs, rs in zip(order, face_ix, rel)]

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
        counts = ",".join(str(len(self._rank_range(r))) for r in dict.fromkeys(self._ranks))
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
        return self._labels(self._face_ix[self._i(x)])

    def cofaces(self, x: CellId) -> tuple:
        return self._labels(self._coface_ix[self._i(x)])

    def covers(self, x: CellId) -> tuple:
        """The cells below ``x`` with no cell strictly between: its faces,
        when the axioms hold."""
        return self._labels(self._covers(self._i(x)))

    def _labels(self, ix) -> tuple:
        return tuple(map(self._cells.__getitem__, ix))

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
        up, rest = self._star(self._i(x))
        return self.subcomplex(self._labels(up + rest))

    def open_star(self, x: CellId) -> set:
        """Cells of the star not above ``x``; the base the subdivision cones over."""
        return set(self._labels(self._star(self._i(x))[1]))

    def _star(self, i: int) -> tuple:
        """The up-set of the cell at index ``i`` and the rest of its star, the
        cells below the up-set but not in it, as ascending index tuples."""
        up, star = self._above[i], 0
        for z in _bits(up):
            star |= self._below[z]
        return tuple(_bits(up)), tuple(_bits(star & ~up))

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
        at = dict(zip(chosen, range(len(chosen))))
        return _assemble([self._cells[i] for i in chosen], [self._ranks[i] for i in chosen],
                         [[at[j] for j in _bits(self._below[i] ^ (1 << i))] for i in chosen])[0]

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
        nonsingular = (equi
                       and all(len(self._coface_ix[i]) <= 2 for i in self._rank_range(n - 1))
                       and all(len(self._face_ix[i]) == 2 for i in self._rank_range(1)))
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
        return _assemble(self._cells, [self._dim - r for r in self._ranks],
                         [list(_bits(m ^ (1 << i))) for i, m in enumerate(self._above)])[0]

    # -- axiom validation ------------------------------------------------

    def validate_axioms(self) -> ValidationReport:
        """Check the four axioms and report every violation found."""
        cells, ranks = self._cells, self._ranks
        below, above = self._below, self._above
        n = len(cells)
        out = []
        # the cells of each rank present form one index range, so one mask
        spans = {r: self._rank_range(r) for r in dict.fromkeys(ranks)}
        of_rank = {r: (1 << span.stop) - (1 << span.start) for r, span in spans.items()}

        for i in range(n):  # -(1 << k) masks the cells from index k on
            bad = below[i] & ~(1 << i) & -(1 << spans[ranks[i]].start)
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
                step = above[j] & below[i] & of_rank.get(ranks[j] + 1, 0)
                if not step:
                    out.append(AxiomViolation(
                        "2b", (cells[j], cells[i]),
                        f"no cell of rank {ranks[j] + 1} lies between "
                        f"{cells[j]} and {cells[i]}"))

        for i in range(n):
            if ranks[i] == 0:
                continue
            fm = below[i] & of_rank.get(ranks[i] - 1, 0)
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
            for j in _bits(below[i] & of_rank.get(r - 2, 0)):
                between = above[j] & below[i] & of_rank.get(r - 1, 0)
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


def _chains(s: Ccc) -> list:
    """Every non-empty ascending chain of cells of ``s``, as a tuple of
    indices into ``s.cells``; shorter chains come first."""
    ups = [tuple(_bits(m ^ (1 << i))) for i, m in enumerate(s._above)]
    out, level = [], [(i,) for i in range(len(ups))]
    while level:
        out += level
        level = [ch + (j,) for ch in level for j in ups[ch[-1]]]
    return out


def _chain_count(s: Ccc) -> int:
    """The number of :func:`_chains` of ``s``, unlisted: the chains that end
    in a cell number one plus those that end in each cell below it."""
    below = s._below
    ends = [0] * len(below)
    for i in sorted(range(len(below)), key=lambda i: below[i].bit_count()):
        ends[i] = 1 + sum(map(ends.__getitem__, _bits(below[i] ^ (1 << i))))
    return sum(ends)


# -- constructors --------------------------------------------------------

MAX_CELLS = 100_000  # the most cells a fixture, product, subdivision or file may have
MAX_RANK = 10 ** 7  # the highest rank a cell may have: homology lists each degree up to it


def _int_rank(c, r) -> int:
    """The rank ``r`` of the cell labelled ``c`` as an int.  Raises
    FormatError for a label that is not a CellId and RankOrderError for a
    rank ``r`` with ``int(r) != r``."""
    if not isinstance(c, CellId):
        raise FormatError(f"cell label {c!r} is not a CellId")
    try:
        k = int(r)
    except (TypeError, ValueError, OverflowError):
        k = None
    if k is None or k != r:
        raise RankOrderError(f"cell {c} has rank {r!r}, not an integer")
    return k


def _rank_out_of_range(c, r: int) -> RankOrderError:
    if r < 0:
        return RankOrderError(f"cell {c} has negative rank {r}")
    return RankOrderError(f"cell {c} has rank {r}, more than {MAX_RANK}")


def _assemble(labels: list, ranks: list, below: list, signs=None):
    """The complex :meth:`Ccc._setup` builds, and its sign rows."""
    return Ccc.__new__(Ccc)._setup(labels, ranks, below, signs)


def build_complex(cell_ranks: Iterable[tuple], covers: Iterable[tuple]) -> Ccc:
    """Assemble a complex from (cell, rank) pairs and covering pairs.

    The order is the closure of the relation given, here ``covers``.  The
    cells are numbered as they come, each cover is read by position, and
    :func:`_assemble` sorts them once.  The result is returned even if the
    axioms fail; run ``validate_axioms`` separately.  Labels and ranks are
    refused as by :class:`Ccc`, at the first bad cell.
    """
    at: dict[CellId, int] = {}  # label -> position
    labels, ranks = [], []
    for c, r in cell_ranks:
        r = _int_rank(c, r)
        if c in at:
            raise DuplicateCellError(f"cell {c} declared twice")
        if not 0 <= r <= MAX_RANK:
            raise _rank_out_of_range(c, r)
        at[c] = len(labels)
        labels.append(c)
        ranks.append(r)
    below = [[] for _ in labels]
    for lo, hi in covers:
        i, j = at.get(lo), at.get(hi)
        if i is None:
            raise UnknownCellError(f"cover references unknown cell {lo}")
        if j is None:
            raise UnknownCellError(f"cover references unknown cell {hi}")
        if i == j:
            raise CoverCycleError(f"cover ({lo}, {hi}) is a cycle")
        if ranks[i] >= ranks[j]:
            raise RankOrderError(f"cover ({lo}, {hi}) has rank {ranks[i]} >= {ranks[j]}")
        below[j].append(i)
    return _assemble(labels, ranks, below)[0]


def product(x: Ccc, y: Ccc) -> Ccc:
    """Cartesian product: pair cells, compare componentwise, add ranks.

    Cell labels must be plain named cells on both sides; the pair
    ``(a, b)`` is labelled ``a*b``.
    """
    if len(x) * len(y) > MAX_CELLS:
        raise ValueError(f"the product has {len(x)} * {len(y)} = {len(x) * len(y)} cells, "
                         f"more than {MAX_CELLS}")
    for s in (x, y):
        for c in s.cells:
            if c.is_cone or "*" in c.name:
                raise ValueError("product factors must have plain named cells "
                                 "without '*'")
    m = len(y)  # the pair of the cells at i in x and j in y sits at i * m + j
    cx = list(map(x._covers, range(len(x))))
    cy = list(map(y._covers, range(m)))
    return _assemble([CellId.of(f"{a}*{b}") for a in x.cells for b in y.cells],
                     [r + q for r in x._ranks for q in y._ranks],
                     [[k * m + j for k in cx[i]] + [i * m + k for k in cy[j]]
                      for i in range(len(x)) for j in range(m)])[0]


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
    at = dict(zip(closed, range(len(closed))))  # a set unchanged iterates in one order
    return _assemble([CellId.of(_SIMPLEX_SEP.join(sorted(s))) for s in closed],
                     [len(s) - 1 for s in closed],
                     [[at[s - {v}] for v in s if len(s) > 1] for s in closed])[0]


def simplex_vertices(x: CellId) -> tuple:
    """Vertex tokens of a cell created by :func:`from_simplicial`."""
    from .errors import SimplicialStructureError

    if x.is_cone:
        raise SimplicialStructureError(f"{x} is not a simplicial cell")
    return tuple(x.name.split(_SIMPLEX_SEP))


def euler_characteristic(s: Ccc) -> int:
    return sum((-1) ** s.rank(c) for c in s.cells)
