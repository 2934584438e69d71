"""Finite ranked posets and the cell-complex axioms.

A :class:`Ccc` stores every cell's rank and the order as its Hasse
diagram, the covers and cocovers of each cell by cell index, together with
its faces and cofaces, which are the covers and cocovers when the axioms
hold.  Comparability, closures, stars, meets and chains walk these arrays;
:meth:`Ccc.validate_axioms` alone builds the order as bitsets, for the
length of the call.  Complexes are immutable once built; all operations
are pure queries or return new complexes.  One core builds every complex
from its cells as parallel lists, each naming the positions of the cells
below it: ``Ccc(ranks, relation)`` is its front end for labels, and
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
    its Hasse diagram, the covers of each cell and their inverse, and the
    cells one rank below and above each cell are stored too, all as
    ascending index tuples (``_cover_ix``, ``_cocover_ix``, ``_face_ix``
    and ``_coface_ix``).  Where every cover drops one rank, as when the
    axioms hold, the covers are the faces and one tuple serves as both.
    :meth:`faces` and :meth:`cofaces` put them in labels on each call.
    Use :func:`build_complex`, :func:`from_simplicial`, :func:`product` or
    the subdivision module to construct instances.  The constructor takes
    ``ranks`` and ``relation`` keyed by label; a relation that names a cell
    without a rank raises UnknownCellError, a label that is not a CellId
    FormatError, and a rank that is not an integer in 0..MAX_RANK
    RankOrderError, naming the least (rank, label) out of range.
    """

    __slots__ = ("_cells", "_ranks", "_index", "_face_ix", "_coface_ix",
                 "_cover_ix", "_cocover_ix")

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
        ``ranks[p]`` in canonical order and store the order generated by
        the relation that names the positions ``below[p]`` under each.  A
        graded relation, each named cell one rank down and named once, is
        its own Hasse diagram and names exactly the faces; any other is
        closed first.  Returns the complex and, where ``signs[p]`` signs the
        cells ``below[p]`` names in order, up to its last face, its sign
        rows aligned with ``_face_ix`` (0: none)."""
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
        # cells are sorted by rank, so the cells one rank below a cell of
        # rank r are the indices from bisect_left(r - 1) to bisect_left(r)
        span = {r: (bisect_left(rank_of, r - 1), bisect_left(rank_of, r))
                for r in dict.fromkeys(rank_of)}
        face_ix = tuple(map(tuple, map(sorted, rel)))
        if all(not fs or lo <= fs[0] and fs[-1] < hi and len(set(fs)) == len(fs)
               for fs, (lo, hi) in zip(face_ix, map(span.__getitem__, rank_of))):
            cover_ix = face_ix
        else:
            face_ix, cover_ix = _closed_faces(rel, rank_of, cells)
        coface_ix = _inverse(face_ix)
        self._cells = tuple(cells)
        self._ranks = tuple(rank_of)
        self._index = index
        self._face_ix = face_ix
        self._coface_ix = coface_ix
        if cover_ix == face_ix:  # one tuple for both: see _upward
            self._cover_ix, self._cocover_ix = face_ix, coface_ix
        else:
            self._cover_ix, self._cocover_ix = cover_ix, _inverse(cover_ix)
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
        return self._ranks[-1] if self._ranks else -1

    def __len__(self):
        return len(self._cells)

    def __contains__(self, x: CellId) -> bool:
        return x in self._index

    def __eq__(self, other):
        if not isinstance(other, Ccc):
            return NotImplemented
        return (self._cells == other._cells and self._ranks == other._ranks
                and self._cover_ix == other._cover_ix)

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
        i, j = self._i(x), self._i(y)
        return j in self._reach((i,), self._cover_ix, j)

    def lt(self, y: CellId, x: CellId) -> bool:
        return y != x and self.leq(y, x)

    def faces(self, x: CellId) -> tuple:
        return self._labels(self._face_ix[self._i(x)])

    def cofaces(self, x: CellId) -> tuple:
        return self._labels(self._coface_ix[self._i(x)])

    def covers(self, x: CellId) -> tuple:
        """The cells below ``x`` with no cell strictly between: its faces,
        when the axioms hold."""
        return self._labels(self._cover_ix[self._i(x)])

    def _labels(self, ix) -> tuple:
        return tuple(map(self._cells.__getitem__, ix))

    def maximal_cells(self) -> tuple:
        return tuple(c for c, up in zip(self._cells, self._cocover_ix) if not up)

    def _reach(self, starts, links, stop: int = -1) -> set:
        """The indices reached from ``starts`` along ``links``, the cover or
        cocover arrays, ``starts`` included; the walk ends once it reaches
        the index ``stop``."""
        seen = frontier = set(starts)
        while frontier and stop not in frontier:
            frontier = set().union(*map(links.__getitem__, frontier)).difference(seen)
            seen |= frontier
        return seen

    def _upward(self):
        """The cell indices, each after the indices of its covers: index
        order when the covers are the faces, which sort before their cell."""
        if self._cover_ix is self._face_ix:
            return range(len(self._cells))
        return _topological(self._cover_ix, self._cells)

    # -- order-theoretic operations -------------------------------------

    def closure(self, cells: Iterable[CellId]) -> set:
        """All cells below some member of ``cells`` (the topological closure)."""
        return set(self._labels(self._reach(map(self._i, cells), self._cover_ix)))

    def up_set(self, x: CellId) -> set:
        """All cells above ``x`` (the smallest open set containing it)."""
        return set(self._labels(self._reach((self._i(x),), self._cocover_ix)))

    def meet(self, cells: Iterable[CellId]):
        """Greatest lower bound of a non-empty set, or None if there is none."""
        return self._bound(cells, self._cover_ix, max, "meet")

    def join(self, cells: Iterable[CellId]):
        """Least upper bound of a non-empty set, or None if there is none."""
        return self._bound(cells, self._cocover_ix, min, "join")

    def _bound(self, cells, links, pick, what: str):
        """The cells reached along ``links`` from every one of ``cells``, and
        the cell ``pick`` takes of them if it reaches exactly these, else
        None: the meet along the covers, the join along the cocovers."""
        common = None
        for x in cells:
            reach = self._reach((self._i(x),), links)
            common = reach if common is None else common & reach
        if common is None:
            raise ValueError(f"{what} of an empty collection")
        if not common:
            return None
        k = pick(common)
        return self._cells[k] if self._reach((k,), links) == common else None

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
        up = self._reach((i,), self._cocover_ix)
        star = self._reach(up, self._cover_ix)
        return tuple(sorted(up)), tuple(sorted(star - up))

    def subcomplex(self, cells: Iterable[CellId]) -> "Ccc":
        """The induced complex on a down-closed set of cells."""
        chosen = sorted({self._i(x) for x in cells})
        at = dict(zip(chosen, range(len(chosen))))
        covers = self._cover_ix
        if not all(j in at for i in chosen for j in covers[i]):
            i = next(i for i in chosen if not self._reach((i,), covers).issubset(at))
            raise ValueError("subset is not closed: "
                             f"{self._cells[i]} has faces outside it")
        return _assemble([self._cells[i] for i in chosen], [self._ranks[i] for i in chosen],
                         [[at[j] for j in covers[i]] for i in chosen])[0]

    def skeleton(self, i: int) -> "Ccc":
        if i < 0:
            raise ValueError("skeleton index must be non-negative")
        return self.subcomplex(self._cells[:bisect_right(self._ranks, i)])

    def closure_complex(self, x: CellId) -> "Ccc":
        """The closed subcomplex of a single cell."""
        return self.subcomplex(self.closure([x]))

    # -- classification and duality -------------------------------------

    def classify(self) -> Classification:
        if not self._cells:
            raise EmptyComplexError("classification of the empty complex is undefined")
        n, ups = self.dim, self._cocover_ix
        equi = all(r == n for r, up in zip(self._ranks, ups) if not up)
        # the maximal cells above each cell, counted as far as two
        tops = [set()] * len(ups)
        for i in reversed(self._upward()):
            top = set() if ups[i] else {i}
            for j in ups[i]:
                top |= tops[j]
                if len(top) > 1:
                    break
            tops[i] = top
        boundary = frozenset(c for c, r, top in zip(self._cells, self._ranks, tops)
                             if r < n and len(top) == 1)
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
        return _assemble(self._cells, [cls.dimension - r for r in self._ranks], self._cocover_ix)[0]

    # -- axiom validation ------------------------------------------------

    def validate_axioms(self) -> ValidationReport:
        """Check the four axioms and report every violation found."""
        cells, ranks = self._cells, self._ranks
        below, above = _masks(self._cover_ix, self._upward())  # held for this call only
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
    ups = _ups(s)
    out, level = [], [(i,) for i in range(len(ups))]
    while level:
        out += level
        level = [ch + (j,) for ch in level for j in ups[ch[-1]]]
    return out


def _chain_count(s: Ccc) -> int:
    """The number of :func:`_chains` of ``s``, unlisted: the chains that
    start at a cell number one plus those that start at each cell above it."""
    ups = _ups(s)
    starts = [0] * len(ups)
    for i in sorted(range(len(ups)), key=lambda i: len(ups[i])):  # cells above first
        starts[i] = 1 + sum(map(starts.__getitem__, ups[i]))
    return sum(starts)


def _ups(s: Ccc) -> list:
    """The cells strictly above each cell of ``s``, as ascending index tuples."""
    return [tuple(sorted(s._reach(up, s._cocover_ix))) for up in s._cocover_ix]


def _inverse(links: tuple) -> tuple:
    """The index tuples that list ``i`` under ``j`` wherever ``links[i]``
    lists ``j``, each ascending."""
    out = [[] for _ in links]
    for i, js in enumerate(links):
        for j in js:
            out[j].append(i)
    return tuple(map(tuple, out))


def _topological(rel, cells) -> list:
    """The positions ``0 .. len(rel) - 1``, each after every position that
    ``rel`` names under it; a cycle raises CoverCycleError naming one of
    ``cells`` on it.  A position naming an unfinished one waits (-1) on the
    stack until those are done."""
    n = len(rel)
    state = [0] * n
    done = []
    stack = list(range(n - 1, -1, -1))
    while stack:
        i = stack.pop()
        todo = [j for j in rel[i] if state[j] <= 0]
        if todo:
            if any(state[j] for j in todo):
                raise CoverCycleError(f"the order relation has a cycle through {cells[i]}")
            state[i] = -1
            stack += [i, *todo]
        elif state[i] <= 0:
            state[i] = 1
            done.append(i)
    return done


def _masks(rel, order) -> tuple:
    """The down-set and the up-set of each position under the closure of
    ``rel``, each including the position, as bitsets over the positions;
    ``order`` lists every position after those ``rel`` names under it."""
    below = [0] * len(rel)
    for i in order:
        m = 1 << i
        for j in rel[i]:
            m |= below[j]
        below[i] = m
    above = [1 << i for i in range(len(rel))]
    for i in reversed(order):
        for j in rel[i]:
            above[j] |= above[i]
    return below, above


def _closed_faces(rel, ranks, cells) -> tuple:
    """The faces and the covers of each cell, as ascending index tuples,
    under the closure of a relation that is not graded: the faces are the
    cells one rank down in the down-set, and the covers the cells strictly
    below it and strictly below no cell that ``rel`` names under it."""
    below = _masks(rel, _topological(rel, cells))[0]
    # cells are sorted by rank, so each rank's cells form one index range
    of_rank = {r: (1 << bisect_right(ranks, r)) - (1 << bisect_left(ranks, r))
               for r in dict.fromkeys(ranks)}
    faces, covers = [], []
    for i, (m, names) in enumerate(zip(below, rel)):
        faces.append(tuple(_bits(m & of_rank.get(ranks[i] - 1, 0))))
        under = 0
        for j in names:
            under |= below[j] ^ (1 << j)
        covers.append(tuple(_bits((m ^ (1 << i)) & ~under)))
    return tuple(faces), tuple(covers)


# -- constructors --------------------------------------------------------

MAX_CELLS = 100_000  # the most cells a fixture, product, subdivision or file may have
MAX_RANK = 10 ** 7  # the highest rank a cell may have; a chain complex takes MAX_CELLS


def _int_rank(c, r) -> int:
    """The rank ``r`` of the cell labelled ``c`` as an int.  Raises
    FormatError for a label that is not a CellId and RankOrderError for a
    rank ``r`` with ``int(r) != r``."""
    if not isinstance(c, CellId):
        raise FormatError(f"cell label {c!r} is not a CellId")
    k = _as_int(r)
    if k is None:
        raise RankOrderError(f"cell {c} has rank {r!r}, not an integer")
    return k


def _as_int(v) -> int | None:
    """``int(v)`` when that equals ``v``; None when it differs or fails."""
    try:
        k = int(v)
    except (TypeError, ValueError, OverflowError):
        return None
    return k if k == v else None


def _rank_out_of_range(c, r: int) -> RankOrderError:
    if r < 0:
        return RankOrderError(f"cell {c} has negative rank {r}")
    return RankOrderError(f"cell {c} has rank {r}, more than {MAX_RANK}")


def _climb_failure(lo, hi, r_lo: int, r_hi: int) -> str:
    """The message for a cover ``(lo, hi)`` that does not raise rank."""
    return f"cover ({lo}, {hi}) has rank {r_lo} >= {r_hi}"


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
            raise RankOrderError(_climb_failure(lo, hi, ranks[i], ranks[j]))
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
    cx, cy = x._cover_ix, y._cover_ix
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
