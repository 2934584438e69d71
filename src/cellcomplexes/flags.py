"""Flags, flag graphs, orientability, and incidence signs.

A flag below a cell ``x`` is a maximal descending chain of cells in the
closure of ``x``, one cell per rank, represented as a tuple starting at
``x``.  Flags of an equidimensional complex are the flags below its top
cells.  Two flags are adjacent when they differ in exactly one entry; an
orientation is a 2-coloring of a connected flag graph with adjacent flags
opposite, so it exists exactly when the graph is connected and bipartite.

For an oriented cell ``x`` and an oriented face ``y`` the incidence sign
``s(x, y)`` compares the color of any flag through both against the color
of its truncation; connectivity of the face's flag graph makes the value
independent of the chosen flag.  These signs are the entries of the
boundary matrices built in :mod:`cellcomplexes.chains`.

Conversely the color of a flag is the product of the signs along it
times the sign of its vertex, so a :class:`SignTable` stores only signs
and derives colorings, as does an orientation of the complex from a
table plus one sign per top cell.  Simplex-like cells take the removal
rule: dropping the i-th largest member carries sign (-1)^i.

Canonical orientations are computed without listing flags.  Once the
faces of ``x`` are oriented, the flags below ``x`` fall into one block
per face, and two blocks touch exactly across the diamonds
``x > y, y' > z``, where adjacent flags are opposite when
``s(x, y) s(y, z) = -s(x, y') s(y', z)`` (axiom 4; a vertex lies over the
empty cell, with its vertex sign).  Setting ``s(x, faces(x)[0]) = +1``,
which colors the least flag +1, a walk along these links signs every
face of ``x`` rank by rank in O(#diamonds): the diamond rule.  In the
same way the flags of the whole complex fall into one block per top
cell, and two top cells ``x1, x2`` sharing a face ``y`` need
``e(x1) s(x1, y) = -e(x2) s(x2, y)``; walking these links from the least
top cell with ``e = +1`` orients the complex: the top-cell rule.  With
oriented faces, a flag graph is connected and bipartite exactly when its
links are consistent and reach every block, so the diamond rule first
fails at the first cell whose closure is not orientable or not
flag-connected.  Where a rule fails, or the complex is not
equidimensional, that one flag graph is 2-colored as the definition
says, so every error carries the odd flag cycle, component count and
cell that the flag coloring finds.

That coloring lists no flag up front.  It walks the graph breadth first
from the least flag, over tuples of cell indices, and reads each flag's
neighbours off the face and coface indices that ``Ccc`` keeps when the
flag is reached: in a diamond-shaped poset the flags that differ at
position i are fixed by the cells at i - 1 and i + 1.  It stops at the
first conflict, so the certificate is the definition's.

Signs live by cell index: a :class:`SignTable` keeps one tuple per cell,
aligned with that cell's face indices (``Ccc._face_ix``), and the two
rules walk those indices, so they hash no label.  Labels appear at the
edges only: ``SignTable.signs`` is a mutable view keyed by ``(x, y)``
label pairs, built when it is read, and ``s``, ``color`` and the
orientations look cells up by label.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping, MutableMapping
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from .cells import CellId
from .complexes import Ccc, simplex_vertices
from .errors import (
    CccError,
    MissingSignError,
    NotEquidimensionalError,
    NotOrientableError,
    SimplicialStructureError,
)

Flag = tuple  # of CellId, strictly descending by one rank per step


def _walk(tops, faces: Callable):
    """The chains that start at a cell of ``tops`` and step to a face, one
    rank down, until they end at a cell without faces: depth first, smaller
    faces first, so in lexicographic order when ``tops`` is sorted."""
    stack = [(t,) for t in reversed(tops)]
    while stack:
        chain = stack.pop()
        fs = faces(chain[-1])
        if fs:
            stack += [chain + (y,) for y in reversed(fs)]
        else:
            yield chain


def _require_faces(s: Ccc, tops):
    """Raises for a cell of positive rank without faces below the cell
    indices ``tops``: the first one met depth first with the larger faces
    first."""
    faces, ranks = s._face_ix, s._ranks
    seen = set()
    stack = list(reversed(tops))
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        fs = faces[i]
        if not fs and ranks[i]:
            raise CccError(f"cell {s.cells[i]} of positive rank has no faces")
        stack += fs


def flags_of(s: Ccc, x: CellId) -> list:
    """All flags below ``x`` in lexicographic order, each of length
    ``rank(x) + 1``."""
    return [tuple(map(s.cells.__getitem__, f)) for f in _index_flags(s, s._i(x))]


def _index_flags(s: Ccc, i: int) -> list:
    """The flags below the cell at index ``i``, as cell indices, in order."""
    n = s._ranks[i] + 1
    out = list(_walk((i,), s._face_ix.__getitem__))
    if sum(map(len, out)) != n * len(out):  # a chain ends above rank 0
        _require_faces(s, (i,))  # raises, naming a cell without faces
    return out


def _equidimensional(s: Ccc) -> bool:
    return all(s.rank(c) == s.dim for c in s.maximal_cells())


def all_flags(s: Ccc) -> list:
    return list(flag_graph(s).flags)


class FlagGraph:
    """The flags below some cells of one rank, and their adjacency.

    Flags are walked as tuples of cell indices; at one rank, index order
    is the cells' order, so index tuples sort as the flags do.  A flag's
    neighbours are read off the face indices when it is reached: its cell
    at position i may be replaced by another face of the cell at i - 1 (by
    another top cell among the cofaces of the cell at 1, when i = 0) that
    has the cell at i + 1, if any, as a face.
    ``flags`` and ``neighbors`` list the whole graph in cells when first
    read.
    """

    def __init__(self, s: Ccc, tops: Iterable[CellId]):
        self._labels = s._labels
        self._tops = tuple(s._i(t) for t in tops)
        _require_faces(s, self._tops)
        self._faces, self._cofaces = s._face_ix, s._coface_ix
        self._is_top = frozenset(self._tops)
        self._between: dict = {}  # (x, z) -> the cells y with x > y > z, on first use

    def _index_flags(self):
        """Every flag, as cell indices, in order."""
        return _walk(self._tops, self._faces.__getitem__)

    def _adjacent(self, f: tuple) -> list:
        """The flags adjacent to ``f``, as cell indices, in order."""
        if len(f) == 1:
            return [(t,) for t in self._tops if t != f[0]]
        faces, between, last = self._faces, self._between, len(f) - 1
        out = [(z,) + f[1:] for z in self._cofaces[f[1]] if z != f[0] and z in self._is_top]
        for i in range(1, last):
            key = (f[i - 1], f[i + 1])
            zs = between.get(key)
            if zs is None:
                zs = between[key] = tuple(z for z in faces[key[0]] if key[1] in faces[z])
            for z in zs:
                if z != f[i]:
                    out.append(f[:i] + (z,) + f[i + 1:])
        out += [f[:last] + (z,) for z in faces[f[last - 1]] if z != f[last]]
        out.sort()
        return out

    @cached_property
    def flags(self) -> tuple:
        return tuple(map(self._labels, self._index_flags()))

    @cached_property
    def neighbors(self) -> dict:  # Flag -> tuple of adjacent flags
        return {self._labels(f): tuple(map(self._labels, self._adjacent(f)))
                for f in self._index_flags()}

    @property
    def edge_count(self) -> int:
        return sum(len(v) for v in self.neighbors.values()) // 2


def flag_graph(s: Ccc) -> FlagGraph:
    """Adjacency graph over all flags of an equidimensional complex."""
    if not _equidimensional(s):
        raise NotEquidimensionalError(
            "flags of the whole complex need all maximal cells at top rank")
    return FlagGraph(s, s.cells_of_rank(s.dim))


def _closure_flag_graph(s: Ccc, x: CellId) -> FlagGraph:
    return FlagGraph(s, (x,))


def _two_color(graph: FlagGraph):
    """2-color the graph breadth first from each uncolored flag in order.
    Returns (colors, odd_cycle, component_count); colors is None when an
    odd cycle exists.  Flags are reached one at a time, as cell indices,
    and only the result is put in cells."""
    colors: dict = {}
    parent: dict = {}
    components = 0
    adjacent = graph._adjacent
    for root in graph._index_flags():
        if root in colors:
            continue
        components += 1
        colors[root] = 1
        parent[root] = None
        queue = deque([root])
        while queue:
            u = queue.popleft()
            cu = colors[u]
            for v in adjacent(u):
                cv = colors.get(v)
                if cv is None:
                    colors[v] = -cu
                    parent[v] = u
                    queue.append(v)
                elif cv == cu:
                    cycle = _odd_cycle(u, v, parent)
                    return None, list(map(graph._labels, cycle)), components
    return {graph._labels(f): c for f, c in colors.items()}, None, components


def _odd_cycle(u, v, parent):
    """The odd cycle through the same-colored neighbours ``u`` and ``v``.
    Colors alternate with breadth-first depth, so the two lie at equal
    depth, and their tree paths meet after equally many steps."""
    left, right = u, v
    lpath, rpath = [left], [right]
    while left != right:
        left, right = parent[left], parent[right]
        lpath.append(left)
        rpath.append(right)
    # lpath ends at the common ancestor; walk u..ancestor then back down to v
    cycle = lpath + rpath[-2::-1]
    assert len(cycle) % 2 == 1
    return cycle


def _component_count(graph: FlagGraph) -> int:
    """The number of connected components, over every flag."""
    seen: set = set()
    components = 0
    for root in graph._index_flags():
        if root in seen:
            continue
        components += 1
        seen.add(root)
        todo = [root]
        while todo:
            for v in graph._adjacent(todo.pop()):
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
    return components


def is_flag_connected(s: Ccc) -> bool:
    return _rule_orientation(s) is not None or _component_count(flag_graph(s)) == 1


def odd_flag_cycle(s: Ccc):
    """A closed odd walk in the flag graph, or None if the graph is bipartite."""
    if _rule_orientation(s) is not None:
        return None
    _, cycle, _ = _two_color(flag_graph(s))
    return cycle


def is_orientable(s: Ccc) -> bool:
    if _rule_orientation(s) is not None:
        return True
    colors, cycle, components = _two_color(flag_graph(s))
    return cycle is None and components == 1


@dataclass(frozen=True)
class Orientation:
    """A coloring of flags with adjacent flags opposite; ``colors`` is a
    dict when a flag graph was 2-colored, else derived on lookup."""

    colors: Mapping  # Flag -> +1 / -1

    def sign(self, flag: Flag) -> int:
        return self.colors[flag]


def _color_or_raise(graph: FlagGraph, what: str, cell=None) -> Orientation:
    """The coloring rooted at the least flag, so that flag is colored +1."""
    colors, cycle, components = _two_color(graph)
    if cycle is not None:
        raise NotOrientableError(f"{what}: flag graph is not bipartite",
                                 odd_cycle=cycle, cell=cell)
    if components != 1:
        raise NotOrientableError(f"{what}: flag graph is disconnected "
                                 f"({components} components)",
                                 components=components, cell=cell)
    return Orientation(colors)


def orient(s: Ccc) -> Orientation:
    """Canonical orientation: the least flag is colored +1.

    The top cells are signed by the top-cell rule, and a flag's color is
    derived on lookup: its top cell's sign times the canonical signs along
    it.  When the rule fails the flag graph is 2-colored, and the
    NotOrientableError carries an odd-cycle certificate or a component
    count.
    """
    omega = _rule_orientation(s)
    if omega is not None:
        return omega
    graph = flag_graph(s)
    if not graph._tops:
        raise NotOrientableError("complex has no flags")
    return _color_or_raise(graph, "complex")


def _rule_orientation(s: Ccc):
    """The orientation the diamond and top-cell rules give, or None where
    either fails.  Where it is given, the flag graph is connected and
    bipartite, so no predicate on it needs to list flags."""
    rows, bad = _diamond_signs(s, range(len(s)))
    if bad is None and _equidimensional(s):
        eps = _link_signs({x: _down(s, rows, x) for x in s._rank_range(s.dim)})
        if eps is not None:
            tops = {s.cells[x]: e for x, e in eps.items()}
            return Orientation(_FlagColors(SignTable._of(s, rows), tops))
    return None


def orient_cell(s: Ccc, x: CellId) -> Orientation:
    return _color_or_raise(_closure_flag_graph(s, x), f"cell {x}", cell=x)


class SignTable:
    """Incidence signs plus one sign per vertex (default +1); orientations
    are derived from them.

    The signs live in one tuple per cell, aligned with the cell's face
    indices (``complex._face_ix``), with 0 where the table has no sign.
    ``signs`` is a mutable view of them keyed by ``(x, y)`` label pairs,
    built when it is read and iterated in canonical order (by cell, then
    by face); a write through it changes the table.  ``vertex_signs`` is a
    dict keyed by label.  A sign other than +1 or -1, or a pair that is
    not an incidence of the complex, raises ValueError naming the pair,
    and so does a vertex sign other than +1 or -1, or one keyed by a cell
    that is not a vertex of the complex, naming the cell; a missing pair
    raises MissingSignError where a sign is read.
    """

    __slots__ = ("complex", "_rows", "vertex_signs", "_flag_counts")

    def __init__(self, complex: Ccc, signs: Mapping,
                 vertex_signs: Mapping | None = None):
        rows = [[0] * len(fs) for fs in complex._face_ix]
        for pair, v in signs.items():
            i, k = _locate(complex, pair)
            rows[i][k] = _unit(pair, v)
        units = {}
        for v, e in (vertex_signs or {}).items():
            if v not in complex or complex.rank(v):
                raise ValueError(f"{v} is not a vertex of the complex")
            if e != 1 and e != -1:
                raise ValueError(f"the sign of the vertex {v} is {e!r}, not +1 or -1")
            units[v] = int(e)
        self._fill(complex, list(map(tuple, rows)), units)

    @classmethod
    def _of(cls, complex: Ccc, rows: list, vertex_signs: Mapping | None = None):
        """The table of ``rows``, one tuple of signs per cell aligned with
        its face indices, taken as they are."""
        table = cls.__new__(cls)
        table._fill(complex, rows, vertex_signs)
        return table

    def _fill(self, complex, rows, vertex_signs):
        self.complex = complex
        self._rows = rows
        vertices = complex.cells_of_rank(0)
        self.vertex_signs = ({v: vertex_signs.get(v, 1) for v in vertices} if vertex_signs
                             else dict.fromkeys(vertices, 1))
        self._flag_counts = None

    @property
    def signs(self) -> MutableMapping:
        """``(x, y) -> s(x, y)`` over the pairs that have a sign."""
        return _Signs(self)

    def _sign(self, x: CellId, y: CellId) -> int:
        """``s(x, y)``, or 0 where the table has no sign for the pair."""
        at = _position(self.complex, x, y)
        return self._rows[at[0]][at[1]] if at else 0

    def s(self, x: CellId, y: CellId) -> int:
        v = self._sign(x, y)
        if not v:
            raise MissingSignError(f"no sign for the pair ({x}, {y})")
        return v

    def _rows_on(self, s: Ccc) -> list:
        """The signs of the faces of every cell of ``s``, aligned with
        ``s._face_ix``; 0 where the table has none.  The table's own rows
        when ``s`` is its complex."""
        if s is self.complex:
            return self._rows
        cells = s.cells
        return [tuple(self._sign(x, cells[y]) for y in fs) for x, fs in zip(cells, s._face_ix)]

    def color(self, flag: Flag) -> int:
        """The signs along the flag times the sign of its vertex."""
        c = self.vertex_signs[flag[-1]]
        for x, y in zip(flag, flag[1:]):
            c *= self.s(x, y)
        return c

    def orientation(self, x: CellId) -> Orientation:
        """The orientation of ``x``; each flag's color is derived on lookup."""
        return Orientation(_FlagColors(self, {x: 1}))

    def _flag_count(self, x: CellId) -> int:
        """The number of flags below ``x``: the sum over its faces, 1 for a
        vertex.  Counted for every cell on first use."""
        s = self.complex
        if self._flag_counts is None:
            counts = []
            for fs, r in zip(s._face_ix, s._ranks):  # faces come first
                counts.append(sum(map(counts.__getitem__, fs)) if r else 1)
            self._flag_counts = counts
        return self._flag_counts[s._index[x]]

    @property
    def orientations(self) -> dict:
        """Every cell's orientation, by cell: :meth:`orientation` of each."""
        return {x: self.orientation(x) for x in self.complex.cells}

    def flipped(self, cells: Iterable[CellId]) -> "SignTable":
        """Reverse the orientation of the given cells; signs follow suit.
        A cell that is not in the complex raises UnknownCellError."""
        s = self.complex
        t = [1] * len(s)
        for c in cells:
            t[s._i(c)] = -1
        rows = [tuple(v * e * t[j] for j, v in zip(fs, row))
                for e, fs, row in zip(t, s._face_ix, self._rows)]
        vertex_signs = {v: e * t[s._index[v]] for v, e in self.vertex_signs.items()}
        return SignTable._of(s, rows, vertex_signs)

    def restrict(self, sub: Ccc) -> "SignTable":
        """The table induced on a closed subcomplex."""
        rows = list(self._rows_on(sub))
        _require_signs(sub, rows)
        return SignTable._of(sub, rows, self.vertex_signs)


def _position(s: Ccc, x, y):
    """``(i, k)`` when ``x`` is the cell at index ``i`` of ``s`` and ``y``
    its k-th face, else None."""
    i, j = s._index.get(x), s._index.get(y)
    if i is None or j is None or j not in s._face_ix[i]:
        return None
    return i, s._face_ix[i].index(j)


def _locate(s: Ccc, pair) -> tuple:
    """:func:`_position` of ``pair``; ValueError when it is not an
    incidence pair of ``s``."""
    try:
        if isinstance(pair, CellId):  # a label is a tuple, but not a pair
            raise TypeError
        x, y = pair
    except (TypeError, ValueError):
        raise ValueError(f"{pair!r} is not a pair of cells") from None
    at = _position(s, x, y)
    if at is None:
        raise ValueError(f"({x}, {y}) is not an incidence pair of the complex")
    return at


def _unit(pair, v) -> int:
    if v != 1 and v != -1:
        x, y = pair
        raise ValueError(f"the sign of ({x}, {y}) is {v!r}, not +1 or -1")
    return int(v)


def _require_signs(s: Ccc, rows: list, cells=None):
    """Raises MissingSignError for the first incidence pair of ``s``
    without a sign in ``rows``, among the faces of the cells at the
    indices ``cells`` (default: every cell)."""
    for i in range(len(rows)) if cells is None else cells:
        row = rows[i]
        if 0 in row:
            y = s.cells[s._face_ix[i][row.index(0)]]
            raise MissingSignError(f"no sign for the pair ({s.cells[i]}, {y})")


class _Signs(MutableMapping):
    """A table's signs keyed by ``(x, y)`` label pairs, in canonical order:
    by cell, then by face.  Reads and writes go to the table's rows."""

    __slots__ = ("_table",)

    def __init__(self, table: SignTable):
        self._table = table

    def _find(self, pair) -> tuple:
        try:
            i, k = _locate(self._table.complex, pair)
        except ValueError:
            raise KeyError(pair) from None
        if not self._table._rows[i][k]:
            raise KeyError(pair)
        return i, k

    def __getitem__(self, pair) -> int:
        i, k = self._find(pair)
        return self._table._rows[i][k]

    def _put(self, i: int, k: int, v: int):
        rows = self._table._rows
        rows[i] = rows[i][:k] + (v,) + rows[i][k + 1:]

    def __setitem__(self, pair, v):
        self._put(*_locate(self._table.complex, pair), _unit(pair, v))

    def __delitem__(self, pair):
        self._put(*self._find(pair), 0)

    def __iter__(self):
        s = self._table.complex
        cells = s.cells
        for x, fs, row in zip(cells, s._face_ix, self._table._rows):
            for y, v in zip(fs, row):
                if v:
                    yield x, cells[y]

    def __len__(self):
        return sum(len(row) - row.count(0) for row in self._table._rows)


class _FlagColors(Mapping):
    """Read-only view of the colors of the flags below some cells, each
    derived on lookup: a flag below ``x`` takes ``tops[x]`` times the
    table's color."""

    def __init__(self, table: SignTable, tops: Mapping):
        self._table = table
        self._tops = tops  # cell -> its sign

    def __getitem__(self, flag) -> int:
        s = self._table.complex
        e = self._tops.get(flag[0]) if type(flag) is tuple and flag else None
        if (e is None or len(flag) != s.rank(flag[0]) + 1 or not all(
                b in map(s.cells.__getitem__, s._face_ix[s._index[a]])
                for a, b in zip(flag, flag[1:]))):
            raise KeyError(flag)
        return e * self._table.color(flag)

    def __iter__(self):
        for x in self._tops:
            yield from flags_of(self._table.complex, x)

    def __len__(self):
        return sum(self._table._flag_count(x) for x in self._tops)


def _derive_signs(s: Ccc, orientations: Mapping) -> dict:
    """The signs of the faces of each oriented cell (cell index -> its
    orientation), one tuple per cell aligned with its face indices.  Each
    is read at the flag that continues with the face's least flag, which
    its canonical orientation colors +1."""
    cells, faces = s.cells, s._face_ix
    least = {}  # face index -> its least flag, in labels: the first one walked
    for x in orientations:
        for y in faces[x]:
            if y not in least:
                least[y] = tuple(map(cells.__getitem__, next(_walk((y,), faces.__getitem__))))
    return {x: tuple(o.sign((cells[x],) + least[y]) for y in faces[x])
            for x, o in orientations.items()}


# a vertex lies over the empty cell, index -1, with its vertex sign +1
_OVER_EMPTY = ((-1, 1),)


def _down(s: Ccc, rows: list, x: int) -> tuple:
    """The faces of the cell at index ``x``, each with its sign in ``rows``."""
    if not s._ranks[x]:
        return _OVER_EMPTY
    return tuple(zip(s._face_ix[x], rows[x]))


def _link_signs(down: Mapping):
    """Signs ``e`` on the cells ``down`` lists (cell -> its faces with
    their signs), +1 on the first, such that ``e(a) s(a, z) = -e(b) s(b, z)``
    whenever ``a`` and ``b`` share a face ``z``.  None when the links
    conflict or do not reach every cell.  Cells and faces are indices."""
    above: dict = {}
    for a, zs in down.items():
        for z, v in zs:
            above.setdefault(z, []).append((a, v))
    root = next(iter(down), None)
    if root is None:
        return None
    e = {root: 1}
    todo = [root]
    while todo:
        a = todo.pop()
        ea = e[a]
        for z, v in down[a]:
            want = -ea * v
            for b, w in above[z]:
                if b == a:
                    continue
                eb = e.get(b)
                if eb is None:
                    e[b] = want * w
                    todo.append(b)
                elif eb != want * w:
                    return None
    return e if len(e) == len(down) else None


def _diamond_signs(s: Ccc, cells) -> tuple:
    """The canonical signs of the faces of the cells at the indices
    ``cells`` (closed under taking faces, ascending) by the diamond rule,
    one tuple per cell aligned with its face indices (zeros for a cell not
    signed), and the index of the first cell at which it fails (None if
    there is none; the signs then stop there)."""
    faces, ranks = s._face_ix, s._ranks
    rows = [(0,) * len(fs) for fs in faces]
    down = [None] * len(faces)  # signed cell -> its faces with their signs
    for x in cells:
        if ranks[x]:
            e = _link_signs({y: down[y] for y in faces[x]})
            if e is None:
                return rows, x
            rows[x] = tuple(map(e.__getitem__, faces[x]))
        down[x] = _down(s, rows, x)
    return rows, None


def _canonical_signs(s: Ccc, cells) -> list:
    """The canonical signs of the faces of the cells at the indices
    ``cells``, as rows.  Where the diamond rule fails, the closure of the
    cell it stops at is not orientable or not flag-connected, and
    2-coloring it raises with the certificate."""
    rows, bad = _diamond_signs(s, cells)
    if bad is not None:
        orient_cell(s, s.cells[bad])  # raises
    return rows


def orient_all_cells(s: Ccc) -> SignTable:
    """Choose the canonical orientation of every cell and tabulate all signs.

    Each closure's least flag is colored +1, so every vertex is +1.  Fails
    with the witness cell if some closure is not orientable or not
    flag-connected.  Only the signs and the vertex colors are kept.
    """
    return SignTable._of(s, _canonical_signs(s, range(len(s))))


# -- simplicial orientations ---------------------------------------------


def permutation_orientation(s: Ccc, x: int, members_desc: Callable) -> tuple:
    """Face signs of a simplex-like cell by the removal rule, one per face
    of the cell at index ``x``, aligned with its face indices.

    ``members_desc(i)`` lists the defining elements of the cell at index
    ``i``, largest first, and each face of ``x`` drops exactly one of
    them.  Dropping the i-th largest carries sign (-1)^i.  These are the
    signs of the orientation that colors a flag by the sign of the
    permutation of positions it removes one step at a time.
    """
    pos = {m: i for i, m in enumerate(members_desc(x))}
    signs = []
    for y in s._face_ix[x]:
        (dropped,) = pos.keys() - members_desc(y)
        signs.append(-1 if pos[dropped] % 2 else 1)
    return tuple(signs)


def simplicial_signs(k: Ccc, vertex_order: Iterable[str] | None = None) -> SignTable:
    """Sign table for a complex built by ``from_simplicial``.

    Vertices are ordered by ``vertex_order`` (default: token order) and
    every vertex has sign +1; the removal rule makes the boundary of a
    simplex alternate signs starting with +1 at the face that drops the
    largest vertex.  ``vertex_order`` must name every vertex, and no token
    twice, or ValueError names the vertex; tokens that name no vertex are
    ignored.
    """
    verts = []  # by cell index
    for c, r in zip(k.cells, k._ranks):
        vs = simplex_vertices(c)
        if len(vs) != r + 1 or len(set(vs)) != len(vs):
            raise SimplicialStructureError(f"cell {c} is not a rank-{r} simplex")
        verts.append(set(vs))
    for x, fs in enumerate(k._face_ix):
        for y in fs:
            if not verts[y] < verts[x]:
                raise SimplicialStructureError(
                    f"face {k.cells[y]} of {k.cells[x]} is not a vertex subset")
    if vertex_order is None:
        key = lambda v: v
    else:
        order = list(map(str, vertex_order))
        rank = dict(zip(order, range(len(order))))
        if len(rank) != len(order):
            twice = next(v for i, v in enumerate(order) if rank[v] != i)
            raise ValueError(f"vertex_order names {twice} twice")
        missing = set().union(*verts) - rank.keys()
        if missing:
            raise ValueError(f"vertex_order misses the vertex {min(missing)}")
        key = lambda v: rank[v]
    members = [sorted(vs, key=key, reverse=True) for vs in verts]
    return SignTable._of(k, [permutation_orientation(k, x, members.__getitem__)
                             for x in range(len(k))])
