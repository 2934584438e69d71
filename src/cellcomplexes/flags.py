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
and derives colorings.  Simplex-like cells take the removal rule:
dropping the i-th largest member carries sign (-1)^i.

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
links are consistent and reach every block.  Wherever a rule fails, or
the complex is not equidimensional, the flag graphs are 2-colored as the
definition says, so every error carries the odd flag cycle, component
count and cell that the flag coloring finds.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Iterable

from .cells import EMPTY, CellId
from .complexes import Ccc, simplex_vertices
from .errors import (
    CccError,
    MissingSignError,
    NotEquidimensionalError,
    NotOrientableError,
    SimplicialStructureError,
)

Flag = tuple  # of CellId, strictly descending by one rank per step


def flags_of(s: Ccc, x: CellId) -> list:
    """All flags below ``x``, each of length ``rank(x) + 1``."""
    r = s.rank(x)
    out = []
    stack = [(x,)]
    while stack:
        chain = stack.pop()
        fs = s.faces(chain[-1])
        if not fs:
            if s.rank(chain[-1]) != 0:
                raise CccError(f"cell {chain[-1]} of positive rank has no faces")
            out.append(chain)
        else:
            for f in fs:
                stack.append(chain + (f,))
    assert all(len(f) == r + 1 for f in out)
    return sorted(out)


def _equidimensional(s: Ccc) -> bool:
    return all(s.rank(c) == s.dim for c in s.maximal_cells())


def _require_equidimensional(s: Ccc):
    if not _equidimensional(s):
        raise NotEquidimensionalError(
            "flags of the whole complex need all maximal cells at top rank")


def all_flags(s: Ccc) -> list:
    _require_equidimensional(s)
    out = []
    for top in s.cells_of_rank(s.dim):
        out.extend(flags_of(s, top))
    return sorted(out)


@dataclass(frozen=True)
class FlagGraph:
    flags: tuple
    neighbors: Mapping  # Flag -> tuple of adjacent flags

    @property
    def edge_count(self) -> int:
        return sum(len(v) for v in self.neighbors.values()) // 2


def _adjacency(flags: Iterable[Flag]) -> dict:
    buckets: dict = {}
    for f in flags:
        for pos in range(len(f)):
            buckets.setdefault((pos, f[:pos] + f[pos + 1:]), []).append(f)
    nbrs: dict = {f: [] for f in flags}
    for group in buckets.values():
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                nbrs[a].append(b)
                nbrs[b].append(a)
    return {f: tuple(sorted(v)) for f, v in nbrs.items()}


def flag_graph(s: Ccc) -> FlagGraph:
    """Adjacency graph over all flags of an equidimensional complex."""
    fl = all_flags(s)
    return FlagGraph(tuple(fl), _adjacency(fl))


def _closure_flag_graph(s: Ccc, x: CellId) -> FlagGraph:
    fl = flags_of(s, x)
    return FlagGraph(tuple(fl), _adjacency(fl))


def _two_color(graph: FlagGraph):
    """2-color the graph.  Returns (colors, odd_cycle, component_count);
    colors is None when an odd cycle exists."""
    colors: dict = {}
    parent: dict = {}
    depth: dict = {}
    components = 0
    for root in graph.flags:
        if root in colors:
            continue
        components += 1
        colors[root] = 1
        parent[root] = None
        depth[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors[u]:
                if v not in colors:
                    colors[v] = -colors[u]
                    parent[v] = u
                    depth[v] = depth[u] + 1
                    queue.append(v)
                elif colors[v] == colors[u]:
                    return None, _odd_cycle(u, v, parent, depth), components
    return colors, None, components


def _odd_cycle(u, v, parent, depth):
    left, right = u, v
    lpath, rpath = [left], [right]
    while depth[left] > depth[right]:
        left = parent[left]
        lpath.append(left)
    while depth[right] > depth[left]:
        right = parent[right]
        rpath.append(right)
    while left != right:
        left, right = parent[left], parent[right]
        lpath.append(left)
        rpath.append(right)
    # lpath ends at the common ancestor; walk u..ancestor then back down to v
    cycle = lpath + rpath[-2::-1]
    assert len(cycle) % 2 == 1
    return cycle


def is_flag_connected(s: Ccc) -> bool:
    g = flag_graph(s)
    if not g.flags:
        return False
    _, _, components = _two_color(g)
    return components == 1


def odd_flag_cycle(s: Ccc):
    """A closed odd walk in the flag graph, or None if the graph is bipartite."""
    _, cycle, _ = _two_color(flag_graph(s))
    return cycle


def is_orientable(s: Ccc) -> bool:
    colors, cycle, components = _two_color(flag_graph(s))
    return cycle is None and components == 1


@dataclass(frozen=True)
class Orientation:
    """A coloring of flags with adjacent flags opposite."""

    colors: Mapping  # Flag -> +1 / -1

    def sign(self, flag: Flag) -> int:
        return self.colors[flag]

    def flipped(self) -> "Orientation":
        return Orientation({f: -c for f, c in self.colors.items()})

    def __eq__(self, other):
        return isinstance(other, Orientation) and dict(self.colors) == dict(other.colors)


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

    Every flag of the complex gets its color.  The top cells are signed
    by the top-cell rule; when it fails the flag graph is 2-colored, and
    the NotOrientableError carries an odd-cycle certificate or a
    component count.
    """
    signs = _diamond_signs(s, s.cells) if _equidimensional(s) else None
    if signs is not None:
        eps = _link_signs({x: _down(s, signs, x) for x in s.cells_of_rank(s.dim)})
        if eps is not None:
            table = SignTable(s, signs)
            return Orientation({f: e * table.color(f)
                                for x, e in eps.items() for f in flags_of(s, x)})
    graph = flag_graph(s)
    if not graph.flags:
        raise NotOrientableError("complex has no flags")
    return _color_or_raise(graph, "complex")


def orient_cell(s: Ccc, x: CellId) -> Orientation:
    return _color_or_raise(_closure_flag_graph(s, x), f"cell {x}", cell=x)


class SignTable:
    """Incidence signs plus one sign per vertex (default +1); orientations
    are derived from them."""

    __slots__ = ("complex", "signs", "vertex_signs", "_flag_counts")

    def __init__(self, complex: Ccc, signs: Mapping,
                 vertex_signs: Mapping | None = None):
        self.complex = complex
        self.signs = dict(signs)
        given = vertex_signs or {}
        self.vertex_signs = {v: given.get(v, 1) for v in complex.cells_of_rank(0)}
        self._flag_counts = None

    def s(self, x: CellId, y: CellId) -> int:
        try:
            return self.signs[(x, y)]
        except KeyError:
            raise MissingSignError(f"no sign for the pair ({x}, {y})") from None

    def color(self, flag: Flag) -> int:
        """The signs along the flag times the sign of its vertex."""
        c = self.vertex_signs[flag[-1]]
        for x, y in zip(flag, flag[1:]):
            c *= self.s(x, y)
        return c

    def orientation(self, x: CellId) -> Orientation:
        """The orientation of ``x``; each flag's color is derived on lookup."""
        return Orientation(_FlagColors(self, x))

    def _flag_count(self, x: CellId) -> int:
        """The number of flags below ``x``: the sum over its faces, 1 for a
        vertex.  Counted for every cell on first use."""
        if self._flag_counts is None:
            s, counts = self.complex, {}
            for c in s.cells:  # canonical order lists faces first
                counts[c] = sum(counts[y] for y in s.faces(c)) if s.rank(c) else 1
            self._flag_counts = counts
        return self._flag_counts[x]

    @property
    def orientations(self) -> Mapping:
        """Every cell's orientation, derived when it is looked up."""
        return _Orientations(self)

    def flipped(self, cells: Iterable[CellId]) -> "SignTable":
        """Reverse the orientation of the given cells; signs follow suit."""
        flip = set(cells)
        t = lambda c: -1 if c in flip else 1
        signs = {(x, y): v * t(x) * t(y) for (x, y), v in self.signs.items()}
        vertex_signs = {v: e * t(v) for v, e in self.vertex_signs.items()}
        return SignTable(self.complex, signs, vertex_signs)

    def restrict(self, sub: Ccc) -> "SignTable":
        """The table induced on a closed subcomplex."""
        signs = {(x, y): self.s(x, y) for x in sub.cells for y in sub.faces(x)}
        return SignTable(sub, signs, self.vertex_signs)


class _FlagColors(Mapping):
    """Read-only view of the colors of the flags below one cell, each
    derived from the sign table on lookup."""

    def __init__(self, table: SignTable, x: CellId):
        self._table = table
        self._cell = x
        self._length = table.complex.rank(x) + 1

    def __getitem__(self, flag) -> int:
        faces = self._table.complex.faces
        if not (type(flag) is tuple and len(flag) == self._length
                and flag[0] == self._cell
                and all(b in faces(a) for a, b in zip(flag, flag[1:]))):
            raise KeyError(flag)
        return self._table.color(flag)

    def __iter__(self):
        return iter(flags_of(self._table.complex, self._cell))

    def __len__(self):
        return self._table._flag_count(self._cell)


class _Orientations(Mapping):
    """Read-only view of a table's orientations, each derived on lookup."""

    def __init__(self, table: SignTable):
        self._table = table

    def __getitem__(self, x: CellId) -> Orientation:
        if x not in self._table.complex:
            raise KeyError(x)
        return self._table.orientation(x)

    def __iter__(self):
        return iter(self._table.complex.cells)

    def __len__(self):
        return len(self._table.complex)


def sign_from_flag(table_x: Orientation, table_y: Orientation, flag: Flag) -> int:
    """s(x, y) computed from one flag through x and its face y."""
    return table_x.sign(flag) * table_y.sign(flag[1:])


def _least_flag(s: Ccc, x: CellId) -> Flag:
    """The least flag below ``x``: every step takes the least face."""
    flag = (x,)
    while s.rank(flag[-1]):
        flag += (s.faces(flag[-1])[0],)
    return flag


def _derive_signs(s: Ccc, orientations: Mapping) -> dict:
    """The signs of the faces of each oriented cell, read at the flag that
    continues with the face's least flag, which its canonical
    orientation colors +1."""
    return {(x, y): o.sign((x,) + _least_flag(s, y))
            for x, o in orientations.items() for y in s.faces(x)}


# a vertex lies over the empty cell, with its vertex sign +1
_OVER_EMPTY = ((EMPTY, 1),)


def _down(s: Ccc, signs: Mapping, x: CellId) -> tuple:
    """The faces of ``x``, each with its sign."""
    if not s.rank(x):
        return _OVER_EMPTY
    return tuple((y, signs[(x, y)]) for y in s.faces(x))


def _link_signs(down: Mapping):
    """Signs ``e`` on the cells ``down`` lists (cell -> its faces with
    their signs), +1 on the first, such that ``e(a) s(a, z) = -e(b) s(b, z)``
    whenever ``a`` and ``b`` share a face ``z``.  None when the links
    conflict or do not reach every cell."""
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
        for z, v in down[a]:
            want = -e[a] * v
            for b, w in above[z]:
                if b is a:
                    continue
                if b not in e:
                    e[b] = want * w
                    todo.append(b)
                elif e[b] != want * w:
                    return None
    return e if len(e) == len(down) else None


def _diamond_signs(s: Ccc, cells) -> dict | None:
    """The canonical signs of the faces of ``cells`` (closed under taking
    faces, in canonical order) by the diamond rule, or None if it fails
    at some cell."""
    signs: dict = {}
    down: dict = {}  # signed cell -> its faces with their signs
    for x in cells:
        if s.rank(x):
            e = _link_signs({y: down[y] for y in s.faces(x)})
            if e is None:
                return None
            for y in s.faces(x):
                signs[(x, y)] = e[y]
        down[x] = _down(s, signs, x)
    return signs


def _canonical_signs(s: Ccc, cells) -> dict:
    """The canonical signs of the faces of ``cells``.  Where the diamond
    rule fails, the closures are 2-colored flag by flag, which raises for
    the first cell whose closure is not orientable or not flag-connected."""
    signs = _diamond_signs(s, cells)
    if signs is None:
        signs = _derive_signs(s, {x: orient_cell(s, x) for x in cells if s.rank(x)})
    return signs


def orient_all_cells(s: Ccc) -> SignTable:
    """Choose the canonical orientation of every cell and tabulate all signs.

    Each closure's least flag is colored +1, so every vertex is +1.  Fails
    with the witness cell if some closure is not orientable or not
    flag-connected.  Only the signs and the vertex colors are kept.
    """
    return SignTable(s, _canonical_signs(s, s.cells))


# -- simplicial orientations ---------------------------------------------


def permutation_orientation(s: Ccc, x: CellId, members_desc: Callable) -> dict:
    """Face signs ``{(x, y): ±1}`` of a simplex-like cell by the removal rule.

    ``members_desc(cell)`` lists the cell's defining elements, largest
    first, and each face of ``x`` drops exactly one of them.  Dropping the
    i-th largest carries sign (-1)^i.  These are the signs of the
    orientation that colors a flag by the sign of the permutation of
    positions it removes one step at a time.
    """
    pos = {m: i for i, m in enumerate(members_desc(x))}
    signs = {}
    for y in s.faces(x):
        (dropped,) = set(pos) - set(members_desc(y))
        signs[(x, y)] = -1 if pos[dropped] % 2 else 1
    return signs


def simplicial_signs(k: Ccc, vertex_order: Iterable[str] | None = None) -> SignTable:
    """Sign table for a complex built by ``from_simplicial``.

    Vertices are ordered by ``vertex_order`` (default: token order) and
    every vertex has sign +1; the removal rule makes the boundary of a
    simplex alternate signs starting with +1 at the face that drops the
    largest vertex.
    """
    verts = {}
    for c in k.cells:
        vs = simplex_vertices(c)
        if len(vs) != k.rank(c) + 1 or len(set(vs)) != len(vs):
            raise SimplicialStructureError(f"cell {c} is not a rank-{k.rank(c)} simplex")
        verts[c] = set(vs)
    for x in k.cells:
        for y in k.faces(x):
            if not verts[y] < verts[x]:
                raise SimplicialStructureError(
                    f"face {y} of {x} is not a vertex subset")
    if vertex_order is None:
        key = lambda v: v
    else:
        rank = {str(v): i for i, v in enumerate(vertex_order)}
        key = lambda v: rank[v]
    members = lambda c: sorted(verts[c], key=key, reverse=True)
    signs = {}
    for x in k.cells:
        signs.update(permutation_orientation(k, x, members))
    return SignTable(k, signs)
