"""Independent oracles the tests compare the library against.

Each oracle recomputes a quantity from first principles along a different
path than the library: simplicial boundary matrices come straight from
vertex sets with alternating signs and are reduced with sympy's Smith
normal form; flag adjacency is rebuilt by comparing all pairs of maximal
chains, and flag graphs are listed whole, every flag bucketed by the
entries it keeps, before they are 2-colored; the disjoint-points
subdivision is assembled directly from its closed-form cell list and
order rules; orientations are colorings of every flag, built flag by
flag (removal permutations, cone pull-backs, dual splicing, flag
reversal, 2-colorings of flag graphs), and incidence signs are read off
them; chain boundaries walk faces and cofaces through the
sign table instead of reading the boundary matrices, and the boundary
adjunction is checked pair by pair; boundary matrices are dense arrays
filled entry by entry, cohomology is the homology of their transposes, and
closures and quotients slice them; chain maps into subdivisions are dense
matrices filled entry by entry and composed by matrix products; orders are
given by every cell strictly below each cell (subsets, products of
closures, sub-chains), closed by repeated composition, and covers are read
off closures of closures, and cofaces off the up-set masks; greatest
lower bounds are looked for on every pair of cells; labels are ordered
by walking both nested labels, their keys are read off the serialized
form by recursive descent, and the barycentric subdivision labels
every chain of cells from scratch; cycle representatives solve for
kernel coordinates with a third Smith form over dense boundaries; the
dense Smith normal form keeps each of its four transforms as a matrix of
its own, written in a loop of its own by every elementary operation; the
diamond and top-cell rules run over dicts keyed by labels and label
pairs, as the library ran them before its signs moved to cell indices;
files are read with every token through the full label parser, and their
cells kept in label dicts, sorted and numbered before the core closes them,
as the loader read them before it built by position, and written with no
check that they can be read back; the order a relation generates is kept
whole, each cell's down-set and up-set as one bitset closed by a stack
walk, with every order query and the axiom report read off those
bitsets, as the library kept its order before it stored only covers; the
flags of a complex are listed top cell by top cell; homology
generators are paired as label chains, cell by cell; and the random
Stokes trials are counted in a loop of their own, each integral summed
inline; homology is read off the ranks and invariant factors of every
full boundary matrix, as the library computed it before it coreduced
to a Morse complex, and each matching the coreduction makes is checked
as a certificate through the labels and the sign table: its incidences,
a depth-first search for a cycle of the modified Hasse diagram, the
Morse inequalities, the Euler characteristic, and the Morse boundary
summed over gradient paths in the search's finishing order.
"""

from __future__ import annotations

import random
import re
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from cellcomplexes.cells import EMPTY, CellId
from cellcomplexes.chains import Chain, HomologyResult, free_cycle_generators
from cellcomplexes.complexes import (AxiomViolation, Ccc, Classification, ValidationReport,
                                     simplex_vertices)
from cellcomplexes.duality import StarMap, dual_orientations, pairing
from cellcomplexes.errors import (CccError, CoverCycleError, DuplicateCellError, FormatError,
                                  NotEquidimensionalError, NotOrientableError, RankOrderError,
                                  UnknownCellError)
from cellcomplexes.fileformat import covering_pairs
from cellcomplexes.flags import Orientation, SignTable, all_flags, flags_of
from cellcomplexes.snf import (SmithNormalForm, SparseMatrix, invariant_factors, kernel_basis,
                               matmul, smith_normal_form, solve_columns)
from cellcomplexes.subdivision import chain_of_cell


# -- simplicial homology ----------------------------------------------------


def simplicial_boundary_matrices(facets, vertex_key=None):
    """Boundary matrices of an abstract simplicial complex.

    Simplices are sorted vertex tuples; dropping the i-th largest vertex
    of a simplex carries sign (-1)^i.  Returns (bases, matrices) where
    bases[r] lists the rank-r simplices and matrices[r] maps rank r to
    rank r - 1 (sympy integer matrices).
    """
    key = vertex_key or (lambda v: v)
    closed = set()
    for f in facets:
        vs = tuple(sorted(set(f), key=key))
        for k in range(1, len(vs) + 1):
            closed.update(combinations(vs, k))
    dim = max(len(s) for s in closed) - 1
    bases = [sorted(s for s in closed if len(s) == r + 1) for r in range(dim + 1)]
    index = [{s: i for i, s in enumerate(b)} for b in bases]
    mats = [sympy.zeros(0, len(bases[0]))]
    for r in range(1, dim + 1):
        m = sympy.zeros(len(bases[r - 1]), len(bases[r]))
        for j, s in enumerate(bases[r]):
            desc = tuple(sorted(s, key=key, reverse=True))
            for i, v in enumerate(desc):
                face = tuple(sorted(set(s) - {v}, key=key))
                m[index[r - 1][face], j] = (-1) ** i
        mats.append(m)
    return bases, mats


def simplicial_homology(facets):
    """(betti, torsion) per degree via sympy's Smith normal form."""
    bases, mats = simplicial_boundary_matrices(facets)
    dim = len(bases) - 1

    def reduce(m):
        if m.rows == 0 or m.cols == 0:
            return []
        d = sympy_snf(m, domain=sympy.ZZ)
        return [int(d[i, i]) for i in range(min(d.rows, d.cols)) if d[i, i] != 0]

    factors = [reduce(m) for m in mats] + [[]]
    betti, torsion = [], []
    for r in range(dim + 1):
        betti.append(len(bases[r]) - len(factors[r]) - len(factors[r + 1]))
        torsion.append(tuple(t for t in factors[r + 1] if t > 1))
    return tuple(betti), tuple(torsion)


def sympy_invariant_factors(matrix):
    m = sympy.Matrix(matrix)
    if m.rows == 0 or m.cols == 0:
        return []
    d = sympy_snf(m, domain=sympy.ZZ)
    return sorted(abs(int(d[i, i])) for i in range(min(d.rows, d.cols)) if d[i, i] != 0)


# -- the dense Smith normal form ----------------------------------------------


def _identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _tolists(matrix):
    return [[int(v) for v in row] for row in matrix]


def looped_smith_normal_form(matrix) -> SmithNormalForm:
    """The dense Smith normal form with its four transforms, each kept as
    its own matrix: every elementary operation writes ``A``, then the direct
    transform, then the inverse transform, in separate loops.  The pivots
    and the order of operations are the library engine's."""
    a = _tolists(matrix)
    m = len(a)
    # a matrix without rows still has columns, which only its shape tells
    n = matrix.shape[1] if hasattr(matrix, "shape") else len(a[0]) if m else 0
    u, u_inv = _identity(m), _identity(m)
    v, v_inv = _identity(n), _identity(n)

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in u_inv:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, q):  # row i += q * row j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        for r in u_inv:
            r[j] -= q * r[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in u_inv:
            r[i] = -r[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def col_add(i, j, q):  # col i += q * col j
        for r in a:
            r[i] += q * r[j]
        for r in v:
            r[i] += q * r[j]
        v_inv[j] = [x - q * y for x, y in zip(v_inv[j], v_inv[i])]

    def pivot_to(t):
        """Move the smallest-magnitude nonzero of a[t:, t:] to (t, t)."""
        best = None
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if abs(x) == 1:
                        break
            if best and best[0] == 1:
                break
        if best is None:
            return False
        _, i, j = best
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        if a[t][t] < 0:
            row_neg(t)
        return True

    t = 0
    while t < min(m, n):
        if not pivot_to(t):
            break
        while True:
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        row_add(i, t, -q)
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        col_add(j, t, -q)
            if any(a[i][t] for i in range(t + 1, m)) or \
               any(a[t][j] for j in range(t + 1, n)):
                pivot_to(t)  # a remainder became the new, smaller pivot
                continue
            bad = None
            d = a[t][t]
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % d:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_add(t, bad, 1)
        t += 1

    diagonal = [a[i][i] for i in range(min(m, n))]
    rank = sum(1 for d in diagonal if d)
    return SmithNormalForm(diagonal, rank, u, u_inv, v, v_inv)


# -- flags ------------------------------------------------------------------


def brute_flags(s: Ccc):
    """Maximal chains through every rank, found by descending comparability
    alone (no face caches)."""
    by_rank = [list(s.cells_of_rank(r)) for r in range(s.dim + 1)]
    chains = [(c,) for c in by_rank[-1]] if by_rank else []
    for r in range(s.dim - 1, -1, -1):
        chains = [ch + (c,) for ch in chains for c in by_rank[r] if s.lt(c, ch[-1])]
    return sorted(chains)


def per_top_flags(s: Ccc) -> list:
    """The flags of an equidimensional complex, those below each top cell
    in turn, each top listed on its own by ``flags_of``."""
    if any(s.rank(c) != s.dim for c in s.maximal_cells()):
        raise NotEquidimensionalError(
            "flags of the whole complex need all maximal cells at top rank")
    return [f for top in s.cells_of_rank(s.dim) for f in flags_of(s, top)]


def brute_flag_adjacency(flags):
    """All pairs differing in exactly one position."""
    edges = set()
    fl = list(flags)
    for i, a in enumerate(fl):
        for b in fl[i + 1:]:
            if sum(1 for p, q in zip(a, b) if p != q) == 1:
                edges.add((a, b))
    return edges


@dataclass(frozen=True)
class ListedFlagGraph:
    flags: tuple
    neighbors: dict  # flag -> tuple of adjacent flags


def listed_flag_graph(flags) -> ListedFlagGraph:
    """Every flag and its neighbours, listed before anything is colored."""
    flags = tuple(flags)
    return ListedFlagGraph(flags, _adjacency(flags))


def brute_flag_graph(s: Ccc) -> ListedFlagGraph:
    """The flag graph of the whole complex over ``brute_flags``; the
    library's listing raises first for a complex without flags in the
    definition's sense (not equidimensional, or a cell without faces)."""
    all_flags(s)
    return listed_flag_graph(brute_flags(s))


def _adjacency(flags) -> dict:
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


def two_color(graph):
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


def component_count(graph) -> int:
    """The number of connected components of a listed graph, each flag
    joined to its neighbours by merging labels until nothing changes."""
    label = {f: i for i, f in enumerate(graph.flags)}
    changed = True
    while changed:
        changed = False
        for f, nbrs in graph.neighbors.items():
            low = min([label[f]] + [label[g] for g in nbrs])
            for g in (f, *nbrs):
                if label[g] != low:
                    label[g] = low
                    changed = True
    return len(set(label.values()))


def _color_or_raise(graph, what: str, cell=None) -> Orientation:
    """The coloring rooted at the least flag, so that flag is colored +1."""
    colors, cycle, components = two_color(graph)
    if cycle is not None:
        raise NotOrientableError(f"{what}: flag graph is not bipartite",
                                 odd_cycle=cycle, cell=cell)
    if components != 1:
        raise NotOrientableError(f"{what}: flag graph is disconnected "
                                 f"({components} components)",
                                 components=components, cell=cell)
    return Orientation(colors)


# -- orders and covers -------------------------------------------------------


def transitive_closure(relation) -> dict:
    """Every cell reachable from each key of ``relation`` through it (not
    the key itself unless on a cycle), by composing until nothing changes."""
    out = {c: set(v) for c, v in relation.items()}
    changed = True
    while changed:
        changed = False
        for c, below in out.items():
            more = set().union(*(out.get(d, set()) for d in below)) - below
            if more:
                below |= more
                changed = True
    return out


def closed_relation(s: Ccc) -> dict:
    """Every cell strictly below each cell of ``s``."""
    return {x: s.closure([x]) - {x} for x in s.cells}


def closure_covers(s: Ccc, x: CellId) -> set:
    """Cells strictly below ``x`` that lie in no closure of another cell
    strictly below ``x``."""
    strict = s.closure([x]) - {x}
    return strict - set().union(*(s.closure([z]) - {z} for z in strict))


def simplicial_order(simplices):
    """Ranks and strictly-below lists of the simplicial complex that
    ``simplices`` generate: every non-empty subset, ordered by inclusion."""
    closed = {frozenset(c) for s in simplices
              for k in range(1, len(set(s)) + 1) for c in combinations(sorted(set(s)), k)}
    ids = {s: CellId.of("_".join(sorted(s))) for s in closed}
    return ({ids[s]: len(s) - 1 for s in closed},
            {ids[s]: [ids[t] for t in closed if t < s] for s in closed})


def product_order(x: Ccc, y: Ccc):
    """Ranks and strictly-below lists of ``x`` times ``y``: pairs of cells
    of the two closures."""
    name = lambda a, b: CellId.of(f"{a}*{b}")
    ranks = {name(a, b): x.rank(a) + y.rank(b) for a in x.cells for b in y.cells}
    below = {name(a, b): [name(a2, b2) for a2 in x.closure([a]) for b2 in y.closure([b])
                          if (a2, b2) != (a, b)]
             for a in x.cells for b in y.cells}
    return ranks, below


def barycentric_order(s: Ccc):
    """Ranks and strictly-below lists of the chains of ``s``: every proper
    non-empty sub-chain, labelled by :func:`cone_label`."""
    chains = frontier = [(c,) for c in s.cells]
    while frontier:
        frontier = [ch + (c,) for ch in frontier for c in s.cells if s.lt(ch[-1], c)]
        chains = chains + frontier
    label = {ch: cone_label(s, ch) for ch in chains}
    return ({label[ch]: len(ch) - 1 for ch in chains},
            {label[ch]: [label[sub] for k in range(1, len(ch)) for sub in combinations(ch, k)]
             for ch in chains})


# -- disjoint-points stellar subdivision ------------------------------------


def disjoint_stellar_description(x: Ccc, points) -> Ccc:
    """The subdivision at points with pairwise disjoint up-sets, assembled
    from its explicit description: old cells survive, each point cones
    over its star's base, order by the three case rules."""
    points = list(points)
    dead = set()
    for p in points:
        dead |= x.up_set(p)
    base = {p: sorted(x.open_star(p)) for p in points}
    for a, b in combinations(points, 2):
        assert not (x.up_set(a) & x.up_set(b)), "up-sets must be disjoint"

    ranks = {}
    sb = {}
    old = [c for c in x.cells if c not in dead]
    for c in old:
        ranks[c] = x.rank(c)
        sb[c] = [w for w in x.closure([c]) if w != c and w not in dead]
    cone = {}
    for p in points:
        cone[(p, EMPTY)] = CellId.cone(p, EMPTY)
        ranks[cone[(p, EMPTY)]] = 0
        sb[cone[(p, EMPTY)]] = []
        for v in base[p]:
            cone[(p, v)] = CellId.cone(p, v)
            ranks[cone[(p, v)]] = x.rank(v) + 1
    for p in points:
        for v in base[p]:
            below = [w for w in x.closure([v])]
            below += [cone[(p, w)] for w in x.closure([v]) if w != v]
            below += [cone[(p, EMPTY)]]
            sb[cone[(p, v)]] = below
    return Ccc(ranks, sb)


# -- flag colorings -----------------------------------------------------------
# Each function returns per-cell colorings {cell: {flag: +1 / -1}}.


def signs_from_colors(s: Ccc, colors) -> dict:
    """s(x, y) = color of a flag through x and y times the color of its
    truncation; every such flag must give the same value."""
    signs = {}
    for x in s.cells:
        for y in s.faces(x):
            vals = {c * colors[y][f[1:]] for f, c in colors[x].items() if f[1] == y}
            assert len(vals) == 1, f"sign of ({x}, {y}) depends on the flag"
            signs[(x, y)] = vals.pop()
    return signs


def permutation_sign(perm) -> int:
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def permutation_colors(s: Ccc, x: CellId, members_desc) -> dict:
    """Color each flag below ``x`` by the sign of the permutation of
    positions (in ``members_desc(x)``, largest first) that walking down
    the flag removes, the last remaining member included."""
    top = list(members_desc(x))
    pos = {m: i for i, m in enumerate(top)}
    colors = {}
    for flag in flags_of(s, x):
        perm = []
        prev = set(top)
        for cell in flag[1:]:
            cur = set(members_desc(cell))
            (dropped,) = prev - cur
            perm.append(pos[dropped])
            prev = cur
        (last,) = prev
        perm.append(pos[last])
        colors[flag] = permutation_sign(perm)
    return colors


def simplicial_colors(k: Ccc, vertex_order=None) -> dict:
    rank = None if vertex_order is None else {v: i for i, v in enumerate(vertex_order)}
    key = (lambda v: v) if rank is None else (lambda v: rank[v])
    members = lambda c: sorted(simplex_vertices(c), key=key, reverse=True)
    return {x: permutation_colors(k, x, members) for x in k.cells}


def barycentric_colors(s: Ccc, bary: Ccc) -> dict:
    """Removal permutations over the members of each chain, ranked by
    their rank in ``s``."""
    members = lambda c: sorted(chain_of_cell(s, c), key=s.rank, reverse=True)
    return {x: permutation_colors(bary, x, members) for x in bary.cells}


def canonical_colors(s: Ccc, overrides=None) -> dict:
    """The canonical flag 2-coloring of every closure, least flag +1,
    unless ``overrides`` gives a cell's coloring."""
    overrides = overrides or {}
    colors = {}
    for x in s.cells:
        if x in overrides:
            colors[x] = dict(overrides[x])
        elif s.rank(x) == 0:
            colors[x] = {(x,): 1}
        else:
            colors[x] = dict(flag_orient_cell(s, x).colors)
    return colors


def flag_orient_all_cells(s: Ccc) -> SignTable:
    """The canonical sign table built from flags: 2-color every closure
    from its least flag (raising for the first cell, in canonical order,
    whose closure fails) and read every sign off the colorings."""
    return SignTable(s, signs_from_colors(s, canonical_colors(s)))


def flag_orient(s: Ccc):
    """The canonical orientation built from flags: 2-color the flag graph
    of the whole complex from its least flag."""
    graph = brute_flag_graph(s)
    if not graph.flags:
        raise NotOrientableError("complex has no flags")
    return _color_or_raise(graph, "complex")


def flag_orient_cell(s: Ccc, x: CellId):
    """The canonical orientation of ``x``: 2-color the flags below it
    from the least."""
    return _color_or_raise(listed_flag_graph(flags_of(s, x)), f"cell {x}", cell=x)


def sign_from_flag(table_x: Orientation, table_y: Orientation, flag) -> int:
    """s(x, y) computed from one flag through x and its face y."""
    return table_x.sign(flag) * table_y.sign(flag[1:])


def reversed_orientation(s: Ccc, omega: Orientation) -> Orientation:
    """The orientation the dual complex inherits: reverse every flag."""
    return Orientation({tuple(reversed(f)): c for f, c in omega.colors.items()})


def flipped_colors(colors, cells) -> dict:
    flip = set(cells)
    return {x: ({f: -c for f, c in cs.items()} if x in flip else cs)
            for x, cs in colors.items()}


def cone_colors(sx: Ccc, cone_id: CellId, base_colors) -> dict:
    """Flags of a cone start with a cone prefix and continue in the base's
    closure; the color is the base flag's color times the prefix parity."""
    colors = {}
    for flag in flags_of(sx, cone_id):
        prefix = 0
        while prefix < len(flag) and flag[prefix].is_cone and \
                flag[prefix].apex == cone_id.apex:
            prefix += 1
        tail = flag[prefix:]
        bases = [c.base for c in flag[:prefix]]
        if bases and bases[-1] is EMPTY:
            bases = bases[:-1]
            assert not tail
        else:
            assert tail and tail[0] == bases[-1]
            tail = tail[1:]
        pulled = tuple(bases) + tail
        colors[flag] = (-1) ** (prefix - 1) * base_colors[pulled]
    return colors


def stellar_colors(colors, res) -> dict:
    """Colorings after the stellar step ``res``: old cells keep theirs,
    the new vertex is +1 and each cone pulls its flags back to its base."""
    out = {z: colors[z] for z in res.old_cells}
    for y, c in res.new_cells.items():
        out[c] = {(c,): 1} if y is EMPTY else cone_colors(res.complex, c, colors[y])
    return out


def dual_colors(s: Ccc, sd: Ccc, omega, colors) -> dict:
    """Color a flag above ``x`` by splicing it with the least flag below
    ``x`` into a full flag and dividing the colors."""
    out = {}
    for x in s.cells:
        gamma1 = flags_of(s, x)[0]
        base = colors[x][gamma1]
        out[x] = {gamma2: omega.sign(tuple(reversed(gamma2))[:-1] + gamma1) * base
                  for gamma2 in flags_of(sd, x)}
    return out


# -- chain boundaries ----------------------------------------------------------


def face_walk_boundary(c: Chain, cc) -> Chain:
    """Signed sum of faces through the sign table, extended linearly."""
    out: dict = {}
    for x, coeff in c.coeffs.items():
        for y in cc.complex.faces(x):
            out[y] = out.get(y, 0) + coeff * cc.signs.s(x, y)
    return Chain(c.degree - 1, out)


def coface_walk_coboundary(c: Chain, cc) -> Chain:
    out: dict = {}
    for x, coeff in c.coeffs.items():
        for z in cc.complex.cofaces(x):
            out[z] = out.get(z, 0) + coeff * cc.signs.s(z, x)
    return Chain(c.degree + 1, out)


def basis_adjoint_residuals(cc, cd) -> int:
    """Basis pairs (x of degree i+1, dual z of degree n-i) where the
    boundary of x counts z differently from how the dual boundary of z
    counts x."""
    n = cc.dim
    bad = 0
    for i in range(n):
        for x in cc.bases[i + 1]:
            dx = face_walk_boundary(Chain(i + 1, {x: 1}), cc).coeffs
            for z in cd.bases[n - i]:
                dz = face_walk_boundary(Chain(n - i, {z: 1}), cd).coeffs
                bad += dx.get(z, 0) != dz.get(x, 0)
    return bad


def looped_stokes_residuals(s: Ccc, trials: int, seed: int, boundary, coboundary) -> tuple:
    """``stokes_check``'s two residual counts, its random trials drawn in
    the same order (degree, sigma, tau, omega) through the given boundary
    and coboundary, counted in a loop of their own, with each integral
    summed inline and the basis pairs checked by face walks."""
    star = StarMap(dual_orientations(s))
    cc, cd = star.source, star.target
    n = s.dim
    adjoint_bad = basis_adjoint_residuals(cc, cd)
    if n == 0:
        trials = 0
    rng = random.Random(seed)
    stokes_bad = 0
    done = 0
    while done < trials:
        i = rng.randrange(0, n)
        sigma = Chain(i + 1, {x: rng.randint(-3, 3) for x in cc.bases[i + 1]})
        tau = Chain(n - i, {z: rng.randint(-3, 3) for z in cd.bases[n - i]})
        d_sigma = boundary(sigma, cc)
        if pairing(s, d_sigma, tau) != pairing(s, sigma, boundary(tau, cd)):
            adjoint_bad += 1
        omega_c = Chain(i, {x: rng.randint(-3, 3) for x in cc.bases[i]})
        lhs = sum(d_sigma.coeffs.get(c, 0) * v for c, v in omega_c.coeffs.items())
        d_omega = coboundary(omega_c, cc).coeffs
        rhs = sum(d_omega.get(c, 0) * v for c, v in sigma.coeffs.items())
        if lhs != rhs:
            stokes_bad += 1
        done += 1
    return adjoint_bad, stokes_bad


def label_pairing_matrix(s: Ccc, i: int):
    """``homology_pairing_matrix`` with each pair of generators rebuilt as
    label chains and paired cell by cell by ``pairing``."""
    star = StarMap(dual_orientations(s))
    cc, cd = star.source, star.target
    gens = free_cycle_generators(cc, i)
    dual_gens = free_cycle_generators(cd, s.dim - i)
    mat = np.zeros((len(gens), len(dual_gens)), dtype=np.int64)
    for a, g in enumerate(gens):
        sigma = cc.from_vector(g, i)
        for b, h in enumerate(dual_gens):
            tau = cd.from_vector(h, s.dim - i)
            mat[a, b] = pairing(s, sigma, tau)
    return mat


# -- dense chain maps ----------------------------------------------------------


def dense_stellar_map(src, tgt, points) -> list:
    """Per-degree matrices of the subdivision chain map at ``points``: a
    surviving cell goes to itself, a removed cell to the signed cones over
    its surviving faces, with apex the point below it."""
    s, signs = src.complex, src.signs
    mats = []
    for d in range(s.dim + 1):
        m = np.zeros((len(tgt.bases[d]), len(src.bases[d])), dtype=np.int64)
        row = {c: i for i, c in enumerate(tgt.bases[d])}
        for j, w in enumerate(src.bases[d]):
            if w in tgt.complex:
                m[row[w], j] = 1
                continue
            x = next(p for p in points if w in s.up_set(p))
            for y in s.faces(w):
                if y in tgt.complex:
                    m[row[CellId.cone(x, y)], j] = signs.s(w, y)
        mats.append(m)
    return mats


def dense_flag_sum_map(src, tgt) -> list:
    """Per-degree matrices of the flag-sum map into the barycentric
    subdivision: a cell goes to its flags, each with its colour."""
    s, signs = src.complex, src.signs
    mats = []
    for d in range(s.dim + 1):
        m = np.zeros((len(tgt.bases[d]), len(src.bases[d])), dtype=np.int64)
        row = {c: i for i, c in enumerate(tgt.bases[d])}
        for j, x in enumerate(src.bases[d]):
            for flag in flags_of(s, x):
                m[row[cone_label(s, tuple(reversed(flag)))], j] = signs.color(flag)
        mats.append(m)
    return mats


def dense_identity(cc) -> list:
    return [np.eye(len(b), dtype=np.int64) for b in cc.bases]


def dense_compose(first, second) -> list:
    """``first`` followed by ``second``, degree by degree."""
    return [b @ a for a, b in zip(first, second)]


# -- the dense chain layer -----------------------------------------------------


def dense_boundary_matrices(s, signs, augmented=False) -> list:
    """Per-degree int64 boundary matrices filled entry by entry:
    ``mats[r]`` maps rank ``r`` to rank ``r - 1`` (rows in
    ``cells_of_rank`` order); with ``augmented`` degree zero has one row,
    for the empty cell, holding the sign of each vertex."""
    bases = [list(s.cells_of_rank(r)) for r in range(s.dim + 1)]
    mats = []
    for r, basis in enumerate(bases):
        if r == 0:
            mats.append(np.array([[signs.vertex_signs[v] for v in basis]] if augmented else
                                 np.zeros((0, len(basis))), dtype=np.int64))
            continue
        index = {c: i for i, c in enumerate(bases[r - 1])}
        m = np.zeros((len(index), len(basis)), dtype=np.int64)
        for j, x in enumerate(basis):
            for y in s.faces(x):
                m[index[y], j] = signs.s(x, y)
        mats.append(m)
    return mats


def dense_homology(sizes, mats) -> HomologyResult:
    """Groups of the complex whose degree-``i`` map is ``mats[i]``, from
    the invariant factors of the dense matrices."""
    return rank_groups(sizes, mats, 1)


def dense_cohomology(sizes, mats) -> HomologyResult:
    """Homology of the transposed complex, degree ``n - j`` read as ``j``,
    reported by original degree; the degree-zero map is ignored."""
    n = len(sizes) - 1
    flipped = [mats[n - j + 1].T if j else np.zeros((0, sizes[n]), dtype=np.int64)
               for j in range(n + 1)]
    h = dense_homology(sizes[::-1], flipped)
    return HomologyResult(h.betti[::-1], h.torsion[::-1])


def dense_slice(s, mats, cells) -> tuple:
    """The sizes and the matrices sliced to the rows and columns of
    ``cells``; degree zero maps to nothing."""
    keep = [[i for i, c in enumerate(s.cells_of_rank(r)) if c in cells]
            for r in range(s.dim + 1)]
    sliced = [np.zeros((0, len(keep[0])), dtype=np.int64)]
    sliced += [mats[r][np.ix_(keep[r - 1], keep[r])] for r in range(1, s.dim + 1)]
    return [len(k) for k in keep], sliced


def squares_to_zero(mats) -> bool:
    """Whether each of ``mats`` composed with the one before it is zero."""
    return not any((a @ b).any() for a, b in zip(mats, mats[1:]))


# -- homology by ranks, and the Morse matching as a certificate -------------------


def rank_groups(sizes, mats, torsion_from: int) -> HomologyResult:
    """Groups of ..-> C_i -> C_{i-1} -> .. where mats[i] is D_i: rank
    n_i - r_i - r_{i+1} plus the non-unit invariant factors of
    D_{i + torsion_from}, which is D_{i+1} for homology and D_i for
    cohomology."""
    factors = [invariant_factors(m) if all(m.shape) else [] for m in mats] + [[]]
    betti = tuple(n - len(factors[i]) - len(factors[i + 1]) for i, n in enumerate(sizes))
    torsion = tuple(tuple(d for d in factors[i + torsion_from] if d > 1)
                    for i in range(len(sizes)))
    return HomologyResult(betti, torsion)


def rank_homology(cc) -> HomologyResult:
    """Homology from every full boundary matrix; reduced homology on an
    augmented complex, whose degree-zero map is the augmentation."""
    mats = [cc.sparse_boundary(i) for i in range(cc.dim + 1)]
    return rank_groups([len(b) for b in cc.bases], mats, 1)


def rank_cohomology(cc) -> HomologyResult:
    """Cohomology from the same matrices: the coboundary out of degree i is
    the transpose of D_{i+1}.  The augmentation is ignored."""
    mats = [cc.sparse_boundary(i) for i in range(cc.dim + 1)]
    mats[0] = SparseMatrix(0, [])
    return rank_groups([len(b) for b in cc.bases], mats, 0)


def rank_homology_of_cells(cc, cells) -> HomologyResult:
    """Homology of the boundary matrices restricted to the rows and
    columns of the labels ``cells``."""
    keep = [[i for i, c in enumerate(basis) if c in cells] for basis in cc.bases]
    mats = [SparseMatrix(0, [{} for _ in keep[0]])]
    for r in range(1, cc.dim + 1):
        cols = cc.sparse_boundary(r).column_entries()
        at = {i: n for n, i in enumerate(keep[r - 1])}
        mats.append(SparseMatrix(len(at), [{at[y]: v for y, v in cols[x].items() if y in at}
                                           for x in keep[r]]))
    return rank_groups([len(k) for k in keep], mats, 1)


def check_morse_certificate(cc, cells, augmented: bool, morse, result: HomologyResult) -> None:
    """Assert that ``morse``, what ``chains._morse(cc, cells, augmented)``
    returned, certifies ``result``: its critical cells and matched pairs
    partition ``cells`` (and the empty cell, index ``len(complex)``, when
    ``augmented``), each pair a face and a coface meeting with the sign it
    records, +1 or -1 in the table; the Hasse diagram with each matched
    edge reversed has no cycle; the critical count c_i of each degree is at least
    b_i + t_i + t_(i-1), t counting torsion factors; their alternating sum
    is the Euler characteristic of the cells; and the Morse boundary
    squares to zero and sums the gradient paths, read in the search's
    finishing order."""
    s = cc.complex
    empty = len(s)
    members = set(cells) | ({empty} if augmented else set())

    def rank(i):
        return -1 if i == empty else s.rank(s.cells[i])

    def faces(i):  # the faces among the members, by index
        if i == empty:
            return []
        if augmented and rank(i) == 0:
            return [empty]
        return [j for j in map(s._i, s.faces(s.cells[i])) if j in members]

    degrees = range(-1, len(morse.critical) - 1)  # critical[-1] is degree -1
    for r in degrees:
        assert all(rank(c) == r for c in morse.critical[r]), f"degree {r}"
    seen = [c for r in degrees for c in morse.critical[r]]
    def sign(x, y):  # s(x, y) in the table; a vertex's own sign over the empty cell
        if y == empty:
            return cc.signs.vertex_signs[s.cells[x]]
        return cc.signs.s(s.cells[x], s.cells[y])

    up = {}
    for y, p, e in morse.pairs:
        assert y in faces(p), f"pair {y, p} is not a face and a coface among the cells"
        assert e == sign(p, y) in (1, -1), f"pair {y, p} meets with the coefficient {e}"
        up[y] = p
        seen += [y, p]
    assert sorted(seen) == sorted(members), "the matching does not partition the cells"

    # depth-first search of x -> each face, except y -> p for a pair (y, p)
    def heads(x):
        return [y for y in faces(x) if up.get(y) != x] + ([up[x]] if x in up else [])

    state = dict.fromkeys(members, 0)  # 0 unseen, 1 on the path, 2 done
    done = []  # each cell after every cell it reaches
    for root in members:
        if state[root]:
            continue
        state[root] = 1
        path = [(root, iter(heads(root)))]
        while path:
            x, it = path[-1]
            y = next(it, None)
            if y is None:
                state[x] = 2
                done.append(x)
                path.pop()
            elif state[y] == 1:
                raise AssertionError(f"the matching closes a cycle through cell {y}")
            elif not state[y]:
                state[y] = 1
                path.append((y, iter(heads(y))))

    torsion = [len(t) for t in result.torsion] + [0]  # [-1] is degree -1
    for i, b in enumerate(result.betti):
        assert len(morse.critical[i]) >= b + torsion[i] + torsion[i - 1], f"degree {i}"
    chi = sum((-1) ** (rank(x) % 2) for x in members)
    assert sum((-1) ** (r % 2) * len(morse.critical[r]) for r in degrees) == chi
    assert squares_to_zero([np.asarray(m) for m in morse.boundaries]), "the Morse boundary"

    # the Morse boundary sums the gradient paths: a face y paired with p
    # flows to -s(p, y) s(p, z) times the flow of each other face z of p
    critical = {c for r in degrees for c in morse.critical[r]}
    flow = {}
    for x in done:
        flow[x] = {x: 1} if x in critical else {}
        if x in up:
            p = up[x]
            for z in faces(p):
                for c, v in flow[z].items() if z != x else ():
                    flow[x][c] = flow[x].get(c, 0) - sign(p, x) * sign(p, z) * v
    for r in range(len(result.betti)):
        at = {c: j for j, c in enumerate(morse.critical[r - 1])}
        for c, col in zip(morse.critical[r], morse.boundaries[r].column_entries()):
            want = {}
            for y in faces(c):
                for d, v in flow[y].items():
                    want[at[d]] = want.get(at[d], 0) + sign(c, y) * v
            assert col == {j: v for j, v in want.items() if v}, f"the Morse boundary of {c}"


# -- the order as bitsets --------------------------------------------------------


def _set_bits(mask: int) -> list:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class BitsetOrder:
    """The order a relation generates, kept whole: each cell's down-set and
    up-set as one bitset over the canonical order (rank, then label), closed
    by a stack walk that takes a cell's closure after those of the cells it
    names, as the library stored its order before it kept only covers.
    ``labels``, ``ranks`` and ``below`` are what a constructor hands the
    core: cells by position, each naming the positions below it.  Every
    query reads the bitsets and answers in indices of the canonical order,
    except where it names the library's types."""

    def __init__(self, labels, ranks, below):
        n = len(labels)
        order = sorted(range(n), key=lambda p: (ranks[p], labels[p]))
        new = [0] * n
        for k, p in enumerate(order):
            new[p] = k
        self.cells = tuple(labels[p] for p in order)
        self.ranks = tuple(ranks[p] for p in order)
        rel = [[new[q] for q in below[p]] for p in order]
        if len(set(self.cells)) != n:
            index = dict(zip(self.cells, range(n)))
            twice = next(c for i, c in enumerate(self.cells) if index[c] != i)
            raise CccError(f"labels collide: {twice} names two cells")
        down = [0] * n  # 0: not reached, -1: waiting for the cells it names
        done = []
        stack = list(range(n - 1, -1, -1))
        while stack:
            i = stack.pop()
            todo = [j for j in rel[i] if down[j] <= 0]
            if todo:
                if any(down[j] for j in todo):
                    raise CoverCycleError(
                        f"the order relation has a cycle through {self.cells[i]}")
                down[i] = -1
                stack += [i, *todo]
            elif down[i] <= 0:
                m = 1 << i
                for j in rel[i]:
                    m |= down[j]
                down[i] = m
                done.append(i)
        up = [1 << i for i in range(n)]
        for i in reversed(done):
            for j in rel[i]:
                up[j] |= up[i]
        self.down, self.up = down, up
        self.of_rank = {r: sum(1 << i for i in range(n) if self.ranks[i] == r)
                        for r in set(self.ranks)}

    @classmethod
    def of_complex(cls, s: Ccc) -> "BitsetOrder":
        """The order of ``s`` as given by its covers."""
        return cls(s.cells, [s.rank(x) for x in s.cells],
                   [[s.cells.index(y) for y in s.covers(x)] for x in s.cells])

    def __eq__(self, other):
        return (self.cells, self.ranks, self.down) == (other.cells, other.ranks, other.down)

    def faces(self, i: int) -> tuple:
        return tuple(_set_bits(self.down[i] & self.of_rank.get(self.ranks[i] - 1, 0)))

    def cofaces(self, i: int) -> tuple:
        return tuple(_set_bits(self.up[i] & self.of_rank.get(self.ranks[i] + 1, 0)))

    def covers(self, i: int) -> tuple:
        strict = self.down[i] ^ (1 << i)
        under = 0
        for j in _set_bits(strict):
            under |= self.down[j] ^ (1 << j)
        return tuple(_set_bits(strict & ~under))

    def closure(self, ix) -> set:
        m = 0
        for i in ix:
            m |= self.down[i]
        return set(_set_bits(m))

    def up_set(self, i: int) -> set:
        return set(_set_bits(self.up[i]))

    def leq(self, j: int, i: int) -> bool:
        return bool(self.down[i] >> j & 1)

    def star(self, i: int) -> tuple:
        star = 0
        for z in _set_bits(self.up[i]):
            star |= self.down[z]
        return tuple(_set_bits(self.up[i])), tuple(_set_bits(star & ~self.up[i]))

    def meet(self, ix):
        m = -1
        for i in ix:
            m &= self.down[i]
        if m == 0:
            return None
        top = m.bit_length() - 1
        return top if self.down[top] == m else None

    def join(self, ix):
        m = -1
        for i in ix:
            m &= self.up[i]
        if m == 0:
            return None
        low = (m & -m).bit_length() - 1
        return low if self.up[low] == m else None

    def maximal(self) -> tuple:
        return tuple(i for i, m in enumerate(self.up) if m == 1 << i)

    def classify(self) -> Classification:
        n = max(self.ranks)
        maximal = sum(1 << i for i in self.maximal())
        equi = all(self.ranks[i] == n for i in _set_bits(maximal))
        boundary = frozenset(self.cells[i] for i in range(len(self.cells))
                             if self.ranks[i] < n and (self.up[i] & maximal).bit_count() == 1)
        nonsingular = (equi
                       and all(len(self.cofaces(i)) <= 2 for i in range(len(self.cells))
                               if self.ranks[i] == n - 1)
                       and all(len(self.faces(i)) == 2 for i in range(len(self.cells))
                               if self.ranks[i] == 1))
        return Classification(equidimensional=equi, dimension=n, boundary=boundary,
                              nonsingular=nonsingular, manifold_like=nonsingular and not boundary)

    def dual(self) -> "BitsetOrder":
        """The order reversed and the ranks complemented."""
        n = max(self.ranks)
        return BitsetOrder(self.cells, [n - r for r in self.ranks],
                           [_set_bits(m ^ (1 << i)) for i, m in enumerate(self.up)])

    def subcomplex(self, ix) -> "BitsetOrder":
        """The induced order on the down-closed set of indices ``ix``; a set
        that is not down-closed raises ValueError naming its first cell with
        a cell below it outside the set."""
        chosen = sorted(set(ix))
        mask = sum(1 << i for i in chosen)
        for i in chosen:
            if self.down[i] & ~mask:
                raise ValueError(f"subset is not closed: {self.cells[i]} has faces outside it")
        at = dict(zip(chosen, range(len(chosen))))
        return BitsetOrder([self.cells[i] for i in chosen], [self.ranks[i] for i in chosen],
                           [[at[j] for j in _set_bits(self.down[i] ^ (1 << i))] for i in chosen])

    def chains(self) -> list:
        """Every non-empty ascending chain, shorter ones first, each chain
        extended by the cells above its top in index order."""
        ups = [_set_bits(m ^ (1 << i)) for i, m in enumerate(self.up)]
        out, level = [], [(i,) for i in range(len(ups))]
        while level:
            out += level
            level = [ch + (j,) for ch in level for j in ups[ch[-1]]]
        return out

    def chain_count(self) -> int:
        ends = [0] * len(self.down)
        for i in sorted(range(len(self.down)), key=lambda i: self.down[i].bit_count()):
            ends[i] = 1 + sum(ends[j] for j in _set_bits(self.down[i] ^ (1 << i)))
        return sum(ends)

    def validate_axioms(self) -> ValidationReport:
        """The axiom report, every check read off the bitsets."""
        cells, ranks, below, above = self.cells, self.ranks, self.down, self.up
        n = len(cells)
        of_rank = self.of_rank
        first = {r: min(i for i in range(n) if ranks[i] == r) for r in of_rank}
        out = []
        for i in range(n):
            for j in _set_bits(below[i] & ~(1 << i) & -(1 << first[ranks[i]])):
                out.append(AxiomViolation(
                    "1", (cells[j], cells[i]),
                    f"{cells[j]} < {cells[i]} but rank {ranks[j]} >= rank {ranks[i]}"))
        out += pairwise_meet_bitsets(self)
        for i in range(n):
            for j in _set_bits(below[i] & ~(1 << i)):
                if not above[j] & below[i] & of_rank.get(ranks[j] + 1, 0):
                    out.append(AxiomViolation(
                        "2b", (cells[j], cells[i]),
                        f"no cell of rank {ranks[j] + 1} lies between {cells[j]} and {cells[i]}"))
        for i in range(n):
            if ranks[i] == 0:
                continue
            fm = below[i] & of_rank.get(ranks[i] - 1, 0)
            if not fm:
                out.append(AxiomViolation(
                    "3", (cells[i],), f"{cells[i]} has rank {ranks[i]} but no faces"))
                continue
            ub = -1
            for j in _set_bits(fm):
                ub &= above[j]
            low = (ub & -ub).bit_length() - 1 if ub else -1
            if low != i or above[i] != ub:
                out.append(AxiomViolation(
                    "3", (cells[i],), f"{cells[i]} is not the least upper bound of its faces"))
        for i in range(n):
            r = ranks[i]
            if r < 2:
                continue
            for j in _set_bits(below[i] & of_rank.get(r - 2, 0)):
                between = above[j] & below[i] & of_rank.get(r - 1, 0)
                k = between.bit_count()
                if k != 2:
                    out.append(AxiomViolation(
                        "4", (cells[j], cells[i]),
                        f"{k} cells between {cells[j]} and {cells[i]}, expected exactly two"))
                    continue
                p, q = _set_bits(between)
                common = below[p] & below[q]
                if common.bit_length() - 1 != j or below[j] != common:
                    out.append(AxiomViolation(
                        "4", (cells[j], cells[i]),
                        f"the two cells between {cells[j]} and {cells[i]} "
                        f"do not meet at {cells[j]}"))
        return ValidationReport(passed=not out, violations=tuple(out))


def pairwise_meet_bitsets(o: BitsetOrder) -> list:
    """The axiom-2a violations of the order ``o``, every pair of cells
    tested: the last common lower bound in index order must have every
    common lower bound below it."""
    cells, below = o.cells, o.down
    out = []
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            common = below[i] & below[j]
            if common and below[common.bit_length() - 1] != common:
                out.append(AxiomViolation(
                    "2a", (cells[i], cells[j]),
                    f"{cells[i]} and {cells[j]} are bounded below "
                    "but have no greatest lower bound"))
    return out


# -- axiom 2a ------------------------------------------------------------------


def pairwise_meet_violations(s: Ccc) -> list:
    """The axiom-2a violations of ``s``, found by testing every pair of
    cells for a greatest lower bound: the last common lower bound in
    ``s.cells`` order must have every common lower bound below it."""
    cells = s.cells
    n = len(cells)
    down = [s.closure([x]) for x in cells]
    index = dict(zip(cells, range(n)))
    out = []
    # pairwise greatest lower bounds generate all finite meets
    for i in range(n):
        for j in range(i + 1, n):
            common = down[i] & down[j]
            if not common:
                continue
            top = max(map(index.__getitem__, common))
            if down[top] != common:
                out.append(AxiomViolation(
                    "2a", (cells[i], cells[j]),
                    f"{cells[i]} and {cells[j]} are bounded below "
                    "but have no greatest lower bound"))
    return out


# -- labels and the barycentric subdivision -------------------------------------


def preorder_key(text: str) -> tuple:
    """The sort key of a serialized label, read by recursive descent:
    ``(0,)`` for ``0``, ``(1, name)`` for a name and ``(2, *apex, *base)``
    for ``C(apex;base)``.  One frame per cone, so for shallow labels."""
    def term(pos):
        if text.startswith("C(", pos):
            apex, pos = term(pos + 2)
            if not text.startswith(";", pos):
                raise ValueError(f"expected ';' at {pos} in {text!r}")
            base, pos = term(pos + 1)
            if not text.startswith(")", pos):
                raise ValueError(f"expected ')' at {pos} in {text!r}")
            return (2,) + apex + base, pos + 1
        end = pos
        while end < len(text) and text[end] not in ";)":
            end += 1
        name = text[pos:end]
        return ((0,) if name == "0" else (1, name)), end

    key, pos = term(0)
    if pos != len(text):
        raise ValueError(f"trailing characters in {text!r}")
    return key


def cone_label(s: Ccc, chain) -> CellId:
    """The label of an ascending chain of cells of ``s``, one cone at a
    time: cones around the chain's vertex, or around the empty base when
    its least member is not a vertex."""
    if s.rank(chain[0]) == 0:
        cur, apexes = chain[0], chain[1:]
    else:
        cur, apexes = EMPTY, chain
    for a in reversed(apexes):
        cur = CellId.cone(a, cur)
    return cur


def _compare(a, b) -> int:
    """-1, 0 or 1 as ``a`` sorts below, equal to or above ``b``, by walking
    both labels: the empty base sorts first, then names, then cones, which
    compare apex first and base second.  The walk keeps its own stack, so
    labels of any depth compare."""
    kind = lambda c: 0 if c is EMPTY else 1 if c.name is not None else 2
    todo = []  # base pairs still to compare once the apexes tie
    while True:
        if a is not b:
            if kind(a) != kind(b):
                return -1 if kind(a) < kind(b) else 1
            if kind(a) == 1:
                if a.name != b.name:
                    return -1 if a.name < b.name else 1
            else:
                todo.append((a.base, b.base))
                a, b = a.apex, b.apex
                continue
        if not todo:
            return 0
        a, b = todo.pop()


def label_walk_barycentric(s: Ccc):
    """The barycentric subdivision built over labels: chains of cells grown
    from the closure of each top cell, each labelled from scratch by
    :func:`cone_label`, and a sign written for every removal of a member."""
    chains_by_top: dict = {}
    # a cell strictly below another has the smaller closure
    for c in sorted(s.cells, key=lambda c: len(s.closure([c]))):
        chains_by_top[c] = [(c,)] + [ch + (c,) for b in s.closure([c]) if b != c
                                     for ch in chains_by_top[b]]
    all_chains = [ch for per in chains_by_top.values() for ch in per]
    label = {ch: cone_label(s, ch) for ch in all_chains}
    ranks = {label[ch]: len(ch) - 1 for ch in all_chains}
    assert len(ranks) == len(all_chains), "chain labels collide"
    # the face without ch[k] drops the (len(ch) - 1 - k)-th largest member
    signs = {(label[ch], label[ch[:k] + ch[k + 1:]]): (-1) ** (len(ch) - 1 - k)
             for ch in all_chains if len(ch) > 1 for k in range(len(ch))}
    below = {c: [] for c in ranks}
    for c, face in signs:
        below[c].append(face)
    out = Ccc(ranks, below)
    return out, SignTable(out, signs)


def mask_cofaces(s: Ccc) -> dict:
    """The cells one rank up in the up-set of each cell, in cell order."""
    return {x: tuple(y for y in s.cells if y in up and s.rank(y) == s.rank(x) + 1)
            for x, up in zip(s.cells, map(s.up_set, s.cells))}


# -- cycle representatives -------------------------------------------------


def solved_cycle_generators(cc, i: int) -> list:
    """Free cycle generators from three Smith forms: a kernel basis of the
    dense outgoing boundary, the incoming boundary solved for in it, and
    the quotient of those coordinates; degree zero takes every vertex."""
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
        gens.append(_dense_reduce_support(vec, d_in))
    return gens


def _dense_reduce_support(vec, d_in) -> list:
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


# -- the diamond and top-cell rules over labels --------------------------------


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


def _diamond_signs(s: Ccc, cells) -> tuple:
    """The canonical signs of the faces of ``cells`` (closed under taking
    faces, in canonical order) by the diamond rule, and the first cell at
    which it fails (None if there is none; the signs then stop there)."""
    signs: dict = {}
    down: dict = {}  # signed cell -> its faces with their signs
    for x in cells:
        if s.rank(x):
            e = _link_signs({y: down[y] for y in s.faces(x)})
            if e is None:
                return signs, x
            for y in s.faces(x):
                signs[(x, y)] = e[y]
        down[x] = _down(s, signs, x)
    return signs, None


# -- the loader by label dicts --------------------------------------------------

_TERM = re.compile(r"[^;)]*")
_BAD_NAME_CHARS = set("();#") | set(" \t\r\n")


def _check_name(name) -> None:
    if (not isinstance(name, str) or not name or name == "0"
            or not _BAD_NAME_CHARS.isdisjoint(name)):
        raise FormatError(f"invalid cell name {name!r}")


def full_pass_parse_cell_id(token: str) -> CellId:
    """A label read by the full iterative pass for every token, plain
    names included."""
    key = []
    seps = []  # the separator each open cone expects next: ';' or ')'
    pos = 0
    while True:
        while token.startswith("C(", pos):
            key.append(2)
            seps.append(";")
            pos += 2
        end = _TERM.match(token, pos).end()
        term, pos = token[pos:end], end
        if not term:
            raise FormatError(f"empty token in cell id {token!r}")
        if term != "0":
            _check_name(term)
            key += (1, term)
        elif not seps:
            raise FormatError("the empty cell is not a standalone cell id")
        elif seps[-1] == ";":
            raise FormatError(f"cone apex may not be empty in {token!r}")
        else:
            key.append(0)
        while seps and seps[-1] == ")":  # a base ended: close its cone
            if not token.startswith(")", pos):
                raise FormatError(f"expected ')' in cone id {token!r}")
            seps.pop()
            pos += 1
        if not seps:
            break
        if not token.startswith(";", pos):
            raise FormatError(f"expected ';' in cone id {token!r}")
        seps[-1] = ")"
        pos += 1
    if pos != len(token):
        raise FormatError(f"trailing characters in cell id {token!r}")
    return tuple.__new__(CellId, key)


def label_dict_ccc(ranks: Mapping, relation: Mapping) -> Ccc:
    """A complex from label dicts: the cells sorted by (rank, label) and
    numbered through a label -> index dict before the core closes them."""
    order = sorted([(r, c) for c, r in ranks.items()])
    if order and order[0][0] < 0:
        raise RankOrderError(f"cell {order[0][1]} has negative rank {order[0][0]}")
    labels = [c for _, c in order]
    at = dict(zip(labels, range(len(labels))))
    below = [()] * len(labels)
    try:
        for c, ds in relation.items():
            below[at[c]] = [at[d] for d in ds]
    except KeyError as e:
        raise UnknownCellError(f"the relation names the unknown cell {e.args[0]}") from None
    return Ccc.__new__(Ccc)._setup(labels, [r for r, _ in order], below)[0]


def label_dict_build_complex(cell_ranks, covers) -> Ccc:
    """A complex from (cell, rank) and covering pairs kept in label dicts."""
    ranks: dict = {}
    for c, r in cell_ranks:
        if c in ranks:
            raise DuplicateCellError(f"cell {c} declared twice")
        if r < 0:
            raise RankOrderError(f"cell {c} has negative rank {r}")
        ranks[c] = int(r)
    below: dict = {c: [] for c in ranks}
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
    return label_dict_ccc(ranks, below)


def label_dict_loads(text: str) -> Ccc:
    """A ``ccc v1`` text read line by line with the full-pass parser and
    built from label dicts, with the file errors of ``fileformat.loads``."""
    cell_ranks, covers, ids = [], [], {}

    def cell_id(token):
        if token not in ids:
            ids[token] = full_pass_parse_cell_id(token)
        return ids[token]

    lines = text.splitlines()
    if not lines or lines[0].split("#")[0].strip() != "ccc v1":
        raise FormatError("missing 'ccc v1' header")
    for ln, raw in enumerate(lines[1:], start=2):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "cell" and len(parts) == 3:
                cell_ranks.append((cell_id(parts[1]), int(parts[2])))
            elif parts[0] == "cover" and len(parts) == 3:
                covers.append((cell_id(parts[1]), cell_id(parts[2])))
            else:
                raise FormatError(f"unrecognized line {raw!r}")
        except (ValueError, CccError) as e:
            raise FormatError(f"line {ln}: {e}") from None
    for c, r in cell_ranks:
        if r >= len(cell_ranks):
            raise FormatError(f"cell {c} has rank {r} but only {len(cell_ranks)} cells")
    try:
        return label_dict_build_complex(cell_ranks, covers)
    except CccError as e:
        raise FormatError(str(e)) from None


def unchecked_dumps(s: Ccc) -> str:
    """The ``ccc v1`` text of ``s``, written whatever it holds: its cells
    in canonical order, then its covering pairs."""
    lines = ["ccc v1"] + [f"cell {c} {s.rank(c)}" for c in s.cells]
    lines += [f"cover {lo} {hi}" for lo, hi in covering_pairs(s)]
    return "\n".join(lines) + "\n"
