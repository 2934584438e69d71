"""Seeded input generators with closed-form answers.

Every generator describes its complex as a :class:`Poset` worked out here,
without the library: cell names, ranks and covering pairs.  The checks
compare the library's outputs against these descriptions and against the
closed forms below, so no expected answer comes from the code under test.
The library is handed only the generated inputs (cover lists, facet
lists, factor complexes or ``ccc v1`` files).

Cell names follow the library's documented labelling: a simplex on vertex
tokens ``a, b, c`` is ``a_b_c`` (tokens sorted), a product cell is
``a*b``.  The seed permutes names, so the canonical cell order (rank, then
label) and with it the elimination pivot order differ from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations


@dataclass(frozen=True)
class Poset:
    ranks: dict     # name -> rank
    faces: dict     # name -> frozenset of the names it covers

    @property
    def dim(self) -> int:
        return max(self.ranks.values())

    def covers(self):
        return [(lo, hi) for hi, fs in self.faces.items() for lo in sorted(fs)]


# -- surfaces as square grids --------------------------------------------


def grid(rows: int, cols: int, row_wrap: int, col_wrap: int, rng: random.Random) -> Poset:
    """A ``rows`` x ``cols`` grid of squares with its sides identified.

    ``row_wrap`` glues the last vertex row to the first and ``col_wrap``
    the last column to the first: 0 leaves the side open, 1 glues it
    straight, -1 glues it with a reflection.  Torus: (1, 1); Klein
    bottle: (-1, 1); Mobius band: (0, -1) with one row.  Closed surfaces
    need ``rows, cols >= 3`` so that no two cells share their whole
    boundary.
    """
    def canon(r, c):
        if col_wrap and c == cols:
            c = 0
            if col_wrap < 0:
                r = (-r) % rows if row_wrap else rows - r
        if row_wrap and r == rows:
            r = 0
            if row_wrap < 0:
                c = (-c) % cols if col_wrap else cols - c
        return r, c

    verts, edges, squares = set(), set(), []
    for r in range(rows):
        for c in range(cols):
            a, b = canon(r, c), canon(r, c + 1)
            d, e = canon(r + 1, c), canon(r + 1, c + 1)
            sides = [frozenset(p) for p in ((a, b), (d, e), (a, d), (b, e))]
            verts.update((a, b, d, e))
            edges.update(sides)
            squares.append(frozenset(sides))
    keys = ([("v", v) for v in sorted(verts)]
            + [("e", tuple(sorted(e))) for e in sorted(edges, key=sorted)]
            + [("f", i) for i in range(len(squares))])
    tokens = list(range(len(keys)))
    rng.shuffle(tokens)
    name = {k: f"c{t:04d}" for k, t in zip(keys, tokens)}
    ename = lambda e: name[("e", tuple(sorted(e)))]
    ranks, faces = {}, {}
    for v in verts:
        ranks[name[("v", v)]] = 0
        faces[name[("v", v)]] = frozenset()
    for e in edges:
        ranks[ename(e)] = 1
        faces[ename(e)] = frozenset(name[("v", v)] for v in e)
    for i, sides in enumerate(squares):
        ranks[name[("f", i)]] = 2
        faces[name[("f", i)]] = frozenset(ename(e) for e in sides)
    return Poset(ranks, faces)


# -- simplicial complexes and products -----------------------------------


# The six-vertex real projective plane: every edge lies on two triangles.
RP2_FACETS = ((1, 2, 4), (1, 2, 6), (1, 3, 5), (1, 3, 6), (1, 4, 5),
              (2, 3, 4), (2, 3, 5), (2, 5, 6), (3, 4, 6), (4, 5, 6))


def vertex_tokens(n: int, prefix: str, rng: random.Random) -> list:
    """``n`` distinct vertex tokens whose sort order the seed shuffles."""
    ids = list(range(n))
    rng.shuffle(ids)
    return [f"{prefix}{i:02d}" for i in ids]


def simplex_facets(n: int, tokens) -> list:
    return [tuple(tokens[: n + 1])]


def sphere_facets(n: int, tokens) -> list:
    """Facets of the boundary of the n-simplex, an (n-1)-sphere."""
    return [tuple(f) for f in combinations(tokens[: n + 1], n)]


def rp2_facets(tokens) -> list:
    return [tuple(tokens[i - 1] for i in f) for f in RP2_FACETS]


def simplicial(facets) -> Poset:
    closed = set()
    for f in facets:
        vs = tuple(sorted(f))
        for k in range(1, len(vs) + 1):
            closed.update(combinations(vs, k))
    name = lambda s: "_".join(s)
    ranks = {name(s): len(s) - 1 for s in closed}
    faces = {name(s): frozenset(name(t) for t in combinations(s, len(s) - 1) if t)
             for s in closed}
    return Poset(ranks, faces)


def product(p: Poset, q: Poset) -> Poset:
    name = lambda a, b: f"{a}*{b}"
    ranks, faces = {}, {}
    for a, ra in p.ranks.items():
        for b, rb in q.ranks.items():
            ranks[name(a, b)] = ra + rb
            faces[name(a, b)] = frozenset(
                [name(x, b) for x in p.faces[a]] + [name(a, y) for y in q.faces[b]])
    return Poset(ranks, faces)


# -- closed forms ---------------------------------------------------------


def groups(betti, torsion=None):
    """(betti, torsion) in the library's invariant-factor layout."""
    betti = tuple(betti)
    torsion = tuple(tuple(t) for t in (torsion or [()] * len(betti)))
    return betti, torsion


TORUS = groups((1, 2, 1))
KLEIN_HOMOLOGY = groups((1, 1, 0), ((), (2,), ()))
KLEIN_COHOMOLOGY = groups((1, 1, 0), ((), (), (2,)))


def point_like(dim: int):
    """Groups of a contractible complex of dimension ``dim``."""
    return groups((1,) + (0,) * dim)


def sphere(k: int):
    """Groups of the k-sphere, k >= 1."""
    return groups(tuple(1 if i in (0, k) else 0 for i in range(k + 1)))


def rp2_times_contractible(dim: int):
    return groups((1,) + (0,) * dim, ((), (2,)) + ((),) * (dim - 1))


def below_sets(p: Poset) -> dict:
    """Every cell's strict down-set, from the covers."""
    out = {}
    for x in sorted(p.ranks, key=p.ranks.get):
        acc = set(p.faces[x])
        for y in p.faces[x]:
            acc |= out[y]
        out[x] = acc
    return out


def chain_counts(p: Poset) -> list:
    """Number of chains with k + 1 cells, for k = 0 .. dim: the face vector
    of the barycentric subdivision."""
    below = below_sets(p)
    ending = {}  # cell -> counts of chains with that top, by length - 1
    for x in sorted(p.ranks, key=p.ranks.get):
        counts = [1] + [0] * p.ranks[x]
        for y in below[x]:
            for k, v in enumerate(ending[y]):
                counts[k + 1] += v
        ending[x] = counts
    total = [0] * (p.dim + 1)
    for counts in ending.values():
        for k, v in enumerate(counts):
            total[k] += v
    return total


def top_flag_count(p: Poset) -> int:
    """Flags of the whole complex: maximal chains below top-rank cells."""
    flags = {}
    for x in sorted(p.ranks, key=p.ranks.get):
        flags[x] = sum(flags[y] for y in p.faces[x]) if p.faces[x] else 1
    return sum(flags[x] for x, r in p.ranks.items() if r == p.dim)
