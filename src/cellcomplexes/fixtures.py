"""Named example complexes used by the command line and the test suite.

The torus fixture names its cells ``v<r><c>`` (vertices), ``h<r><c>``
(horizontal edges, from ``v<r><c>`` to the next column), ``e<r><c>``
(vertical edges, to the next row) and ``f<r><c>`` (squares), indices mod 3.
"""

from __future__ import annotations

from .cells import CellId
from .complexes import MAX_CELLS, Ccc, build_complex, from_simplicial, product


def _c(name: str) -> CellId:
    return CellId.of(name)


def point() -> Ccc:
    return build_complex([(_c("v"), 0)], [])


def edge() -> Ccc:
    return from_simplicial([("a", "b")])


def two_triangles() -> Ccc:
    """Two triangles glued along one edge; eleven cells."""
    return from_simplicial([("a", "b", "c"), ("b", "c", "d")])


def tetrahedron_solid() -> Ccc:
    return from_simplicial([("a", "b", "c", "d")])


def tetrahedron_boundary() -> Ccc:
    return from_simplicial([("a", "b", "c"), ("a", "b", "d"),
                            ("a", "c", "d"), ("b", "c", "d")])


def simplex(n: int) -> Ccc:
    """The solid n-simplex on vertices ``s0 .. sn``."""
    if n < 0:
        raise ValueError("simplex dimension must be non-negative")
    return from_simplicial([tuple(f"s{i}" for i in range(n + 1))])


def simplex_boundary(n: int) -> Ccc:
    """The boundary of the n-simplex on ``s0 .. sn``, an (n - 1)-sphere with
    2^(n+1) - 2 cells."""
    if n < 1:
        raise ValueError("simplex boundary dimension must be positive")
    verts = [f"s{i}" for i in range(n + 1)]
    return from_simplicial([[v for v in verts if v != w] for w in verts])


def square() -> Ccc:
    """A single square cell as the product of two edges."""
    return product(edge(), edge())


def torus9() -> Ccc:
    """The torus as a 3x3 grid of squares; face vector (9, 18, 9)."""
    cells = []
    covers = []
    for r in range(3):
        for c in range(3):
            cells.append((_c(f"v{r}{c}"), 0))
            cells.append((_c(f"h{r}{c}"), 1))
            cells.append((_c(f"e{r}{c}"), 1))
            cells.append((_c(f"f{r}{c}"), 2))
    for r in range(3):
        for c in range(3):
            r1, c1 = (r + 1) % 3, (c + 1) % 3
            covers.append((_c(f"v{r}{c}"), _c(f"h{r}{c}")))
            covers.append((_c(f"v{r}{c1}"), _c(f"h{r}{c}")))
            covers.append((_c(f"v{r}{c}"), _c(f"e{r}{c}")))
            covers.append((_c(f"v{r1}{c}"), _c(f"e{r}{c}")))
            covers.append((_c(f"h{r}{c}"), _c(f"f{r}{c}")))
            covers.append((_c(f"h{r1}{c}"), _c(f"f{r}{c}")))
            covers.append((_c(f"e{r}{c}"), _c(f"f{r}{c}")))
            covers.append((_c(f"e{r}{c1}"), _c(f"f{r}{c}")))
    return build_complex(cells, covers)


def _polygon(n: int, prefix: str) -> Ccc:
    """A circle of ``n`` vertices ``<prefix>0 .. <prefix>(n-1)`` and ``n`` edges."""
    return from_simplicial([(f"{prefix}{i}", f"{prefix}{(i + 1) % n}") for i in range(n)])


def torus(n: int, m: int | None = None) -> Ccc:
    """The torus as the product of an n-gon and an m-gon (m defaults to n):
    n*m squares and 4nm cells in all."""
    m = n if m is None else m
    if min(n, m) < 3:  # two edges on one vertex pair would be one simplex
        raise ValueError("torus polygons need at least 3 sides")
    return product(_polygon(n, "a"), _polygon(m, "b"))


def mobius3() -> Ccc:
    """A Mobius band of three squares; face vector (6, 9, 3).

    Columns are cut at three vertical edges; the third square wraps
    around with the twist, so its top edge runs into the bottom rim.
    """
    cells = []
    covers = []
    for i in range(3):
        cells.append((_c(f"a{i}"), 0))   # top rim vertex at cut i
        cells.append((_c(f"b{i}"), 0))   # bottom rim vertex at cut i
        cells.append((_c(f"e{i}"), 1))   # vertical cut edge
        cells.append((_c(f"t{i}"), 1))   # top edge of square i
        cells.append((_c(f"u{i}"), 1))   # bottom edge of square i
        cells.append((_c(f"f{i}"), 2))
        covers.append((_c(f"a{i}"), _c(f"e{i}")))
        covers.append((_c(f"b{i}"), _c(f"e{i}")))
    ends = {  # (edge, far endpoint): the twist sends t2 to b0 and u2 to a0
        ("t0", "a0"): "a1", ("t1", "a1"): "a2", ("t2", "a2"): "b0",
        ("u0", "b0"): "b1", ("u1", "b1"): "b2", ("u2", "b2"): "a0",
    }
    for (e, near), far in ends.items():
        covers.append((_c(near), _c(e)))
        covers.append((_c(far), _c(e)))
    for i in range(3):
        for e in (f"e{i}", f"e{(i + 1) % 3}", f"t{i}", f"u{i}"):
            covers.append((_c(e), _c(f"f{i}")))
    return build_complex(cells, covers)


def square_pentagon() -> Ccc:
    """A square and a pentagon sharing the edge ``x``; seventeen cells."""
    cells = [(_c(v), 0) for v in "pqrstuw"]
    cells += [(_c(e), 1) for e in ("x", "qr", "rs", "sp", "qt", "tu", "uw", "wp")]
    cells += [(_c("SQ"), 2), (_c("PG"), 2)]
    ends = {"x": "pq", "qr": "qr", "rs": "rs", "sp": "sp",
            "qt": "qt", "tu": "tu", "uw": "uw", "wp": "wp"}
    covers = [(_c(v), _c(e)) for e, vs in ends.items() for v in vs]
    covers += [(_c(e), _c("SQ")) for e in ("x", "qr", "rs", "sp")]
    covers += [(_c(e), _c("PG")) for e in ("x", "qt", "tu", "uw", "wp")]
    return build_complex(cells, covers)


def projective_plane() -> Ccc:
    """The minimal triangulation: a pentagon fan around a hub plus the five
    twisted diagonals.  Manifold-like but not orientable, with 2-torsion in
    degree-one homology."""
    fan = [(1, 2, 6), (2, 3, 6), (3, 4, 6), (4, 5, 6), (1, 5, 6)]
    caps = [(1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]
    return from_simplicial([tuple(f"v{i}" for i in f) for f in fan + caps])


def disjoint_edges() -> Ccc:
    return from_simplicial([("a", "b"), ("c", "d")])


def disjoint_triangles() -> Ccc:
    return from_simplicial([("a", "b", "c"), ("d", "e", "f")])


def bad_axiom4() -> Ccc:
    """A two-cell with three faces that all share one vertex and nothing
    else; the interval from the vertex to the two-cell has three middle
    cells."""
    cells = [(_c("v"), 0), (_c("y1"), 1), (_c("y2"), 1), (_c("y3"), 1), (_c("x"), 2)]
    covers = [(_c("v"), _c("y1")), (_c("v"), _c("y2")), (_c("v"), _c("y3")),
              (_c("y1"), _c("x")), (_c("y2"), _c("x")), (_c("y3"), _c("x"))]
    return build_complex(cells, covers)


FIXTURES = {
    "point": point,
    "edge": edge,
    "square": square,
    "two_triangles": two_triangles,
    "tetrahedron_solid": tetrahedron_solid,
    "tetrahedron_boundary": tetrahedron_boundary,
    "mobius3": mobius3,
    "torus9": torus9,
    "projective_plane": projective_plane,
    "square_pentagon": square_pentagon,
    "disjoint_edges": disjoint_edges,
    "disjoint_triangles": disjoint_triangles,
    "bad_axiom4": bad_axiom4,
}


def fixture(name: str, *args) -> Ccc:
    """Look a fixture up by name; ``simplex`` and ``simplex_boundary`` take
    a dimension and ``torus`` one or two polygon sizes.  Sizes whose cell
    count exceeds ``MAX_CELLS`` are refused before anything is built."""
    if name in ("simplex", "simplex_boundary"):
        if len(args) != 1:
            raise ValueError(f"{name} needs a dimension argument")
        n = int(args[0])
        missing = 1 if name == "simplex" else 2  # the empty face, and the top cell
        # the first test spares computing 2^(n+1) for a huge n
        if n >= MAX_CELLS.bit_length() or 2 ** (n + 1) - missing > MAX_CELLS:
            raise ValueError(f"{name} {n} has 2^{n + 1} - {missing} cells, "
                             f"more than {MAX_CELLS}")
        return simplex(n) if name == "simplex" else simplex_boundary(n)
    if name == "torus":
        if len(args) not in (1, 2):
            raise ValueError("torus needs one or two polygon sizes")
        n, m = int(args[0]), int(args[-1])
        if 4 * n * m > MAX_CELLS:
            raise ValueError(f"torus {n} {m} has {4 * n * m} cells, more than {MAX_CELLS}")
        return torus(n, m)
    try:
        builder = FIXTURES[name]
    except KeyError:
        known = ", ".join(sorted(FIXTURES)
                          + ["simplex N", "torus N [M]", "simplex_boundary N"])
        raise ValueError(f"unknown fixture {name!r}; known: {known}") from None
    if args:
        raise ValueError(f"fixture {name!r} takes no arguments")
    return builder()
