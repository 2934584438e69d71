"""Sign tables against flag-by-flag colorings.

A sign table stores incidence signs and vertex signs, and derives each
cell's flag coloring from them.  The oracles color every flag directly:
removal permutations for simplices and barycentric chains, cone
pull-backs for stellar subdivision, splicing for dual complexes.  Every
table must equal the signs read off those colorings exactly (no per-cell
flips allowed), and its derived orientations must equal the colorings.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    barycentric_colors,
    canonical_colors,
    dual_colors,
    flipped_colors,
    signs_from_colors,
    simplicial_colors,
    stellar_colors,
)

from cellcomplexes import fixtures
from cellcomplexes.cells import EMPTY, CellId
from cellcomplexes.complexes import from_simplicial, product
from cellcomplexes.duality import dual_orientations, reversed_orientation
from cellcomplexes.errors import CccError
from cellcomplexes.flags import flags_of, orient, orient_all_cells, simplicial_signs
from cellcomplexes.subdivision import barycentric, barycentric_via_stellar, stellar

C = CellId.of


def _complex(name):
    if name == "prism":  # triangle x edge
        return product(fixtures.simplex(2), fixtures.simplex(1))
    if name.startswith("simplex"):
        return fixtures.simplex(int(name[len("simplex"):]))
    return fixtures.fixture(name)


def _orients(name):
    try:
        orient_all_cells(fixtures.fixture(name))
    except CccError:
        return False
    return True


ORIENTED_FIXTURES = [n for n in sorted(fixtures.FIXTURES) if _orients(n)]
SIMPLICES = [f"simplex{n}" for n in range(5)]
SIMPLICIAL = ["disjoint_edges", "disjoint_triangles", "edge", "point",
              "projective_plane", "tetrahedron_boundary", "tetrahedron_solid",
              "two_triangles"] + SIMPLICES


def assert_matches(table, s, colors):
    assert table.complex == s
    assert table.signs == signs_from_colors(s, colors)
    for x in s.cells:
        assert table.orientations[x].colors == colors[x]


def _half_flipped(s, seed=0):
    rng = random.Random(seed)
    cells = [c for c in s.cells if rng.random() < 0.5]
    assert any(s.rank(c) == 0 for c in cells) and any(s.rank(c) > 0 for c in cells)
    return cells


def test_only_the_bad_fixture_is_refused():
    assert set(fixtures.FIXTURES) - set(ORIENTED_FIXTURES) == {"bad_axiom4"}


@pytest.mark.parametrize("name", ORIENTED_FIXTURES + SIMPLICES + ["prism"])
def test_orient_all_cells_matches_flag_coloring(name):
    s = _complex(name)
    assert_matches(orient_all_cells(s), s, canonical_colors(s))


@pytest.mark.parametrize("name", SIMPLICIAL)
def test_simplicial_signs_match_permutation_coloring(name):
    s = _complex(name)
    assert_matches(simplicial_signs(s), s, simplicial_colors(s))


def test_simplicial_signs_follow_a_vertex_order():
    s = fixtures.simplex(3)
    order = ["s2", "s0", "s3", "s1"]
    assert_matches(simplicial_signs(s, vertex_order=order), s,
                   simplicial_colors(s, vertex_order=order))


@pytest.mark.parametrize("name", ORIENTED_FIXTURES + SIMPLICES + ["prism"])
def test_barycentric_matches_permutation_coloring(name):
    s = _complex(name)
    bary, table = barycentric(s)
    assert_matches(table, bary, barycentric_colors(s, bary))


@pytest.mark.parametrize("flipped", [False, True])
@pytest.mark.parametrize("name", ["torus9", "tetrahedron_boundary", "mobius3"])
def test_stellar_matches_cone_coloring(name, flipped):
    s = _complex(name)
    table, colors = orient_all_cells(s), canonical_colors(s)
    if flipped:
        cells = _half_flipped(s)
        table, colors = table.flipped(cells), flipped_colors(colors, cells)
        assert_matches(table, s, colors)
    for x in s.cells:
        if s.rank(x) == 0:
            continue
        res, new_table = stellar(s, x, table)
        assert_matches(new_table, res.complex, stellar_colors(colors, res))


def test_cone_rule_reads_vertex_signs(torus9, torus9_signs):
    x = C("h00")
    table = torus9_signs.flipped(_half_flipped(torus9, seed=1))
    res, new = stellar(torus9, x, table)
    center = res.new_cells[EMPTY]
    assert new.vertex_signs[center] == 1
    for y, cy in res.new_cells.items():
        if y is EMPTY:
            continue
        assert new.s(cy, y) == 1
        for z in torus9.faces(y):
            assert new.s(cy, res.new_cells[z]) == -table.s(y, z)
        if torus9.rank(y) == 0:
            assert new.s(cy, center) == -table.vertex_signs[y]


def test_restrict_keeps_signs_and_orientations(torus9, torus9_signs):
    table = torus9_signs.flipped(_half_flipped(torus9, seed=2))
    for sub in (torus9.closure_complex(C("f00")), torus9.star(C("v11"))):
        small = table.restrict(sub)
        assert small.signs == {(x, y): v for (x, y), v in table.signs.items()
                               if x in sub and y in sub}
        for x in sub.cells:
            assert small.orientations[x] == table.orientations[x]


@pytest.mark.parametrize("name,flipped", [("torus9", False), ("torus9", True),
                                          ("tetrahedron_boundary", False),
                                          ("square", False), ("prism", False)])
def test_tower_matches_cone_coloring(name, flipped):
    s = _complex(name)
    table, colors = orient_all_cells(s), canonical_colors(s)
    if flipped:
        cells = _half_flipped(s)
        table, colors = table.flipped(cells), flipped_colors(colors, cells)
    tower = barycentric_via_stellar(s, table)
    cur, cur_table = s, table
    for stage in tower.stages:
        for t in stage.points:
            res, cur_table = stellar(cur, t, cur_table)
            cur, colors = res.complex, stellar_colors(colors, res)
        assert_matches(stage.signs, cur, colors)
    assert_matches(tower.final_signs, tower.final, colors)


@pytest.mark.parametrize("name", ["torus9", "tetrahedron_boundary", "point"])
def test_dual_tables_match_spliced_coloring(name):
    s = _complex(name)
    omega = orient(s)
    for cx, om in ((s, omega), (s.dual(), reversed_orientation(s, omega))):
        dos = dual_orientations(cx, om)
        overrides = {x: {f: om.sign(f) for f in flags_of(cx, x)}
                     for x in cx.maximal_cells()}
        colors = canonical_colors(cx, overrides)
        assert_matches(dos.signs, cx, colors)
        assert_matches(dos.dual_signs, dos.dual_complex,
                       dual_colors(cx, dos.dual_complex, om, colors))


_simplices = st.lists(
    st.sets(st.sampled_from(list("abcdef")), min_size=1, max_size=4),
    min_size=1, max_size=4)


@settings(max_examples=15, deadline=None)
@given(_simplices)
def test_random_simplicial_complexes_match_flag_colorings(simps):
    k = from_simplicial(simps)
    assert_matches(simplicial_signs(k), k, simplicial_colors(k))
    assert_matches(orient_all_cells(k), k, canonical_colors(k))
    bary, table = barycentric(k)
    assert_matches(table, bary, barycentric_colors(k, bary))
