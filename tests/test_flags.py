import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    brute_flag_adjacency,
    brute_flag_graph,
    brute_flags,
    component_count,
    per_top_flags,
    sign_from_flag,
    simplicial_boundary_matrices,
    two_color,
)

from cellcomplexes import fixtures, flags
from cellcomplexes.cells import CellId
from cellcomplexes.chains import chain_complex
from cellcomplexes.complexes import Ccc, from_simplicial, product
from cellcomplexes.errors import (CccError, NotEquidimensionalError, NotOrientableError,
                                  UnknownCellError)
from cellcomplexes.flags import (
    all_flags,
    flag_graph,
    flags_of,
    is_flag_connected,
    is_orientable,
    odd_flag_cycle,
    orient,
    orient_all_cells,
    simplicial_signs,
)

C = CellId.of


# -- enumeration -------------------------------------------------------------


def test_flags_of_vertex(torus9):
    assert flags_of(torus9, C("v00")) == [(C("v00"),)]


def test_flags_of_square(torus9):
    fl = flags_of(torus9, C("f00"))
    assert len(fl) == 8
    assert all(f[0] == C("f00") and len(f) == 3 for f in fl)


def test_flags_of_solid_tetrahedron_top(tetra_solid):
    top = C("a_b_c_d")
    assert len(flags_of(tetra_solid, top)) == 24


@pytest.mark.parametrize("name,count", [("two_triangles", 12), ("torus9", 72),
                                        ("tetrahedron_solid", 24),
                                        ("tetrahedron_boundary", 24)])
def test_flag_counts(name, count):
    assert len(all_flags(fixtures.fixture(name))) == count


def test_flags_match_brute_force(torus9):
    assert all_flags(torus9) == brute_flags(torus9)


PER_TOP = {
    **{name: (lambda name=name: fixtures.fixture(name)) for name in fixtures.FIXTURES},
    "triangle x edge": lambda: product(fixtures.simplex(2), fixtures.edge()),
    "faceless 2-cell": lambda: Ccc({C("v"): 0, C("e"): 1, C("p"): 2, C("q"): 2},
                                   {C("e"): [C("v")], C("p"): [C("e")]}),
    "triangle and edge": lambda: from_simplicial([("a", "b", "c"), ("c", "d")]),
}


@pytest.mark.parametrize("name", sorted(PER_TOP))
def test_all_flags_are_the_flags_below_each_top_in_turn(name):
    s = PER_TOP[name]()
    try:
        want = per_top_flags(s)
    except CccError as e:
        with pytest.raises(CccError) as info:
            all_flags(s)
        assert (type(info.value), str(info.value)) == (type(e), str(e))
    else:
        assert all_flags(s) == want


# -- adjacency graph ---------------------------------------------------------


def test_single_edge_graph():
    g = flag_graph(fixtures.edge())
    assert len(g.flags) == 2 and g.edge_count == 1


def test_tetrahedron_graph_three_regular(tetra_solid):
    g = flag_graph(tetra_solid)
    assert len(g.flags) == 24
    assert {len(v) for v in g.neighbors.values()} == {3}


def test_torus_graph_matches_brute_force(torus9):
    g = flag_graph(torus9)
    assert len(g.flags) == 72
    edges = {(a, b) for a in g.flags for b in g.neighbors[a] if a < b}
    assert edges == brute_flag_adjacency(g.flags)
    # one replacement at each of the three levels
    assert {len(v) for v in g.neighbors.values()} == {3}


def test_flag_graph_needs_equidimensional():
    s = from_simplicial([("a", "b", "c"), ("c", "d")])
    with pytest.raises(NotEquidimensionalError):
        flag_graph(s)


# -- connectivity and orientability ------------------------------------------


def test_disjoint_triangles_not_flag_connected():
    s = fixtures.disjoint_triangles()
    assert not is_flag_connected(s)
    assert not is_orientable(s)
    with pytest.raises(NotOrientableError) as e:
        orient(s)
    assert type(e.value.components) is int and e.value.components == 2


_RP2 = [f.split("_") for f in map(str, fixtures.projective_plane().cells_of_rank(2))]


@pytest.mark.parametrize("triangle", ["x y z", "a b c"])
def test_projective_plane_and_a_triangle_not_flag_connected(triangle):
    # the 2-coloring of RP2 stops at its first odd cycle; the count does not
    s = from_simplicial(_RP2 + [triangle.split()])
    assert not is_flag_connected(s)
    assert is_flag_connected(fixtures.projective_plane())


# pieces on disjoint vertex sets, ordered by their prefixes; "p" marks a copy of RP2
_pieces = st.lists(st.one_of(st.just("p"), st.lists(
    st.sets(st.sampled_from("abcde"), min_size=3, max_size=3), min_size=1, max_size=5)),
    min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(_pieces, st.permutations("fghij"))
def test_flag_components_of_disjoint_unions(pieces, prefixes):
    simps = [[pre + v for v in f] for pre, piece in zip(prefixes, pieces)
             for f in (_RP2 if piece == "p" else piece)]
    s = from_simplicial(simps)
    graph = brute_flag_graph(s)
    want = component_count(graph)
    _, odd, _ = two_color(graph)
    assert flags._component_count(flag_graph(s)) == want
    assert is_flag_connected(s) == (want == 1)
    assert odd_flag_cycle(s) == odd
    assert is_orientable(s) == (odd is None and want == 1)


@pytest.mark.parametrize("name", ["two_triangles", "torus9", "tetrahedron_solid",
                                  "tetrahedron_boundary"])
def test_orientable_fixtures(name):
    s = fixtures.fixture(name)
    assert is_flag_connected(s) and is_orientable(s)


def test_mobius_not_orientable(mobius3):
    assert is_flag_connected(mobius3)
    assert not is_orientable(mobius3)


def test_mobius_odd_cycle_certificate(mobius3):
    cyc = odd_flag_cycle(mobius3)
    g = flag_graph(mobius3)
    assert len(cyc) % 2 == 1
    assert len(set(cyc)) == len(cyc)
    for a, b in zip(cyc, cyc[1:]):
        assert b in g.neighbors[a]
    assert cyc[0] in g.neighbors[cyc[-1]]


def test_orient_single_edge():
    s = fixtures.edge()
    omega = orient(s)
    fl = all_flags(s)
    assert omega.sign(fl[0]) == 1 and omega.sign(fl[1]) == -1


def test_orient_two_triangles(two_triangles):
    omega = orient(two_triangles)
    g = flag_graph(two_triangles)
    assert len(omega.colors) == 12
    assert sum(1 for f in g.flags if omega.sign(f) == 1) == 6
    for f in g.flags:
        for nb in g.neighbors[f]:
            assert omega.sign(f) == -omega.sign(nb)


def test_orient_torus_reverified(torus9):
    omega = orient(torus9)
    g = flag_graph(torus9)
    for f in g.flags:
        for nb in g.neighbors[f]:
            assert omega.sign(f) == -omega.sign(nb)
    assert omega.sign(g.flags[0]) == 1  # canonical normalization


# -- sign tables -------------------------------------------------------------


def test_vertex_orientations_are_positive(torus9, torus9_signs):
    for v in torus9.cells_of_rank(0):
        assert torus9_signs.orientation(v).sign((v,)) == 1


def test_orientations_hold_each_cells_orientation(torus9, torus9_signs):
    assert torus9_signs.orientations == {x: torus9_signs.orientation(x) for x in torus9.cells}


def test_edge_signs_sum_to_zero(torus9, torus9_signs):
    for e in torus9.cells_of_rank(1):
        a, b = torus9.faces(e)
        assert torus9_signs.s(e, a) + torus9_signs.s(e, b) == 0


def test_sign_well_defined_over_all_flags(torus9, torus9_signs):
    for x in torus9.cells:
        for y in torus9.faces(x):
            vals = {
                sign_from_flag(torus9_signs.orientation(x),
                               torus9_signs.orientation(y), f)
                for f in flags_of(torus9, x) if f[1] == y
            }
            assert vals == {torus9_signs.s(x, y)}


@pytest.mark.parametrize("name", ["two_triangles", "torus9", "tetrahedron_solid",
                                  "tetrahedron_boundary", "mobius3", "square_pentagon"])
def test_codim2_interval_signs_cancel(name):
    s = fixtures.fixture(name)
    table = orient_all_cells(s)
    checked = 0
    for x in s.cells:
        if s.rank(x) < 2:
            continue
        for z in s.cells:
            if s.rank(z) != s.rank(x) - 2 or not s.lt(z, x):
                continue
            mids = [y for y in s.faces(x) if s.lt(z, y)]
            assert len(mids) == 2
            yp, ym = mids
            assert table.s(x, yp) * table.s(yp, z) + \
                table.s(x, ym) * table.s(ym, z) == 0
            checked += 1
    assert checked > 0


def test_restriction_is_an_orientation(torus9, torus9_signs):
    # restricting a cell's orientation to a face by extending flags upward
    for x in torus9.cells_of_rank(2):
        for y in torus9.faces(x):
            omega_x = torus9_signs.orientation(x)
            restricted = {f: omega_x.sign((x,) + f) for f in flags_of(torus9, y)}
            g = flag_graph(torus9.closure_complex(y))
            for f in g.flags:
                for nb in g.neighbors[f]:
                    assert restricted[f] == -restricted[nb]


def test_flipped_table_flips_signs(torus9, torus9_signs):
    x, y = C("f00"), C("h00")
    flipped = torus9_signs.flipped([x])
    assert flipped.s(x, y) == -torus9_signs.s(x, y)
    assert flipped.s(C("f11"), C("h11")) == torus9_signs.s(C("f11"), C("h11"))
    both = torus9_signs.flipped([x, y])
    assert both.s(x, y) == torus9_signs.s(x, y)


def test_flipping_a_cell_not_in_the_complex_is_refused(torus9_signs):
    with pytest.raises(UnknownCellError, match="^cell zz is not in the complex$"):
        torus9_signs.flipped([C("f00"), C("zz")])


def test_orient_all_cells_rejects_nonorientable_cell():
    # a one-cell with three vertices is not orientable (triangle flag graph)
    s = from_simplicial([("a", "b"), ("b", "c"), ("a", "c")])
    from cellcomplexes.complexes import build_complex
    bad = build_complex(
        [(C("a"), 0), (C("b"), 0), (C("c"), 0), (C("e"), 1)],
        [(C("a"), C("e")), (C("b"), C("e")), (C("c"), C("e"))])
    with pytest.raises(NotOrientableError) as err:
        orient_all_cells(bad)
    assert err.value.cell == C("e")


# -- simplicial signs --------------------------------------------------------


def test_triangle_signs():
    k = from_simplicial([("a", "b", "c")])
    t = simplicial_signs(k)
    abc = C("a_b_c")
    assert t.s(abc, C("b_c")) == 1   # dropped the smallest vertex
    assert t.s(abc, C("a_c")) == -1
    assert t.s(abc, C("a_b")) == 1   # dropped the largest vertex
    assert t.s(C("a_b"), C("a")) == 1
    assert t.s(C("a_b"), C("b")) == -1


def test_alternating_pattern_under_explicit_order():
    k = from_simplicial([("p", "q", "r", "s")])
    order = ["p", "q", "r", "s"]
    t = simplicial_signs(k, vertex_order=order)
    top = C("p_q_r_s")
    faces_desc = ["p_q_r", "p_q_s", "p_r_s", "q_r_s"]  # drop s, r, q, p
    for i, f in enumerate(faces_desc):
        assert t.s(top, C(f)) == (-1) ** i


@pytest.mark.parametrize("order, message", [
    (["a", "b"], "vertex_order misses the vertex c"),
    (["c", "a", "b", "a"], "vertex_order names a twice"),
    (["z", "a", "b", "c", "z"], "vertex_order names z twice"),
])
def test_vertex_order_must_name_each_vertex_once(order, message):
    k = from_simplicial([("a", "b", "c")])
    with pytest.raises(ValueError, match=f"^{message}$"):
        simplicial_signs(k, vertex_order=order)


def test_vertex_order_may_name_tokens_of_no_vertex():
    k = from_simplicial([("a", "b", "c")])
    assert simplicial_signs(k, vertex_order="zcybxa").signs == \
        simplicial_signs(k, vertex_order="cba").signs


def test_simplicial_matrices_match_oracle(tetra_boundary):
    t = simplicial_signs(tetra_boundary)
    cc = chain_complex(tetra_boundary, t)
    facets = [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")]
    bases, mats = simplicial_boundary_matrices(facets)
    for r in range(1, 3):
        ours = cc.boundary_matrix(r)
        theirs = mats[r]
        assert ours.shape == (theirs.rows, theirs.cols)
        for i in range(theirs.rows):
            for j in range(theirs.cols):
                assert ours[i, j] == theirs[i, j]


_simplices = st.lists(
    st.sets(st.sampled_from(list("abcdef")), min_size=1, max_size=4),
    min_size=1, max_size=4)


@settings(max_examples=25, deadline=None)
@given(_simplices)
def test_random_simplicial_matrices_match_oracle(simps):
    k = from_simplicial(simps)
    t = simplicial_signs(k)
    cc = chain_complex(k, t)
    bases, mats = simplicial_boundary_matrices([tuple(sorted(s)) for s in simps])
    for r in range(1, k.dim + 1):
        ours = cc.boundary_matrix(r)
        theirs = mats[r]
        assert ours.shape == (theirs.rows, theirs.cols)
        for i in range(theirs.rows):
            for j in range(theirs.cols):
                assert ours[i, j] == theirs[i, j]
