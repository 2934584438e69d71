import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    cone_label,
    dense_compose,
    dense_flag_sum_map,
    dense_identity,
    dense_stellar_map,
    disjoint_stellar_description,
    label_walk_barycentric,
    preorder_key,
)

from cellcomplexes import fixtures, subdivision
from cellcomplexes.cells import CellId, EMPTY, nest
from cellcomplexes.chains import Chain, chain_complex, homology, homology_of, is_acyclic
from cellcomplexes.complexes import Ccc, euler_characteristic
from cellcomplexes.errors import CccError, UnknownCellError
from cellcomplexes.fileformat import dumps
from cellcomplexes.flags import flag_graph, orient_all_cells
from cellcomplexes.subdivision import (
    ChainMap,
    barycentric,
    barycentric_via_stellar,
    big_phi,
    cell_of_chain,
    chain_of_cell,
    compare_phi_bigphi,
    phi,
    stellar,
    stellar_sequence,
    verify_subdivision_invariance,
)

C = CellId.of

# every fixture whose cells all orient, plus simplices and a torus
ORIENTED = [(name, ()) for name in fixtures.FIXTURES if name != "bad_axiom4"] \
    + [("simplex", (n,)) for n in range(1, 5)] + [("torus", (4,))]


# -- stellar subdivision -------------------------------------------------------


def test_stellar_at_torus_edge(torus9, torus9_signs):
    res, signs = stellar(torus9, C("h00"), torus9_signs)
    sx = res.complex
    assert len(sx) == 46
    assert [len(sx.cells_of_rank(r)) for r in range(3)] == [10, 23, 13]
    assert euler_characteristic(sx) == 0
    assert len(res.old_cells) == 33 and len(res.new_cells) == 13
    assert sx.validate_axioms().passed
    assert sx.classify().manifold_like


def test_stellar_square_pentagon():
    s = fixtures.square_pentagon()
    signs = orient_all_cells(s)
    res, _ = stellar(s, C("x"), signs)
    sx = res.complex
    assert [len(sx.cells_of_rank(r)) for r in range(3)] == [8, 14, 7]
    assert CellId.cone(C("x"), EMPTY) in sx
    # a fan: every new two-cell contains the new vertex
    center = CellId.cone(C("x"), EMPTY)
    for f in sx.cells_of_rank(2):
        assert f.is_cone
        assert sx.lt(center, f)
    assert sx.validate_axioms().passed


def test_stellar_rejects_vertices_and_unknowns(torus9, torus9_signs):
    with pytest.raises(ValueError):
        stellar(torus9, C("v00"), torus9_signs)
    with pytest.raises(UnknownCellError):
        stellar(torus9, C("zz"), torus9_signs)


def test_cone_face_rule(torus9, torus9_signs):
    res, _ = stellar(torus9, C("h00"), torus9_signs)
    sx = res.complex
    for y, cy in res.new_cells.items():
        if y is EMPTY:
            continue
        old_faces = [f for f in sx.faces(cy) if not (f.is_cone and f.apex == C("h00"))]
        assert old_faces == [y]


def test_cone_sign_rules(torus9, torus9_signs):
    res, signs = stellar(torus9, C("h00"), torus9_signs)
    sx = res.complex
    for y, cy in res.new_cells.items():
        if y is EMPTY:
            continue
        assert signs.s(cy, y) == 1
        for z in sx.faces(cy):
            if z.is_cone and z.base is not EMPTY:
                assert signs.s(cy, z) == -torus9_signs.s(y, z.base)


def test_transported_orientations_are_valid(torus9, torus9_signs):
    res, signs = stellar(torus9, C("h00"), torus9_signs)
    sx = res.complex
    for x in sx.cells:
        if sx.rank(x) == 0:
            continue
        g = flag_graph(sx.closure_complex(x))
        omega = signs.orientations[x]
        for f in g.flags:
            for nb in g.neighbors[f]:
                assert omega.sign(f) == -omega.sign(nb)


@pytest.mark.parametrize("name", ["two_triangles", "tetrahedron_boundary",
                                  "mobius3", "square_pentagon"])
def test_stellar_outputs_stay_valid(name):
    s = fixtures.fixture(name)
    signs = orient_all_cells(s)
    cls = s.classify()
    for x in s.cells:
        if s.rank(x) == 0:
            continue
        res, _ = stellar(s, x, signs)
        out = res.complex
        assert out.validate_axioms().passed
        oc = out.classify()
        assert oc.equidimensional == cls.equidimensional
        assert oc.nonsingular == cls.nonsingular
        assert oc.manifold_like == cls.manifold_like
        for e in out.cells_of_rank(1):
            assert len(out.faces(e)) == 2


def test_star_of_new_vertex_is_the_subdivided_star(torus9, torus9_signs):
    # the star of the inserted vertex consists of the old star's base plus
    # all the cones
    x = C("h00")
    res, _ = stellar(torus9, x, torus9_signs)
    sx = res.complex
    star = sx.star(res.new_cells[EMPTY])
    expected = set(torus9.open_star(x)) | set(res.new_cells.values())
    assert set(star.cells) == expected
    for y, cy in res.new_cells.items():
        want = 0 if y is EMPTY else torus9.rank(y) + 1
        assert star.rank(cy) == want


def test_stellar_preserves_acyclic_cells(torus9, torus9_signs):
    res, signs = stellar(torus9, C("f00"), torus9_signs)
    sx = res.complex
    for x in sx.cells:
        sub = sx.closure_complex(x)
        assert is_acyclic(sub, signs.restrict(sub))
    # the star of the new vertex is acyclic
    center = res.new_cells[EMPTY]
    star = sx.star(center)
    assert is_acyclic(star, signs.restrict(star))


# -- sequences and the disjoint-star description ---------------------------------


def test_sequence_empty(torus9, torus9_signs):
    out, _ = stellar_sequence(torus9, [], torus9_signs)
    assert out == torus9


def test_sequence_disjoint_edges_commute(torus9, torus9_signs):
    a, b = C("h00"), C("h11")
    assert not (torus9.up_set(a) & torus9.up_set(b))
    one, _ = stellar_sequence(torus9, [a, b], torus9_signs)
    two, _ = stellar_sequence(torus9, [b, a], torus9_signs)
    assert one == two
    assert one == disjoint_stellar_description(torus9, [a, b])


def test_sequence_all_squares_matches_description(torus9, torus9_signs):
    squares = list(torus9.cells_of_rank(2))
    rng = random.Random(7)
    shuffled = squares[:]
    rng.shuffle(shuffled)
    one, _ = stellar_sequence(torus9, squares, torus9_signs)
    two, _ = stellar_sequence(torus9, shuffled, torus9_signs)
    assert one == two
    assert one == disjoint_stellar_description(torus9, squares)


# -- the subdivision chain map -----------------------------------------------------


def test_phi_identity_off_the_up_set(torus9, torus9_signs):
    f = phi(torus9, C("h00"), torus9_signs)
    d = 1
    src = f.source.bases[d]
    j = src.index(C("h11"))
    col = f.matrix(d)[:, j]
    assert col.sum() == 1 and (col != 0).sum() == 1
    assert f.target.bases[d][int(np.nonzero(col)[0][0])] == C("h11")


def test_phi_cone_expansion(torus9, torus9_signs):
    x = C("h00")
    f = phi(torus9, x, torus9_signs)
    w = C("f00")  # one of the two squares above the edge
    col = f.matrix(2)[:, f.source.bases[2].index(w)]
    support = {f.target.bases[2][i] for i in np.nonzero(col)[0]}
    expected = {CellId.cone(x, y) for y in torus9.faces(w) if y != x}
    assert support == expected
    t = f.target.complex
    start = t._rank_range(2).start
    cones = {y: t._i(CellId.cone(x, y)) for y in torus9.faces(w) if y != x}
    assert f.columns[torus9._i(w)] == {i: torus9_signs.s(w, y) for y, i in cones.items()}
    for y, i in cones.items():
        assert col[i - start] == torus9_signs.s(w, y)


def test_phi_is_zero_outside_its_degrees(torus9, torus9_signs):
    f = phi(torus9, C("h00"), torus9_signs)
    for d in (3, -1):
        assert f.apply(Chain(d, {})) == Chain(d)


def test_apply_rejects_a_cell_of_another_rank(torus9, torus9_signs):
    f = phi(torus9, C("h00"), torus9_signs)
    with pytest.raises(ValueError, match=r"cell v00 does not have rank 1"):
        f.apply(Chain(1, {C("h11"): 1, C("v00"): 2}))


def test_matrix_is_empty_outside_its_degrees(torus9, torus9_signs):
    f = phi(torus9, C("h00"), torus9_signs)
    for d in (-1, 3):
        assert f.matrix(d).shape == (0, 0)


def test_then_rejects_maps_that_do_not_meet(torus9, torus9_signs):
    f, g = phi(torus9, C("h00"), torus9_signs), phi(torus9, C("h11"), torus9_signs)
    with pytest.raises(ValueError, match="chain maps do not compose: bases differ"):
        f.then(g)


def _replace_column(f, i, col):
    """``f`` with the column of the source cell at index ``i`` replaced."""
    return ChainMap(f.source, f.target, [col if j == i else c for j, c in enumerate(f.columns)])


def test_then_and_apply_add_images_up(torus9, torus9_signs):
    cc = chain_complex(torus9, torus9_signs)
    ident = ChainMap(cc, cc, [{j: 1} for j in range(len(torus9))])
    a, b = C("h00"), C("h11")
    ia, ib = torus9._i(a), torus9._i(b)
    f = _replace_column(ident, ia, {ia: 1, ib: 1})
    g = _replace_column(ident, ib, {ia: -1, ib: 1})
    fg = f.then(g)
    assert fg.columns[ia] == {ib: 1}  # the two paths to h00 cancel
    assert fg.images[a] == {b: 1}
    assert f.apply(Chain(1, {a: 1, b: 1})) == Chain(1, {a: 1, b: 2})


@pytest.mark.parametrize("extra", [-1, 1])
def test_chain_map_needs_one_column_per_source_cell(torus9, torus9_signs, extra):
    cc = chain_complex(torus9, torus9_signs)
    columns = [{i: 1} for i in range(len(torus9) + extra)]
    with pytest.raises(ValueError, match=f"^{36 + extra} columns for 36 source cells$"):
        ChainMap(cc, cc, columns)


def _label_reading(f, d):
    """The nonzero entries of ``f.matrix(d)``, keyed by labels."""
    m = f.matrix(d)
    out = {x: {} for x in f.source.bases[d]}
    for i, j in zip(*np.nonzero(m)):
        out[f.source.bases[d][j]][f.target.bases[d][i]] = int(m[i, j])
    return out


@pytest.mark.parametrize("name,args", ORIENTED)
def test_images_read_the_columns_of_the_matrices(name, args):
    s = fixtures.fixture(name, *args)
    signs = orient_all_cells(s)
    maps = [big_phi(s, signs), barycentric_via_stellar(s, signs).phi_total]
    maps += [phi(s, x, signs) for x in s.cells if s.rank(x) >= 1][:3]
    for f in maps:
        read = {}
        for d in range(s.dim + 1):
            read.update(_label_reading(f, d))
        assert f.images == read


def _assert_matrices(f, mats):
    assert len(mats) == f.source.dim + 1
    for d, want in enumerate(mats):
        got = f.matrix(d)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("name,args", ORIENTED)
def test_phi_matches_dense_oracle(name, args):
    s = fixtures.fixture(name, *args)
    signs = orient_all_cells(s)
    for x in s.cells:
        if s.rank(x) >= 1:
            f = phi(s, x, signs)
            _assert_matrices(f, dense_stellar_map(f.source, f.target, [x]))


@pytest.mark.parametrize("name,args", ORIENTED)
def test_tower_maps_match_dense_oracle(name, args):
    s = fixtures.fixture(name, *args)
    tower = barycentric_via_stellar(s, orient_all_cells(s))
    total = dense_identity(tower.phi_total.source)
    for stage in tower.stages:
        step = stage.step_map
        mats = dense_stellar_map(step.source, step.target, stage.points)
        _assert_matrices(step, mats)
        total = dense_compose(total, mats)
    _assert_matrices(tower.phi_total, total)


@pytest.mark.parametrize("name,args", ORIENTED)
def test_big_phi_matches_dense_oracle(name, args):
    s = fixtures.fixture(name, *args)
    f = big_phi(s, orient_all_cells(s))
    _assert_matrices(f, dense_flag_sum_map(f.source, f.target))


@pytest.mark.parametrize("name", ["two_triangles", "torus9", "tetrahedron_boundary",
                                  "square_pentagon", "mobius3"])
def test_phi_is_a_chain_map_everywhere(name):
    s = fixtures.fixture(name)
    signs = orient_all_cells(s)
    for x in s.cells:
        if s.rank(x) >= 1:
            assert phi(s, x, signs).is_chain_map()


def _squares_over(s, x):
    return sorted(w for w in s.up_set(x) if s.rank(w) == 2)


def test_is_chain_map_rejects_a_perturbed_coefficient(torus9, torus9_signs):
    f = phi(torus9, C("e00"), torus9_signs)
    w = torus9._i(_squares_over(torus9, C("e00"))[0])
    cone, v = next(iter(f.columns[w].items()))
    bad = _replace_column(f, w, {**f.columns[w], cone: 2 * v})
    assert f.is_chain_map() and not bad.is_chain_map()


def test_is_chain_map_rejects_a_misplaced_cone_image(torus9, torus9_signs):
    # one cone in the image of a square moves to a cone over the other square
    f = phi(torus9, C("e00"), torus9_signs)
    a, b = map(torus9._i, _squares_over(torus9, C("e00")))
    old = next(c for c in f.columns[a] if c not in f.columns[b])
    new = next(c for c in f.columns[b] if c not in f.columns[a])
    bad = _replace_column(f, a, {new if c == old else c: v for c, v in f.columns[a].items()})
    assert f.is_chain_map() and not bad.is_chain_map()


# -- barycentric subdivision --------------------------------------------------------


def test_barycentric_point():
    s = fixtures.point()
    b, _ = barycentric(s)
    assert len(b) == 1 and b.dim == 0


def test_barycentric_edge_is_path():
    b, _ = barycentric(fixtures.edge())
    assert [len(b.cells_of_rank(r)) for r in range(2)] == [3, 2]
    assert b.validate_axioms().passed


def test_barycentric_torus_counts(torus9):
    b, _ = barycentric(torus9)
    assert [len(b.cells_of_rank(r)) for r in range(3)] == [36, 108, 72]
    assert euler_characteristic(b) == 0
    assert b.validate_axioms().passed


def test_barycentric_alternating_signs(torus9):
    b, signs = barycentric(torus9)
    checked = 0
    for c in b.cells:
        desc = tuple(reversed(chain_of_cell(torus9, c)))
        for i in range(len(desc)):
            rest = desc[:i] + desc[i + 1:]
            if not rest:
                continue
            face = cell_of_chain(torus9, tuple(reversed(rest)))
            assert signs.s(c, face) == (-1) ** i
            checked += 1
    assert checked == 108 * 2 + 72 * 3


def _bary_inputs():
    """Every fixture, simplex 1-4, torus 4 and the boundary of the
    4-simplex, with the duals of the manifold-like ones; each with its
    barycentric subdivision, whose own subdivision is compared too (but
    for the 4-simplex: its second subdivision has 97 561 cells)."""
    out = {name: make() for name, make in fixtures.FIXTURES.items()}
    out.update({f"simplex{n}": fixtures.simplex(n) for n in range(1, 5)})
    out.update({"torus4": fixtures.torus(4), "sphere4": fixtures.simplex_boundary(4)})
    for name, s in list(out.items()):
        if s.classify().manifold_like:
            out[f"{name} dual"] = s.dual()
    for name, s in list(out.items()):
        if name != "simplex4":
            out[f"{name} barycentric"] = barycentric(s)[0]
    return out


BARY_INPUTS = _bary_inputs()


@pytest.mark.parametrize("name", sorted(BARY_INPUTS))
def test_barycentric_matches_the_label_walk(name):
    s = BARY_INPUTS[name]
    got, got_signs = barycentric(s)
    want, want_signs = label_walk_barycentric(s)
    assert got.cells == want.cells
    assert got_signs.signs == want_signs.signs
    assert dumps(got) == dumps(want)


def test_chain_labels_round_trip(torus9):
    b, _ = barycentric(torus9)
    for c in b.cells:
        ch = chain_of_cell(torus9, c)
        assert cell_of_chain(torus9, ch) == c
        assert all(torus9.lt(a, bb) for a, bb in zip(ch, ch[1:]))


def test_chain_label_errors(torus9):
    with pytest.raises(CccError):
        chain_of_cell(torus9, CellId.cone(C("h00"), C("v22")))  # not comparable
    with pytest.raises(UnknownCellError):
        chain_of_cell(torus9, C("zz"))


# -- the flag-sum chain map -----------------------------------------------------------


def test_big_phi_on_vertices_and_edges(torus9, torus9_signs):
    f = big_phi(torus9, torus9_signs)
    v = C("v00")
    img = f.apply(f.source.chain({v: 1}))
    assert img.coeffs == {cell_of_chain(torus9, (v,)): 1}
    e = C("h00")
    img = f.apply(f.source.chain({e: 1}))
    assert sorted(img.coeffs.values()) == [-1, 1]
    assert set(img.coeffs) == {
        cell_of_chain(torus9, (u, e)) for u in torus9.faces(e)}


@pytest.mark.parametrize("name", ["two_triangles", "torus9", "tetrahedron_boundary",
                                  "mobius3"])
def test_big_phi_is_a_chain_map(name):
    s = fixtures.fixture(name)
    assert big_phi(s, orient_all_cells(s)).is_chain_map()


def test_orientation_is_product_of_signs_down_the_flag(torus9, torus9_signs):
    from cellcomplexes.flags import flags_of
    for x in torus9.cells_of_rank(2):
        for gamma in flags_of(torus9, x):
            prod = 1
            for a, b in zip(gamma, gamma[1:]):
                prod *= torus9_signs.s(a, b)
            assert prod == torus9_signs.orientations[x].sign(gamma)


# -- the tower ---------------------------------------------------------------------------


def test_tower_torus(torus9, torus9_signs):
    tower = barycentric_via_stellar(torus9, torus9_signs)
    b, _ = barycentric(torus9)
    assert tower.final == b
    assert [s.rank for s in tower.stages] == [2, 1]
    assert [len(s.points) for s in tower.stages] == [9, 18]
    assert [len(s.complex) for s in tower.stages] == [108, 216]
    assert tower.phi_total.is_chain_map()
    assert tower.iso[C("v00")] == (C("v00"),)
    deep = cell_of_chain(torus9, (C("v00"), C("h00"), C("f00")))
    assert tower.iso[deep] == (C("v00"), C("h00"), C("f00"))


def test_tower_builds_one_chain_complex_per_stage(torus9, torus9_signs, count_calls):
    calls = count_calls((subdivision, "chain_complex"), (subdivision, "Ccc"))
    tower = barycentric_via_stellar(torus9, torus9_signs)
    assert calls.count("chain_complex") == 1 + 2  # the source, then one per stage
    assert calls.count("Ccc") == 2
    first, second = tower.stages
    assert second.step_map.source is first.step_map.target
    assert tower.phi_total.target is second.step_map.target


@pytest.mark.parametrize("name,args", [("torus9", ()), ("tetrahedron_boundary", ()),
                                       ("projective_plane", ()), ("simplex", (3,))])
def test_tower_stages_match_disjoint_description(name, args):
    s = fixtures.fixture(name, *args)
    prev = s
    for stage in barycentric_via_stellar(s, orient_all_cells(s)).stages:
        assert stage.points == s.cells_of_rank(stage.rank)
        assert stage.complex == disjoint_stellar_description(prev, stage.points)
        prev = stage.complex


def test_overlapping_up_sets_in_one_step_raise(torus9, torus9_signs):
    e, f = sorted(torus9.faces(C("f00")))[:2]  # two edges of one square
    with pytest.raises(CccError, match=re.escape(f"up-sets of {e} and {f} intersect")):
        subdivision._stellar_map(chain_complex(torus9, torus9_signs), [e, f])


def test_tower_one_dimensional_cycle():
    from cellcomplexes.complexes import from_simplicial
    s = from_simplicial([("a", "b"), ("b", "c"), ("a", "c")])
    assert s.classify().manifold_like
    tower = barycentric_via_stellar(s, orient_all_cells(s))
    assert len(tower.stages) == 1
    b, _ = barycentric(s)
    assert tower.final == b


def test_nested_cone_orientations_are_valid(torus9, torus9_signs):
    # after two stages the cones sit over cones; transport must still give
    # a genuine orientation of every closure
    tower = barycentric_via_stellar(torus9, torus9_signs)
    final, signs = tower.final, tower.final_signs
    deep = [c for c in final.cells if c.is_cone and c.base is not EMPTY
            and c.base.is_cone]
    assert deep
    for x in deep[:12]:
        g = flag_graph(final.closure_complex(x))
        omega = signs.orientations[x]
        for f in g.flags:
            for nb in g.neighbors[f]:
                assert omega.sign(f) == -omega.sign(nb)


def test_tower_stage_signs_transported(torus9, torus9_signs):
    tower = barycentric_via_stellar(torus9, torus9_signs)
    final_signs = tower.final_signs
    bary_signs = barycentric(torus9)[1]
    same = sum(1 for k, v in final_signs.signs.items() if bary_signs.signs[k] == v)
    assert same < len(final_signs.signs)  # genuinely different orientations
    assert set(final_signs.signs) == set(bary_signs.signs)


def test_compare_phi_bigphi_signs(torus9, torus9_signs):
    eps = compare_phi_bigphi(torus9, torus9_signs)
    assert eps[0] == 1
    assert all(e in (1, -1) for e in eps)
    assert eps == [1, 1, -1]


def test_compare_signs_on_square():
    s = fixtures.square()
    eps = compare_phi_bigphi(s, orient_all_cells(s))
    assert eps[0] == 1 and all(e in (1, -1) for e in eps)


def test_compare_signs_on_tetra_boundary(tetra_boundary, tetra_boundary_signs):
    eps = compare_phi_bigphi(tetra_boundary, tetra_boundary_signs)
    assert eps == [1, 1, -1]


def test_compare_reports_maps_without_a_uniform_sign(torus9, torus9_signs, monkeypatch):
    real = subdivision.big_phi

    def doubled(*args, **kwargs):
        f = real(*args, **kwargs)
        columns = [{y: 2 * v for y, v in col.items()} for col in f.columns]
        return ChainMap(f.source, f.target, columns)

    monkeypatch.setattr(subdivision, "big_phi", doubled)
    with pytest.raises(CccError, match="no uniform sign relates the maps in degree 0"):
        compare_phi_bigphi(torus9, torus9_signs)


def test_compare_reports_maps_that_differ(torus9, torus9_signs, monkeypatch):
    real = subdivision.barycentric_via_stellar

    def zero_total(*args):
        tower = real(*args)
        f = tower.phi_total
        tower.phi_total = ChainMap(f.source, f.target, [{} for _ in f.columns])
        return tower

    monkeypatch.setattr(subdivision, "barycentric_via_stellar", zero_total)
    with pytest.raises(CccError, match="maps differ in degree 0"):
        compare_phi_bigphi(torus9, torus9_signs)


@pytest.mark.parametrize("name", ["mobius3", "projective_plane"])
def test_compare_signs_needs_only_orientable_cells(name):
    # the whole complex need not be orientable, just every closure
    s = fixtures.fixture(name)
    assert compare_phi_bigphi(s, orient_all_cells(s)) == [1, 1, -1]


# -- homology invariance -------------------------------------------------------------------


def test_invariance_every_torus_cell(torus9, torus9_signs):
    base = homology(torus9, torus9_signs)
    assert base.betti == (1, 2, 1)
    for x in torus9.cells:
        if torus9.rank(x) == 0:
            continue
        rep = verify_subdivision_invariance(torus9, x, torus9_signs)
        assert rep.passed and rep.before == base


def test_invariance_tetra_boundary(tetra_boundary, tetra_boundary_signs):
    for x in tetra_boundary.cells:
        if tetra_boundary.rank(x) == 0:
            continue
        rep = verify_subdivision_invariance(tetra_boundary, x, tetra_boundary_signs)
        assert rep.passed
        assert rep.after.betti == (1, 0, 1)


@pytest.mark.parametrize("name", ["torus9", "tetrahedron_boundary"])
def test_barycentric_preserves_homology(name):
    s = fixtures.fixture(name)
    signs = orient_all_cells(s)
    b, bsigns = barycentric(s)
    assert homology(s, signs) == homology_of(chain_complex(b, bsigns))


def test_random_double_subdivisions_stay_sound():
    rng = random.Random(20)
    names = ["two_triangles", "torus9", "tetrahedron_boundary", "mobius3"]
    for _ in range(8):
        s = fixtures.fixture(rng.choice(names))
        signs = orient_all_cells(s)
        for _ in range(2):
            cand = [c for c in s.cells if s.rank(c) >= 1]
            x = cand[rng.randrange(len(cand))]
            res, signs = stellar(s, x, signs)
            s = res.complex
        cc = chain_complex(s, signs)
        for i in range(2, s.dim + 1):
            assert not (cc.boundary_matrix(i - 1) @ cc.boundary_matrix(i)).any()
        assert s.validate_axioms().passed


# -- chain labels against the oracle's cone-by-cone labels ----------------------------


def _chain_sources():
    """Every fixture, plus a stellar subdivision, whose cells are cones."""
    out = {name: make() for name, make in fixtures.FIXTURES.items()}
    t = fixtures.torus9()
    out["torus9 stellar"] = stellar(t, C("h00"), orient_all_cells(t))[0].complex
    return out


CHAIN_SOURCES = _chain_sources()


@st.composite
def _chains(draw):
    s = CHAIN_SOURCES[draw(st.sampled_from(sorted(CHAIN_SOURCES)))]
    chain = [draw(st.sampled_from(s.cells))]
    while draw(st.booleans()):
        above = sorted(s.up_set(chain[-1]) - {chain[-1]})
        if not above:
            break
        chain.append(draw(st.sampled_from(above)))
    return s, tuple(chain)


@settings(max_examples=200, deadline=None)
@given(_chains())
def test_chain_labels_round_trip_on_random_chains(data):
    s, ch = data
    c = cell_of_chain(s, ch)
    assert c == cone_label(s, ch) and type(c) is CellId
    assert chain_of_cell(s, c) == ch
    assert tuple(c) == preorder_key(str(c))


@pytest.mark.parametrize("chain, error", [
    (("f00", "v00"), CccError),       # descends
    (("v00", "v00"), CccError),       # repeats a cell
    (("v00", "h22"), CccError),       # not comparable
    (("v00", "zz"), UnknownCellError),
    (("zz",), UnknownCellError),
    ((EMPTY, "v00"), UnknownCellError),
    ((EMPTY,), UnknownCellError),
])
def test_cell_of_chain_checks_its_chain(torus9, chain, error):
    chain = tuple(C(c) if isinstance(c, str) else c for c in chain)
    with pytest.raises(CccError) as err:
        cell_of_chain(torus9, chain)
    assert type(err.value) is error


@pytest.mark.parametrize("cid", [EMPTY, CellId.cone(C("zz"), EMPTY),
                                 CellId.cone(C("h00"), C("zz")), "v00"])
def test_chain_of_cell_refuses_what_is_not_a_cell(torus9, cid):
    with pytest.raises(UnknownCellError):
        chain_of_cell(torus9, cid)


def test_barycentric_labels_chains_through_vertices_above_positive_rank_cells():
    # axiom 1 fails: w < f < e < v < g with w, v vertices, e an edge, f a
    # face and g a 3-cell, so vertices start, end and sit inside chains
    w, f, e, v, g = map(C, "wfevg")
    s = Ccc({w: 0, f: 2, e: 1, v: 0, g: 3}, {f: [w], e: [f], v: [e], g: [v]})
    got, got_signs = barycentric(s)
    want, want_signs = label_walk_barycentric(s)
    assert got.cells == want.cells and got == want
    assert got_signs.signs == want_signs.signs
    assert CellId.cone(f, CellId.cone(e, CellId.cone(v, EMPTY))) in got
    assert nest([f, e, v, g], w) in got
    for c in got.cells:
        ch = chain_of_cell(s, c)
        assert cell_of_chain(s, ch) == cone_label(s, ch) == c
