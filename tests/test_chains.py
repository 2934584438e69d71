import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (coface_walk_coboundary, face_walk_boundary, simplicial_homology,
                     solved_cycle_generators)

from cellcomplexes import chains, fixtures
from cellcomplexes.cells import CellId
from cellcomplexes.chains import (
    Chain,
    _homology_of_cells,
    boundary,
    chain_complex,
    coboundary,
    cohomology,
    free_cycle_generators,
    h0_components,
    homology,
    homology_of,
    is_acyclic,
    relative_homology,
)
from cellcomplexes.complexes import euler_characteristic, from_simplicial, simplex_vertices
from cellcomplexes.errors import MissingSignError, UnknownCellError
from cellcomplexes.flags import SignTable, orient_all_cells, simplicial_signs
from cellcomplexes.subdivision import barycentric

C = CellId.of


# -- chain complex construction ----------------------------------------------


def test_empty_complex_rejected():
    from cellcomplexes.complexes import build_complex
    from cellcomplexes.errors import EmptyComplexError
    from cellcomplexes.flags import SignTable
    empty = build_complex([], [])
    with pytest.raises(EmptyComplexError):
        chain_complex(empty, SignTable(empty, {}, {}))


def test_single_vertex_complex():
    s = fixtures.point()
    cc = chain_complex(s, orient_all_cells(s))
    assert cc.boundary_matrix(0).shape == (0, 1)
    assert homology_of(cc).betti == (1,)


def test_single_edge_boundary_column():
    s = fixtures.edge()
    cc = chain_complex(s, orient_all_cells(s))
    col = cc.boundary_matrix(1)[:, 0]
    assert sorted(col) == [-1, 1]


def test_torus_matrix_shapes(torus9, torus9_signs):
    cc = chain_complex(torus9, torus9_signs)
    assert cc.boundary_matrix(1).shape == (9, 18)
    assert cc.boundary_matrix(2).shape == (18, 9)
    assert not (cc.boundary_matrix(1) @ cc.boundary_matrix(2)).any()


@pytest.mark.parametrize("name", ["two_triangles", "torus9", "tetrahedron_solid",
                                  "tetrahedron_boundary", "mobius3",
                                  "square_pentagon", "square"])
def test_boundary_squares_to_zero(name):
    s = fixtures.fixture(name)
    cc = chain_complex(s, orient_all_cells(s))
    for i in range(2, s.dim + 1):
        assert not (cc.boundary_matrix(i - 1) @ cc.boundary_matrix(i)).any()
        # the coboundary is the transpose, so its square vanishes with it
        t = cc.boundary_matrix(i).T @ cc.boundary_matrix(i - 1).T
        assert not t.any()


def test_missing_sign_reported(torus9, torus9_signs):
    gappy = SignTable(torus9, {k: v for k, v in torus9_signs.signs.items()
                               if k != (C("f00"), C("h00"))})
    with pytest.raises(MissingSignError):
        chain_complex(torus9, gappy)


# -- boundary / coboundary on chains ------------------------------------------


def test_boundary_of_vertex_is_zero(torus9, torus9_signs):
    cc = chain_complex(torus9, torus9_signs)
    assert boundary(Chain(0, {C("v00"): 1}), cc).is_zero()


def test_boundary_twice_on_squares(torus9, torus9_signs):
    cc = chain_complex(torus9, torus9_signs)
    for f in torus9.cells_of_rank(2):
        bb = boundary(boundary(Chain(2, {f: 1}), cc), cc)
        assert bb.is_zero()


def test_coboundary_of_top_cell_is_zero(torus9, torus9_signs):
    cc = chain_complex(torus9, torus9_signs)
    assert coboundary(Chain(2, {C("f00"): 1}), cc).is_zero()


def test_boundary_edges_on_augmented_complex(torus9, torus9_signs):
    cc = chain_complex(torus9, torus9_signs, augmented=True)
    assert cc.boundary_matrix(0).any()  # the augmentation row
    assert boundary(Chain(0, {C("v00"): 1}), cc) == Chain(-1)
    assert coboundary(Chain(2, {C("f00"): 1}), cc) == Chain(3)


@pytest.mark.parametrize("augmented", [False, True])
@pytest.mark.parametrize("name", sorted(set(fixtures.FIXTURES) - {"bad_axiom4"}))
def test_boundary_agrees_with_face_walk(name, augmented):
    s = fixtures.fixture(name)
    cc = chain_complex(s, orient_all_cells(s), augmented=augmented)
    for r in range(s.dim + 1):
        chains = [Chain(r, {x: -2}) for x in cc.bases[r]]
        chains.append(Chain(r, {x: i % 5 - 2 for i, x in enumerate(cc.bases[r])}))
        chains.append(Chain(r))
        for c in chains:
            assert boundary(c, cc) == face_walk_boundary(c, cc)
            assert coboundary(c, cc) == coface_walk_coboundary(c, cc)


def test_from_vector(torus9, torus9_signs):
    cc = chain_complex(torus9, torus9_signs)
    assert cc.from_vector(range(18), 1) == Chain(1, dict(zip(cc.bases[1], range(18))))
    # torus9 has 9, 18 and 9 cells in degrees 0, 1 and 2
    for vec, degree in (([1], 1), ([1] * 9, -1), ([1] * 9, 3), ([1] * 17, 1)):
        with pytest.raises(ValueError):
            cc.from_vector(vec, degree)


def test_chain_checks_ranks(torus9, torus9_signs):
    cc = chain_complex(torus9, torus9_signs)
    assert cc.chain({C("e00"): 1}, 1) == cc.chain({C("e00"): 1}) == Chain(1, {C("e00"): 1})
    assert cc.chain({}, 7) == Chain(7)
    for degree in (0, 2, 7):
        with pytest.raises(ValueError, match=f"cell e00 does not have rank {degree}"):
            cc.chain({C("e00"): 1}, degree)


@pytest.mark.parametrize("op", [boundary, coboundary])
def test_boundaries_reject_a_cell_of_another_rank(torus9, torus9_signs, op):
    cc = chain_complex(torus9, torus9_signs)
    for degree in (0, 2):
        with pytest.raises(ValueError, match=f"cell h00 does not have rank {degree}"):
            op(Chain(degree, {C("h00"): 1, C("h11"): 1}), cc)


@pytest.mark.parametrize("op", [boundary, coboundary])
def test_boundaries_reject_a_cell_not_in_the_complex(torus9, torus9_signs, op):
    cc = chain_complex(torus9, torus9_signs)
    with pytest.raises(UnknownCellError, match="cell zz is not in the complex"):
        op(Chain(1, {C("h00"): 1, C("zz"): 1}), cc)


@pytest.mark.parametrize("v", [1.7, 0.5, -2.5])
def test_chain_rejects_a_non_integer_coefficient(v):
    with pytest.raises(ValueError, match=f"cell h00 has the coefficient {v}, not an integer"):
        Chain(1, {C("h11"): 1, C("h00"): v})


def test_chain_takes_integral_numbers():
    c = Chain(1, {C("h00"): np.int64(3), C("h11"): 2.0, C("e00"): np.int64(0)})
    assert c.coeffs == {C("h00"): 3, C("h11"): 2}
    assert all(type(v) is int for v in c.coeffs.values())


def test_from_vector_rejects_a_non_integer_entry(torus9, torus9_signs):
    cc = chain_complex(torus9, torus9_signs)
    x = cc.bases[1][0]
    with pytest.raises(ValueError, match=f"cell {x} has the coefficient 0.5, not an integer"):
        cc.from_vector([0.5] + [0] * 17, 1)
    assert cc.from_vector(np.arange(18, dtype=np.int64), 1) == cc.from_vector(range(18), 1)


def test_chain_arithmetic():
    a = Chain(1, {C("x"): 2, C("y"): -1})
    b = Chain(1, {C("y"): 1})
    assert (a + b).coeffs == {C("x"): 2}
    assert (2 * b).coeffs == {C("y"): 2}
    assert (a - a).is_zero()


# -- homology values ----------------------------------------------------------


def test_point_homology():
    s = fixtures.point()
    assert homology(s, orient_all_cells(s)).betti == (1,)


def test_tetra_boundary_homology(tetra_boundary, tetra_boundary_signs):
    h = homology(tetra_boundary, tetra_boundary_signs)
    assert h.betti == (1, 0, 1) and all(not t for t in h.torsion)


def test_torus_homology(torus9, torus9_signs):
    h = homology(torus9, torus9_signs)
    assert h.betti == (1, 2, 1) and all(not t for t in h.torsion)
    assert cohomology(torus9, torus9_signs) == h


def test_solid_tetra_acyclic(tetra_solid):
    assert is_acyclic(tetra_solid, orient_all_cells(tetra_solid))


def test_mobius_homology(mobius3):
    h = homology(mobius3, orient_all_cells(mobius3))
    assert h.betti == (1, 1, 0) and all(not t for t in h.torsion)


def test_group_strings(torus9, torus9_signs):
    h = homology(torus9, torus9_signs)
    assert h.group(0) == "Z" and h.group(1) == "Z^2" and h.group(2) == "Z"


def test_projective_plane_torsion():
    s = fixtures.projective_plane()
    signs = orient_all_cells(s)
    h = homology(s, signs)
    assert h.betti == (1, 0, 0) and h.torsion == ((), (2,), ())
    assert h.group(1) == "Z/2"
    assert homology(s, simplicial_signs(s)) == h
    c = cohomology(s, signs)
    assert c.betti == (1, 0, 0) and c.torsion == ((), (), (2,))
    betti, torsion = simplicial_homology(
        [tuple(sorted(simp)) for simp in
         (simplex_vertices(f) for f in s.cells_of_rank(2))])
    assert (h.betti, h.torsion) == (betti, torsion)


def test_projective_plane_torsion_after_two_barycentric_subdivisions():
    s, signs = barycentric(barycentric(fixtures.projective_plane())[0])
    h = homology(s, signs)
    assert (h.betti, h.torsion) == ((1, 0, 0), ((), (2,), ()))
    c = cohomology(s, signs)
    assert (c.betti, c.torsion) == ((1, 0, 0), ((), (), (2,)))


@pytest.mark.parametrize("n, m", [(3, 3), (3, 5), (20, 20)])
def test_torus_fixture_homology(n, m):
    s = fixtures.torus(n, m)
    signs = orient_all_cells(s)
    h = homology(s, signs)
    assert (h.betti, h.torsion) == ((1, 2, 1), ((), (), ()))
    assert cohomology(s, signs) == h


@pytest.mark.parametrize("n", range(2, 6))
def test_simplex_boundary_fixture_is_a_sphere(n):
    s = fixtures.fixture("simplex_boundary", str(n))
    assert len(s) == 2 ** (n + 1) - 2
    h = homology(s, orient_all_cells(s))
    assert h.betti == tuple(1 if r in (0, n - 1) else 0 for r in range(n))
    assert h.torsion == ((),) * n


# -- relative homology ---------------------------------------------------------


def test_relative_to_self_vanishes(torus9, torus9_signs):
    h = relative_homology(torus9, torus9.cells, torus9_signs)
    assert h.betti == (0, 0, 0) and all(not t for t in h.torsion)


def test_relative_solid_modulo_boundary(tetra_solid):
    signs = orient_all_cells(tetra_solid)
    sphere = {c for c in tetra_solid.cells if tetra_solid.rank(c) < 3}
    h = relative_homology(tetra_solid, sphere, signs)
    assert h.betti == (0, 0, 0, 1) and all(not t for t in h.torsion)


def test_relative_torus_modulo_vertex(torus9, torus9_signs):
    h = relative_homology(torus9, {C("v00")}, torus9_signs)
    assert h.betti == (0, 2, 1)


def test_relative_requires_closed(torus9, torus9_signs):
    with pytest.raises(ValueError):
        relative_homology(torus9, {C("h00")}, torus9_signs)


def test_reduced_homology(torus9, torus9_signs):
    h = homology(torus9, torus9_signs, reduced=True)
    assert h.betti == (0, 2, 1)


# -- acyclicity ----------------------------------------------------------------


def test_cell_closures_acyclic(torus9, torus9_signs):
    for x in torus9.cells:
        sub = torus9.closure_complex(x)
        assert is_acyclic(sub, torus9_signs.restrict(sub))


@pytest.mark.parametrize("name", ["torus9", "tetrahedron_solid", "mobius3",
                                  "square_pentagon", "projective_plane"])
def test_closure_slices_match_closure_complexes(name):
    s = fixtures.fixture(name)
    signs = orient_all_cells(s)
    cc = chain_complex(s, signs)
    for x in s.cells:
        sub = s.closure_complex(x)
        want = homology_of(chain_complex(sub, signs.restrict(sub)))
        got = _homology_of_cells(cc, s.closure([x]))
        k = len(want.betti)  # the slice reports every degree of s
        assert got.betti[:k] == want.betti and got.torsion[:k] == want.torsion
        assert not any(got.betti[k:]) and not any(got.torsion[k:])


def test_sphere_not_acyclic(tetra_boundary, tetra_boundary_signs):
    assert not is_acyclic(tetra_boundary, tetra_boundary_signs)


def test_vertex_acyclic():
    s = fixtures.point()
    assert is_acyclic(s, orient_all_cells(s))


def test_stars_are_acyclic(torus9, torus9_signs):
    # a complex that is a star around some cell is acyclic
    for x in torus9.cells:
        sub = torus9.star(x)
        assert is_acyclic(sub, torus9_signs.restrict(sub))


# -- degree-zero components -----------------------------------------------------


def test_h0_two_disjoint_edges():
    assert h0_components(fixtures.disjoint_edges()) == 2


@pytest.mark.parametrize("name,expect", [("torus9", 1), ("two_triangles", 1),
                                         ("mobius3", 1), ("disjoint_triangles", 2)])
def test_h0_values(name, expect):
    assert h0_components(fixtures.fixture(name)) == expect


@pytest.mark.parametrize("name", ["point", "edge", "two_triangles", "torus9",
                                  "mobius3", "tetrahedron_solid",
                                  "tetrahedron_boundary", "disjoint_edges",
                                  "disjoint_triangles", "square_pentagon"])
def test_h0_equals_betti0(name):
    s = fixtures.fixture(name)
    assert h0_components(s) == homology(s, orient_all_cells(s)).betti[0]


# -- euler characteristic --------------------------------------------------------


@pytest.mark.parametrize("name", ["two_triangles", "torus9", "tetrahedron_solid",
                                  "tetrahedron_boundary", "mobius3"])
def test_euler_characteristic_from_betti(name):
    s = fixtures.fixture(name)
    h = homology(s, orient_all_cells(s))
    assert all(not t for t in h.torsion)
    assert euler_characteristic(s) == sum(
        (-1) ** i * b for i, b in enumerate(h.betti))


# -- orientation independence ------------------------------------------------------


@pytest.mark.parametrize("name", ["torus9", "tetrahedron_boundary", "mobius3"])
def test_flipping_everything(name):
    s = fixtures.fixture(name)
    table = orient_all_cells(s)
    assert homology(s, table.flipped(s.cells)) == homology(s, table)


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False))
def test_random_orientation_flips(rng):
    s = fixtures.torus9()
    table = orient_all_cells(s)
    base = homology(s, table)
    subset = [c for c in s.cells if rng.random() < 0.5]
    flipped = table.flipped(subset)
    cc = chain_complex(s, flipped)
    for i in range(2, 3):
        assert not (cc.boundary_matrix(i - 1) @ cc.boundary_matrix(i)).any()
    assert homology(s, flipped) == base


# -- against the simplicial oracle ---------------------------------------------------


@pytest.mark.parametrize("facets", [
    [("a", "b", "c"), ("b", "c", "d")],
    [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")],
    [("a", "b", "c", "d")],
])
def test_known_simplicial_against_oracle(facets):
    s = from_simplicial(facets)
    h = homology(s, simplicial_signs(s))
    betti, torsion = simplicial_homology(facets)
    assert h.betti == betti and h.torsion == torsion


_simplices = st.lists(
    st.sets(st.sampled_from(list("abcdef")), min_size=1, max_size=4),
    min_size=1, max_size=5)


@settings(max_examples=30, deadline=None)
@given(_simplices)
def test_random_simplicial_against_oracle(simps):
    facets = [tuple(sorted(s)) for s in simps]
    s = from_simplicial(facets)
    h = homology(s, simplicial_signs(s))
    betti, torsion = simplicial_homology(facets)
    assert h.betti == betti and h.torsion == torsion
    for augmented in (False, True):
        _check_generators(chain_complex(s, simplicial_signs(s), augmented=augmented))


@settings(max_examples=20, deadline=None)
@given(_simplices)
def test_flag_signs_agree_with_simplicial_homology(simps):
    # the flag-orientation route and the permutation route give the same groups
    facets = [tuple(sorted(s)) for s in simps]
    s = from_simplicial(facets)
    assert homology(s, orient_all_cells(s)) == homology(s, simplicial_signs(s))


# -- generators -----------------------------------------------------------------


def test_torus_h1_generators(torus9, torus9_signs):
    cc = chain_complex(torus9, torus9_signs)
    gens = free_cycle_generators(cc, 1)
    assert len(gens) == 2
    d1 = cc.boundary_matrix(1)
    for g in gens:
        assert not (d1 @ np.array(g)).any()


def test_sphere_h2_generator(tetra_boundary, tetra_boundary_signs):
    cc = chain_complex(tetra_boundary, tetra_boundary_signs)
    gens = free_cycle_generators(cc, 2)
    assert len(gens) == 1
    assert sorted(abs(x) for x in gens[0]) == [1, 1, 1, 1]


@pytest.mark.parametrize("degree", [-2, -1, 3, 4])
def test_no_generators_outside_the_degrees(torus9, torus9_signs, degree):
    assert free_cycle_generators(chain_complex(torus9, torus9_signs), degree) == []


def _check_generators(cc):
    """One generator per free factor in every degree, each a cycle; in
    augmented degree zero reduced ones, elsewhere the oracle's."""
    betti = homology_of(cc).betti
    for i in range(-1, cc.dim + 2):
        gens = free_cycle_generators(cc, i)
        assert len(gens) == (betti[i] if 0 <= i <= cc.dim else 0)
        if cc.augmented and i == 0:
            assert all(sum(g) == 0 for g in gens)
        else:
            assert gens == solved_cycle_generators(cc, i)
        if gens and i > 0:
            assert not (cc.boundary_matrix(i) @ np.array(gens).T).any()


_GENERATOR_CASES = ([(name,) for name in sorted(set(fixtures.FIXTURES) - {"bad_axiom4"})]
                    + [("simplex", n) for n in range(1, 5)]
                    + [("simplex_boundary", n) for n in range(2, 6)]
                    + [("torus", 4), ("torus", 3, 5)])


@pytest.mark.parametrize("augmented", [False, True])
@pytest.mark.parametrize("case", _GENERATOR_CASES, ids=lambda c: "-".join(map(str, c)))
def test_generators_count_free_factors(case, augmented, count_calls):
    s = fixtures.fixture(*case)
    cc = chain_complex(s, orient_all_cells(s), augmented=augmented)
    calls = count_calls((chains, "smith_normal_form"), (chains, "kernel_basis"),
                        (chains, "solve_columns"), (chains, "matmul"))
    for i in range(s.dim + 1):
        free_cycle_generators(cc, i)
        assert calls == ["smith_normal_form"] * 2
        calls.clear()
    _check_generators(cc)
