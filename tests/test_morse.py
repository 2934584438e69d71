"""Homology through the Morse complex of a coreduction.

Every homology and cohomology the library computes goes through
``chains._morse``.  Here it is compared with the rank oracle over the full
boundary matrices (``tests/oracles.py``), augmented and not, and every
matching it makes is checked as a certificate by an independent reader.
"""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (check_morse_certificate, rank_cohomology, rank_homology,
                     rank_homology_of_cells)

from cellcomplexes import fixtures
from cellcomplexes.cells import CellId
from cellcomplexes.chains import (_homology_of_cells, _morse, chain_complex, cohomology,
                                  cohomology_of, homology, homology_of, relative_homology)
from cellcomplexes.complexes import build_complex, from_simplicial, product
from cellcomplexes.flags import SignTable, orient_all_cells, simplicial_signs
from cellcomplexes.subdivision import barycentric

C = CellId.of
FIXTURES = sorted(set(fixtures.FIXTURES) - {"bad_axiom4"})  # its incidences have no signs
COMPLEXES = FIXTURES + ["torus 3 5", "simplex 1", "simplex 2", "simplex 3", "simplex 4"]


def _signed(name):
    s = fixtures.fixture(*name.split())
    return s, orient_all_cells(s)


def _check(s, signs):
    """Homology and cohomology equal the rank oracle, augmented and not,
    and each matching certifies its homology."""
    cells = range(len(s))
    for augmented in (False, True):
        cc = chain_complex(s, signs, augmented)
        h = homology_of(cc)
        assert h == rank_homology(cc)
        assert cohomology_of(cc) == rank_cohomology(cc)
        check_morse_certificate(cc, cells, augmented, _morse(cc, cells, augmented), h)


@pytest.mark.parametrize("name", COMPLEXES)
def test_homology_matches_the_rank_oracle(name):
    _check(*_signed(name))


@pytest.mark.parametrize("name", FIXTURES)
def test_subdivided_homology_matches_the_rank_oracle(name):
    _check(*barycentric(fixtures.fixture(name)))


def test_rp2_times_an_edge_matches_the_rank_oracle():
    s = product(fixtures.projective_plane(), fixtures.simplex(1))
    signs = orient_all_cells(s)
    _check(s, signs)
    assert str(homology(s, signs)) == "Z, Z/2, 0, 0"


@pytest.mark.parametrize("name", FIXTURES)
def test_closures_and_quotients_match_the_rank_oracle(name):
    s, signs = _signed(name)
    cc = chain_complex(s, signs)
    for x in s.cells:
        closed = s.closure([x])
        rest = set(s.cells) - closed
        for cells in (closed, rest):
            h = _homology_of_cells(cc, cells)
            assert h == rank_homology_of_cells(cc, cells)
            ix = sorted(map(s._i, cells))
            check_morse_certificate(cc, ix, False, _morse(cc, ix), h)
        assert relative_homology(s, closed, signs) == rank_homology_of_cells(cc, rest)


@pytest.mark.parametrize("subdivide", [False, True])
def test_projective_plane_keeps_its_two_torsion(subdivide):
    s, signs = _signed("projective_plane")
    if subdivide:
        s, signs = barycentric(s)
    assert str(homology(s, signs)) == "Z, Z/2, 0"
    assert str(homology(s, signs, reduced=True)) == "0, Z/2, 0"
    assert str(cohomology(s, signs)) == "Z, 0, Z/2"
    cc = chain_complex(s, signs)
    assert [len(c) for c in _morse(cc, range(len(s))).critical[:-1]] == [1, 1, 1]


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False))
def test_random_orientation_flips_match_the_rank_oracle(rng):
    s = fixtures.torus9()
    table = orient_all_cells(s)
    _check(s, table.flipped([c for c in s.cells if rng.random() < 0.5]))


_simplices = st.lists(
    st.sets(st.sampled_from(list("abcdef")), min_size=1, max_size=4),
    min_size=1, max_size=5)


@settings(max_examples=30, deadline=None)
@given(_simplices)
def test_random_simplicial_homology_matches_the_rank_oracle(simps):
    s = from_simplicial([tuple(sorted(x)) for x in simps])
    _check(s, simplicial_signs(s))


def test_the_certificate_reader_refuses_a_cycle_and_a_wrong_sign():
    # a circle of two vertices and two edges
    a, b, e, f = map(C, "abef")
    s = build_complex([(a, 0), (b, 0), (e, 1), (f, 1)], [(a, e), (b, e), (a, f), (b, f)])
    signs = SignTable(s, {(e, a): -1, (e, b): 1, (f, a): -1, (f, b): 1})
    cc = chain_complex(s, signs)
    cells = range(len(s))
    m = _morse(cc, cells)
    h = homology_of(cc)
    check_morse_certificate(cc, cells, False, m, h)
    ia, ib, ie, i_f = map(s._i, (a, b, e, f))
    looped = m._replace(critical=[[], [], []], pairs=[(ia, ie, -1), (ib, i_f, 1)])
    with pytest.raises(AssertionError, match="cycle"):
        check_morse_certificate(cc, cells, False, looped, h)
    with pytest.raises(AssertionError, match="coefficient"):
        check_morse_certificate(cc, cells, False, m._replace(
            pairs=[(y, p, -e) for y, p, e in m.pairs]), h)


def test_a_matched_incidence_other_than_a_unit_is_refused():
    s = fixtures.edge()
    e = s.cells_of_rank(1)[0]
    a, b = s.faces(e)
    signs = SignTable._of(s, [(), (), (-1, 2)])  # s(e, b) = 2: the edge is b's only coface
    with pytest.raises(ValueError, match=f"cell {e} meets its face {b} with the coefficient 2"):
        homology(s, signs)


# -- answers a shift of the degree-zero Betti number would change ----------------


def test_a_complex_without_vertices_keeps_its_reduced_homology():
    s = build_complex([(C("g"), 1)], [])
    assert str(homology(s, SignTable(s, {}), reduced=True)) == "0, Z"


def test_a_faceless_two_cell_beside_a_vertex():
    s = build_complex([(C("v"), 0), (C("x"), 2)], [])
    signs = SignTable(s, {})
    assert str(homology(s, signs, reduced=True)) == "0, 0, Z"
    assert str(cohomology(s, signs)) == "Z, 0, Z"


def test_homology_relative_to_everything_is_zero():
    s, signs = _signed("torus9")
    assert str(relative_homology(s, s.cells, signs)) == "0, 0, 0"


def test_a_point_has_zero_reduced_homology():
    s, signs = _signed("point")
    assert str(homology(s, signs, reduced=True)) == "0"


# -- the critical cells at scale -------------------------------------------------


def test_large_complexes_coreduce_to_their_homology(run_capped):
    proc = run_capped("from cellcomplexes import fixtures\n"
                      "from cellcomplexes.chains import _morse, chain_complex\n"
                      "from cellcomplexes.flags import orient_all_cells\n"
                      "from cellcomplexes.subdivision import barycentric\n"
                      "t = fixtures.torus(100)\n"
                      "b = barycentric(fixtures.fixture('simplex_boundary', 6))\n"
                      "for s, signs in ((t, orient_all_cells(t)), b):\n"
                      "    m = _morse(chain_complex(s, signs), range(len(s)))\n"
                      "    print(len(s), [len(c) for c in m.critical[:-1]])\n",
                      cap=384 << 20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "40000 [1, 2, 1]\n47292 [1, 0, 0, 0, 0, 1]\n"
