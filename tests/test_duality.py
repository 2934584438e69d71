import random

import pytest

from oracles import (basis_adjoint_residuals, label_pairing_matrix, looped_stokes_residuals,
                     reversed_orientation)

from cellcomplexes import duality, fixtures, flags
from cellcomplexes.cells import CellId
from cellcomplexes.chains import (Chain, ChainComplex, boundary, chain_complex,
                                  free_cycle_generators)
from cellcomplexes.complexes import build_complex
from cellcomplexes.duality import (
    DualOrientationSet,
    StarMap,
    dual_orientations,
    homology_pairing_matrix,
    pairing,
    stokes_check,
    verify_duality,
)
from cellcomplexes.errors import CccError, NotManifoldLikeError
from cellcomplexes.flags import SignTable, flag_graph, flags_of, orient

C = CellId.of


@pytest.fixture(scope="module")
def torus_dos(torus9):
    return dual_orientations(torus9)


# -- dual orientations ---------------------------------------------------------


def test_top_cells_have_trivial_dual_orientation(torus9, torus_dos):
    for f in torus9.cells_of_rank(2):
        colors = torus_dos.dual_signs.orientation(f).colors
        assert colors == {(f,): 1}


def test_sign_law_on_every_pair(torus9, torus_dos):
    assert torus_dos.check_sign_law() == 72
    for (x, y), v in torus_dos.signs.signs.items():
        assert torus_dos.dual_signs.s(y, x) == v


def test_incoherent_omega_is_refused(torus9):
    # flipping one top cell's flags leaves an orientation of each closure,
    # but its edges no longer cancel against the neighbouring cells
    omega = orient(torus9)
    x = torus9.cells_of_rank(2)[0]
    flipped = flags.Orientation({f: -c if f[0] == x else c for f, c in omega.colors.items()})
    with pytest.raises(CccError, match="same sign"):
        dual_orientations(torus9, flipped)
    # flipping one flag breaks the diamond rule inside its top cell
    f = flags_of(torus9, x)[0]
    broken = flags.Orientation({**omega.colors, f: -omega.colors[f]})
    with pytest.raises(CccError, match="diamond rule"):
        dual_orientations(torus9, broken)


def test_omega_that_leaves_a_flag_uncolored_is_refused(torus9):
    # was a bare KeyError from reading the flag's color
    with pytest.raises(CccError) as info:
        dual_orientations(torus9, flags.Orientation({}))
    assert type(info.value) is CccError
    assert str(info.value) == "omega does not color the flag (f00, e00, v00)"
    omega = orient(torus9)
    f = flags_of(torus9, torus9.cells_of_rank(2)[-1])[0]
    partial = flags.Orientation({g: c for g, c in omega.colors.items() if g != f})
    with pytest.raises(CccError) as info:
        dual_orientations(torus9, partial)
    assert str(info.value) == f"omega does not color the flag {f}" and str(f) == "(f22, e20, v00)"
    # a point is its own top cell: its one flag is read as a vertex sign
    with pytest.raises(CccError, match=r"^omega does not color the flag \(v,\)$"):
        dual_orientations(fixtures.fixture("point"), flags.Orientation({}))


def test_dual_orientations_are_orientations(torus9, torus_dos):
    sd = torus_dos.dual_complex
    for x in torus9.cells:
        omega = torus_dos.dual_signs.orientation(x)
        g = flag_graph(sd.closure_complex(x))
        for f in g.flags:
            for nb in g.neighbors[f]:
                assert omega.sign(f) == -omega.sign(nb)


def test_dual_orientation_independent_of_lower_flag(torus9, torus_dos):
    # recompute each dual color through every flag below the cell
    omega = torus_dos.global_orientation
    sd = torus_dos.dual_complex
    rng = random.Random(3)
    cells = rng.sample(list(torus9.cells), 10)
    for x in cells:
        for gamma2 in flags_of(sd, x):
            vals = set()
            for gamma1 in flags_of(torus9, x):
                full = tuple(reversed(gamma2))[:-1] + gamma1
                vals.add(omega.sign(full) *
                         torus_dos.signs.orientation(x).sign(gamma1))
            assert vals == {torus_dos.dual_signs.orientation(x).sign(gamma2)}


def test_dual_orientations_need_manifold_like(tetra_solid):
    with pytest.raises(NotManifoldLikeError):
        dual_orientations(tetra_solid)


def test_reversed_orientation_is_valid(torus9):
    omega = orient(torus9)
    sd = torus9.dual()
    rev = reversed_orientation(torus9, omega)
    g = flag_graph(sd)
    for f in g.flags:
        for nb in g.neighbors[f]:
            assert rev.sign(f) == -rev.sign(nb)


def _orientable_manifold_like(s):
    try:
        orient(s)
    except CccError:
        return False
    return s.classify().manifold_like


DUAL_CASES = {
    **{n: (lambda n=n: fixtures.fixture(n)) for n in sorted(fixtures.FIXTURES)
       if _orientable_manifold_like(fixtures.fixture(n))},
    **{f"sphere{n}": (lambda n=n: fixtures.simplex_boundary(n)) for n in range(2, 6)},
    "torus4": lambda: fixtures.torus(4),
    "torus3x5": lambda: fixtures.torus(3, 5),
}


@pytest.mark.parametrize("name", sorted(DUAL_CASES))
def test_dual_orientation_is_the_reversed_orientation(name, monkeypatch):
    # verify_duality orients the dual from the dual table; the oracle
    # reverses every flag of the global orientation
    s = DUAL_CASES[name]()
    calls = []

    def recording(cx, omega=None, real=duality.dual_orientations):
        calls.append((cx, omega))
        return real(cx, omega)

    monkeypatch.setattr(duality, "dual_orientations", recording)
    assert verify_duality(s).passed
    (cx, derived), = calls[1:]
    assert cx == s.dual()
    want = reversed_orientation(s, orient(s))
    assert len(derived.colors) == len(want.colors) == len(flag_graph(cx).flags)
    assert all(derived.sign(f) == c for f, c in want.colors.items())
    assert dict(derived.colors) == want.colors


@pytest.mark.parametrize("run", [verify_duality, stokes_check,
                                 lambda s: homology_pairing_matrix(s, 1)],
                         ids=["verify_duality", "stokes_check", "pairing_matrix"])
def test_duality_lists_no_flags(run, torus9, count_calls):
    calls = count_calls((flags, "flags_of"))
    run(torus9)
    assert calls == []


# -- the star map ---------------------------------------------------------------


def test_star_map_involution_on_basis(torus9, torus_dos):
    sm = StarMap(torus_dos)
    sigma = Chain(1, {C("h00"): 1})
    assert sm.forward(sm.forward(sigma)) == sigma


def test_star_map_degree_bookkeeping(torus9, torus_dos):
    sm = StarMap(torus_dos)
    assert sm.forward(Chain(0, {C("v00"): 1})).degree == 2
    assert sm.forward(Chain(2, {C("f00"): 1})).degree == 0
    for x in torus9.cells:
        assert torus_dos.dual_complex.rank(x) == 2 - torus9.rank(x)


def test_star_map_intertwines(torus9, torus_dos):
    sm = StarMap(torus_dos)
    assert sm.intertwines()
    # expanded on one square: star of the boundary equals the dual coboundary
    cc, cd = sm.source, sm.target
    sigma = Chain(2, {C("f00"): 1})
    lhs = sm.forward(boundary(sigma, cc))
    from cellcomplexes.chains import coboundary
    rhs = coboundary(sm.forward(sigma), cd)
    assert lhs == rhs


def test_star_map_mismatches_count_differing_entries(torus9, torus_dos):
    # flip two dual signs, in different degrees: each spoils one entry
    flip = {(C("v00"), C("h00")), (C("e00"), C("f00"))}
    dual = torus_dos.dual_signs
    spoiled = SignTable(dual.complex,
                        {k: -v if k in flip else v for k, v in dual.signs.items()},
                        dual.vertex_signs)
    for dos, want in ((torus_dos, 0),
                      (DualOrientationSet(torus9, torus_dos.dual_complex,
                                          torus_dos.global_orientation,
                                          torus_dos.signs, spoiled), 2)):
        sm = StarMap(dos)
        got = sum(sm._mismatches(i) for i in range(sm.n))
        assert got == basis_adjoint_residuals(sm.source, sm.target) == want
        assert sm.intertwines() is (want == 0)


def test_star_map_mismatches_count_an_entry_missing_on_one_side(torus_dos):
    sm = StarMap(torus_dos)
    sd = sm.target.complex
    del sm.target.columns[sd._i(C("v00"))][sd._i(C("h00"))]  # the dual boundary loses one face
    assert [sm._mismatches(i) for i in range(sm.n)] == [1, 0]
    assert not sm.intertwines()


def test_star_map_mismatches_count_an_entry_only_in_the_primal_boundary(torus_dos):
    sm = StarMap(torus_dos)
    s = sm.source.complex
    del sm.source.columns[s._i(C("h00"))][s._i(C("v00"))]  # the boundary loses one face
    assert [sm._mismatches(i) for i in range(sm.n)] == [1, 0]
    assert not sm.intertwines()


# -- the duality pipeline ----------------------------------------------------------


def annulus_complex():
    """A closed surface of three 2-cells: the cell A is an annulus, whose
    two boundary circles the quadrilaterals D and E join."""
    edges = {"p1": "a1 a2", "p2": "a1 a2", "q1": "b1 b2", "q2": "b1 b2",
             "r1": "a2 b1", "r2": "b2 a1"}
    faces = {"A": "p1 p2 q1 q2", "D": "p1 r1 q1 r2", "E": "p2 r1 q2 r2"}
    cells = [(C(v), 0) for v in ("a1", "a2", "b1", "b2")]
    cells += [(C(e), 1) for e in edges] + [(C(f), 2) for f in faces]
    covers = [(C(v), C(e)) for e, vs in edges.items() for v in vs.split()]
    covers += [(C(e), C(f)) for f, es in faces.items() for e in es.split()]
    return build_complex(cells, covers)


_ALL_HOLD = [("orientable", True, ""), ("manifold-like", True, ""),
             ("cells of the complex flag-connected", True, ""),
             ("cells of the dual flag-connected", True, ""),
             ("cells of the complex acyclic", True, ""),
             ("cells of the dual acyclic", True, "")]
_NOT_BIPARTITE = ("orientable", False, "complex: flag graph is not bipartite")
_TWO_COMPONENTS = ("orientable", False, "complex: flag graph is disconnected (2 components)")
_NOT_MANIFOLD = ("manifold-like", False, "")
HYPOTHESES = {
    "bad_axiom4": [_NOT_BIPARTITE, _NOT_MANIFOLD],
    "disjoint_edges": [_TWO_COMPONENTS, _NOT_MANIFOLD],
    "disjoint_triangles": [_TWO_COMPONENTS, _NOT_MANIFOLD],
    "edge": [("orientable", True, ""), _NOT_MANIFOLD],
    "mobius3": [_NOT_BIPARTITE, _NOT_MANIFOLD],
    "point": _ALL_HOLD,
    "projective_plane": [_NOT_BIPARTITE, ("manifold-like", True, "")],
    "square": [("orientable", True, ""), _NOT_MANIFOLD],
    "square_pentagon": [("orientable", True, ""), _NOT_MANIFOLD],
    "tetrahedron_boundary": _ALL_HOLD,
    "tetrahedron_solid": [("orientable", True, ""), _NOT_MANIFOLD],
    "torus9": _ALL_HOLD,
    "two_triangles": [("orientable", True, ""), _NOT_MANIFOLD],
    "annulus": [("orientable", True, ""), ("manifold-like", True, ""),
                ("cells of the complex flag-connected", False, "cell A"),
                ("cells of the dual flag-connected", True, ""),
                ("cells of the complex acyclic", False, "cell A"),
                ("cells of the dual acyclic", True, "")],
    "annulus dual": [("orientable", True, ""), ("manifold-like", True, ""),
                     ("cells of the complex flag-connected", True, ""),
                     ("cells of the dual flag-connected", False, "cell A"),
                     ("cells of the complex acyclic", True, ""),
                     ("cells of the dual acyclic", False, "cell A")],
}


@pytest.mark.parametrize("name", sorted(HYPOTHESES))
def test_duality_hypothesis_rows(name):
    if name == "annulus":
        s = annulus_complex()
    elif name == "annulus dual":
        s = annulus_complex().dual()
    else:
        s = fixtures.fixture(name)
    assert verify_duality(s).hypotheses == HYPOTHESES[name]


def test_duality_builds_each_chain_complex_once(torus9, count_calls):
    calls = count_calls((duality, "chain_complex"))
    assert verify_duality(torus9).passed
    # complex and dual, their barycentric subdivisions, the reversed pair
    assert len(calls) == 6


def test_duality_colours_only_maximal_closures_again(torus9, count_calls):
    calls = count_calls((flags, "_two_color"), (duality, "_two_color"))
    verify_duality(torus9)
    assert len(calls) == 0


def test_duality_torus(torus9):
    rep = verify_duality(torus9)
    assert rep.passed and rep.hypotheses_ok
    assert [r[1] for r in rep.rows] == ["Z", "Z^2", "Z"]
    assert [r[2] for r in rep.rows] == ["Z", "Z^2", "Z"]
    text = str(rep)
    assert "match" in text and "FAIL" not in text


def test_duality_tetra_boundary(tetra_boundary):
    rep = verify_duality(tetra_boundary)
    assert rep.passed
    assert [r[1] for r in rep.rows] == ["Z", "0", "Z"]


def test_duality_mobius_rejected(mobius3):
    rep = verify_duality(mobius3)
    assert not rep.passed
    names = {n: ok for n, ok, _ in rep.hypotheses}
    assert names["orientable"] is False
    assert rep.certificate and len(rep.certificate) % 2 == 1
    g = flag_graph(mobius3)
    cyc = rep.certificate
    for a, b in zip(cyc, cyc[1:]):
        assert b in g.neighbors[a]
    assert cyc[0] in g.neighbors[cyc[-1]]


def test_duality_projective_plane_rejected():
    from cellcomplexes import fixtures
    s = fixtures.projective_plane()
    assert s.classify().manifold_like  # fails on orientability alone
    rep = verify_duality(s)
    assert not rep.passed
    names = {n: ok for n, ok, _ in rep.hypotheses}
    assert names["manifold-like"] is True
    assert names["orientable"] is False
    assert rep.certificate and len(rep.certificate) % 2 == 1


def test_duality_report_stages(torus9):
    rep = verify_duality(torus9)
    names = [n for n, _ in rep.checks]
    assert "subdivision invariance" in names
    assert "subdivisions of complex and dual coincide" in names
    assert "star map intertwines boundaries" in names


# -- pairings ------------------------------------------------------------------------


def test_basis_pairing_indicator(torus9, torus_dos):
    assert pairing(torus9, Chain(1, {C("h00"): 1}), Chain(1, {C("h00"): 1})) == 1
    assert pairing(torus9, Chain(1, {C("h00"): 1}), Chain(1, {C("e00"): 1})) == 0
    with pytest.raises(ValueError):
        pairing(torus9, Chain(1, {C("h00"): 1}), Chain(2, {C("v00"): 1}))


def test_stokes_torus(torus9):
    rep = stokes_check(torus9)
    assert rep.passed
    assert rep.adjoint_residuals == 0 and rep.stokes_residuals == 0
    assert rep.random_trials == 100 and rep.basis_identity


def test_stokes_tetra_boundary(tetra_boundary):
    assert stokes_check(tetra_boundary, trials=40).passed


def test_stokes_takes_one_coboundary_per_trial(torus9, count_calls):
    calls = count_calls((duality, "coboundary"))
    assert stokes_check(torus9, trials=25).passed
    assert len(calls) == 25


def _drop_one(op):
    """``op`` with the first coefficient of each result it returns dropped."""
    def dropping(c, cc):
        out = op(c, cc)
        return Chain(out.degree, dict(list(out.coeffs.items())[1:]))
    return dropping


@pytest.mark.parametrize("name", ["boundary", "coboundary"])
@pytest.mark.parametrize("make", [fixtures.torus9, lambda: fixtures.simplex_boundary(4)],
                         ids=["torus9", "sphere4"])
def test_stokes_counts_the_residuals_of_a_broken_operator(monkeypatch, make, name):
    # a boundary or coboundary that loses a coefficient makes residuals,
    # which stokes_check counts trial by trial as the looped oracle does
    s = make()
    monkeypatch.setattr(duality, name, _drop_one(getattr(duality, name)))
    for seed in range(5):
        rep = stokes_check(s, seed=seed)
        want = looped_stokes_residuals(s, 100, seed, duality.boundary, duality.coboundary)
        assert (rep.adjoint_residuals, rep.stokes_residuals) == want
        assert want[1] > 0 and (want[0] > 0) == (name == "boundary")


def test_stokes_rejects_negative_trials(torus9):
    with pytest.raises(ValueError, match="trials must be non-negative, not -3"):
        stokes_check(torus9, trials=-3)


@pytest.mark.parametrize("trials", [1.5, True, "3", None])
def test_stokes_rejects_trials_that_are_not_ints(torus9, trials):
    with pytest.raises(TypeError, match=f"^trials must be an int, not {trials!r}$"):
        stokes_check(torus9, trials=trials)


def test_stokes_point_makes_no_random_trials():
    rep = stokes_check(fixtures.point())
    assert rep.passed
    assert rep.dimension == 0 and rep.random_trials == 0 and rep.basis_identity


def test_pairing_descends_to_homology(torus9, torus_dos):
    cc = chain_complex(torus9, torus_dos.signs)
    cd = chain_complex(torus_dos.dual_complex, torus_dos.dual_signs)
    dual_cycles = [cd.from_vector(g, 1) for g in free_cycle_generators(cd, 1)]
    rng = random.Random(11)
    sigma = cc.from_vector(free_cycle_generators(cc, 1)[0], 1)
    for tau in dual_cycles:
        base = pairing(torus9, sigma, tau)
        for _ in range(10):
            rho = Chain(2, {f: rng.randint(-2, 2) for f in torus9.cells_of_rank(2)})
            moved = sigma + boundary(rho, cc)
            assert pairing(torus9, moved, tau) == base


def test_torus_h1_pairing_unimodular(torus9):
    mat = homology_pairing_matrix(torus9, 1)
    assert mat.shape == (2, 2)
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    assert det in (1, -1)


def test_sphere_h2_pairing_unimodular(tetra_boundary):
    mat = homology_pairing_matrix(tetra_boundary, 2)
    assert mat.shape == (1, 1) and mat[0, 0] in (1, -1)


@pytest.mark.parametrize("degree", [-1, 3])
def test_pairing_matrix_outside_the_degrees_is_empty(torus9, degree):
    assert homology_pairing_matrix(torus9, degree).shape == (0, 0)


@pytest.mark.parametrize("name", sorted(DUAL_CASES))
def test_pairing_matrix_matches_the_label_chain_pairing(name):
    s = DUAL_CASES[name]()
    for i in range(-1, s.dim + 2):
        got, want = homology_pairing_matrix(s, i), label_pairing_matrix(s, i)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert (got == want).all()


def test_pairing_matrix_builds_no_label_chains(torus9, count_calls):
    calls = count_calls((duality, "pairing"), (ChainComplex, "from_vector"))
    assert homology_pairing_matrix(torus9, 1).shape == (2, 2)
    assert calls == []
