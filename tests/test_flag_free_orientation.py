"""The diamond and top-cell rules against the flag constructions.

``orient_all_cells`` signs faces by the diamond rule and ``orient``
signs top cells by the top-cell rule; neither lists flags unless a rule
fails.  Where one fails, the library 2-colors the flag graph lazily,
reading each flag's neighbours off the faces.  The oracles list every
flag and every adjacency first and 2-color the listed graph.  Both must
give the same signs, vertex signs and colors, and, where a rule fails,
the same error with the same certificate.  The rules run over cell
indices; the oracles keep them over labels, and both must give the same
signs, in the same order, and stop at the same cell.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (_diamond_signs as label_diamond_signs, _down as label_down,
                     _link_signs as label_link_signs, brute_flag_graph, brute_flags,
                     flag_orient, flag_orient_all_cells)

from cellcomplexes import fileformat, fixtures, flags
from cellcomplexes.cells import CellId
from cellcomplexes.cli import main
from cellcomplexes.complexes import Ccc, build_complex, from_simplicial, product
from cellcomplexes.duality import verify_duality
from cellcomplexes.errors import CccError, NotEquidimensionalError, NotOrientableError
from cellcomplexes.subdivision import barycentric

C = CellId.of


def _annulus():
    """A closed surface whose 2-cell A has two boundary circles."""
    edges = {"p1": "a1 a2", "p2": "a1 a2", "q1": "b1 b2", "q2": "b1 b2",
             "r1": "a2 b1", "r2": "b2 a1"}
    faces = {"A": "p1 p2 q1 q2", "D": "p1 r1 q1 r2", "E": "p2 r1 q2 r2"}
    cells = [(C(v), 0) for v in ("a1", "a2", "b1", "b2")]
    cells += [(C(e), 1) for e in edges] + [(C(f), 2) for f in faces]
    covers = [(C(v), C(e)) for e, vs in edges.items() for v in vs.split()]
    covers += [(C(e), C(f)) for f, es in faces.items() for e in es.split()]
    return build_complex(cells, covers)


def _klein(n):
    """An n x n grid of squares glued into a Klein bottle: columns wrap
    straight, rows wrap with a reflection."""
    def canon(r, c):
        if c == n:
            c = 0
        if r == n:
            r, c = 0, -c % n
        return f"v{r}_{c}"

    squares = []
    for r in range(n):
        for c in range(n):
            a, b, d, e = canon(r, c), canon(r, c + 1), canon(r + 1, c), canon(r + 1, c + 1)
            squares.append([tuple(sorted(p)) for p in ((a, b), (d, e), (a, d), (b, e))])
    edges = {p for sq in squares for p in sq}
    name = lambda p: "e" + "-".join(p)
    cells = [(C(v), 0) for v in {v for p in edges for v in p}]
    cells += [(C(name(p)), 1) for p in edges]
    cells += [(C(f"f{i}"), 2) for i in range(len(squares))]
    covers = [(C(v), C(name(p))) for p in edges for v in p]
    covers += [(C(name(p)), C(f"f{i}")) for i, sq in enumerate(squares) for p in sq]
    return build_complex(cells, covers)


# complexes where a rule fails, each for a different reason
ODD = {
    "annulus": _annulus,
    "empty": lambda: build_complex([], []),
    "edge with three ends": lambda: build_complex(
        [(C("a"), 0), (C("b"), 0), (C("c"), 0), (C("e"), 1)],
        [(C("a"), C("e")), (C("b"), C("e")), (C("c"), C("e"))]),
    "faceless 2-cell": lambda: build_complex(
        [(C("v"), 0), (C("x"), 2)], [(C("v"), C("x"))]),
    "three points": lambda: from_simplicial([["a"], ["b"], ["c"]]),
    "triangle and edge": lambda: from_simplicial([["a", "b", "c"], ["c", "d"]]),
}


def _complex(name):
    kind, _, arg = name.partition(":")
    if kind == "fixture":
        return fixtures.fixture(arg)
    if kind == "simplex":
        return fixtures.simplex(int(arg))
    if kind == "boundary":
        return fixtures.simplex_boundary(int(arg))
    if kind == "product":
        a, b = map(int, arg.split("x"))
        return product(fixtures.simplex(a), fixtures.simplex(b))
    if kind == "rp2":
        return product(fixtures.projective_plane(), fixtures.simplex(int(arg)))
    if kind == "klein":
        return _klein(int(arg))
    if kind == "torus":
        return fixtures.torus(*map(int, arg.split("x")))
    if kind == "bary":
        base = fixtures.torus(3) if arg == "torus3" else fixtures.fixture(arg)
        return barycentric(base)[0]
    if kind == "dual":
        return (_annulus() if arg == "annulus" else fixtures.torus9()).dual()
    return ODD[kind]()


CASES = ([f"fixture:{n}" for n in sorted(fixtures.FIXTURES)]
         + [f"simplex:{n}" for n in range(1, 7)]
         + [f"boundary:{n}" for n in range(4, 7)]
         + [f"product:{a}x{b}" for a in range(1, 4) for b in range(a, 6 - a)]
         + [f"rp2:{k}" for k in (1, 2, 3)]
         + ["klein:4", "bary:torus3", "bary:projective_plane", "bary:mobius3", "dual:torus9",
            "dual:annulus"]
         + sorted(ODD))


def _outcome(fn, s):
    try:
        return fn(s), None
    except CccError as e:
        return None, (type(e), str(e), getattr(e, "cell", None),
                      getattr(e, "odd_cycle", None), getattr(e, "components", None))


def assert_same_orientations(s):
    table, err = _outcome(flags.orient_all_cells, s)
    want, want_err = _outcome(flag_orient_all_cells, s)
    assert err == want_err
    if want is not None:
        assert table.signs == want.signs
        assert table.vertex_signs == want.vertex_signs
        for x in s.cells:
            assert table.orientation(x) == want.orientation(x)
    omega, err = _outcome(flags.orient, s)
    want, want_err = _outcome(flag_orient, s)
    assert err == want_err
    if want is not None:
        assert dict(omega.colors) == want.colors
        assert len(omega.colors) == len(want.colors)


@pytest.mark.parametrize("name", CASES)
def test_rules_match_flag_colorings(name, count_calls):
    s = _complex(name)
    calls = count_calls((flags, "_two_color"))
    _outcome(flags.orient_all_cells, s)
    assert len(calls) <= 1  # only the closure where the diamond rule stops
    assert_same_orientations(s)


def test_failing_cases_fail():
    for name in ODD:
        s = _complex(name)
        failed = [_outcome(fn, s)[1] is not None
                  for fn in (flags.orient_all_cells, flags.orient)]
        assert any(failed), name


_simplices = st.lists(
    st.sets(st.sampled_from(list("abcdef")), min_size=1, max_size=4),
    min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(_simplices)
def test_random_simplicial_complexes_match_flag_colorings(simps):
    assert_same_orientations(from_simplicial(simps))


def _labelled(s, rows) -> dict:
    """Index rows as a dict keyed by label pairs, in canonical order."""
    return {(s.cells[x], s.cells[y]): v for x, fs in enumerate(s._face_ix)
            for y, v in zip(fs, rows[x]) if v}


def assert_index_rules_match_label_rules(s):
    """The diamond rule over indices gives the label rule's signs, in the
    same order, and stops at the same cell, on every cell and on the cells
    below top rank; the top-cell rule gives the same top signs in the same
    order of discovery."""
    below_top = s._rank_range(s.dim).start if len(s) else 0
    for upto in (below_top, len(s)):
        rows, bad = flags._diamond_signs(s, range(upto))
        want, want_bad = label_diamond_signs(s, s.cells[:upto])
        assert (None if bad is None else s.cells[bad]) == want_bad
        assert list(_labelled(s, rows).items()) == list(want.items())
    if bad is None and len(s):
        eps = flags._link_signs({x: flags._down(s, rows, x) for x in s._rank_range(s.dim)})
        want_eps = label_link_signs({x: label_down(s, want, x) for x in s.cells_of_rank(s.dim)})
        got = None if eps is None else [(s.cells[x], e) for x, e in eps.items()]
        assert got == (None if want_eps is None else list(want_eps.items()))


@pytest.mark.parametrize("name", CASES)
def test_index_rules_match_label_rules(name):
    assert_index_rules_match_label_rules(_complex(name))


@settings(max_examples=60, deadline=None)
@given(_simplices)
def test_random_index_rules_match_label_rules(simps):
    assert_index_rules_match_label_rules(from_simplicial(simps))


VALID = ["fixture:torus9", "fixture:tetrahedron_solid", "simplex:4", "boundary:5",
         "product:2x2", "bary:mobius3"]


@pytest.mark.parametrize("name", VALID)
def test_orient_all_cells_lists_no_flags(name, count_calls):
    s = _complex(name)
    calls = count_calls((flags, "flags_of"), (flags, "_two_color"))
    flags.orient_all_cells(s)
    assert calls == []


@pytest.mark.parametrize("name", [n for n in VALID if n != "bary:mobius3"])
def test_orient_colors_no_flag_graph_when_orientable(name, count_calls):
    s = _complex(name)
    calls = count_calls((flags, "_two_color"), (flags, "flag_graph"), (flags, "flags_of"))
    flags.orient(s)
    # the predicates take the rules first too
    assert flags.is_orientable(s) and flags.is_flag_connected(s)
    assert flags.odd_flag_cycle(s) is None
    assert calls == []


def test_flag_colors_view():
    s = fixtures.simplex(3)
    table = flags.orient_all_cells(s)
    x = s.cells_of_rank(3)[0]
    colors = table.orientation(x).colors
    listed = flags.flags_of(s, x)
    assert list(colors) == listed and len(colors) == 24
    assert all(colors[f] == table.color(f) for f in listed)
    not_flags = [listed[0][:-1], listed[0][1:], (x,) + listed[0][2:] + (listed[0][-1],),
                 tuple(reversed(listed[0])), "abc", listed[0] + (listed[0][-1],)]
    for f in not_flags:
        assert f not in colors
        with pytest.raises(KeyError):
            colors[f]
    # the count is the recurrence, and agrees with listing on every cell
    for c in s.cells:
        assert len(table.orientation(c).colors) == len(flags.flags_of(s, c))


# -- the flag graph --------------------------------------------------------------


def _graph_outcome(make, s):
    g, err = _outcome(make, s)
    return (None, err) if g is None else ((g.flags, dict(g.neighbors)), None)


def assert_same_flag_graph(s):
    assert _graph_outcome(flags.flag_graph, s) == _graph_outcome(brute_flag_graph, s)


GRAPH_CASES = ([f"fixture:{n}" for n in sorted(fixtures.FIXTURES)]
               + ["rp2:1", "rp2:2", "bary:mobius3", "torus:3x5"])


@pytest.mark.parametrize("name", GRAPH_CASES)
def test_flag_graph_matches_listed_graph(name):
    assert_same_flag_graph(_complex(name))


@settings(max_examples=60, deadline=None)
@given(_simplices)
def test_random_flag_graphs_match_listed_graph(simps):
    assert_same_flag_graph(from_simplicial(simps))


def _listed(fn, *args):
    """The flags ``fn`` lists, or the message of the CccError it raises."""
    try:
        return list(fn(*args))
    except CccError as e:
        return str(e)


def _brute_listed(s):
    """``brute_flags(s)``, or the error the library raises first: not
    equidimensional, or a cell of positive rank without faces."""
    if not flags._equidimensional(s):
        return "flags of the whole complex need all maximal cells at top rank"
    faceless = [c for c in s.cells if s.rank(c) and not s.faces(c)]
    return f"cell {faceless[0]} of positive rank has no faces" if faceless else brute_flags(s)


@pytest.mark.parametrize("name", sorted(set(CASES) | {"bary2:projective_plane", "simplex:7"}))
def test_flags_of_lists_flags_in_order(name):
    if name.startswith("bary2:"):
        s = barycentric(barycentric(fixtures.fixture(name[6:]))[0])[0]
    else:
        s = _complex(name)
    assert s._face_ix == tuple(tuple(map(s._index.__getitem__, s.faces(x))) for x in s.cells)
    for x in s.cells:
        assert _listed(flags.flags_of, s, x) == _brute_listed(s.closure_complex(x))
    want = _brute_listed(s)
    assert _listed(flags.all_flags, s) == want
    assert _listed(lambda: flags.flag_graph(s).flags) == want


# -- errors ------------------------------------------------------------------------


def _faceless_edges():
    """Three edges, of which f and g have no faces."""
    ranks = {C("a"): 0, C("b"): 0, C("e"): 1, C("f"): 1, C("g"): 1}
    return Ccc(ranks, {C("e"): [C("a"), C("b")]})


def _faceless_square():
    """A 2-cell over three edges, of which p and q have no faces."""
    ranks = {C("a"): 0, C("b"): 0, C("e"): 1, C("p"): 1, C("q"): 1, C("x"): 2}
    return Ccc(ranks, {C("e"): [C("a"), C("b")], C("x"): [C("e"), C("p"), C("q")]})


@pytest.mark.parametrize("make, cell, named", [
    (_faceless_edges, "g", {"complex": "f", "cell": "g"}),
    (_faceless_square, "x", {"complex": "q", "cell": "q"}),
])
@pytest.mark.parametrize("call", ["orient", "all_flags", "flag_graph", "is_orientable",
                                  "orient_cell", "flags_of"])
def test_cells_without_faces_are_named(make, cell, named, call):
    s = make()
    fn = getattr(flags, call)
    per_cell = call in ("orient_cell", "flags_of")
    with pytest.raises(CccError) as info:
        fn(s, C(cell)) if per_cell else fn(s)
    assert type(info.value) is CccError
    bad = named["cell" if per_cell else "complex"]
    assert str(info.value) == f"cell {bad} of positive rank has no faces"


@pytest.mark.parametrize("call", ["flag_graph", "is_orientable", "all_flags", "orient"])
def test_flag_graph_needs_equidimensional(call):
    with pytest.raises(NotEquidimensionalError) as info:
        getattr(flags, call)(ODD["triangle and edge"]())
    assert str(info.value) == "flags of the whole complex need all maximal cells at top rank"


def test_no_flags():
    s = build_complex([], [])
    with pytest.raises(NotOrientableError) as info:
        flags.orient(s)
    assert (str(info.value), info.value.odd_cycle, info.value.components) == \
        ("complex has no flags", None, None)
    assert not flags.is_orientable(s) and not flags.is_flag_connected(s)
    assert flags.odd_flag_cycle(s) is None


# -- certificates where users see them ---------------------------------------------


def _orient_stdout(s, tmp_path):
    path = tmp_path / "s.ccc"
    path.write_text(fileformat.dumps(s))
    out = tmp_path / "stdout"
    with open(out, "w") as f, pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.stdout", f)
        code = main(["orient", str(path)])
    return code, out.read_text()


# sha256 and line count of ``ccc orient`` on each complex, as the flag
# graph listed whole printed them
ORIENT_STDOUT = {
    "rp2:1": ("bec20fcf7b1a49ae721e7fcb1c5a473f1dac03a8640075e6c28170cb4793175b", 23),
    "fixture:mobius3": ("87f47d08c87c3853a5082e34f890b63a7cd0c12ed22723ab33570c183bbab346", 15),
}


@pytest.mark.parametrize("name", sorted(ORIENT_STDOUT))
def test_orient_prints_the_same_certificate(name, tmp_path):
    s = _complex(name)
    code, out = _orient_stdout(s, tmp_path)
    with pytest.raises(NotOrientableError) as info:
        flag_orient(s)
    assert code == 1
    assert out.splitlines() == ([f"not orientable: {info.value}", "odd flag cycle:"]
                                + ["  " + ">".join(map(str, f)) for f in info.value.odd_cycle])
    assert (hashlib.sha256(out.encode()).hexdigest(), len(out.splitlines())) == \
        ORIENT_STDOUT[name]


def test_duality_report_carries_the_certificate():
    s = _complex("klein:4")
    with pytest.raises(NotOrientableError) as info:
        flag_orient(s)
    report = verify_duality(s)
    assert report.certificate == info.value.odd_cycle
    assert str(report) == (f"hypothesis orientable: FAIL ({info.value})\n"
                           "hypothesis manifold-like: ok")


def test_orient_lists_no_flags_before_coloring(count_calls):
    s = _complex("rp2:2")
    calls = count_calls((flags, "flags_of"), (flags, "all_flags"))
    with pytest.raises(NotOrientableError) as info:
        flags.orient(s)
    assert info.value.odd_cycle and calls == []
