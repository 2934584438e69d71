"""The diamond and top-cell rules against the flag constructions.

``orient_all_cells`` signs faces by the diamond rule and ``orient``
signs top cells by the top-cell rule; neither lists flags unless a rule
fails.  The oracles 2-color flag graphs as the definition says.  Both
must give the same signs, vertex signs and colors, and, where a rule
fails, the same error with the same certificate.
"""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import flag_orient, flag_orient_all_cells

from cellcomplexes import fixtures, flags
from cellcomplexes.cells import CellId
from cellcomplexes.complexes import build_complex, from_simplicial, product
from cellcomplexes.errors import CccError
from cellcomplexes.subdivision import barycentric

C = CellId.of


def _boundary(n):
    vs = [f"s{i}" for i in range(n + 1)]
    return from_simplicial([[v for v in vs if v != w] for w in vs])


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
        return _boundary(int(arg))
    if kind == "product":
        a, b = map(int, arg.split("x"))
        return product(fixtures.simplex(a), fixtures.simplex(b))
    if kind == "rp2":
        return product(fixtures.projective_plane(), fixtures.simplex(int(arg)))
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
         + [f"rp2:{k}" for k in (1, 2)]
         + ["bary:torus3", "bary:projective_plane", "bary:mobius3", "dual:torus9",
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
            assert table.orientations[x] == want.orientations[x]
    omega, err = _outcome(flags.orient, s)
    want, want_err = _outcome(flag_orient, s)
    assert err == want_err
    if want is not None:
        assert type(omega.colors) is dict and omega.colors == want.colors


@pytest.mark.parametrize("name", CASES)
def test_rules_match_flag_colorings(name):
    assert_same_orientations(_complex(name))


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
    calls = count_calls((flags, "_two_color"), (flags, "flag_graph"))
    flags.orient(s)
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
