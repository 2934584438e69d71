import random

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from test_covers import _acyclic_relations

from cellcomplexes import fileformat, fixtures
from cellcomplexes.cells import CellId, parse_cell_id
from cellcomplexes.complexes import Ccc, build_complex, product
from cellcomplexes.errors import FormatError
from cellcomplexes.fileformat import covering_pairs, dumps, loads
from cellcomplexes.subdivision import barycentric, barycentric_via_stellar, stellar

C = CellId.of

ROUND_TRIP = {
    **{name: (lambda name=name: fixtures.fixture(name)) for name in fixtures.FIXTURES},
    **{f"simplex{n}": (lambda n=n: fixtures.simplex(n)) for n in range(1, 5)},
    **{f"sphere{n}": (lambda n=n: fixtures.simplex_boundary(n)) for n in range(2, 6)},
    "torus3": lambda: fixtures.torus(3),
    "torus3x5": lambda: fixtures.torus(3, 5),
    "triangle x edge": lambda: product(fixtures.simplex(2), fixtures.edge()),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP))
def test_round_trip(name):
    # each input, its barycentric subdivision and, where it has one, its dual
    s = ROUND_TRIP[name]()
    derived = [s, barycentric(s)[0]]
    if s.classify().manifold_like:
        derived.append(s.dual())
    for x in derived:
        text = dumps(x)
        assert loads(text) == x
        assert dumps(loads(text)) == text


def test_round_trip_subdivided(torus9, torus9_signs):
    for x in torus9.cells:
        if torus9.rank(x):
            res, _ = stellar(torus9, x, torus9_signs)
            assert loads(dumps(res.complex)) == res.complex
    stages = barycentric_via_stellar(torus9, torus9_signs).stages
    assert len(stages) > 1
    for stage in stages:
        assert loads(dumps(stage.complex)) == stage.complex
    b, _ = barycentric(fixtures.two_triangles())
    assert loads(dumps(b)) == b


@st.composite
def _relations_of_any_rank(draw):
    """An acyclic relation on n cells with ranks drawn up to n + 1, so that
    covers may fail to raise rank and ranks may reach the cell count."""
    ranks, relation = draw(_acyclic_relations())
    return {c: draw(st.integers(0, len(ranks) + 1)) for c in ranks}, relation


@settings(max_examples=300, deadline=None)
@given(_relations_of_any_rank())
def test_dumps_writes_only_what_loads_reads_back(data):
    s = Ccc(*data)
    text = oracles.unchecked_dumps(s)
    try:
        want = loads(text)
    except FormatError as e:
        with pytest.raises(FormatError) as info:
            dumps(s)
        assert str(info.value) == str(e)
    else:
        assert dumps(s) == text and want == s


@pytest.mark.parametrize("make, cap, message", [
    (lambda: Ccc({C("a"): 1, C("b"): 1}, {C("b"): [C("a")]}), None,
     "cover (a, b) has rank 1 >= 1"),
    (lambda: Ccc({C("c"): 0, C("d"): 2}, {C("d"): [C("c")]}), None,
     "cell d has rank 2 but only 2 cells"),
    (lambda: fixtures.simplex(4), 30, "the file has 31 cells, more than 30"),
], ids=["cover", "rank", "count"])
def test_dumps_refuses_what_loads_refuses(make, cap, message, monkeypatch):
    s = make()
    if cap is not None:
        monkeypatch.setattr(fileformat, "MAX_CELLS", cap)
    with pytest.raises(FormatError) as info:
        loads(oracles.unchecked_dumps(s))
    assert str(info.value) == message
    with pytest.raises(FormatError) as info:
        dumps(s)
    assert str(info.value) == message


def test_cone_ids_in_files(torus9, torus9_signs):
    res, _ = stellar(torus9, CellId.of("h00"), torus9_signs)
    text = dumps(res.complex)
    assert "C(h00;0)" in text
    assert "C(h00;v00)" in text


def test_header_and_counts(torus9):
    text = dumps(torus9)
    lines = text.strip().splitlines()
    assert lines[0] == "ccc v1"
    assert sum(1 for l in lines if l.startswith("cell ")) == 36
    assert sum(1 for l in lines if l.startswith("cover ")) == 72
    assert text.endswith("\n")


def test_covers_are_rank_adjacent(torus9):
    for lo, hi in covering_pairs(torus9):
        assert torus9.rank(hi) == torus9.rank(lo) + 1


def test_round_trip_cover_skipping_a_rank():
    # axiom-invalid: u lies directly below the 2-cell f, with no edge
    # between, and below g only through f
    C = CellId.of
    s = build_complex([(C("v"), 0), (C("w"), 0), (C("u"), 0), (C("e"), 1), (C("f"), 2),
                       (C("g"), 3)],
                      [(C("v"), C("e")), (C("w"), C("e")), (C("e"), C("f")),
                       (C("u"), C("f")), (C("f"), C("g"))])
    assert covering_pairs(s) == [(C("v"), C("e")), (C("w"), C("e")),
                                 (C("e"), C("f")), (C("u"), C("f")), (C("f"), C("g"))]
    assert loads(dumps(s)) == s


def test_order_insensitive_and_comments():
    text = ("ccc v1  # trailing comment\n"
            "# a full-line comment\n"
            "cover a e  # covers may precede cells\n"
            "cell e 1\n"
            "\n"
            "cell a 0\n"
            "cell b 0\n"
            "cover b e\n")
    s = loads(text)
    assert len(s) == 3 and s.rank(CellId.of("e")) == 1


def test_each_distinct_token_is_parsed_once(count_calls):
    t = fixtures.torus(4)
    text = dumps(t)
    calls = count_calls((fileformat, "parse_cell_id"))
    assert loads(text) == t
    assert len(calls) == len(t) == 64  # one per cell; the file names 320 tokens


@pytest.mark.parametrize("text, error", [
    ("ccc v1\ncell a 0\ncell C(a 1\ncover a C(a\n",
     "line 3: expected ';' in cone id 'C(a'"),
    ("ccc v1\ncell a 0\ncover a C(a;b\ncell C(a;b 1\n",
     "line 3: expected ')' in cone id 'C(a;b'"),
])
def test_a_bad_token_fails_at_its_first_line(text, error):
    with pytest.raises(FormatError) as info:
        loads(text)
    assert str(info.value) == error


_PARSE_ERRORS = [
    ("", "missing 'ccc v1' header"),
    ("not a header\ncell a 0\n", "missing 'ccc v1' header"),
    ("ccc v1\ncell a\n", "line 2: unrecognized line 'cell a'"),
    ("ccc v1\ncell a zero\n", "line 2: invalid literal for int() with base 10: 'zero'"),
    ("ccc v1\ncells a 0\n", "line 2: unrecognized line 'cells a 0'"),
    ("ccc v1\ncell a 0\ncover a b\n", "cover references unknown cell b"),
    ("ccc v1\ncell a 0\ncell a 0\n", "cell a declared twice"),
    ("ccc v1\ncell b 30000000\n", "cell b has rank 30000000 but only 1 cells"),
    # a parse error anywhere wins over a duplicate cell before it
    ("ccc v1\ncell a 0\ncell a 0\ncell C(a 1\n", "line 4: expected ';' in cone id 'C(a'"),
    # the rank-versus-count check comes before the errors of building
    ("ccc v1\ncell a 0\ncell a 5\n", "cell a has rank 5 but only 2 cells"),
    ("ccc v1\ncell a 0\ncover a z\ncell c 9\n", "cell c has rank 9 but only 2 cells"),
    # building reports the first bad cell line, then the first bad cover line
    ("ccc v1\ncover b a\ncell a 0\ncell b -1\ncell a 1\n", "cell b has negative rank -1"),
    ("ccc v1\ncell a 1\ncell b 0\ncover a b\ncover a a\n", "cover (a, b) has rank 1 >= 0"),
    ("ccc v1\ncell a 0\ncover a a\ncover a z\n", "cover (a, a) is a cycle"),
]


@pytest.mark.parametrize("bad, error", [pytest.param(*case, id=case[0]) for case in _PARSE_ERRORS])
def test_parse_errors(bad, error):
    with pytest.raises(FormatError) as info:
        loads(bad)
    assert str(info.value) == error


def test_oversize_file_is_refused_before_it_is_built(run_capped):
    proc = run_capped("from cellcomplexes.errors import FormatError\n"
                      "from cellcomplexes.fileformat import loads\n"
                      "text = 'ccc v1\\n' + ''.join(f'cell v{k} 0\\n' for k in range(120_000))\n"
                      "try:\n"
                      "    loads(text)\n"
                      "except FormatError as e:\n"
                      "    print(e)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "the file has 120000 cells, more than 100000\n"


# cell ids: names and cones over them, the base 0 being the empty cell
_ids = st.recursive(st.sampled_from(["a", "b", "v0", "e1", "f"]),
                    lambda inner: st.builds("C({};{})".format, inner,
                                            st.one_of(inner, st.just("0"))),
                    max_leaves=4)
_junk = st.sampled_from(["", "0", "C(0;a)", "C(", "C(a", "C(a;", "C(;)", "C()", "a)",
                         ";", "cell", "cover", "-1", "1.5", "1e3", "C(a;b))", "é", "\t"])
_tokens = st.one_of(_ids, _junk, st.integers(-2, 6).map(str),
                    st.text(min_size=1, max_size=4))
_lines = st.one_of(
    st.builds("cell {} {}".format, st.one_of(_ids, _junk), st.integers(-2, 6)),
    st.builds("cover {} {}".format, st.one_of(_ids, _junk), st.one_of(_ids, _junk)),
    st.lists(_tokens, max_size=4).map(" ".join),
)


@st.composite
def _complex_lines(draw):
    """Distinct cells of rank 0..2 and covers from lower to higher rank
    among them, in any order."""
    cells = draw(st.dictionaries(_ids, st.integers(0, 2), max_size=7))
    pairs = st.tuples(st.sampled_from(sorted(cells)), st.sampled_from(sorted(cells)))
    covers = draw(st.lists(pairs, max_size=9)) if cells else []
    lines = ([f"cell {c} {r}" for c, r in cells.items()]
             + [f"cover {a} {b}" for a, b in covers if cells[a] < cells[b]])
    return draw(st.permutations(lines))


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.one_of(st.lists(_lines, max_size=12), _complex_lines()))
def test_loads_raises_only_format_errors(header, lines):
    text = "\n".join(["ccc v1"] * header + lines) + "\n"
    try:
        s = loads(text)
    except FormatError:
        return
    assert loads(dumps(s)) == s


@pytest.mark.parametrize("side", ["apex", "base"])
def test_deep_labels_load_and_dump_back(side):
    # 100 000 cones nested on one side, far past the recursion limit
    depth = 100_000
    if side == "base":
        deep = "C(b;" * depth + "a" + ")" * depth
    else:
        deep = "C(" * depth + "a" + "".join(";b)" if i % 2 else ";0)" for i in range(depth))
    text = f"ccc v1\ncell a 0\ncell {deep} 0\ncell e 1\ncover a e\ncover {deep} e\n"
    s = loads(text)
    assert dumps(s) == text
    label = s.cells[1]
    assert label.count(2) == depth and len(s) == 3


def _same_outcome(want, got, *args):
    """``want`` and ``got`` called on ``args`` raise the same exception
    type and message, or return equal results; the results are returned."""
    try:
        expected = want(*args)
    except Exception as e:
        with pytest.raises(type(e)) as info:
            got(*args)
        assert type(info.value) is type(e) and str(info.value) == str(e)
        return None, None
    return expected, got(*args)


@settings(max_examples=400, deadline=None)
@given(_tokens)
@example("0")
@example("a;b")
@example("a)")
@example("C(a")
@example("C(a;0)")
@example("v\x0bw")
@example("a b")
def test_parse_cell_id_matches_the_full_pass(token):
    expected, label = _same_outcome(oracles.full_pass_parse_cell_id, parse_cell_id, token)
    assert label == expected and type(label) is type(expected)


def _same_complex(s, t):
    assert s == t and dumps(s) == dumps(t)
    assert s._face_ix == t._face_ix and s._coface_ix == t._coface_ix


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.one_of(st.lists(_lines, max_size=12), _complex_lines()))
def test_loads_matches_the_label_dict_loader(header, lines):
    text = "\n".join(["ccc v1"] * header + lines) + "\n"
    expected, s = _same_outcome(oracles.label_dict_loads, loads, text)
    if expected is not None:
        _same_complex(s, expected)


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_shuffled_files_load_as_the_label_dict_loader_does(name):
    lines = dumps(fixtures.fixture(name)).splitlines()
    body = lines[1:]
    random.Random(name).shuffle(body)
    text = "\n".join(lines[:1] + body) + "\n"
    _same_complex(loads(text), oracles.label_dict_loads(text))
