import pytest
from hypothesis import given, settings, strategies as st

from cellcomplexes import fileformat, fixtures
from cellcomplexes.cells import CellId
from cellcomplexes.complexes import build_complex
from cellcomplexes.errors import FormatError
from cellcomplexes.fileformat import covering_pairs, dumps, loads
from cellcomplexes.subdivision import barycentric, stellar


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_round_trip(name):
    s = fixtures.fixture(name)
    text = dumps(s)
    assert loads(text) == s
    assert dumps(loads(text)) == text


def test_round_trip_subdivided(torus9, torus9_signs):
    res, _ = stellar(torus9, CellId.of("h00"), torus9_signs)
    assert loads(dumps(res.complex)) == res.complex
    b, _ = barycentric(fixtures.two_triangles())
    assert loads(dumps(b)) == b


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


@pytest.mark.parametrize("bad", [
    "",
    "not a header\ncell a 0\n",
    "ccc v1\ncell a\n",
    "ccc v1\ncell a zero\n",
    "ccc v1\ncells a 0\n",
    "ccc v1\ncell a 0\ncover a b\n",
    "ccc v1\ncell a 0\ncell a 0\n",
    "ccc v1\ncell b 30000000\n",
])
def test_parse_errors(bad):
    with pytest.raises(FormatError):
        loads(bad)



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
