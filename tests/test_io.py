import pytest

from cellcomplexes import fixtures
from cellcomplexes.cells import CellId
from cellcomplexes.errors import FormatError
from cellcomplexes.fileformat import covering_pairs, dumps, loads
from cellcomplexes.subdivision import barycentric, stellar


@pytest.mark.parametrize("name", ["point", "edge", "two_triangles", "mobius3",
                                  "torus9", "tetrahedron_solid", "square"])
def test_round_trip(name):
    s = fixtures.fixture(name)
    assert loads(dumps(s)) == s


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
