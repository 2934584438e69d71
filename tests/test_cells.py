import pytest
from hypothesis import given, strategies as st

from cellcomplexes.cells import CellId, EMPTY, _compare, parse_cell_id
from cellcomplexes.errors import FormatError


def test_base_cells_compare_by_name():
    a, b = CellId.of("a"), CellId.of("b")
    assert a == CellId.of("a")
    assert a < b
    assert len({a, CellId.of("a"), b}) == 2


def test_base_cells_sort_before_cones():
    v = CellId.of("v")
    assert v < CellId.cone(v, EMPTY)


def test_cone_structure():
    x, y = CellId.of("x"), CellId.of("y")
    c = CellId.cone(x, y)
    assert c.is_cone and c.apex == x and c.base == y
    assert not x.is_cone
    nested = CellId.cone(y, c)
    assert nested.base == c


def test_serialization():
    x, y = CellId.of("x"), CellId.of("y")
    assert str(CellId.cone(x, EMPTY)) == "C(x;0)"
    assert str(CellId.cone(y, CellId.cone(x, y))) == "C(y;C(x;y))"


def test_parse_round_trip_simple():
    for tok in ["v00", "C(x;0)", "C(e;C(f;v))", "a*b", "x_y"]:
        assert str(parse_cell_id(tok)) == tok


@pytest.mark.parametrize("bad", ["", "0", "a b", "a;b", "C(x;)", "C(;y)",
                                 "C(x;y", "C(0;y)", "x)", "ha#sh"])
def test_rejects_malformed(bad):
    with pytest.raises(FormatError):
        parse_cell_id(bad)


@pytest.mark.parametrize("side", ["base", "apex"])
def test_deep_labels_round_trip(side):
    # repeated stellar subdivision nests cone labels far past the recursion limit
    a, b = CellId.of("a"), CellId.of("b")
    cid = a
    for i in range(900):
        other = b if i % 2 else EMPTY
        cid = CellId.cone(b, cid) if side == "base" else CellId.cone(cid, other)
    text = str(cid)
    assert text.count("C(") == 900
    again = parse_cell_id(text)
    assert str(again) == text and again == cid


def _deep(side, depth, leaf="a"):
    cid = CellId.of(leaf)
    for i in range(depth):
        other = CellId.of("b") if i % 2 else EMPTY
        cid = CellId.cone(CellId.of("b"), cid) if side == "base" else CellId.cone(cid, other)
    return cid


@pytest.mark.parametrize("side", ["base", "apex"])
def test_deep_labels_compare(side):
    cid = _deep(side, 5000)
    again = parse_cell_id(str(cid))
    assert again is not cid
    assert again == cid and not again != cid and hash(again) == hash(cid)
    assert again <= cid and again >= cid and not again < cid
    # the labels first differ at the innermost name: a < c
    other = _deep(side, 5000, leaf="c")
    assert cid < other and other > cid and cid != other
    assert sorted([other, again]) == [cid, other]


def test_names_reject_reserved_characters():
    for bad in ["", "0", "with space", "pa(ren", "semi;colon", "ha#sh"]:
        with pytest.raises(FormatError):
            CellId.of(bad)


def test_immutable():
    v = CellId.of("v")
    with pytest.raises(AttributeError):
        v.name = "w"


_names = st.text(alphabet="abcxyz123", min_size=1, max_size=4).filter(lambda s: s != "0")


def _ids(depth=2):
    if depth == 0:
        return _names.map(CellId.of)
    sub = _ids(depth - 1)
    return st.one_of(
        _names.map(CellId.of),
        st.tuples(sub, st.one_of(st.just(EMPTY), sub)).map(lambda t: CellId.cone(*t)),
    )


@given(_ids())
def test_round_trip_random(cid):
    assert parse_cell_id(str(cid)) == cid


@given(_ids(), _ids())
def test_total_order(a, b):
    assert (a < b) + (b < a) + (a == b) == 1


def _nested_key(c):
    # the order labels had as nested tuples: empty base, names, then cones
    if c is EMPTY:
        return ("a",)
    if c.name is not None:
        return ("b", c.name)
    return ("c", _nested_key(c.apex), _nested_key(c.base))


@given(_ids(3), _ids(3))
def test_walked_order_is_the_nested_key_order(a, b):
    ka, kb = _nested_key(a), _nested_key(b)
    want = (ka > kb) - (ka < kb)
    assert _compare(a, b) == want
    assert _compare(b, a) == -want
    assert (a < b, a <= b, a == b, a >= b, a > b) == (ka < kb, ka <= kb, ka == kb, ka >= kb, ka > kb)
