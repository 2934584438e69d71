import pytest
from hypothesis import given, settings, strategies as st

from oracles import _compare, preorder_key

from cellcomplexes.cells import CellId, EMPTY, parse_cell_id
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


def test_names_must_be_strings():
    # a tuple key would take any item; a list name would fail only when hashed
    for bad in (["a"], ("a",), 1, None, b"a", CellId.of("a")):
        with pytest.raises(FormatError):
            CellId.of(bad)


def test_a_label_is_the_tuple_of_its_key():
    a, b = CellId.of("a"), CellId.of("b")
    c = CellId.cone(a, CellId.cone(b, EMPTY))
    assert tuple(a) == (1, "a") and a == (1, "a") and hash(a) == hash((1, "a"))
    assert tuple(c) == (2, 1, "a", 2, 1, "b", 0) and len(c) == 7 and c[3] == 2
    assert EMPTY == (0,) and tuple(EMPTY) == (0,)
    assert c.apex == a and c.base == CellId.cone(b, EMPTY) and c.base.base is EMPTY
    assert (a.apex, a.base, a.name, c.name) == (None, None, "a", None)
    assert type(c.apex) is CellId and type(c.base) is CellId


def test_hashing_equality_and_order_are_tuples():
    for method in ("__hash__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(CellId, method) is getattr(tuple, method)
        assert getattr(type(EMPTY), method) is getattr(tuple, method)


def test_the_constructor_takes_no_key():
    a = CellId.of("a")
    assert CellId(name="a") == a and CellId(apex=a, base=EMPTY) == CellId.cone(a, EMPTY)
    for args in [((1, "a"),), ("a",)]:
        with pytest.raises(TypeError):
            CellId(*args)
    with pytest.raises(FormatError):
        CellId()


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


def _nested(depth):
    """Labels at least ``depth`` cones deep, on the apex side, the base
    side or both; the other side is a shallow label or the empty base."""
    names = st.sampled_from("ab").map(CellId.of)
    if depth == 0:
        return names
    sub, shallow = _nested(depth - 1), _ids(1)
    return st.one_of(
        st.tuples(sub, st.one_of(st.just(EMPTY), shallow, sub)),
        st.tuples(shallow, sub),
    ).map(lambda t: CellId.cone(*t))


@given(st.one_of(_ids(3), _nested(4)))
def test_the_label_is_its_preorder_key(c):
    text = str(c)
    assert tuple(c) == preorder_key(text) == tuple(parse_cell_id(text))
    if c.is_cone:
        assert CellId.cone(c.apex, c.base) == c
        assert str(c) == f"C({c.apex};{c.base})"


@settings(max_examples=200)
@given(_nested(4), _nested(4))
def test_sort_key_order_is_the_walked_order(a, b):
    for x, y in ((a, b), (a, parse_cell_id(str(a))), (b, a)):
        want = _compare(x, y)
        assert (x < y, x == y, x > y) == (want < 0, want == 0, want > 0)
        assert (x <= y, x >= y, x != y) == (want <= 0, want >= 0, want != 0)
        if want == 0:
            assert hash(x) == hash(y)
    assert EMPTY < a and a > EMPTY and not a < EMPTY


def test_comparing_with_a_non_label_raises_type_error():
    a = CellId.of("a")
    for bad in (lambda: a < "a", lambda: a <= 1, lambda: "a" > a, lambda: sorted([a, None])):
        with pytest.raises(TypeError):
            bad()
    assert a != "a" and not a == "a"
    assert EMPTY < a and a > EMPTY and a >= EMPTY
    assert sorted([CellId.cone(a, EMPTY), a]) == [a, CellId.cone(a, EMPTY)]
