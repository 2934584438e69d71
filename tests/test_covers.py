"""The order of a complex is the closure of the relation it is built from.

Every constructor passes only covers, so each complex is compared with
the one built from every cell strictly below each cell, and the
constructors with orders listed in full by the oracles.
"""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    barycentric_order,
    closed_relation,
    closure_covers,
    disjoint_stellar_description,
    product_order,
    simplicial_order,
    transitive_closure,
)

from cellcomplexes import fixtures, subdivision
from cellcomplexes.cells import CellId
from cellcomplexes.complexes import Ccc, from_simplicial, product
from cellcomplexes.errors import CoverCycleError
from cellcomplexes.fileformat import covering_pairs
from cellcomplexes.flags import orient_all_cells, simplicial_signs
from cellcomplexes.subdivision import barycentric, barycentric_via_stellar, stellar

C = CellId.of


def _sphere(n):
    verts = [f"s{i}" for i in range(n + 1)]
    return from_simplicial([[v for v in verts if v != w] for w in verts])


def _triangle():
    return from_simplicial([("a", "b", "c")])


def _complexes():
    out = {name: make() for name, make in fixtures.FIXTURES.items()}
    out.update({f"simplex{n}": fixtures.simplex(n) for n in range(5)})
    out.update({"sphere3": _sphere(3), "sphere4": _sphere(4),
                "torus4": fixtures.torus(4), "torus3x5": fixtures.torus(3, 5),
                "prism": product(_triangle(), fixtures.edge()),
                "triangle2": product(_triangle(), from_simplicial([("p", "q", "r")]))})
    for name in ("two_triangles", "torus9", "projective_plane", "simplex3"):
        out[f"{name} barycentric"] = barycentric(out[name])[0]
    for name, cell in (("torus9", "h00"), ("torus9", "f11"), ("simplex3", "s0_s1_s2_s3"),
                       ("square", "a*a_b")):
        res, _ = stellar(out[name], C(cell), orient_all_cells(out[name]))
        out[f"{name} stellar {cell}"] = res.complex
    s = out["two_triangles"]
    out["two_triangles tower"] = barycentric_via_stellar(s, simplicial_signs(s)).final
    return out


COMPLEXES = _complexes()


def _ranks(s):
    return {x: s.rank(x) for x in s.cells}


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_built_from_covers_equals_built_from_closed_lists(name):
    s = COMPLEXES[name]
    from_covers = Ccc(_ranks(s), {x: s.covers(x) for x in s.cells})
    assert from_covers == Ccc(_ranks(s), closed_relation(s))
    assert from_covers == s


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_covers_match_the_closure_rule(name):
    s = COMPLEXES[name]
    for x in s.cells:
        assert set(s.covers(x)) == closure_covers(s, x)
    assert covering_pairs(s) == [(y, x) for x in s.cells
                                 for y in sorted(closure_covers(s, x))]


def test_covers_of_an_invalid_poset_skip_ranks():
    # u lies directly below the 2-cell f: a cover that is not a face
    s = Ccc({C("u"): 0, C("v"): 0, C("e"): 1, C("f"): 2},
            {C("e"): [C("v")], C("f"): [C("e"), C("u")]})
    assert set(s.covers(C("f"))) == {C("e"), C("u")}
    assert s.faces(C("f")) == (C("e"),)


@pytest.mark.parametrize("name", ["simplex0", "simplex3", "simplex4", "sphere4",
                                  "two_triangles", "disjoint_triangles"])
def test_from_simplicial_matches_the_subset_order(name):
    s = COMPLEXES[name]
    facets = [x.name.split("_") for x in s.maximal_cells()]
    assert from_simplicial(facets) == Ccc(*simplicial_order(facets))


@pytest.mark.parametrize("left, right", [("edge", "edge"), ("two_triangles", "edge"),
                                         ("simplex2", "simplex2"), ("torus9", "point")])
def test_product_matches_pairs_of_closures(left, right):
    x, y = COMPLEXES[left], COMPLEXES[right]
    assert product(x, y) == Ccc(*product_order(x, y))


@pytest.mark.parametrize("name", ["point", "edge", "two_triangles", "simplex3",
                                  "torus9", "projective_plane", "bad_axiom4"])
def test_barycentric_matches_the_subchain_order(name):
    s = COMPLEXES[name]
    assert barycentric(s)[0] == Ccc(*barycentric_order(s))


@pytest.mark.parametrize("name", ["torus9", "simplex3", "sphere3", "prism"])
def test_stellar_matches_the_described_order(name):
    s = COMPLEXES[name]
    signs = orient_all_cells(s)
    for x in s.cells:
        if s.rank(x):
            assert stellar(s, x, signs)[0].complex == disjoint_stellar_description(s, [x])


def test_constructors_take_no_closures_and_decode_no_labels(count_calls):
    calls = count_calls((Ccc, "closure"), (subdivision, "chain_of_cell"),
                        (subdivision, "permutation_orientation"))
    x = from_simplicial([("a", "b", "c"), ("b", "c", "d")])
    product(x, fixtures.edge())
    assert calls == []
    stellar(x, C("b_c"), orient_all_cells(x))
    assert calls == ["closure"]  # the base of the cone: one open star
    calls.clear()
    barycentric(x)
    assert "chain_of_cell" not in calls and "permutation_orientation" not in calls


def test_relation_that_keeps_or_raises_rank_is_closed_exactly():
    # a names b of its own rank, b names d of a higher rank: a comes first
    # in canonical order but its closure needs b's, and b's needs d's
    a, b, c, d = C("a"), C("b"), C("c"), C("d")
    s = Ccc({a: 1, b: 1, c: 0, d: 2}, {a: [b], b: [d], d: [c]})
    assert s.closure([a]) == {a, b, c, d}
    assert s.closure([b]) == {b, c, d}
    assert s.up_set(c) == {a, b, c, d} and s.up_set(d) == {a, b, d}
    assert s.covers(a) == (b,)
    assert sorted(v.axiom for v in s.validate_axioms().violations
                  if v.axiom == "1") == ["1", "1", "1"]


@pytest.mark.parametrize("relation", [{"a": ["b"], "b": ["a"]}, {"a": ["a"]},
                                      {"a": ["b"], "b": ["c"], "c": ["a"]}])
def test_relation_with_a_cycle_is_refused(relation):
    ranks = {C(x): 0 for x in "abc"}
    with pytest.raises(CoverCycleError):
        Ccc(ranks, {C(x): [C(y) for y in ys] for x, ys in relation.items()})


@st.composite
def _acyclic_relations(draw):
    n = draw(st.integers(1, 8))
    cells = [C(f"c{i}") for i in range(n)]
    ranks = {c: draw(st.integers(0, 3)) for c in cells}
    order = draw(st.permutations(cells))  # pairs point down this order only
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    relation = {c: [] for c in cells}
    for i, j in pairs:
        if i > j:
            relation[order[i]].append(order[j])
    return ranks, relation


@settings(max_examples=60, deadline=None)
@given(_acyclic_relations())
def test_random_acyclic_relations_are_closed_exactly(data):
    ranks, relation = data
    s = Ccc(ranks, relation)
    closed = transitive_closure(relation)
    for x in s.cells:
        assert s.closure([x]) == closed[x] | {x}
        assert s.up_set(x) == {y for y in s.cells if x in closed[y]} | {x}
        assert set(s.covers(x)) == closure_covers(s, x)


_simplices = st.lists(
    st.sets(st.sampled_from(list("abcdef")), min_size=1, max_size=4),
    min_size=1, max_size=4)


@settings(max_examples=25, deadline=None)
@given(_simplices)
def test_random_simplicial_complexes_built_from_covers(simps):
    k = from_simplicial(simps)
    assert k == Ccc(*simplicial_order(simps))
    assert Ccc(_ranks(k), {x: k.covers(x) for x in k.cells}) == k
    bary = barycentric(k)[0]
    assert Ccc(_ranks(bary), {x: bary.covers(x) for x in bary.cells}) == bary
    assert Ccc(_ranks(bary), closed_relation(bary)) == bary
