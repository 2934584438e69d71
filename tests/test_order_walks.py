"""The order is stored as its Hasse diagram and every query walks it.

Each complex is compared with :class:`oracles.BitsetOrder`, which closes
the very relation the constructor handed the core into whole down-sets
and up-sets and reads every query off them: faces, cofaces, covers,
stars, closures, up-sets, comparability, meets, joins, maximal cells,
classification, duals, subcomplexes, equality, chains and the axiom
report.  The relations are the ones every fixture and derived complex is
built from, and relations that are not graded: full down-sets, pairs
named twice, covers that skip ranks, pairs against the rank, and cycles.
"""

from contextlib import contextmanager
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from oracles import BitsetOrder, disjoint_stellar_description

from cellcomplexes import fixtures
from cellcomplexes.cells import EMPTY, CellId
from cellcomplexes.complexes import Ccc, _chain_count, _chains, product
from cellcomplexes.errors import CccError, CoverCycleError, NotManifoldLikeError
from cellcomplexes.fileformat import dumps, loads
from cellcomplexes.flags import SignTable, orient_all_cells
from cellcomplexes.subdivision import barycentric, barycentric_via_stellar, stellar

C = CellId.of


@contextmanager
def _handed():
    """Records, for every complex the core builds in the block, the complex
    and the oracle of the relation it was handed."""
    built = []
    setup = Ccc._setup

    def record(self, labels, ranks, below, signs=None):
        oracle = BitsetOrder(list(labels), list(ranks), [list(b) for b in below])
        out = setup(self, labels, ranks, below, signs)
        built.append((self, oracle))
        return out

    Ccc._setup = record
    try:
        yield built
    finally:
        Ccc._setup = setup


def _sample(n: int, most: int = 40) -> range:
    """Every index when there are few, else a spread of them."""
    return range(0, n, max(1, n // most))


def assert_walks_match(s: Ccc, o: BitsetOrder) -> None:
    n = len(s)
    assert s.cells == o.cells and s._ranks == o.ranks
    assert s._face_ix == tuple(map(o.faces, range(n)))
    assert s._coface_ix == tuple(map(o.cofaces, range(n)))
    assert s._cover_ix == tuple(map(o.covers, range(n)))
    cells = s.cells
    labels = lambda ix: {cells[i] for i in ix}
    some = _sample(n)
    for i in some:
        assert s._star(i) == o.star(i)
        assert s.closure([cells[i]]) == labels(o.closure([i]))
        assert s.up_set(cells[i]) == labels(o.up_set(i))
        for j in some:
            assert s.leq(cells[j], cells[i]) == o.leq(j, i)
    assert s.closure(cells[i] for i in some) == labels(o.closure(some))
    for pair in combinations(_sample(n, 12), 2):
        for mine, theirs in ((s.meet, o.meet), (s.join, o.join)):
            k = theirs(pair)
            assert mine(cells[i] for i in pair) == (None if k is None else cells[k])
    assert s.maximal_cells() == tuple(cells[i] for i in o.maximal())
    assert s.validate_axioms() == o.validate_axioms()
    if not n:
        return
    cls = s.classify()
    assert cls == o.classify()
    if cls.manifold_like:
        d = s.dual()
        assert BitsetOrder.of_complex(d) == o.dual()
    else:
        with pytest.raises(NotManifoldLikeError):
            s.dual()
    for i in some:
        down = sorted(o.closure([i]))
        assert BitsetOrder.of_complex(s.subcomplex(cells[j] for j in down)) == o.subcomplex(down)
        if len(down) > 1:  # leave out one cell below i: not closed
            part = [j for j in down if j != next(k for k in down if k != i)]
            with pytest.raises(ValueError) as got:
                s.subcomplex(cells[j] for j in part)
            with pytest.raises(ValueError) as want:
                o.subcomplex(part)
            assert str(got.value) == str(want.value)
    if o.chain_count() <= 3000:
        assert _chains(s) == o.chains()
    assert _chain_count(s) == o.chain_count()


def _built(make):
    """Every complex ``make()`` builds, with the oracle of its relation."""
    with _handed() as built:
        make()
    assert built
    return built


def _tower(s):
    return barycentric_via_stellar(s, orient_all_cells(s))


SMALL = ["point", "edge", "square", "two_triangles", "tetrahedron_solid",
         "tetrahedron_boundary", "mobius3", "torus9", "projective_plane", "square_pentagon",
         "disjoint_edges", "disjoint_triangles", "bad_axiom4"]

BUILDS = {
    **{name: fixtures.FIXTURES[name] for name in SMALL},
    "simplex3": lambda: fixtures.simplex(3),
    "sphere3": lambda: fixtures.simplex_boundary(3),
    "torus4": lambda: fixtures.torus(4),
    "prism": lambda: product(fixtures.simplex(2), fixtures.edge()),
    "torus9 loaded": lambda: loads(dumps(fixtures.torus9())),
    "torus9 dual": lambda: fixtures.torus9().dual(),
    "tetrahedron_boundary dual": lambda: fixtures.tetrahedron_boundary().dual(),
    "square_pentagon star": lambda: fixtures.square_pentagon().star(C("x")),
    **{f"{name} barycentric": (lambda name=name: barycentric(fixtures.FIXTURES[name]()))
       for name in ("two_triangles", "projective_plane", "bad_axiom4", "mobius3")},
    "simplex3 barycentric": lambda: barycentric(fixtures.simplex(3)),
    **{f"{name} tower": (lambda name=name: _tower(fixtures.FIXTURES[name]()))
       for name in ("two_triangles", "torus9", "projective_plane", "square_pentagon")},
    "simplex3 tower": lambda: _tower(fixtures.simplex(3)),
    "torus9 stellar": lambda: stellar(fixtures.torus9(), C("h00"),
                                      orient_all_cells(fixtures.torus9())),
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_every_core_call_matches_the_bitset_order(name):
    for s, oracle in _built(BUILDS[name]):
        assert_walks_match(s, oracle)


@pytest.mark.parametrize("name", ["two_triangles", "torus9", "projective_plane",
                                  "square_pentagon", "mobius3"])
def test_tower_stages_are_the_described_subdivisions(name):
    # the stages no longer name the apex under cones of positive rank: each
    # is still the subdivision its description gives, and graded
    s = fixtures.FIXTURES[name]()
    tower = _tower(s)
    for stage in tower.stages:
        assert stage.complex == disjoint_stellar_description(s, stage.points)
        assert stage.complex._cover_ix is stage.complex._face_ix
        s = stage.complex


def test_the_apex_is_named_where_a_positive_rank_cell_has_no_face():
    # e has rank 1 and no face: the cone over it reaches the apex only by
    # naming it
    e, f = C("e"), C("f")
    s = Ccc({e: 1, f: 2}, {f: [e]})
    with _handed() as built:
        res, _ = stellar(s, f, SignTable(s, {}))
    (out, oracle), = built
    apex, cone = CellId.cone(f, EMPTY), CellId.cone(f, e)
    assert res.complex is out and out.lt(apex, cone) and out.lt(e, cone)
    assert out == disjoint_stellar_description(s, [f])
    assert_walks_match(out, oracle)


def test_graded_relations_store_one_tuple_for_faces_and_covers():
    for name in SMALL:
        s = fixtures.FIXTURES[name]()
        assert s._cover_ix is s._face_ix and s._cocover_ix is s._coface_ix
    # a full down-set names more than faces, but its covers are the faces
    s = fixtures.torus9()
    full = Ccc({x: s.rank(x) for x in s.cells}, {x: s.closure([x]) - {x} for x in s.cells})
    assert full == s and full._cover_ix is full._face_ix


def test_a_large_subdivision_and_its_homology_fit_in_384_mib(run_capped):
    # 47 292 cells: their bitsets took over 400 MiB, and the build raised
    # MemoryError under this cap
    proc = run_capped("from cellcomplexes import fixtures\n"
                      "from cellcomplexes.chains import chain_complex, homology_of\n"
                      "from cellcomplexes.subdivision import barycentric\n"
                      "s, signs = barycentric(fixtures.fixture('simplex_boundary', 6))\n"
                      "print(len(s), homology_of(chain_complex(s, signs)).betti)\n",
                      cap=384 << 20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "47292 (1, 0, 0, 0, 0, 1)\n"


def test_no_bitset_is_stored():
    s = fixtures.torus9()
    assert not {"_below", "_above"} & set(Ccc.__slots__)
    assert all(isinstance(v, tuple) for v in (s._face_ix, s._coface_ix, s._cover_ix,
                                                s._cocover_ix))


# -- relations that are not graded -----------------------------------------


def _relation_of(s: Ccc):
    """The cells, ranks and covers of ``s`` by position."""
    at = s._index
    return list(s.cells), [s.rank(x) for x in s.cells], [[at[y] for y in s.covers(x)]
                                                         for x in s.cells]


@st.composite
def _relations(draw):
    """A fixture's covers or a random relation over up to eight cells, with
    pairs dropped, named twice, added across ranks, added against the
    rank, and now and then one pair that may close a cycle."""
    if draw(st.booleans()):
        labels, ranks, below = _relation_of(fixtures.FIXTURES[draw(st.sampled_from(SMALL[:10]))]())
    else:
        n = draw(st.integers(1, 8))
        labels = [C(f"c{k}") for k in range(n)]
        ranks = [draw(st.integers(0, 3)) for _ in labels]
        below = [[] for _ in labels]
    n = len(labels)
    order = draw(st.permutations(range(n)))  # added pairs point down this order only
    below = [[j for j in b if draw(st.integers(0, 9))] for b in below]  # drop about 1 in 10
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=6)):
        if order.index(i) > order.index(j):
            below[i].append(j)
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):  # pairs named twice
        if below[i]:
            below[i].append(below[i][0])
    if draw(st.integers(0, 4)) == 0:
        below[draw(st.integers(0, n - 1))].append(draw(st.integers(0, n - 1)))
    return labels, ranks, below


def _build(labels, ranks, below):
    return Ccc.__new__(Ccc)._setup(list(labels), list(ranks), [list(b) for b in below])[0]


@settings(max_examples=200, deadline=None)
@given(_relations())
def test_any_relation_matches_the_bitset_order(data):
    try:
        oracle = BitsetOrder(*data)
    except CoverCycleError as e:
        with pytest.raises(CoverCycleError) as got:
            _build(*data)
        assert str(got.value) == str(e)
        return
    assert_walks_match(_build(*data), oracle)


@settings(max_examples=100, deadline=None)
@given(_relations(), _relations())
def test_equal_orders_are_equal_complexes(a, b):
    try:
        oa, ob = BitsetOrder(*a), BitsetOrder(*b)
    except CoverCycleError:
        return
    assert (_build(*a) == _build(*b)) == (oa == ob)
    # the same order from its full down-sets
    full = [[j for j in oa.closure([i]) if j != i] for i in range(len(oa.cells))]
    assert _build(oa.cells, oa.ranks, full) == _build(*a)


@pytest.mark.parametrize("name", SMALL)
def test_full_down_sets_and_doubled_pairs_build_the_same_order(name):
    s = fixtures.FIXTURES[name]()
    labels, ranks, below = _relation_of(s)
    o = BitsetOrder(labels, ranks, below)
    full = [sorted(o.closure([i]) - {i}) for i in range(len(labels))]
    doubled = [b + b for b in below]
    for relation in (full, doubled):
        t = _build(labels, ranks, relation)
        assert t == s
        assert_walks_match(t, BitsetOrder(labels, ranks, relation))


def test_rank_skipping_and_rank_raising_pairs_match_the_bitset_order():
    u, v, e, f, a, b = map(C, "uvefab")
    cases = [
        ({u: 0, v: 0, e: 1, f: 2}, {e: [v], f: [e, u]}),  # u < f skips rank 1
        ({v: 0, f: 10 ** 7}, {f: [v]}),  # far apart ranks
        ({a: 1, b: 1, u: 0, f: 2}, {a: [b], b: [f], f: [u]}),  # against the rank
        ({a: 1, b: 1}, {b: [a]}),  # same rank
    ]
    for ranks, relation in cases:
        with _handed() as built:
            Ccc(ranks, relation)
        (s, oracle), = built
        assert s._cover_ix is not s._face_ix
        assert_walks_match(s, oracle)


@pytest.mark.parametrize("relation", [{"a": ["b"], "b": ["a"]}, {"a": ["a"]},
                                      {"a": ["b"], "b": ["c"], "c": ["a"]},
                                      {"a": ["b", "c"], "c": ["b", "a"]}])
def test_cycles_raise_the_oracle_error(relation):
    labels = [C(x) for x in "abc"]
    at = {x: k for k, x in enumerate("abc")}
    below = [[at[y] for y in relation.get(x, [])] for x in "abc"]
    with pytest.raises(CoverCycleError) as want:
        BitsetOrder(labels, [0, 0, 0], below)
    with pytest.raises(CoverCycleError) as got:
        _build(labels, [0, 0, 0], below)
    assert str(got.value) == str(want.value)


def test_label_collisions_raise_before_cycles():
    with pytest.raises(CccError, match="labels collide: a names two cells"):
        _build([C("a"), C("a")], [0, 0], [[1], [0]])
