"""Sign tables keep one tuple of signs per cell, aligned with its face
indices; labels appear only in the views built on demand.

``SignTable.signs`` is a mutable view keyed by label pairs: writes reach
``s`` and every chain complex built afterwards, a sign other than +-1 or
a pair that is not an incidence raises ValueError, and orienting and
assembling a chain complex hash no label beyond the vertex signs.
"""

import re

import pytest

from cellcomplexes import fixtures
from cellcomplexes.cells import CellId
from cellcomplexes.chains import chain_complex, cohomology, homology
from cellcomplexes.duality import dual_orientations
from cellcomplexes.errors import MissingSignError
from cellcomplexes.flags import SignTable, orient_all_cells, simplicial_signs
from cellcomplexes.subdivision import barycentric, barycentric_via_stellar, stellar

C = CellId.of


@pytest.fixture
def torus3():
    s = fixtures.torus(3)
    return s, orient_all_cells(s)


def named(pair) -> str:
    """A pattern for an error message that names ``pair``."""
    return re.escape(f"({pair[0]}, {pair[1]})")


def _canonical_pairs(s):
    return [(x, y) for x in s.cells for y in s.faces(x)]


def test_signs_view_lists_every_pair_in_canonical_order(torus3):
    s, table = torus3
    assert list(table.signs) == _canonical_pairs(s)
    assert len(table.signs) == 72
    assert [v for _, v in table.signs.items()] == [table.s(x, y) for x, y in table.signs]
    assert table.signs == dict(table.signs.items())


def test_library_tables_iterate_in_canonical_order():
    s = fixtures.simplex_boundary(4)
    table = orient_all_cells(s)
    tables = [table, simplicial_signs(s), barycentric(s)[1], stellar(s, s.cells[-1], table)[1],
              dual_orientations(s).signs, dual_orientations(s).dual_signs]
    tables += [stage.signs for stage in barycentric_via_stellar(s, table).stages]
    for t in tables:
        assert list(t.signs) == _canonical_pairs(t.complex)


def test_a_sign_that_is_not_a_unit_is_rejected(torus3):
    s, table = torus3
    pair = _canonical_pairs(s)[30]
    for bad in (2, 0, -3, 0.5):
        with pytest.raises(ValueError, match=named(pair)):
            SignTable(s, {**table.signs, pair: bad})
        with pytest.raises(ValueError, match=named(pair)):
            table.signs[pair] = bad
    assert table.signs == orient_all_cells(s).signs
    assert str(homology(s, table)) == "Z, Z^2, Z"


def test_a_pair_that_is_not_an_incidence_is_rejected(torus3):
    s, table = torus3
    vertex, face = s.cells_of_rank(0)[0], s.cells_of_rank(2)[0]
    edge = s.faces(face)[0]
    for pair in ((vertex, face), (face, vertex), (edge, face), (face, C("nowhere")),
                 (C("nowhere"), vertex)):
        with pytest.raises(ValueError, match=named(pair)):
            SignTable(s, {**table.signs, pair: 1})
        with pytest.raises(ValueError, match=named(pair)):
            table.signs[pair] = 1
        assert pair not in table.signs
    with pytest.raises(ValueError, match="not a pair of cells"):
        table.signs[(face,)] = 1
    assert len(table.signs) == 72


@pytest.mark.parametrize("bad", [0, 5, -3, 0.5])
def test_a_vertex_sign_that_is_not_a_unit_is_rejected(torus3, bad):
    s, table = torus3
    v = s.cells_of_rank(0)[0]
    with pytest.raises(ValueError, match=re.escape(f"the sign of the vertex {v} is {bad!r}")):
        SignTable(s, table.signs, {v: bad})


@pytest.mark.parametrize("rank", [1, 2, None])  # an edge, a square, no cell
def test_a_vertex_sign_on_what_is_not_a_vertex_is_rejected(torus3, rank):
    s, table = torus3
    key = C("zz") if rank is None else s.cells_of_rank(rank)[0]
    with pytest.raises(ValueError, match=re.escape(f"{key} is not a vertex of the complex")):
        SignTable(s, table.signs, {key: -1})


def test_a_vertex_sign_is_stored_as_an_int(torus3):
    s, table = torus3
    v, w = s.cells_of_rank(0)[:2]
    kept = SignTable(s, table.signs, {v: 1.0, w: -1.0})
    assert kept.vertex_signs == {**table.vertex_signs, w: -1}
    assert {type(e) for e in kept.vertex_signs.values()} == {int}


def test_a_single_label_is_not_a_pair():
    # a name label is the two-item tuple (1, name), yet it names no pair
    s = fixtures.torus9()
    table = orient_all_cells(s)
    h00 = C("h00")
    assert h00 in s and len(h00) == 2
    message = re.escape("h00 is not a pair of cells")
    with pytest.raises(ValueError, match=message):
        SignTable(s, {h00: 1})
    with pytest.raises(ValueError, match=message):
        table.signs[h00] = 1
    with pytest.raises(KeyError):
        table.signs[h00]
    with pytest.raises(KeyError):
        del table.signs[h00]
    assert h00 not in table.signs and table.signs == orient_all_cells(s).signs


def test_pairs_are_any_two_cells(torus3):
    s, table = torus3
    x = s.cells_of_rank(2)[0]
    y = s.faces(x)[0]
    v = table.signs[(x, y)]
    assert table.signs[[x, y]] == table.signs[iter((x, y))] == v
    table.signs[[x, y]] = -v
    assert table.s(x, y) == -v
    assert SignTable(s, dict(table.signs)).signs == table.signs


def test_writes_reach_s_and_later_chain_complexes(torus3):
    s, table = torus3
    before = chain_complex(s, table)
    x = s.cells_of_rank(2)[0]
    y = s.faces(x)[0]
    table.signs[(x, y)] = -table.signs[(x, y)]
    assert table.s(x, y) == -1 and table.signs[(x, y)] == -1
    after = chain_complex(s, table)
    assert after.images[x][y] == -1 and before.images[x][y] == 1
    col = after.sparse_boundary(2).column_entries()[0]
    assert col[s.cells_of_rank(1).index(y)] == -1
    assert str(homology(s, table)) != "Z, Z^2, Z"
    table.signs[(x, y)] = 1
    assert str(homology(s, table)) == "Z, Z^2, Z"


def test_derived_tables_keep_their_own_signs(torus3):
    s, table = torus3
    canonical = dict(table.signs)
    pair = _canonical_pairs(s)[-1]
    for derived in (table.restrict(s), table.flipped(()), SignTable(s, table.signs)):
        derived.signs[pair] = -canonical[pair]
        assert table.signs == canonical
        derived.signs[pair] = canonical[pair]
        table.signs[pair] = -canonical[pair]
        assert derived.signs == canonical
        table.signs[pair] = canonical[pair]


def test_a_deleted_sign_is_missing(torus3):
    s, table = torus3
    x, y = _canonical_pairs(s)[40]
    del table.signs[(x, y)]
    assert (x, y) not in table.signs and len(table.signs) == 71
    with pytest.raises(KeyError):
        del table.signs[(x, y)]
    with pytest.raises(MissingSignError, match="no sign for the pair " + named((x, y))):
        table.s(x, y)
    with pytest.raises(MissingSignError, match="no sign for the pair " + named((x, y))):
        chain_complex(s, table)
    with pytest.raises(MissingSignError):
        table.restrict(s.closure_complex(x))


def test_orienting_and_homology_hash_no_labels(monkeypatch):
    s = fixtures.torus(8)
    calls = []
    original = CellId.__hash__

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(CellId, "__hash__", counting)
    table = orient_all_cells(s)
    h, coh = homology(s, table), cohomology(s, table)
    monkeypatch.undo()
    assert (str(h), str(coh)) == ("Z, Z^2, Z", "Z, Z^2, Z")
    assert len(calls) <= len(s)
