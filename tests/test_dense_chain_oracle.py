"""The sparse chain layer against the dense one it replaced.

Boundary matrices, homology, cohomology, the homology of closures and of
quotients, and the boundary and coboundary of each cell are recomputed
from dense arrays filled entry by entry (``tests/oracles.py``).  Where the
dense matrices do not compose to zero, as under the unsigned incidences
of ``bad_axiom4``, the library refuses to compute homology.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (dense_boundary_matrices, dense_cohomology, dense_homology, dense_slice,
                     squares_to_zero)

from cellcomplexes import duality, fixtures
from cellcomplexes.chains import (Chain, _homology_of_cells, boundary, chain_complex,
                                  coboundary, cohomology, cohomology_of, homology,
                                  homology_of, relative_homology)
from cellcomplexes.complexes import from_simplicial
from cellcomplexes.errors import NotOrientableError
from cellcomplexes.flags import SignTable, orient_all_cells, simplicial_signs
from cellcomplexes.snf import SparseMatrix, invariant_factors
from cellcomplexes.subdivision import barycentric

COMPLEXES = sorted(fixtures.FIXTURES) + ["simplex 1", "simplex 2", "simplex 3",
                                         "simplex 4", "torus 4", "torus 3 5"]


def _signed(name):
    s = fixtures.fixture(*name.split())
    try:
        signs = orient_all_cells(s)
    except NotOrientableError:  # bad_axiom4: take its unsigned incidences
        signs = SignTable(s, {(x, y): 1 for x in s.cells for y in s.faces(x)})
    return s, signs


def _same_or_refused(got, want, mats):
    """``got()`` is ``want`` when ``mats`` form a chain complex, and
    raises ValueError when one of them composed with the next is not zero."""
    if squares_to_zero(mats):
        assert got() == want
    else:
        with pytest.raises(ValueError, match="does not square to zero"):
            got()


def _check_against_dense(s, signs, quotients=True):
    sizes = [len(s.cells_of_rank(r)) for r in range(s.dim + 1)]
    for augmented in (False, True):
        cc = chain_complex(s, signs, augmented)
        mats = dense_boundary_matrices(s, signs, augmented)
        for i in range(-2, s.dim + 4):
            got = cc.boundary_matrix(i)
            want = mats[i] if 0 <= i <= s.dim else np.zeros(
                (sizes[i - 1] if 1 <= i <= s.dim + 1 else 0, 0), dtype=np.int64)
            assert got.dtype == np.int64 and got.shape == want.shape
            assert (got == want).all()
        _same_or_refused(lambda: homology_of(cc), dense_homology(sizes, mats), mats)
        _same_or_refused(lambda: cohomology_of(cc), dense_cohomology(sizes, mats), mats[1:])
        for x in s.cells:
            closed = s.closure([x])
            for cells in (closed, set(s.cells) - closed) if quotients else (closed,):
                kept, sliced = dense_slice(s, mats, cells)
                _same_or_refused(lambda: _homology_of_cells(cc, cells),
                                 dense_homology(kept, sliced), sliced)
    cc = chain_complex(s, signs)
    mats = dense_boundary_matrices(s, signs)
    for r in range(s.dim + 1):
        for j, x in enumerate(cc.bases[r]):
            unit = Chain(r, {x: 1})
            if r > 0:
                assert boundary(unit, cc) == cc.from_vector(mats[r][:, j], r - 1)
            if r < s.dim:
                assert coboundary(unit, cc) == cc.from_vector(mats[r + 1][j, :], r + 1)


@pytest.mark.parametrize("name", COMPLEXES)
def test_chain_layer_matches_dense_oracle(name):
    s, signs = _signed(name)
    _check_against_dense(s, signs)
    mats = dense_boundary_matrices(s, signs)
    for x in s.cells:
        closed = s.closure([x])
        kept, sliced = dense_slice(s, mats, set(s.cells) - closed)
        _same_or_refused(lambda: relative_homology(s, closed, signs),
                         dense_homology(kept, sliced), sliced)
    if name == "bad_axiom4":  # the unsigned incidences: 3v under x, and v over the empty cell
        with pytest.raises(ValueError, match="the boundary of cell x does not square to zero"):
            homology(s, signs)
        with pytest.raises(ValueError, match="the boundary of cell y1 does not square to zero"):
            homology(s, signs, reduced=True)


@pytest.mark.parametrize("name", COMPLEXES)
def test_subdivided_chain_layer_matches_dense_oracle(name):
    b, signs = barycentric(_signed(name)[0])
    # each quotient of a large subdivision needs a dense SNF of almost all
    # of it, so those are left to the unsubdivided check
    _check_against_dense(b, signs, quotients=len(b) < 250)


_simplices = st.lists(
    st.sets(st.sampled_from(list("abcdef")), min_size=1, max_size=4),
    min_size=1, max_size=5)


@settings(max_examples=30, deadline=None)
@given(_simplices)
def test_random_simplicial_chain_layer_matches_dense_oracle(simps):
    s = from_simplicial([tuple(sorted(x)) for x in simps])
    _check_against_dense(s, simplicial_signs(s))


def test_sparse_matrix_keeps_its_columns():
    columns = [{0: 2, 1: -1}, {1: 3}]
    m = SparseMatrix(2, columns)
    assert m.shape == (2, 2) and m.column_entries() is columns
    assert np.asarray(m).tolist() == [[2, 0], [-1, 3]]
    assert np.asarray(m, dtype=object).dtype == object
    assert invariant_factors(m) == [1, 6]
    assert invariant_factors(SparseMatrix(1, [{0: -1}, {0: 3}])) == [1]
    assert invariant_factors(SparseMatrix(0, [])) == []
    assert np.asarray(SparseMatrix(3, [])).shape == (3, 0)


def test_torus_pipeline_writes_no_dense_matrix(monkeypatch):
    def refuse(self, dtype=None, copy=None):
        raise AssertionError("a dense matrix was written")

    monkeypatch.setattr(SparseMatrix, "__array__", refuse)
    s = fixtures.torus(4)
    signs = orient_all_cells(s)
    assert str(homology(s, signs)) == "Z, Z^2, Z"
    assert str(homology(s, signs, reduced=True)) == "0, Z^2, Z"
    assert str(cohomology(s, signs)) == "Z, Z^2, Z"
    assert str(relative_homology(s, s.closure([s.cells_of_rank(2)[0]]), signs)) == \
        "0, Z^2, Z"
    assert duality.verify_duality(s).passed
    assert duality.stokes_check(s, trials=20).passed
    with pytest.raises(AssertionError, match="dense"):
        chain_complex(s, signs).boundary_matrix(1)
