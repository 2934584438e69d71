import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import sympy_invariant_factors

from cellcomplexes import fixtures
from cellcomplexes.chains import chain_complex
from cellcomplexes.errors import NotOrientableError
from cellcomplexes.flags import SignTable, orient_all_cells
from cellcomplexes.snf import (
    invariant_factors,
    kernel_basis,
    matmul,
    matrix_rank,
    smith_normal_form,
    solve_columns,
)
from cellcomplexes.subdivision import barycentric


def _check_decomposition(mat):
    snf = smith_normal_form(mat)
    m, n = len(mat), len(mat[0]) if mat else 0
    prod = matmul(matmul(snf.u, [list(map(int, r)) for r in mat]), snf.v)
    for i in range(m):
        for j in range(n):
            want = snf.diagonal[i] if i == j and i < len(snf.diagonal) else 0
            assert prod[i][j] == want
    eye_m = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    eye_n = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert matmul(snf.u, snf.u_inv) == eye_m
    assert matmul(snf.v_inv, snf.v) == eye_n
    nz = [d for d in snf.diagonal if d]
    assert all(d > 0 for d in nz)
    assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
    assert snf.diagonal[len(nz):] == [0] * (len(snf.diagonal) - len(nz))
    return snf


def test_diagonal_pair():
    assert smith_normal_form([[2, 0], [0, 3]]).diagonal == [1, 6]


def test_zero_matrix():
    snf = smith_normal_form([[0, 0], [0, 0], [0, 0]])
    assert snf.rank == 0 and snf.diagonal == [0, 0]


def test_rank_one():
    snf = smith_normal_form([[1, 1], [1, 1]])
    assert snf.diagonal == [1, 0] and snf.rank == 1


def test_empty_shapes():
    assert smith_normal_form([]).diagonal == []
    assert smith_normal_form([[], []]).diagonal == []
    # an array without rows keeps its columns
    snf = smith_normal_form(np.zeros((0, 3), dtype=int))
    assert snf.v == snf.v_inv == [[1, 0, 0], [0, 1, 0], [0, 0, 1]] and snf.rank == 0


def test_known_dense_case():
    snf = _check_decomposition([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert snf.diagonal == [2, 2, 156]


def test_negative_entries():
    snf = _check_decomposition([[-2, 0], [0, -3]])
    assert snf.diagonal == [1, 6]


def test_kernel_basis():
    mat = [[1, 1, 0], [0, 1, 1]]
    kb = kernel_basis(mat)
    assert len(kb) == 1
    v = kb[0]
    assert [sum(r[i] * v[i] for i in range(3)) for r in mat] == [0, 0]
    # with no rows, or a zero row, every vector is in the kernel
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert kernel_basis(np.zeros((0, 3), dtype=int)) == kernel_basis([[0, 0, 0]]) == eye


def test_solve_columns_round_trip():
    basis = [[1, 0, 2], [0, 1, 1]]
    target = [[3, -1], [2, 4], [8, 2]]  # 3x2: columns 3*b0+2*b1 and -b0+4*b1
    coords = solve_columns(basis, target)
    assert coords == [[3, -1], [2, 4]]


def test_solve_columns_rejects_outside_span():
    with pytest.raises(ArithmeticError):
        solve_columns([[2, 0], [0, 2]], [[1], [1]])


def _matrices(entries, max_side=12):
    return st.integers(1, max_side).flatmap(
        lambda m: st.integers(1, max_side).flatmap(
            lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                               min_size=m, max_size=m)))


_small_matrices = _matrices(st.integers(-9, 9), max_side=5)


@settings(max_examples=60, deadline=None)
@given(_small_matrices)
def test_random_matrices_match_sympy(mat):
    snf = _check_decomposition(mat)
    assert sorted(d for d in snf.diagonal if d) == sympy_invariant_factors(mat)


@settings(max_examples=30, deadline=None)
@given(_small_matrices)
def test_random_kernels_annihilate(mat):
    kb = kernel_basis(mat)
    arr = np.array(mat, dtype=object)
    assert len(kb) == len(mat[0]) - matrix_rank(mat)
    for v in kb:
        assert not any(arr @ np.array(v, dtype=object))


def test_invariant_factors_drop_zeros():
    assert invariant_factors([[2, 0], [0, 0]]) == [2]


# -- the transform-free engine against the dense one and sympy -------------


def _dense_factors(mat):
    return [d for d in smith_normal_form(mat).diagonal if d]


_ENTRIES = {
    "units": st.sampled_from([0, 0, 1, -1]),
    "integers": st.integers(-9, 9),
    "even": st.integers(-4, 4).map(lambda x: 2 * x),  # no unit: remainder only
}


@pytest.mark.parametrize("kind", sorted(_ENTRIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_invariant_factors_match_oracles(kind, data):
    mat = data.draw(_matrices(_ENTRIES[kind]))
    f = invariant_factors(mat)
    assert all(d > 0 for d in f)
    assert all(f[i + 1] % f[i] == 0 for i in range(len(f) - 1))
    assert f == sympy_invariant_factors(mat)
    assert f == _dense_factors(mat)
    assert invariant_factors(np.array(mat, dtype=np.int64)) == f
    assert matrix_rank(mat) == smith_normal_form(mat).rank


def test_invariant_factors_of_empty_shapes():
    assert invariant_factors([]) == []
    assert invariant_factors([[], []]) == []
    assert invariant_factors(np.zeros((0, 4), dtype=np.int64)) == []
    assert invariant_factors(np.zeros((3, 0), dtype=np.int64)) == []


def test_invariant_factors_keep_big_entries_exact():
    big = 2 ** 70
    assert invariant_factors([[big, 0], [0, 2 * big]]) == [big, 2 * big]
    assert invariant_factors([[1, big], [big, 1]]) == [1, big * big - 1]


def _fixture_tables(name):
    s = fixtures.fixture(name)
    try:
        signs = orient_all_cells(s)
    except NotOrientableError:  # bad_axiom4: take its unsigned incidences
        signs = SignTable(s, {(x, y): 1 for x in s.cells for y in s.faces(x)})
    return [(s, signs), barycentric(s)]


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_fixture_boundaries_match_dense_engine(name):
    for s, signs in _fixture_tables(name):
        for augmented in (False, True):
            cc = chain_complex(s, signs, augmented)
            for r in range(s.dim + 1):
                m = cc.boundary_matrix(r)
                for mat in (m, m.T):
                    assert invariant_factors(mat) == _dense_factors(mat.tolist())
