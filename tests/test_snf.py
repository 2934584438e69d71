from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import looped_smith_normal_form, sympy_invariant_factors

from cellcomplexes import chains, fixtures, snf
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


@pytest.mark.parametrize("mat, bad", [([[1], [2, 3]], 1), ([[1, 2], [3]], 1),
                                      ([[1, 2], [3, 4], []], 2)])
def test_ragged_rows_are_rejected(mat, bad):
    n = len(mat[0])
    message = f"row {bad} has {len(mat[bad])} entries, not {n}"
    for fn in (smith_normal_form, kernel_basis):
        with pytest.raises(ValueError) as info:
            fn(mat)
        assert str(info.value) == message
    with pytest.raises(ValueError):
        invariant_factors(mat)


_BIG = 2 ** 70


@pytest.mark.parametrize("mat", [
    [], [[], []], np.zeros((0, 3), dtype=np.int64), np.zeros((3, 0), dtype=np.int64),
    np.zeros((0, 0), dtype=np.int64), [[_BIG, 0], [0, -_BIG]], [[1, _BIG], [_BIG, 1]],
    [[2 * _BIG, -3 * _BIG, 5], [_BIG, 7, -_BIG]], np.array([[4, 6, 0], [6, 9, 3]]),
])
def test_engine_matches_looped_oracle(mat):
    assert repr(smith_normal_form(mat)) == repr(looped_smith_normal_form(mat))


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


@pytest.mark.parametrize("basis, target, message", [
    ([[1, 0], [0, 1, 7]], [[1], [0]], "basis column 1 has 3 entries, not 2"),
    ([[1, 0], [0]], [[1], [0]], "basis column 1 has 1 entries, not 2"),
    ([[1, 0], [0, 1]], [[1], [0, 3]], "target row 1 has 2 entries, not 1"),
    ([[1, 0], [0, 1]], [[1], [0], [5]], "target has 3 rows, not 2"),
])
def test_solve_columns_rejects_ragged_input(basis, target, message):
    # a long column or row would otherwise be cut short, a short one fail on indexing
    with pytest.raises(ValueError, match=message):
        solve_columns(basis, target)


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
    # the same pivots and operations as the looped engine, on lists with
    # entries beyond int64 and on arrays
    assert repr(snf) == repr(looped_smith_normal_form(mat))
    assert repr(smith_normal_form(np.array(mat))) == repr(snf)
    big = [[x << 70 if abs(x) == 9 else x for x in row] for row in mat]
    assert repr(smith_normal_form(big)) == repr(looped_smith_normal_form(big))


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


def test_unit_pivots_alone_take_no_dense_smith_form(count_calls):
    calls = count_calls((snf, "smith_normal_form"))
    s = fixtures.torus(4)
    cc = chain_complex(s, orient_all_cells(s))
    for i in range(s.dim + 2):
        m = cc.sparse_boundary(i)
        before = [dict(c) for c in m.column_entries()]
        f = invariant_factors(m)
        assert invariant_factors(m) == f and all(d == 1 for d in f)
        assert m.column_entries() == before  # the elimination works on copies
    assert calls == []
    assert invariant_factors([[1, 0], [0, 2]]) == [1, 2]
    assert invariant_factors([[0, 0]]) == []
    assert calls == ["smith_normal_form"]  # only the remainder [[2]]


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
                    assert repr(smith_normal_form(mat)) == repr(looped_smith_normal_form(mat))


# -- one reader for every matrix ---------------------------------------------


def _sparse(mat, n):
    return snf.SparseMatrix(len(mat), [{i: row[j] for i, row in enumerate(mat) if row[j]}
                                       for j in range(n)])


@settings(max_examples=40, deadline=None)
@given(_small_matrices)
def test_every_form_of_a_matrix_gives_the_same_results(mat):
    n = len(mat[0])
    big = [[x << 70 if abs(x) == 9 else x for x in row] for row in mat]  # past int64
    for m, forms in [(mat, [mat, np.array(mat, dtype=np.int64), _sparse(mat, n)]),
                     (big, [big, np.array(big, dtype=object), _sparse(big, n)])]:
        want = looped_smith_normal_form(m)
        factors = sympy_invariant_factors(m)
        kernel = [[want.v[i][j] for i in range(n)] for j in range(want.rank, n)]
        for form in forms:
            assert repr(smith_normal_form(form)) == repr(want)
            assert invariant_factors(form) == factors
            assert matrix_rank(form) == len(factors)
            assert kernel_basis(form) == kernel


@settings(max_examples=40, deadline=None)
@given(_small_matrices, st.data())
def test_solve_columns_reads_lists_and_arrays_alike(mat, data):
    v = looped_smith_normal_form(mat).v  # unimodular: its columns span saturated lattices
    n = len(v)
    k = data.draw(st.integers(0, n))
    basis = [[v[i][j] for i in range(n)] for j in range(k)]
    coords = data.draw(st.lists(st.lists(st.integers(-5, 5), min_size=k, max_size=k),
                                max_size=3))  # one list per target column
    target = [[sum(c[j] * basis[j][i] for j in range(k)) for c in coords] for i in range(n)]
    want = [[c[j] for c in coords] for j in range(k)]
    for dtype in (np.int64, object):
        arrays = (np.array(basis, dtype=dtype).reshape(k, n),
                  np.array(target, dtype=dtype).reshape(n, len(coords)))
        assert solve_columns(*arrays) == want
    assert solve_columns(basis, target) == want


@pytest.mark.parametrize("fn, args, message", [
    (invariant_factors, ([[0.5]],), "row 0"),
    (matrix_rank, ([[0.5, 1]],), "row 0"),
    (kernel_basis, ([[0.5, 1]],), "row 0"),
    (smith_normal_form, ([[1.5]],), "row 0"),
    (invariant_factors, ([["2"]],), "row 0"),
    (solve_columns, ([[1, 0]], [[0.5], [0]]), "target row 0"),
])
def test_non_integer_entries_are_refused(fn, args, message):
    # each of these read an entry as something else: an answer, not an error
    with pytest.raises(ValueError) as info:
        fn(*args)
    assert str(info.value) == f"{message} has an entry that is not an integer"


@pytest.mark.parametrize("x", [0.5, "2", Fraction(1, 2), None], ids=repr)
def test_each_entry_point_names_the_row_of_a_non_integer(x):
    mat = [[1, 0, 2], [3, x, 1]]
    for fn in (smith_normal_form, invariant_factors, matrix_rank, kernel_basis):
        for form in (mat, np.array(mat, dtype=object)):
            with pytest.raises(ValueError, match="^row 1 has an entry that is not an integer$"):
                fn(form)
    with pytest.raises(ValueError, match="^basis column 1 has an entry that is not an integer$"):
        solve_columns([[1, 0], [x, 1]], [[1], [0]])
    with pytest.raises(ValueError, match="^target row 1 has an entry that is not an integer$"):
        solve_columns([[1, 0], [0, 1]], [[1], [x]])


def test_integral_floats_and_bools_read_as_ints():
    assert repr(smith_normal_form([[2.0, True]])) == repr(smith_normal_form([[2, 1]]))
    assert invariant_factors([[2.0, 0], [0, 4.0]]) == invariant_factors(np.array([[2.0, 0], [0, 4]]))
    assert invariant_factors([[2.0, 0], [0, 4.0]]) == [2, 4]
    assert kernel_basis([[True, True]]) == kernel_basis([[1, 1]])


def test_invariant_factors_name_a_ragged_row():
    with pytest.raises(ValueError) as info:
        invariant_factors([[1], [2, 3]])
    assert str(info.value) == "row 1 has 2 entries, not 1"


def test_free_cycle_generators_hand_over_the_sparse_boundary(monkeypatch):
    seen = []

    def recording(matrix):
        seen.append(type(matrix))
        return smith_normal_form(matrix)

    monkeypatch.setattr(chains, "smith_normal_form", recording)
    s = fixtures.torus(3)
    cc = chain_complex(s, orient_all_cells(s))
    assert len(chains.free_cycle_generators(cc, 1)) == 2
    assert seen[0] is snf.SparseMatrix  # the boundary, not a dense copy of it


def test_smith_normal_form_of_a_sparse_matrix_is_that_of_its_array():
    # the array keeps the columns of a boundary without rows, as the sparse form does
    s = fixtures.torus(3)
    cc = chain_complex(s, orient_all_cells(s), augmented=True)
    for i in range(-1, s.dim + 3):
        m = cc.sparse_boundary(i)
        want = repr(looped_smith_normal_form(np.asarray(m)))
        assert repr(smith_normal_form(m)) == repr(smith_normal_form(np.asarray(m))) == want
